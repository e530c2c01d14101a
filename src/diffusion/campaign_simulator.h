// One Monte-Carlo realization of the multi-promotion diffusion process of
// Sec. III, with the dynamic factors of Sec. V-A applied after every step.
//
// Process per promotion t:
//   ζ_t = 0: seeds (u,x,t) adopt x (if not yet adopted) and become the
//            frontier; perception weights update.
//   ζ_t ≥ 1: every (u', x) in the frontier promotes x to each out-neighbor
//            u that has not adopted x. Adoption fires with probability
//            Pact(u',u) * Ppref(u,x) (IC) or via accumulated-threshold (LT).
//            Being promoted x also triggers extra adoptions of relevant
//            items y with probability Pext (item associations), flipped
//            independently; only items with complementary relevance to x
//            can have Pext > 0, so only those are visited
//            (kg::RelevanceModel::ComplementItems). Adoptions commit at
//            the end of the step; then the adopters' meta-graph
//            weightings update (which implicitly updates preferences,
//            influence strengths and associations for the next step — the
//            ripple effect).
//   The promotion ends when a step produces no adoption; then t+1 starts
//   from the resulting state.
//
// All coin flips are counter-based hashes, so realizations are
// reproducible and common across seed-group variations. With sseed =
// HashTuple(base_seed, sample_idx), an adoption flip hashes
// (sseed, purpose, t, ζ, u', u, x), an extra-adoption flip appends the
// associated item y, and an LT threshold hashes (sseed, purpose, u, x).
// HashTuple is a left fold, so the simulator hashes shared leading
// coordinates once — (sseed, purpose, t, ζ) per step, then
// (…, u', u, x) per promotion — and extends the prefix per coin
// (HashExtend); the hashed values are exactly those of the full tuples.
// Two keyings exist (CoinKeying). kRound, the historical one, hashes
// (round, step) into every flip as above. kAttempt, for adaptive racing,
// hashes a fixed out-of-range round key and the per-(user,item) attempt
// ordinal in place of (t, ζ). Every draw still hashes a
// distinct input — the joint coin distribution is exactly the historical
// measure, so attempt-keyed σ̂ samples are unbiased — but a time-shifted
// cascade's k-th attempt on a pair lands on the same coin in every racing
// candidate, so paired differences collapse to the genuine timing/
// interaction signal. (With round-keyed coins a one-round shift re-rolls
// every flip and the difference variance is as large as σ's own.)
// Attempt keying is a race-internal coupling device only: reported σ̂ and
// every fixed-count estimate come from round-keyed coins, because adding
// a seed shifts the attempt ordinals and breaks the pairing that
// set-addition differences (the nominee greedy) rely on — see README
// "Variance-adaptive evaluation" for the measurement.
//
// Fast path: the per-sample state lives in a reusable SimScratch arena —
// flat epoch-stamped arrays instead of per-sample hash containers, user
// states reset in place instead of reconstructed — and the simulation
// core runs an arbitrary promotion range [t_begin, t_end] on top of that
// state. Because every coin flip is a pure hash of its event coordinates
// (never of history), the state at a promotion boundary is a function of
// the seeds scheduled at earlier promotions only; SampleCheckpoint freezes
// that boundary state so a later evaluation that shares the earlier rounds
// can resume instead of re-simulating them (MonteCarloEngine::
// CheckpointedEval). Both paths are bit-identical to a from-scratch run:
// the exact same floating-point operations happen in the exact same order,
// merely split across calls.
//
// Every realization begins at the problem start: each user's start
// adoptions (Problem::start_adopted, empty for a catalog problem) and
// Wmeta0(u). Adaptive replanning starts a problem at an observed state
// (Problem::StartedAt) rather than overriding the start here.
//
// Sparse state: a user's state changes only when the user adopts, and a
// cascade usually reaches a small part of |V|. So a realization is its
// start state plus the users it changed: the arena lists them as they
// first adopt, a reset from the start restores just those (one full reset
// only when the arena's last start was another simulator's), and a
// checkpoint stores just those, as ids plus states.
//
// Start perception: a user's meta-graph weighting changes only when the
// user adopts, so a user with no adoption still holds Wmeta0(u). For such
// a target the association sweep reads each net relevance r^C − r^S from
// the problem's StartPerceptionTable (diffusion/start_perception.h),
// shared by every simulator of the problem and filled by the first,
// instead of running RelNet over the M metas; with nothing adopted there
// is no item to skip either. Every other target computes RelNet. Both
// feed one Pext formula (pin::AssociationModel::ExtraProb) and the table
// holds RelNet's own results, so the coins and their outcomes are
// unchanged bit for bit.
//
// Base replay: a promotion attempt — frontier entry (u', x) at (t, ζ)
// walking one out-edge to u — makes its try-to-adopt calls as a pure
// function of (sample, t, ζ, u', u, x) and the states of u' and u at the
// step start, and a step's weight update of an adopter is a pure function
// of the adopter's state before the step and its batch. A ReplayLog of a
// *base* realization of the same sample (recorded by another
// SimulateRounds) holds, per step, the entries walked, their calls in
// edge order, the commit batch, and each adopter's weighting after the
// update. A user is *clean* while each of its per-step adoption batches
// equals the base's (equal batches from equal states give equal states);
// it turns dirty at the first step where they differ, or where the base
// had a step this realization skipped, and stays dirty. Then:
//   * Walk. Each source keeps the sorted slots of its out-edges whose
//     targets are dirty (filed through graph::SocialGraph::InEdgeSlots
//     when the target turns dirty). An entry the base also had at this
//     (t, ζ), from a clean src, merges in edge order the base's logged
//     calls at clean targets with the full attempts at its dirty
//     out-edges; a dirty target's logged calls are dropped. The queued
//     calls come in exactly the order a full walk makes them, and the
//     walk costs the entry's calls plus its dirty out-edges, not its
//     degree. Every other entry walks all its out-edges.
//   * Weights. After the commit syncs the clean set, an adopter still
//     clean had the base's state and batch, so its update is the base's:
//     its logged weighting is copied instead of running UpdateWeights.
// The commit loop, σ accumulation and every read-out run as always, so a
// replayed realization is the from-scratch one bit for bit. Replay and
// recording are for round-keyed IC only: an LT attempt's outcome depends
// on threshold mass other srcs accumulated, and attempt keying renumbers
// coins across schedules.
//
// Coins first: a coin whose uniform draw lies at or above its
// probability changes nothing, so the probability only has to be bounded
// from above, and because a coin is a pure hash of its coordinates it can
// be drawn before the math that computes it. Three bounds:
//   Pact  ≤ InfluenceModel::Bound(w)     = clip(w·(1+act_gain), 0, act_cap)
//                                          (clip(w, 0, act_cap) when
//                                          act_gain ≤ 0)
//   Ppref ≤ PreferenceModel::Bound(u, b) = clip01(b + pref_gain) for an
//                                          adopter with pref_gain > 0,
//                                          else clip01(b)
//   net   ≤ RelevanceModel::ComplementBounds(x)[k]
//         = clip01(Σ_{complementary m} max(0, s(x,y|m)))
// Each bound is the exact formula with its state-dependent operand
// replaced by that operand's maximum (similarity 1, mean net relevance 1,
// weights 1), evaluated with the same operations in the same order, and
// a thresholded value multiplies them in the exact formula's order:
// p_hi = Pact_hi·Ppref_hi, pe_hi = ((assoc_scale·Pact_hi)·Ppref_hi)·net_hi.
// IEEE rounding is monotone (a ≤ a' ⇒ fl(a ∘ b) ≤ fl(a' ∘ b) for + and for
// · on non-negative operands; clips are monotone), so every bound
// dominates the exact value bit for bit, and a draw at or above it loses
// the exact comparison too. Hence:
//   * The association sweep (round-keyed, IC and LT) hashes y's coin
//     first and reads the net relevance (table or RelNet) and computes
//     Pext only when the draw is below ((assoc_scale·Pact)·Ppref)·bound.
//   * A round-keyed IC attempt draws its adoption coin and its y coins
//     against p_hi and pe_hi before anything else; when none falls below,
//     the attempt skips Similarity, the preference and the sweep
//     (counted in KernelWork::attempts_bounded). Otherwise the exact path
//     reuses the drawn coins.
// The whole-attempt skip is limited to where drawing a coin has no side
// effect. LT adds every attempt's exact Pact·Ppref to a threshold
// accumulator, so it keeps that work and gets only the sweep change.
// Attempt-keyed racing coins advance the pair's attempt ordinal only for
// a coin with p > 0, so drawing one early would renumber the rest; that
// path keeps its exact operation sequence.
#ifndef IMDPP_DIFFUSION_CAMPAIGN_SIMULATOR_H_
#define IMDPP_DIFFUSION_CAMPAIGN_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "diffusion/kernel_work.h"
#include "diffusion/problem.h"
#include "diffusion/seed.h"
#include "graph/social_graph.h"
#include "pin/dynamics.h"
#include "pin/user_state.h"

namespace imdpp::diffusion {

enum class DiffusionModel { kIndependentCascade, kLinearThreshold };

/// What a simulation's coin flips are keyed by (see the file comment).
enum class CoinKeying {
  kRound,    ///< (round, step): the historical measure of every estimate
  kAttempt,  ///< per-(user,item) attempt ordinal: time-aligned racing CRN
};

struct CampaignConfig {
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Safety cap on steps within one promotion.
  int max_steps = 64;
  /// Base seed mixed into every coin flip.
  uint64_t base_seed = 0x1234abcdULL;
};

/// Outcome of one realization.
struct SampleOutcome {
  /// Importance-weighted adoptions over the whole campaign (the σ summand).
  double sigma = 0.0;
  /// Same, restricted to users with market_mask[u] != 0 (0 if no mask).
  double sigma_market = 0.0;
  /// Unweighted adoption count.
  int adoptions = 0;
  /// Final user states (only if keep_states was requested).
  std::vector<pin::UserState> states;
};

/// Seeds bucketed by promotion round (1-based), validated against the
/// problem, built ONCE per estimate so the per-sample loop never
/// re-buckets. Bucket order preserves the seed group's order, which is
/// what keeps σ accumulation bit-identical to the historical per-sample
/// bucketing.
class SeedSchedule {
 public:
  SeedSchedule() = default;
  SeedSchedule(const SeedGroup& seeds, const Problem& problem);

  /// Seeds scheduled at promotion t (empty for t outside [1, T]).
  const SeedGroup& RoundSeeds(int t) const {
    static const SeedGroup kEmpty;
    if (t < 1 || t >= static_cast<int>(by_promotion_.size())) return kEmpty;
    return by_promotion_[static_cast<size_t>(t)];
  }
  /// T of the underlying problem (0 for a default-constructed schedule).
  int num_rounds() const { return t_max_; }
  /// Last promotion with any seed (0 if the group is empty). Rounds after
  /// it are exact no-ops: the frontier never carries across promotions, so
  /// an unseeded round draws no coins and changes no state.
  int last_active_round() const { return last_active_; }

 private:
  std::vector<SeedGroup> by_promotion_;  ///< index 0 unused
  int t_max_ = 0;
  int last_active_ = 0;
};

/// The log of one base realization that a later simulation of the same
/// sample replays (see "Base replay" in the file comment): every step the
/// base simulated, in order (ζ = 0, the seeds' adoptions, included), the
/// frontier entries each step walked, the try-to-adopt calls each entry's
/// out-edges made (in edge order), each step's commit batch, and each
/// step's adopters' weightings after their update — NumMetas floats per
/// adopter, in first-adoption order (the batch's order of first
/// appearance). Flat arrays: a step's entries, batch and weightings, and
/// an entry's calls, run up to the next one's begin.
struct ReplayLog {
  struct Step {
    int round;
    int step;
    uint32_t entries_begin;
    uint32_t batch_begin;
    uint32_t weights_begin;
  };
  struct Entry {
    UserId src;
    ItemId item;
    uint32_t calls_begin;
  };
  struct Call {
    uint32_t edge;  ///< index into OutEdges(src)
    ItemId item;
  };
  std::vector<Step> steps;
  std::vector<Entry> entries;
  std::vector<Call> calls;
  std::vector<std::pair<UserId, ItemId>> batch;
  std::vector<float> weights;

  uint32_t EntriesEnd(size_t step) const {
    return step + 1 < steps.size() ? steps[step + 1].entries_begin
                                   : static_cast<uint32_t>(entries.size());
  }
  uint32_t BatchEnd(size_t step) const {
    return step + 1 < steps.size() ? steps[step + 1].batch_begin
                                   : static_cast<uint32_t>(batch.size());
  }
  uint32_t CallsEnd(size_t entry) const {
    return entry + 1 < entries.size() ? entries[entry + 1].calls_begin
                                      : static_cast<uint32_t>(calls.size());
  }
  /// Drops every step of the rounds after `round`.
  void KeepRounds(int round);
};

/// Reusable per-worker simulation arena: user states reset in place, flat
/// epoch-stamped LT accumulators / pending-dedup stamps instead of
/// per-sample unordered_map/unordered_set, and the running outcome of the
/// realization being simulated. One SimScratch serves any number of
/// sequential realizations; each worker thread owns its own.
class SimScratch {
 public:
  SimScratch() = default;
  SimScratch(const SimScratch&) = delete;
  SimScratch& operator=(const SimScratch&) = delete;

  double sigma() const { return sigma_; }
  double sigma_market() const { return sigma_market_; }
  int adoptions() const { return adoptions_; }
  const std::vector<pin::UserState>& states() const { return states_; }
  /// Running totals over every realization this arena simulated
  /// (kernel_work.h). Bookkeeping only.
  const KernelWork& work() const { return work_; }

 private:
  friend class CampaignSimulator;

  /// Shapes every buffer for `problem` (no-op when shapes already match).
  void Bind(const Problem& problem);
  /// Starts a fresh realization: zeroes the running outcome and
  /// invalidates all LT accumulators via an epoch bump.
  void BeginSample();
  /// Invalidates the per-step stamps (pending dedup, adopter grouping).
  void BeginStep();
  /// Epoch-stamped LT accumulator for a (user,item) key; zero on first
  /// touch within the current sample, tracked for sparse checkpointing.
  double& LtAcc(int64_t key) {
    if (lt_mark_[static_cast<size_t>(key)] != lt_epoch_) {
      lt_mark_[static_cast<size_t>(key)] = lt_epoch_;
      lt_acc_[static_cast<size_t>(key)] = 0.0;
      lt_touched_.push_back(key);
    }
    return lt_acc_[static_cast<size_t>(key)];
  }
  /// Next attempt ordinal for a (user,item) destination within the
  /// current realization (0 on first touch). Attempt-keyed racing coins
  /// are keyed by this ordinal instead of (round, step): every draw still
  /// hashes a distinct input — the joint coin distribution is exactly the
  /// historical one — but the k-th structural attempt on a pair lands on
  /// the same coin in every candidate, whichever round it happens in.
  uint32_t NextAttempt(int64_t key) {
    if (attempt_mark_[static_cast<size_t>(key)] != lt_epoch_) {
      attempt_mark_[static_cast<size_t>(key)] = lt_epoch_;
      attempt_count_[static_cast<size_t>(key)] = 0;
      attempt_touched_.push_back(key);
    }
    return attempt_count_[static_cast<size_t>(key)]++;
  }
  /// Re-seats one captured attempt ordinal after a checkpoint restore, so
  /// an attempt-keyed simulation resumed mid-cascade draws the exact coins
  /// a from-scratch attempt-keyed run would have drawn.
  void RestoreAttempt(int64_t key, uint32_t count) {
    attempt_mark_[static_cast<size_t>(key)] = lt_epoch_;
    attempt_count_[static_cast<size_t>(key)] = count;
    attempt_touched_.push_back(key);
  }
  /// First time (u,x) is queued this step? (flat stand-in for the
  /// per-step unordered_set of pending keys)
  bool MarkPending(int64_t key) {
    if (pending_mark_[static_cast<size_t>(key)] == step_epoch_) return false;
    pending_mark_[static_cast<size_t>(key)] = step_epoch_;
    return true;
  }
  /// Groups a committed adoption by user for the weight update, preserving
  /// first-adoption order (the per-user item lists match the historical
  /// unordered_map grouping; cross-user order is irrelevant because
  /// UpdateWeights touches one user's state only).
  /// Every state change goes through here (a successful UserState::Add,
  /// then UpdateWeights on the same user), so it is also where a user
  /// joins the changed list.
  void QueueNewAdoption(UserId u, ItemId x) {
    if (touched_user_mark_[static_cast<size_t>(u)] != step_epoch_) {
      touched_user_mark_[static_cast<size_t>(u)] = step_epoch_;
      new_items_[static_cast<size_t>(u)].clear();
      touched_users_.push_back(u);
      MarkChanged(u);
    }
    new_items_[static_cast<size_t>(u)].push_back(x);
  }
  /// Lists u as differing from the problem start (once per realization).
  void MarkChanged(UserId u) {
    if (changed_mark_[static_cast<size_t>(u)]) return;
    changed_mark_[static_cast<size_t>(u)] = 1;
    changed_.push_back(u);
  }
  /// Updates every adopter of the step: copies a clean user's weighting
  /// from `base_weights` (SyncReplay's result; null = none), computes the
  /// rest, and appends each result to `record` (optional).
  void FlushWeightUpdates(const pin::PersonalItemNetwork& pin,
                          const float* base_weights, ReplayLog* record);

  // --- Base replay (see the file comment). ---
  /// Starts replaying `log` for a simulation on `graph` resuming at round
  /// t_begin: every user clean, the cursor on the base's first step of a
  /// round >= t_begin.
  void BeginReplay(const ReplayLog& log, int t_begin,
                   const graph::SocialGraph& graph);
  bool Dirty(UserId u) const {
    return dirty_mark_[static_cast<size_t>(u)] == replay_epoch_;
  }
  /// Dirties u and files each of u's in-edges under its src's dirty
  /// out-edges.
  void MarkDirty(UserId u);
  /// The slots of src's out-edges whose targets are dirty, ascending.
  std::span<const uint32_t> DirtyOutEdges(UserId src) const;
  /// The base's step (t, step) when it has one: indexes its frontier
  /// entries by src for FindEntry and returns true. Call after the
  /// propagation step's BeginStep.
  bool EnterReplayStep(int t, int step);
  /// Index of the base's entry (src, x) in the entered step, or −1 when
  /// the base had none or src is dirty.
  int FindEntry(UserId src, ItemId x) const;
  /// After a commit at (t, step), before the weight flush: dirties every
  /// user whose batch at this step differs from the base's, and every
  /// adopter of the base steps this realization skipped. Returns the
  /// base's logged weightings of this step (null when the base had no
  /// such step), each clean adopter's at its weight_slot_.
  const float* SyncReplay(int t, int step);

  int num_users_ = 0;
  int num_items_ = 0;
  int num_metas_ = 0;
  std::vector<pin::UserState> states_;

  // Running outcome of the current realization.
  double sigma_ = 0.0;
  double sigma_market_ = 0.0;
  int adoptions_ = 0;

  // LT accumulators, valid while lt_mark_[key] == lt_epoch_.
  std::vector<double> lt_acc_;      ///< |V| x |I|
  std::vector<uint32_t> lt_mark_;   ///< |V| x |I|
  std::vector<int64_t> lt_touched_;
  uint32_t lt_epoch_ = 0;

  // Attempt ordinals for attempt-keyed racing coins, valid while
  // attempt_mark_[key] == lt_epoch_ (same per-realization epoch); the
  // touched keys are tracked for sparse checkpointing like lt_touched_.
  std::vector<uint32_t> attempt_count_;  ///< |V| x |I|
  std::vector<uint32_t> attempt_mark_;   ///< |V| x |I|
  std::vector<int64_t> attempt_touched_;

  // Per-step stamps.
  std::vector<uint32_t> pending_mark_;       ///< |V| x |I|
  std::vector<uint32_t> touched_user_mark_;  ///< |V|
  uint32_t step_epoch_ = 0;

  // Reused containers for the step loop.
  std::vector<std::pair<UserId, ItemId>> frontier_;
  std::vector<std::pair<UserId, ItemId>> pending_;
  std::vector<UserId> touched_users_;
  std::vector<std::vector<ItemId>> new_items_;  ///< |V| small lists

  // Users whose state differs from the problem start, in first-change
  // order. Valid while start_serial_ names a simulator: every unlisted
  // user then holds that simulator's start state (start adoptions,
  // Wmeta0(u)), so a reset restores the listed users only.
  std::vector<UserId> changed_;
  std::vector<uint8_t> changed_mark_;  ///< |V|
  /// CampaignSimulator serial of the current realization's start; 0 =
  /// none (fresh or reshaped arena).
  uint64_t start_serial_ = 0;

  // Base replay state of the current SimulateRounds call. Dirty users are
  // those with dirty_mark_[u] == replay_epoch_ (one bump per replayed
  // call), and so are the dirty out-edge lists; the per-step stamps below
  // use step_epoch_.
  const ReplayLog* replay_ = nullptr;
  const graph::SocialGraph* replay_graph_ = nullptr;
  size_t replay_cursor_ = 0;  ///< first base step not yet synced
  std::vector<uint32_t> dirty_mark_;  ///< |V|
  uint32_t replay_epoch_ = 0;
  std::vector<std::vector<uint32_t>> dirty_out_;  ///< |V| sorted slot lists
  std::vector<uint32_t> dirty_out_mark_;          ///< |V|
  std::vector<uint32_t> batch_pos_;       ///< |V| per-user batch cursor
  std::vector<uint32_t> batch_pos_mark_;  ///< |V|
  std::vector<uint32_t> weight_slot_;     ///< |V| base adopter's weight slot
  std::vector<uint32_t> entry_mark_;      ///< |V|
  std::vector<int> entry_head_;           ///< |V| first entry per src
  std::vector<int> entry_next_;           ///< per entry of the base log
  KernelWork work_;

  /// An attempt's association coins drawn by its bound test, reused by
  /// its exact path.
  std::vector<double> extra_draws_;
};

/// The calling thread's shared simulation arena (one per thread, shaped
/// on demand): the engine's sample loops and the default RunSample
/// overload all draw on the same instance, so a thread never holds two
/// copies of the flat |V| x |I| buffers.
SimScratch& ThreadLocalSimScratch();

/// Per-sample diffusion state frozen at a promotion boundary of a
/// realization: the states of the users promotions 1..k changed (every
/// other user still holds the start state), the LT accumulators touched
/// so far, and the running outcome partials — all sparse. Restoring it and
/// simulating promotions k+1..T replays the exact operation sequence of a
/// from-scratch run of the same schedule — the basis of promotion-round
/// checkpoint reuse.
struct SampleCheckpoint {
  /// users[i] holds states[i]; in first-change order.
  std::vector<UserId> users;
  std::vector<pin::UserState> states;
  std::vector<std::pair<int64_t, double>> lt;
  /// Attempt ordinals touched so far (sparse) — populated only by
  /// attempt-keyed simulations (adaptive racing); empty, and free, for
  /// the round-keyed checkpoints of the fixed path.
  std::vector<std::pair<int64_t, uint32_t>> attempts;
  double sigma = 0.0;
  double sigma_market = 0.0;
  int adoptions = 0;
};

class CampaignSimulator {
 public:
  CampaignSimulator(const Problem& problem, const CampaignConfig& config);

  /// Runs realization `sample_idx` of the campaign induced by `seeds`.
  /// `market_mask` (optional, size |V|) restricts sigma_market.
  /// `keep_states` returns the final per-user states (for π / expected
  /// perception extraction). Uses a thread-local scratch arena, so
  /// repeated calls on one thread are allocation-free.
  SampleOutcome RunSample(const SeedGroup& seeds, uint64_t sample_idx,
                          const std::vector<uint8_t>* market_mask = nullptr,
                          bool keep_states = false) const;

  /// Same, on a caller-owned arena (embedders and the scratch-reuse
  /// bit-identity tests).
  SampleOutcome RunSample(const SeedGroup& seeds, uint64_t sample_idx,
                          const std::vector<uint8_t>* market_mask,
                          bool keep_states, SimScratch* scratch) const;

  // --- Checkpointed fast path (MonteCarloEngine internals). ---

  /// Prepares `scratch` to simulate: from a frozen boundary state (`cp`),
  /// or — when null — from the problem start. Either resets only the
  /// users the scratch lists as changed, unless the scratch's last start
  /// was not this simulator's (first use on this thread, another
  /// simulator, a reshape): then it resets every user once.
  void Restore(const SampleCheckpoint* cp, SimScratch& scratch) const;

  /// Simulates promotions [t_begin, t_end] of `sched` for realization
  /// `sample_idx` on top of scratch's current state, accumulating into its
  /// running outcome. Unseeded rounds are skipped (exact no-ops). Returns
  /// the number of rounds that did work — identical for every sample of a
  /// given (sched, t_begin, t_end), so callers can account work without
  /// per-sample bookkeeping. `keying` picks the coin hash (see the file
  /// comment); a resumed simulation must use the keying its checkpoint
  /// was built with. Call after this simulator's Restore.
  /// `replay` (optional) is the log of a base realization of the same
  /// sample whose state before round t_begin equals scratch's (both began
  /// at the problem start, or resumed from the base's checkpoint):
  /// attempts the group leaves clean repeat the base's calls instead of
  /// being computed ("Base replay" in the file comment).
  /// `record` (optional) appends this simulation's own log. Both are
  /// ignored unless the simulation is round-keyed IC. Neither changes a
  /// bit of the realization.
  int SimulateRounds(const SeedSchedule& sched, uint64_t sample_idx,
                     int t_begin, int t_end,
                     const std::vector<uint8_t>* market_mask,
                     SimScratch& scratch,
                     CoinKeying keying = CoinKeying::kRound,
                     const ReplayLog* replay = nullptr,
                     ReplayLog* record = nullptr) const;

  /// Freezes scratch's current state into `cp` (buffers reused). The
  /// realization must have begun at this simulator's Restore.
  void Capture(const SimScratch& scratch, SampleCheckpoint& cp) const;

  /// Likelihood π_τ(SG) of Eq. 13 evaluated on the final states of one
  /// realization: Σ_{v ∈ market} Σ_{y ∉ A(v)} AIS(v,y) * Ppref(v,y), where
  /// AIS aggregates the dynamic influence of v's in-neighbors that have
  /// adopted y (IC form: 1 - Π(1 - Pact); LT form: Σ Pact capped at 1).
  double LikelihoodPi(const std::vector<pin::UserState>& states,
                      const std::vector<UserId>& market) const;

  const Problem& problem() const { return problem_; }
  const pin::Dynamics& dynamics() const { return *dynamics_; }
  const CampaignConfig& config() const { return config_; }
  /// The problem's start-perception table (null when associations are
  /// off), shared with every other simulator of the problem.
  const StartPerceptionTable* start_perception() const {
    return start_perception_.get();
  }

 private:
  /// Resets scratch's users to the problem start: start adoptions plus
  /// Wmeta0(u) (see Restore).
  void ResetToStart(SimScratch& scratch) const;

  const Problem& problem_;
  /// Never reused across simulators (addresses are): names this
  /// simulator's start in SimScratch::start_serial_.
  uint64_t serial_;
  CampaignConfig config_;
  std::unique_ptr<pin::Dynamics> dynamics_;
  std::shared_ptr<const StartPerceptionTable> start_perception_;
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_CAMPAIGN_SIMULATOR_H_
