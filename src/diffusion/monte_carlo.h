// Monte-Carlo estimation of the importance-aware influence σ (Def. 1), the
// market-restricted σ_τ, the likelihood π_τ (Eq. 13), and the *expected
// state* (average adoption probabilities and meta-graph weightings) that
// the Dysim machinery consumes for r̄^C / r̄^S, AE, and DR.
//
// Because coin flips are counter-based on (sample index, event), estimates
// for different seed groups under the same engine are common-random-number
// paired: Sigma(S ∪ {s}) - Sigma(S) is a low-variance paired estimate of
// the marginal gain.
//
// Parallelism: every realization is a pure function of its sample index,
// so the sample loop is embarrassingly parallel. Its tasks run on a
// util::ThreadPool — either an engine-owned lazy pool or a pool shared
// with other engines (one per CampaignSession / per RunDysim). The samples
// split into shards whose layout depends only on the sample count — never
// the thread count — and every estimate sums its samples per shard and
// folds the shard partials in shard order, so it is bit-identical for any
// num_threads (including the 0 = serial fallback). That keeps the paired
// marginal-gain property exact under threading. A fixed-count argmax
// (SelectBest) is one batch: one pool dispatch over a grid of (shard,
// candidate) tasks in sample-major order, each task writing its own
// partial, folded per candidate in shard order. The threads thus
// parallelize across candidates, not only inside one estimate, and every
// estimate keeps the bits of a lone Sigma.
//
// Evaluation fast path: every estimate runs on per-worker SimScratch
// arenas (zero per-sample allocation, resets that touch only the users
// the last cascade changed), skips unseeded promotion rounds (exact
// no-ops), and exposes three reuse levers:
//   * CheckpointedEval — freezes per-sample states at promotion
//     boundaries for a base seed group, so evaluating a group that only
//     differs from the base at rounds ≥ t resumes from the round-(t-1)
//     checkpoint instead of re-simulating rounds 1..t-1. Exact, because
//     coin flips are index-hashed and never depend on history. A
//     checkpoint holds only the users the base changed so far (the base
//     always starts at the problem start), so its size and restore cost
//     follow the cascade, not |V|.
//   * base replay — the same lattice build records each sample's base
//     realization as a ReplayLog, and the rounds a group re-simulates
//     after its divergence replay the base's coin outcomes and weight
//     updates wherever the group leaves the state untouched, walking only
//     the out-edges into users it changed (campaign_simulator.h, "Base
//     replay"). Round-keyed IC only; exact by construction. The
//     engine's fixed-mode SelectBest bases its loop at the candidates'
//     longest common seed prefix, so a set-addition greedy (every
//     candidate = the current set + one addition) re-simulates only what
//     each addition changes.
//   * an opt-in σ memo keyed on the exact seed vector, so sweeps that
//     revisit an identical configuration (e.g. Dysim's coordinate-ascent
//     timing refinement) pay nothing.
// One code path serves both levels: the engine's own Sigma, EvalMarket,
// Expected and adaptive SelectBest are a CheckpointedEval with an empty
// base, whose every realization resumes at round 0, from the problem
// start (a started problem's observed state for adaptive replanning,
// Problem::StartedAt). Inside it there is one fixed-count σ/σ_τ/π batch
// (EvalBatch — Sigma and EvalMarket are batches of one), one Expected
// loop (ExpectedFrom), one race and one checkpoint-lattice builder,
// instantiated once per coin keying.
// Work accounting: num_rounds_simulated / num_rounds_skipped split every
// estimate's promotion-rounds into executed vs avoided (vs the naive
// T-rounds-per-sample baseline); num_memo_hits counts memoized estimates;
// kernel_work() totals what every simulation's kernel did, lattice builds
// included (kernel_work.h: attempts computed, replayed and bounded, weight
// updates, association coins and nets).
#ifndef IMDPP_DIFFUSION_MONTE_CARLO_H_
#define IMDPP_DIFFUSION_MONTE_CARLO_H_

#include <functional>
#include <memory>
#include <vector>

#include "diffusion/campaign_simulator.h"
#include "diffusion/sigma_backend.h"
#include "diffusion/sigma_memo.h"
#include "util/cancel.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace imdpp::diffusion {

/// What one sample loop did: promotion rounds per sample (a schedule
/// property, the same for every sample; −1 = nothing ran) and its arenas'
/// kernel work, folded from per-shard tallies in shard order.
struct SampleWork {
  int rounds = -1;
  KernelWork kernel;
};

/// The "mc" SigmaBackend: the accuracy reference every other backend is
/// gated against (tests/backend_test.cc).
class MonteCarloEngine : public SigmaBackend {
 public:
  /// `num_samples` realizations per estimate (M in the paper, Sec. VI-A).
  /// `num_threads` is the total executor count for the sample loop:
  /// util::kAutoThreads = hardware concurrency, 0 or 1 = serial. Results
  /// are bit-identical for every value (see file comment). `shared_pool`
  /// (optional) backs the sample loop instead of an engine-owned lazy
  /// pool, so several engines can share one set of workers.
  /// `cancel` (optional) is the run's cooperative cancellation/deadline
  /// token (ISSUE 8): every estimate checks it per sample and
  /// short-circuits once it fires. Null = the engine creates a private
  /// token, so fault propagation (the eval.sigma point latches its error
  /// onto the token) always has a channel.
  MonteCarloEngine(const Problem& problem, const CampaignConfig& config,
                   int num_samples, int num_threads = util::kAutoThreads,
                   std::shared_ptr<util::ThreadPool> shared_pool = nullptr,
                   std::shared_ptr<const util::CancelToken> cancel = nullptr);

  std::string_view name() const override { return "mc"; }
  std::string_view description() const override {
    return "forward Monte-Carlo re-simulation of the dynamic-perception "
           "diffusion (the accuracy reference)";
  }
  BackendCapabilities capabilities() const override {
    BackendCapabilities caps;
    caps.resimulates_dynamics = true;
    caps.market_likelihood_pi = true;
    caps.prefix_checkpointing = true;
    caps.select_best = true;
    return caps;
  }

  /// Kept as a nested alias through the ISSUE 7 hoist to diffusion scope.
  using MarketEval = ::imdpp::diffusion::MarketEval;

  /// σ̂(S): mean importance-weighted adoptions.
  /// Like every estimate entry point, takes the engine mutex for the whole
  /// call: concurrent estimates on one engine serialize (the memos, work
  /// counters and lazy pool are all IMDPP_GUARDED_BY(mu_)), while the
  /// sample loop inside still fans out over the thread pool.
  double Sigma(const SeedGroup& seeds) const override IMDPP_EXCLUDES(mu_);

  /// Joint estimate of σ, σ_τ and π_τ for the market `users` in one pass.
  /// Builds the |V| market mask per call; repeated evaluations of one
  /// market (TDSI's inner loop) go through a market-bound
  /// CheckpointedEval, which builds it once.
  MarketEval EvalMarket(const SeedGroup& seeds,
                        const std::vector<UserId>& users) const override
      IMDPP_EXCLUDES(mu_);

  /// Expected end-of-campaign state under `seeds`.
  ExpectedState Expected(const SeedGroup& seeds) const override
      IMDPP_EXCLUDES(mu_);

  /// A CheckpointedEval over this engine: promotion-round prefix reuse.
  std::unique_ptr<ScheduleEval> MakeScheduleEval(
      SeedGroup base, std::vector<UserId> market = {}) const override;

  /// Greedy σ-scored argmax. Fixed mode (the default) runs one
  /// batch on a CheckpointedEval based at the candidates' longest common
  /// seed prefix (empty for a single candidate), so each estimate resumes
  /// the shared rounds and replays the base where its candidate leaves it
  /// untouched — the estimates, memo traffic and pick of
  /// SigmaBackend::SelectBest, bit for bit. options.adaptive.enabled runs
  /// the CheckpointedEval race with an empty base, so every racer resumes
  /// at round 0. See CheckpointedEval::SelectBest for the stopping, winner
  /// re-evaluation and determinism contract.
  SelectBestResult SelectBest(const std::vector<SelectCandidate>& candidates,
                              const SelectOptions& options) const override
      IMDPP_EXCLUDES(mu_);

  /// Opts in to memoizing estimates by exact input (identical input =>
  /// identical estimate, so a hit returns the previously computed bits
  /// without simulating): Sigma() by seed vector, EvalMarket() by
  /// (seed vector, market user list). Off by default to keep the
  /// simulation-counter semantics of plain engines.
  void EnableSigmaMemo(size_t max_entries = 1 << 14) override
      IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    memo_.set_capacity(max_entries);
  }

  const CampaignSimulator& simulator() const override { return sim_; }
  int num_samples() const override { return num_samples_; }
  /// Resolved executor count (>= 0; 0 and 1 both mean serial).
  int num_threads() const override { return num_threads_; }

  /// Total simulator invocations since construction (bumped once per
  /// estimate, under the engine mutex like every other work counter).
  /// Memoized estimates do not simulate and are not charged.
  int64_t num_simulations() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_simulations_;
  }
  /// Promotion-rounds actually executed (summed over samples), including
  /// checkpoint building.
  int64_t num_rounds_simulated() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_rounds_simulated_;
  }
  /// Promotion-rounds a naive evaluation (T rounds per sample, no reuse)
  /// would have executed on top: unseeded-round skips, checkpoint-prefix
  /// resumes, and memoized estimates.
  int64_t num_rounds_skipped() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_rounds_skipped_;
  }
  /// Sigma() calls answered from the memo.
  int64_t num_memo_hits() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return num_memo_hits_;
  }

  /// Adaptive-selection counters (ISSUE 10): candidate-blocks raced,
  /// candidates eliminated before the sample cap, and realizations never
  /// simulated because their comparison had already resolved. All zero
  /// on fixed-count runs.
  int64_t num_blocks_run() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return blocks_run_;
  }
  int64_t num_early_stops() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return early_stops_;
  }
  int64_t num_samples_saved() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return samples_saved_;
  }
  /// Every simulation's kernel work (see the file comment). Over one
  /// estimate, computed + replayed attempts and weight updates do not
  /// depend on replay.
  KernelWork kernel_work() const override IMDPP_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return kernel_work_;
  }

  /// The token estimates check; never null (see the constructor).
  const util::CancelToken* cancel_token() const override {
    return cancel_.get();
  }

 private:
  friend class CheckpointedEval;

  /// Estimate-entry robustness gate: counts an eval.sigma fault-point hit
  /// (latching any injected error onto the token) and then checks the
  /// token. False = the estimate must return immediately with a
  /// don't-care value — the caller reads the real error off
  /// cancel_token(). Runs before memo lookups so fault schedules count
  /// every estimate entry, memoized or not.
  bool BeginEstimate() const;
  /// Post-shard-loop gate: true = the token fired mid-estimate, so the
  /// folded value is garbage — skip Charge and the memo store
  /// (a partial estimate must never poison the memo).
  bool Cancelled() const { return cancel_->Fired(); }

  /// The per-estimate shard layout over the samples (util::NumShards /
  /// util::ShardBegin), so the reduction tree is fixed.
  int NumShards() const { return util::NumShards(num_samples_); }
  int ShardBegin(int shard) const {
    return util::ShardBegin(num_samples_, shard);
  }
  /// Whether RunTasks(tasks, realizations, ...) will use a pool (purely a
  /// scheduling question — results never depend on it). Serial below
  /// kMinParallelSamples realizations: pool dispatch is not worth it for a
  /// handful of them.
  bool RunsParallel(int tasks, int64_t realizations) const;
  /// Runs fn(0) ... fn(n-1), which together simulate `realizations` —
  /// on the pool when parallel, inline in index order otherwise. Pure
  /// scheduling; each task writes its own slot and callers do their own
  /// work accounting. Holds the engine mutex across the fan-out: tasks
  /// never touch guarded engine state, and no task path re-enters the
  /// engine, so this cannot deadlock.
  void RunTasks(int n, int64_t realizations,
                const std::function<void(int)>& fn) const
      IMDPP_REQUIRES(mu_);

  /// Where a realization starts: after round `round`, from (*start)[s]
  /// (null = the problem start), replaying (*replay)[s] (null = none).
  struct Resume {
    int round = 0;
    const std::vector<SampleCheckpoint>* start = nullptr;
    const std::vector<ReplayLog>* replay = nullptr;
  };
  /// One realization of the fixed batch and the race loop: restores
  /// sample `s` at `from`, simulates the remaining rounds of `sched` with
  /// `keying` and returns the promotion rounds it executed.
  int SimulateSample(const SeedSchedule& sched, const Resume& from,
                     const std::vector<uint8_t>* mask, CoinKeying keying,
                     int s, SimScratch& scratch) const;
  /// The race's sample loop: for each sample s in [begin, end), one
  /// SimulateSample, then visit(s, scratch). Returns the loop's work;
  /// callers check Cancelled() after.
  SampleWork RunSamples(
      const SeedSchedule& sched, const Resume& from,
      const std::vector<uint8_t>* mask, CoinKeying keying, int begin,
      int end, const std::function<void(int, const SimScratch&)>& visit)
      const IMDPP_REQUIRES(mu_);

  /// Books one memoized estimate: no simulation, every round skipped.
  void BookMemoHit() const IMDPP_REQUIRES(mu_);
  /// The one Expected loop: runs promotions [t_begin, t_end(sched)] per
  /// sample on top of `start` (per-sample checkpoints; nullptr = the
  /// problem start) and averages the final states. The accumulation shape
  /// (per-shard raw float sums folded in shard order, scaled once) does
  /// not depend on where the run resumed, so resuming from checkpoints is
  /// bit-identical to a from-scratch run.
  ExpectedState ExpectedFrom(const SeedSchedule& sched, int t_begin,
                             const std::vector<SampleCheckpoint>* start,
                             const std::vector<ReplayLog>* replay) const
      IMDPP_REQUIRES(mu_);
  /// Books `samples` realizations that each executed `work.rounds` of the
  /// T promotion rounds (the rest are skips), and the loop's kernel work.
  void Charge(int64_t samples, const SampleWork& work) const
      IMDPP_REQUIRES(mu_);

  /// The racing driver: advances every alive candidate block by block
  /// through `eval_block(candidate, begin, end, race)` (which fills
  /// per-sample slots and returns the block's work, rounds −1 when the
  /// cancel token fired), charges each candidate-block, and on
  /// completion books the whole-sample skips plus the adaptive counters.
  /// Returns the winner; −1 = cancelled mid-race (nothing terminal booked;
  /// partial blocks stay charged, mirroring interrupted estimates).
  int RaceSelect(
      int num_candidates, const AdaptiveEvalConfig& config,
      const std::function<SampleWork(int, int, int, AdaptiveEval&)>&
          eval_block)
      const IMDPP_REQUIRES(mu_);

  CampaignSimulator sim_;
  int num_samples_;
  int num_threads_;
  /// Shared workers (optional); otherwise lazily created on the first
  /// parallel estimate (num_threads_ - 1 workers; the calling thread is
  /// the remaining executor).
  std::shared_ptr<util::ThreadPool> shared_pool_;
  /// Never null; see the constructor. Not guarded: the token has its own
  /// synchronization and shard tasks read it without the engine mutex.
  std::shared_ptr<const util::CancelToken> cancel_;

  /// Guards every piece of state an estimate mutates: memos, work
  /// counters and the lazily created pool. Held for whole estimates (see
  /// Sigma), so the engine is safe to share across threads at estimate
  /// granularity.
  mutable util::Mutex mu_;
  mutable std::unique_ptr<util::ThreadPool> pool_ IMDPP_GUARDED_BY(mu_);
  mutable int64_t num_simulations_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_rounds_simulated_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_rounds_skipped_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t num_memo_hits_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t blocks_run_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t early_stops_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable int64_t samples_saved_ IMDPP_GUARDED_BY(mu_) = 0;
  mutable KernelWork kernel_work_ IMDPP_GUARDED_BY(mu_);
  /// Sigma() / EvalMarket() memo (disabled until EnableSigmaMemo).
  mutable SigmaMemo memo_ IMDPP_GUARDED_BY(mu_);
};

/// Promotion-round checkpoint reuse over one engine (ISSUE 3 tentpole).
///
/// Holds a *base* seed group and lazily freezes each realization's state
/// at the promotion boundaries of that base. Evaluating a `group` then
/// costs only the rounds from its first divergence from the base onward:
/// coin flips are pure hashes of (sample, round, step, edge, item), so the
/// boundary state is a function of the earlier rounds' seeds alone, and
/// resuming replays the exact operation sequence of a from-scratch run —
/// results are bit-identical, verified by tests/determinism_test.cc.
///
/// Typical shapes it accelerates (base grows, candidates differ late):
///   * TDSI PickBest: base = current group, candidates at rounds t̂/t̂+1;
///   * greedy timing placement: base = placed, candidate at round t;
///   * coordinate-ascent refinement: base = schedule minus the moving
///     seed, candidates = that seed at each round.
/// Rebase() adopts a new base and keeps every checkpoint before the first
/// round where the old and new bases diverge, so the reuse compounds
/// across iterations of those loops.
///
/// Base replay: the round-keyed lattice build also records each sample's
/// base realization as a ReplayLog. Estimates whose groups diverge before
/// the base's last active round grow the lattice (and the log) to that
/// round once per base, then replay the base's coin outcomes in the rounds
/// they re-simulate wherever their group leaves the state untouched. The
/// build costs one base simulation per sample, so it happens once two
/// such estimates are known: a batch holding two grows the log before any
/// of its candidates runs, so all of them replay; a lone estimate marks
/// the base and the next one grows it (a race winner's re-evaluation
/// alone never builds).
/// Rebase keeps the log rounds it keeps checkpoints for. Off for LT (the
/// log is never recorded).
///
/// With an empty base every estimate resumes at round 0: that is the
/// engine's own estimate path. All estimates run on the engine's sharded
/// sample loops and are charged to its work counters.
class CheckpointedEval final : public ScheduleEval {
 public:
  /// `market` fixes the user list for EvalMarket() (empty = σ_τ and π
  /// are 0); checkpoints embed the market's σ_τ partials, so one
  /// CheckpointedEval serves exactly one market.
  CheckpointedEval(const MonteCarloEngine& engine, SeedGroup base,
                   std::vector<UserId> market = {});

  /// σ̂(group). `group` may differ from the base at any rounds; earlier
  /// shared rounds are resumed from checkpoints. Consults the engine's σ
  /// memo when enabled. Takes the engine mutex like a direct estimate;
  /// the CheckpointedEval itself is single-owner (not thread-safe).
  double Sigma(const SeedGroup& group) override IMDPP_EXCLUDES(engine_.mu_);

  /// Joint σ/σ_τ/π estimate of `group` for the fixed market. Consults the
  /// engine's (group, market) memo when enabled.
  MarketEval EvalMarket(const SeedGroup& group) override
      IMDPP_EXCLUDES(engine_.mu_);

  /// Expected end-of-campaign state under `group`, resuming shared prefix
  /// rounds from checkpoints — bit-identical to engine.Expected(group).
  /// The shape DRE wants: it re-evaluates the expected state per item
  /// under a growing seed group, so each call extends the base's
  /// checkpoints once instead of re-simulating every earlier round.
  ExpectedState Expected(const SeedGroup& group) override
      IMDPP_EXCLUDES(engine_.mu_);

  /// Adopts `base` as the new base group, keeping the checkpoints of every
  /// round before the first divergence from the previous base.
  void Rebase(SeedGroup base) override;

  const SeedGroup& base() const override { return base_; }

  /// Greedy argmax over `candidates` against the shared base (ISSUE 10).
  /// Fixed mode evaluates every candidate as one EvalBatch — the
  /// estimates, memo traffic and strict-`>` pick of the base-class loop
  /// over this evaluator's Sigma/EvalMarket, bit for bit — and returns
  /// best_index −1 when the cancel token fires inside it. Adaptive mode
  /// races candidates with empirical-Bernstein stopping on paired per-sample
  /// values, block by block, each racer resuming from its own divergence
  /// boundary on the attempt-keyed lattice; then it re-evaluates the
  /// winner at the full sample count through the normal memo-aware path,
  /// so downstream arithmetic sees exactly the bits a direct call would.
  /// Stopping decisions happen only at block boundaries over fixed-order
  /// reductions, so the race is bit-identical across thread counts too.
  /// A fired cancel token returns best_index −1.
  SelectBestResult SelectBest(const std::vector<SelectCandidate>& candidates,
                              const SelectOptions& options) override
      IMDPP_EXCLUDES(engine_.mu_);

 private:
  /// Checkpoints of the base schedule under one coin keying:
  /// cp[k-1][s] = realization s frozen after base rounds 1..k (the users
  /// those rounds changed), valid for k <= rounds_ready and
  /// s < samples_ready (rows are full-width). logs[s] = realization s's
  /// replay log over the same rounds (round-keyed IC lattices only; empty
  /// otherwise).
  struct Lattice {
    explicit Lattice(CoinKeying k) : keying(k) {}

    CoinKeying keying;
    std::vector<std::vector<SampleCheckpoint>> cp;
    std::vector<ReplayLog> logs;
    int rounds_ready = 0;
    int samples_ready = 0;

    /// The checkpoints a resume after `round` starts from (null = round 0).
    const std::vector<SampleCheckpoint>* Row(int round) const {
      return round == 0 ? nullptr : &cp[static_cast<size_t>(round - 1)];
    }
  };

  /// First round where the two schedules' buckets differ (T+1 if none).
  static int FirstDivergence(const SeedSchedule& a, const SeedSchedule& b,
                             int t_max);
  /// Last base boundary `sched` shares, bounded by what the base can ever
  /// provide (rounds past its last active round are no-ops): the round an
  /// estimate of `sched` resumes after.
  int SharedRounds(const SeedSchedule& sched) const;
  /// The lattice builder: grows `lattice` to base rounds 1..rounds_upto
  /// (capped at the base's last active round) for samples
  /// [0, samples_upto), simulating the base with the lattice's keying,
  /// freezing every boundary and (round-keyed) recording the replay logs.
  /// Building is amortized shared work, booked by moving its rounds from
  /// the skipped to the simulated bucket.
  void Grow(Lattice& lattice, int rounds_upto, int samples_upto)
      IMDPP_REQUIRES(engine_.mu_);
  /// The mask the simulator restricts σ_τ to (null = no market).
  const std::vector<uint8_t>* MarketMask() const {
    return market_mask_.empty() ? nullptr : &market_mask_;
  }
  using Resume = MonteCarloEngine::Resume;
  /// Where the round-keyed estimates of `scheds` start: each at
  /// SharedRounds(sched), with the round-keyed lattice grown once for
  /// every sample to the latest of them — or, when replay applies (see
  /// "Base replay" above), to the base's last active round with its logs,
  /// which the schedules diverging before that round replay. Row and log
  /// pointers are taken after the one Grow, which may resize the lattice.
  /// A cancelled build leaves the lattice short; they resume and replay
  /// less then.
  std::vector<Resume> Prepare(const std::vector<SeedSchedule>& scheds)
      IMDPP_REQUIRES(engine_.mu_);
  /// The fixed-count batch behind Sigma, EvalMarket and fixed SelectBest:
  /// estimates every group (EvalMarket's σ/σ_τ/π with `market`, else σ
  /// only) into (*out)[i], in candidate order and with the call-by-call
  /// loop's bits and books. A serial pre-pass runs each estimate's
  /// eval.sigma gate and memo lookup (a group repeating an earlier one the
  /// memo will store is a hit) and Prepares the misses; one grid of
  /// (shard, miss) tasks simulates them; a serial post-pass charges,
  /// stores and records each — inside its own mc.sigma / mc.eval_market
  /// span when `span_each` (a batch of one runs inside its caller's).
  /// False = the token fired: nothing of the batch's simulations is
  /// charged or stored, and *out is garbage.
  bool EvalBatch(const std::vector<const SeedGroup*>& groups, bool market,
                 bool span_each, std::vector<MarketEval>* out)
      IMDPP_REQUIRES(engine_.mu_);

  const MonteCarloEngine& engine_;
  SeedGroup base_;
  SeedSchedule base_sched_;
  std::vector<UserId> market_;
  /// Prebuilt |V| mask of market_; empty when market_ is empty.
  std::vector<uint8_t> market_mask_;
  /// Every estimate resumes from this one, grown for every sample.
  Lattice round_keyed_{CoinKeying::kRound};
  /// Races resume from this one — never from round_keyed_, whose prefix
  /// coins would poison the paired differences. Grown lazily with the
  /// race's blocks (races touch block_end samples, not all of them), so a
  /// race that stops after one block never pays for prefixes it didn't
  /// use.
  Lattice attempt_keyed_{CoinKeying::kAttempt};
  /// An estimate of the current base could have replayed a log the
  /// lattice did not reach yet (see Prepare).
  bool replay_wanted_ = false;
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_MONTE_CARLO_H_
