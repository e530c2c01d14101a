#include "diffusion/campaign_simulator.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "util/hash.h"
#include "util/mathutil.h"

namespace imdpp::diffusion {

namespace {

// Purpose tags keep coin flips for different event kinds independent.
enum Purpose : uint64_t {
  kAdoptFlip = 1,
  kExtraFlip = 2,
  kLtThreshold = 3,
};

// Round key of an attempt-keyed flip: outside the valid promotion range,
// so an attempt-keyed coin can never collide with a round-keyed one.
constexpr uint64_t kAlignedCoinRound = ~uint64_t{0};

int64_t PairKey(UserId u, ItemId x, int num_items) {
  return static_cast<int64_t>(u) * num_items + x;
}

// Simulator serials start at 1; 0 is SimScratch's "no start".
uint64_t NextSimulatorSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SeedSchedule::SeedSchedule(const SeedGroup& seeds, const Problem& problem)
    : t_max_(problem.num_promotions) {
  const int num_users = problem.NumUsers();
  const int num_items = problem.NumItems();
  by_promotion_.resize(static_cast<size_t>(t_max_) + 1);
  for (const Seed& s : seeds) {
    IMDPP_CHECK(s.promotion >= 1 && s.promotion <= t_max_);
    IMDPP_CHECK(s.user >= 0 && s.user < num_users);
    IMDPP_CHECK(s.item >= 0 && s.item < num_items);
    by_promotion_[static_cast<size_t>(s.promotion)].push_back(s);
    last_active_ = std::max(last_active_, s.promotion);
  }
}

void SimScratch::Bind(const Problem& problem) {
  const int num_users = problem.NumUsers();
  const int num_items = problem.NumItems();
  const int num_metas = problem.NumMetas();
  if (num_users == num_users_ && num_items == num_items_ &&
      num_metas == num_metas_) {
    return;
  }
  num_users_ = num_users;
  num_items_ = num_items;
  num_metas_ = num_metas;
  const size_t pairs =
      static_cast<size_t>(num_users) * static_cast<size_t>(num_items);
  states_.resize(static_cast<size_t>(num_users));
  lt_acc_.assign(pairs, 0.0);
  lt_mark_.assign(pairs, 0);
  lt_epoch_ = 0;
  attempt_count_.assign(pairs, 0);
  attempt_mark_.assign(pairs, 0);
  pending_mark_.assign(pairs, 0);
  touched_user_mark_.assign(static_cast<size_t>(num_users), 0);
  step_epoch_ = 0;
  new_items_.resize(static_cast<size_t>(num_users));
  changed_.clear();
  changed_mark_.assign(static_cast<size_t>(num_users), 0);
  start_serial_ = 0;
  dirty_mark_.assign(static_cast<size_t>(num_users), 0);
  replay_epoch_ = 0;
  batch_pos_.assign(static_cast<size_t>(num_users), 0);
  batch_pos_mark_.assign(static_cast<size_t>(num_users), 0);
  entry_mark_.assign(static_cast<size_t>(num_users), 0);
  entry_head_.assign(static_cast<size_t>(num_users), -1);
  dirty_out_.resize(static_cast<size_t>(num_users));
  dirty_out_mark_.assign(static_cast<size_t>(num_users), 0);
  weight_slot_.assign(static_cast<size_t>(num_users), 0);
}

void SimScratch::BeginSample() {
  sigma_ = 0.0;
  sigma_market_ = 0.0;
  adoptions_ = 0;
  lt_touched_.clear();
  attempt_touched_.clear();
  if (++lt_epoch_ == 0) {  // epoch wrap: stale marks could alias
    std::fill(lt_mark_.begin(), lt_mark_.end(), 0u);
    std::fill(attempt_mark_.begin(), attempt_mark_.end(), 0u);
    lt_epoch_ = 1;
  }
}

void SimScratch::BeginStep() {
  if (++step_epoch_ == 0) {
    std::fill(pending_mark_.begin(), pending_mark_.end(), 0u);
    std::fill(touched_user_mark_.begin(), touched_user_mark_.end(), 0u);
    std::fill(batch_pos_mark_.begin(), batch_pos_mark_.end(), 0u);
    std::fill(entry_mark_.begin(), entry_mark_.end(), 0u);
    step_epoch_ = 1;
  }
}

void SimScratch::FlushWeightUpdates(const pin::PersonalItemNetwork& pin,
                                    const float* base_weights,
                                    ReplayLog* record) {
  for (UserId u : touched_users_) {
    const auto ui = static_cast<size_t>(u);
    std::vector<float>& w = states_[ui].wmeta();
    if (base_weights != nullptr && !Dirty(u)) {
      // Clean after the sync: u's state before the step and its batch are
      // the base's, so the update's result is the one the base logged.
      const float* logged =
          base_weights + static_cast<size_t>(weight_slot_[ui]) * w.size();
      std::copy(logged, logged + w.size(), w.begin());
      ++work_.weight_updates_replayed;
    } else {
      work_.weight_pairs_computed +=
          pin.UpdateWeights(states_[ui], new_items_[ui]);
      ++work_.weight_updates_computed;
    }
    if (record != nullptr) {
      record->weights.insert(record->weights.end(), w.begin(), w.end());
    }
  }
  touched_users_.clear();
}

void ReplayLog::KeepRounds(int round) {
  size_t keep = 0;
  while (keep < steps.size() && steps[keep].round <= round) ++keep;
  if (keep == steps.size()) return;
  const Step& first = steps[keep];
  calls.resize(first.entries_begin < entries.size()
                   ? entries[first.entries_begin].calls_begin
                   : calls.size());
  entries.resize(first.entries_begin);
  batch.resize(first.batch_begin);
  weights.resize(first.weights_begin);
  steps.resize(keep);
}

void SimScratch::BeginReplay(const ReplayLog& log, int t_begin,
                             const graph::SocialGraph& graph) {
  if (++replay_epoch_ == 0) {
    std::fill(dirty_mark_.begin(), dirty_mark_.end(), 0u);
    std::fill(dirty_out_mark_.begin(), dirty_out_mark_.end(), 0u);
    replay_epoch_ = 1;
  }
  replay_ = &log;
  replay_graph_ = &graph;
  replay_cursor_ = 0;
  while (replay_cursor_ < log.steps.size() &&
         log.steps[replay_cursor_].round < t_begin) {
    ++replay_cursor_;
  }
  if (entry_next_.size() < log.entries.size()) {
    entry_next_.resize(log.entries.size());
  }
}

bool SimScratch::EnterReplayStep(int t, int step) {
  const ReplayLog& log = *replay_;
  if (replay_cursor_ >= log.steps.size()) return false;
  const ReplayLog::Step& base = log.steps[replay_cursor_];
  if (base.round != t || base.step != step) return false;
  // Chains each src's entries in log order (built back to front).
  for (uint32_t i = log.EntriesEnd(replay_cursor_); i-- > base.entries_begin;) {
    const auto src = static_cast<size_t>(log.entries[i].src);
    entry_next_[i] = entry_mark_[src] == step_epoch_ ? entry_head_[src] : -1;
    entry_mark_[src] = step_epoch_;
    entry_head_[src] = static_cast<int>(i);
  }
  return true;
}

void SimScratch::MarkDirty(UserId u) {
  if (Dirty(u)) return;
  dirty_mark_[static_cast<size_t>(u)] = replay_epoch_;
  // Every in-edge of u is now a dirty out-edge of its src.
  const std::span<const graph::Edge> in = replay_graph_->InEdges(u);
  const std::span<const uint32_t> slots = replay_graph_->InEdgeSlots(u);
  for (size_t i = 0; i < in.size(); ++i) {
    const auto src = static_cast<size_t>(in[i].to);
    std::vector<uint32_t>& list = dirty_out_[src];
    if (dirty_out_mark_[src] != replay_epoch_) {
      dirty_out_mark_[src] = replay_epoch_;
      list.clear();
    }
    list.insert(std::upper_bound(list.begin(), list.end(), slots[i]),
                slots[i]);
  }
}

std::span<const uint32_t> SimScratch::DirtyOutEdges(UserId src) const {
  const auto si = static_cast<size_t>(src);
  if (dirty_out_mark_[si] != replay_epoch_) return {};
  return dirty_out_[si];
}

int SimScratch::FindEntry(UserId src, ItemId x) const {
  if (entry_mark_[static_cast<size_t>(src)] != step_epoch_ || Dirty(src)) {
    return -1;
  }
  for (int i = entry_head_[static_cast<size_t>(src)]; i >= 0;
       i = entry_next_[static_cast<size_t>(i)]) {
    if (replay_->entries[static_cast<size_t>(i)].item == x) return i;
  }
  return -1;
}

const float* SimScratch::SyncReplay(int t, int step) {
  const ReplayLog& log = *replay_;
  auto at_or_after = [&](const ReplayLog::Step& s) {
    return s.round > t || (s.round == t && s.step >= step);
  };
  // Base steps this realization never ran: their adopters now differ.
  for (; replay_cursor_ < log.steps.size() &&
         !at_or_after(log.steps[replay_cursor_]);
       ++replay_cursor_) {
    for (uint32_t i = log.steps[replay_cursor_].batch_begin;
         i < log.BatchEnd(replay_cursor_); ++i) {
      MarkDirty(log.batch[i].first);
    }
  }
  const bool matched = replay_cursor_ < log.steps.size() &&
                       log.steps[replay_cursor_].round == t &&
                       log.steps[replay_cursor_].step == step;
  const float* base_weights = nullptr;
  if (matched) {
    // Walk the base's batch against this step's per-user item lists. A
    // user's first base adoption of the step gives its slot among the
    // step's logged weightings (first-adoption order, like the flush).
    const ReplayLog::Step& base = log.steps[replay_cursor_];
    base_weights = log.weights.data() + base.weights_begin;
    uint32_t slot = 0;
    for (uint32_t i = base.batch_begin; i < log.BatchEnd(replay_cursor_);
         ++i) {
      const auto [u, x] = log.batch[i];
      const auto ui = static_cast<size_t>(u);
      if (batch_pos_mark_[ui] != step_epoch_) {
        batch_pos_mark_[ui] = step_epoch_;
        batch_pos_[ui] = 0;
        weight_slot_[ui] = slot++;
      }
      const uint32_t pos = batch_pos_[ui]++;
      if (Dirty(u)) continue;
      const std::vector<ItemId>& mine = new_items_[ui];
      if (touched_user_mark_[ui] != step_epoch_ || pos >= mine.size() ||
          mine[pos] != x) {
        MarkDirty(u);
      }
    }
    ++replay_cursor_;
  }
  // A user whose batch holds items the base's does not.
  for (UserId u : touched_users_) {
    const auto ui = static_cast<size_t>(u);
    const uint32_t matched_items =
        matched && batch_pos_mark_[ui] == step_epoch_ ? batch_pos_[ui] : 0;
    if (matched_items != new_items_[ui].size()) MarkDirty(u);
  }
  return base_weights;
}

CampaignSimulator::CampaignSimulator(const Problem& problem,
                                     const CampaignConfig& config)
    : problem_(problem), serial_(NextSimulatorSerial()), config_(config) {
  problem_.Validate();
  dynamics_ =
      std::make_unique<pin::Dynamics>(*problem_.relevance, problem_.params);
  if (problem_.params.assoc_scale > 0.0) {
    start_perception_ = problem_.start_perception->Get(problem_);
  }
}

void CampaignSimulator::ResetToStart(SimScratch& scratch) const {
  const int num_items = problem_.NumItems();
  auto reset = [&](UserId u) {
    scratch.states_[static_cast<size_t>(u)].ResetTo(
        num_items, problem_.StartAdopted(u), problem_.Wmeta0(u));
  };
  if (scratch.start_serial_ == serial_) {
    for (UserId u : scratch.changed_) {
      reset(u);
      scratch.changed_mark_[static_cast<size_t>(u)] = 0;
    }
  } else {
    for (UserId u = 0; u < problem_.NumUsers(); ++u) reset(u);
    std::fill(scratch.changed_mark_.begin(), scratch.changed_mark_.end(), 0);
    scratch.start_serial_ = serial_;
  }
  scratch.changed_.clear();
}

void CampaignSimulator::Restore(const SampleCheckpoint* cp,
                                SimScratch& scratch) const {
  scratch.Bind(problem_);
  scratch.BeginSample();
  ResetToStart(scratch);
  if (cp == nullptr) return;
  IMDPP_CHECK_EQ(cp->users.size(), cp->states.size());
  for (size_t i = 0; i < cp->users.size(); ++i) {
    const UserId u = cp->users[i];
    scratch.states_[static_cast<size_t>(u)].CopyFrom(cp->states[i]);
    scratch.MarkChanged(u);
  }
  for (const auto& [key, acc] : cp->lt) scratch.LtAcc(key) = acc;
  for (const auto& [key, count] : cp->attempts) {
    scratch.RestoreAttempt(key, count);
  }
  scratch.sigma_ = cp->sigma;
  scratch.sigma_market_ = cp->sigma_market;
  scratch.adoptions_ = cp->adoptions;
}

void CampaignSimulator::Capture(const SimScratch& scratch,
                                SampleCheckpoint& cp) const {
  IMDPP_CHECK(scratch.start_serial_ == serial_);
  cp.users.assign(scratch.changed_.begin(), scratch.changed_.end());
  cp.states.resize(cp.users.size());
  for (size_t i = 0; i < cp.users.size(); ++i) {
    cp.states[i].CopyFrom(scratch.states_[static_cast<size_t>(cp.users[i])]);
  }
  cp.lt.clear();
  cp.lt.reserve(scratch.lt_touched_.size());
  for (int64_t key : scratch.lt_touched_) {
    cp.lt.emplace_back(key, scratch.lt_acc_[static_cast<size_t>(key)]);
  }
  cp.attempts.clear();
  cp.attempts.reserve(scratch.attempt_touched_.size());
  for (int64_t key : scratch.attempt_touched_) {
    cp.attempts.emplace_back(key,
                             scratch.attempt_count_[static_cast<size_t>(key)]);
  }
  cp.sigma = scratch.sigma_;
  cp.sigma_market = scratch.sigma_market_;
  cp.adoptions = scratch.adoptions_;
}

int CampaignSimulator::SimulateRounds(const SeedSchedule& sched,
                                      uint64_t sample_idx, int t_begin,
                                      int t_end,
                                      const std::vector<uint8_t>* market_mask,
                                      SimScratch& scratch, CoinKeying keying,
                                      const ReplayLog* replay,
                                      ReplayLog* record) const {
  const graph::SocialGraph& g = *problem_.graph;
  const int num_items = problem_.NumItems();
  const pin::PersonalItemNetwork& pin = dynamics_->pin();
  const pin::PreferenceModel& pref_model = dynamics_->preference();
  const pin::InfluenceModel& act_model = dynamics_->influence();
  const pin::AssociationModel& assoc_model = dynamics_->association();
  const kg::RelevanceModel& rel = *problem_.relevance;
  const double assoc_scale = dynamics_->params().assoc_scale;
  const bool associations = assoc_scale > 0.0;
  // Users who have adopted nothing still hold Wmeta0(u), so their net
  // relevances are entries of the start-perception table.
  IMDPP_DCHECK(scratch.start_serial_ == serial_);
  const StartPerceptionTable* start_nets = start_perception_.get();
  const uint64_t sseed = HashTuple(config_.base_seed, sample_idx);
  std::vector<pin::UserState>& state = scratch.states_;
  KernelWork& work = scratch.work_;
  // Attempt-keyed flips hash the per-pair attempt ordinal instead of
  // (round, step): distinct hash inputs per draw (the joint distribution
  // is exactly the historical measure), but a time-shifted cascade's k-th
  // attempt lands on the same coin in every racing candidate.
  const bool aligned = keying == CoinKeying::kAttempt;
  // Base replay is exact for round-keyed IC only (see the file comment).
  if (aligned || config_.model != DiffusionModel::kIndependentCascade) {
    replay = nullptr;
    record = nullptr;
  }
  if (replay != nullptr) scratch.BeginReplay(*replay, t_begin, g);
  // Whole attempts are bounded only where no coin has a side effect:
  // round-keyed IC (see "Coins first" in the file comment).
  const bool coins_first =
      !aligned && config_.model == DiffusionModel::kIndependentCascade;
  std::vector<double>& draws = scratch.extra_draws_;
  // Coin hashes are a left fold (HashExtend), so the coordinates a group
  // of coins shares are hashed once: (sseed, purpose[, round key]) here,
  // (…, t, step) per step and (…, src, u, x) per promotion below.
  const uint64_t lt_prefix = HashTuple(sseed, kLtThreshold);
  const uint64_t aligned_adopt =
      HashTuple(sseed, kAdoptFlip, kAlignedCoinRound);
  const uint64_t aligned_extra =
      HashTuple(sseed, kExtraFlip, kAlignedCoinRound);

  auto count_adoption = [&](UserId u, ItemId x) {
    scratch.sigma_ += problem_.importance[static_cast<size_t>(x)];
    ++scratch.adoptions_;
    if (market_mask != nullptr && (*market_mask)[static_cast<size_t>(u)]) {
      scratch.sigma_market_ += problem_.importance[static_cast<size_t>(x)];
    }
    if (record != nullptr) record->batch.emplace_back(u, x);
  };
  auto begin_logged_step = [&](int t, int step) {
    if (record == nullptr) return;
    record->steps.push_back({t, step,
                             static_cast<uint32_t>(record->entries.size()),
                             static_cast<uint32_t>(record->batch.size()),
                             static_cast<uint32_t>(record->weights.size())});
  };
  // Commits end every step: after the adoptions are queued, replay learns
  // which users' batches left the base's, then perceptions update (copied
  // from the base's log for the users still clean).
  auto end_step = [&](int t, int step) {
    const float* base_weights =
        replay != nullptr ? scratch.SyncReplay(t, step) : nullptr;
    scratch.FlushWeightUpdates(pin, base_weights, record);
  };

  int rounds_run = 0;
  for (int t = t_begin; t <= t_end; ++t) {
    const SeedGroup& round_seeds = sched.RoundSeeds(t);
    if (round_seeds.empty()) continue;  // no frontier, no coins: exact no-op
    ++rounds_run;

    // --- ζ_t = 0: seeds adopt their items. ---
    std::vector<std::pair<UserId, ItemId>>& frontier = scratch.frontier_;
    frontier.clear();
    scratch.BeginStep();
    begin_logged_step(t, 0);
    for (const Seed& s : round_seeds) {
      if (state[static_cast<size_t>(s.user)].Add(s.item)) {
        count_adoption(s.user, s.item);
        scratch.QueueNewAdoption(s.user, s.item);
      }
      // Even if the item was adopted earlier, a re-seeded user promotes
      // it again (Lemma 1's re-seeding case).
      frontier.emplace_back(s.user, s.item);
    }
    end_step(t, 0);

    // --- ζ_t ≥ 1: influence propagation. ---
    for (int step = 1; step <= config_.max_steps && !frontier.empty();
         ++step) {
      std::vector<std::pair<UserId, ItemId>>& pending = scratch.pending_;
      pending.clear();
      scratch.BeginStep();
      begin_logged_step(t, step);
      const bool replaying =
          replay != nullptr && scratch.EnterReplayStep(t, step);
      auto try_queue = [&](UserId u, ItemId x) {
        if (state[static_cast<size_t>(u)].Has(x)) return;
        if (!scratch.MarkPending(PairKey(u, x, num_items))) return;
        pending.emplace_back(u, x);
      };
      const uint64_t adopt_prefix = HashTuple(sseed, kAdoptFlip, t, step);
      const uint64_t extra_prefix = HashTuple(sseed, kExtraFlip, t, step);

      // A successful coin of the attempt over out-edge k: logged for
      // replay when recording, then queued.
      auto coin_won = [&](uint32_t k, UserId u, ItemId y) {
        if (record != nullptr) record->calls.push_back({k, y});
        try_queue(u, y);
      };

      for (const auto& [src, x] : frontier) {
        const std::span<const graph::Edge> edges = g.OutEdges(src);
        const auto degree = static_cast<uint32_t>(edges.size());
        if (record != nullptr) {
          record->entries.push_back(
              {src, x, static_cast<uint32_t>(record->calls.size())});
        }
        // The promotion attempt over out-edge k, computed.
        auto attempt = [&](uint32_t k) {
          ++work.attempts_computed;
          const graph::Edge& e = edges[k];
          const UserId u = e.to;
          const pin::UserState& su = state[static_cast<size_t>(u)];
          // A user can only be promoted an item not yet adopted.
          if (su.Has(x)) return;
          const double base_pref = problem_.BasePref(u, x);
          const std::vector<ItemId>& related = rel.ComplementItems(x);
          const std::vector<double>& bounds = rel.ComplementBounds(x);
          const uint64_t promotion_prefix =
              associations && !aligned ? HashExtend(extra_prefix, src, u, x)
                                       : 0;
          // Coins first (see the file comment): the attempt's coins are
          // drawn before its perception math, and an attempt whose every
          // coin lies at or above its bound changes nothing. The exact path
          // reuses the adoption coin (coins_first holds for every
          // round-keyed IC attempt) and the `drawn` extra coins.
          double adopt_draw = 0.0;
          size_t drawn = 0;
          if (coins_first) {
            const double pact_hi = act_model.Bound(e.weight);
            const double ppref_hi = pref_model.Bound(su, base_pref);
            adopt_draw = HashToUnit(HashExtend(adopt_prefix, src, u, x));
            bool live = adopt_draw < pact_hi * ppref_hi;
            if (!live && associations) {
              if (draws.size() < related.size()) draws.resize(related.size());
              const double scale = assoc_scale * pact_hi * ppref_hi;
              while (!live && drawn < related.size()) {
                draws[drawn] =
                    HashToUnit(HashExtend(promotion_prefix, related[drawn]));
                live = draws[drawn] < scale * bounds[drawn];
                ++drawn;
              }
            }
            work.assoc_coins_drawn += static_cast<int64_t>(drawn);
            if (!live) {
              ++work.attempts_bounded;
              return;
            }
          }
          const double pact =
              act_model.Eval(e.weight, state[static_cast<size_t>(src)], su);
          if (pact <= 0.0) return;
          const double ppref = pref_model.Eval(su, base_pref, x);
          bool adopt = false;
          if (config_.model == DiffusionModel::kIndependentCascade) {
            const double p = pact * ppref;
            if (p > 0.0) {
              const double draw =
                  aligned ? HashToUnit(HashExtend(
                                aligned_adopt,
                                scratch.NextAttempt(PairKey(u, x, num_items)),
                                src, u, x))
                          : adopt_draw;
              if (draw < p) adopt = true;
            }
          } else {
            // LT: accumulate preference-scaled influence mass against a
            // per-(user,item) threshold drawn once per realization.
            double& acc = scratch.LtAcc(PairKey(u, x, num_items));
            acc += pact * ppref;
            const double theta = HashToUnit(HashExtend(lt_prefix, u, x));
            if (acc >= theta) adopt = true;
          }
          if (adopt) coin_won(k, u, x);

          // Item associations: being promoted x can trigger adoption of
          // relevant items y, independently of the adoption of x. Only
          // items with complementary relevance can (ComplementItems).
          if (ppref <= 0.0 || !associations) return;
          // A user with no adoption has no y to skip and still perceives
          // through Wmeta0(u), so the user's nets are one table row.
          const double* start_row =
              start_nets != nullptr && su.NumAdopted() == 0
                  ? start_nets->Row(u, x)
                  : nullptr;
          const double scale = assoc_scale * pact * ppref;
          // Counted per attempt: the round-keyed sweep hashes every coin
          // the pre-draw did not, an aligned one each coin it draws.
          int64_t aligned_coins = 0;
          int64_t nets = 0;
          for (size_t r = 0; r < related.size(); ++r) {
            const ItemId y = related[r];
            // A round-keyed coin is drawn first: at or above the pair's
            // bound it loses whatever the exact net is.
            double draw = 0.0;
            if (!aligned) {
              draw = r < drawn
                         ? draws[r]
                         : HashToUnit(HashExtend(promotion_prefix, y));
              if (draw >= scale * bounds[r]) continue;
            }
            double net;
            if (start_row != nullptr) {
              net = start_row[r];
            } else {
              if (su.Has(y)) continue;
              net = pin.RelNet(su.wmeta(), x, y);
            }
            ++nets;
            const double pe = assoc_model.ExtraProb(pact, ppref, net);
            if (pe > 0.0) {
              if (aligned) {
                draw = HashToUnit(HashExtend(
                    aligned_extra,
                    scratch.NextAttempt(PairKey(u, y, num_items)), src, u, x,
                    y));
                ++aligned_coins;
              }
              if (draw < pe) coin_won(k, u, y);
            }
          }
          work.assoc_coins_drawn +=
              aligned ? aligned_coins
                      : static_cast<int64_t>(related.size() - drawn);
          (start_row != nullptr ? work.assoc_nets_table
                                : work.assoc_nets_relnet) += nets;
        };
        // An entry the base walked from the same src state (-1 = none):
        // its logged calls stand in for the attempts at clean targets.
        const int entry = replaying ? scratch.FindEntry(src, x) : -1;
        if (entry < 0) {
          for (uint32_t k = 0; k < degree; ++k) attempt(k);
          continue;
        }
        // Merge, in edge order, the base's calls at clean targets with
        // the computed attempts at src's dirty out-edges; a dirty
        // target's logged calls are dropped.
        const std::span<const uint32_t> dirty = scratch.DirtyOutEdges(src);
        uint32_t c = replay->entries[static_cast<size_t>(entry)].calls_begin;
        const uint32_t c_end = replay->CallsEnd(static_cast<size_t>(entry));
        auto replay_calls_before = [&](uint32_t k_end) {
          for (; c < c_end && replay->calls[c].edge < k_end; ++c) {
            try_queue(edges[replay->calls[c].edge].to, replay->calls[c].item);
          }
        };
        for (const uint32_t k : dirty) {
          replay_calls_before(k);
          while (c < c_end && replay->calls[c].edge == k) ++c;
          attempt(k);
        }
        replay_calls_before(degree);
        work.attempts_replayed += degree - dirty.size();
      }

      // Commit simultaneously, then update perceptions (ripple effect).
      scratch.BeginStep();
      for (const auto& [u, x] : pending) {
        if (state[static_cast<size_t>(u)].Add(x)) {
          count_adoption(u, x);
          scratch.QueueNewAdoption(u, x);
        }
      }
      end_step(t, step);
      frontier.swap(pending);
    }
  }
  return rounds_run;
}

SimScratch& ThreadLocalSimScratch() {
  thread_local SimScratch scratch;
  return scratch;
}

SampleOutcome CampaignSimulator::RunSample(
    const SeedGroup& seeds, uint64_t sample_idx,
    const std::vector<uint8_t>* market_mask, bool keep_states) const {
  return RunSample(seeds, sample_idx, market_mask, keep_states,
                   &ThreadLocalSimScratch());
}

SampleOutcome CampaignSimulator::RunSample(
    const SeedGroup& seeds, uint64_t sample_idx,
    const std::vector<uint8_t>* market_mask, bool keep_states,
    SimScratch* scratch) const {
  SeedSchedule sched(seeds, problem_);
  Restore(nullptr, *scratch);
  SimulateRounds(sched, sample_idx, 1, sched.last_active_round(), market_mask,
                 *scratch);
  SampleOutcome out;
  out.sigma = scratch->sigma();
  out.sigma_market = scratch->sigma_market();
  out.adoptions = scratch->adoptions();
  if (keep_states) out.states = scratch->states();
  return out;
}

double CampaignSimulator::LikelihoodPi(
    const std::vector<pin::UserState>& states,
    const std::vector<UserId>& market) const {
  const graph::SocialGraph& g = *problem_.graph;
  const int num_items = problem_.NumItems();
  const pin::PreferenceModel& pref_model = dynamics_->preference();
  const pin::InfluenceModel& act_model = dynamics_->influence();
  IMDPP_CHECK_EQ(states.size(), static_cast<size_t>(problem_.NumUsers()));

  double pi = 0.0;
  // AIS per item: for IC, 1 - Π over adopter-in-neighbors of (1 - Pact);
  // scratch reused across market users.
  std::vector<double> no_influence(num_items);
  std::vector<double> lt_mass(num_items);
  for (UserId v : market) {
    std::fill(no_influence.begin(), no_influence.end(), 1.0);
    std::fill(lt_mass.begin(), lt_mass.end(), 0.0);
    bool any = false;
    for (const graph::Edge& e : g.InEdges(v)) {
      const UserId vp = e.to;
      if (states[vp].Adopted().empty()) continue;
      const double pact = act_model.Eval(e.weight, states[vp], states[v]);
      if (pact <= 0.0) continue;
      for (ItemId y : states[vp].Adopted()) {
        if (states[v].Has(y)) continue;
        no_influence[y] *= (1.0 - pact);
        lt_mass[y] += pact;
        any = true;
      }
    }
    if (!any) continue;
    for (ItemId y = 0; y < num_items; ++y) {
      double ais;
      if (config_.model == DiffusionModel::kIndependentCascade) {
        ais = 1.0 - no_influence[y];
      } else {
        ais = Clip01(lt_mass[y]);
      }
      if (ais <= 0.0) continue;
      const double ppref =
          pref_model.Eval(states[v], problem_.BasePref(v, y), y);
      pi += ais * ppref;
    }
  }
  return pi;
}

}  // namespace imdpp::diffusion
