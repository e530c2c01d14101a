// Adaptive Dysim (Sec. V-D): no predefined budget allocation across
// promotions; after each promotion the realized adoptions are observed and
// the next promotion is planned from the observed state.
//
// Per round t < T the planner repeats:
//   * pick the affordable candidate with the highest MCP, estimated from
//     the observed state over the remaining horizon;
//   * reject it and stop the round if it would promote an item
//     substitutable to an item already chosen this round (antagonism of
//     the substitutable relationship);
//   * stop the round if the candidate prefers timing t+1 over t (the
//     TDSI-style two-slot check) — remaining budget carries over.
// The last round spends the remaining budget greedily. After planning a
// round, one realization of that promotion is simulated (the "reality"
// draw, on its own stream of the run's master seed) and its end state
// seeds the next round.
//
// Each round plans on an engine over the problem started at the observed
// state (Problem::StartedAt), so its estimates resume checkpoints and
// replay base realizations like every other planner's. The planner runs
// on the "mc" backend only and rejects any other with kInvalidArgument:
// the ris backend's sketches ignore start adoptions.
#ifndef IMDPP_CORE_ADAPTIVE_DYSIM_H_
#define IMDPP_CORE_ADAPTIVE_DYSIM_H_

#include <vector>

#include "core/dysim.h"

namespace imdpp::core {

struct AdaptiveConfig {
  /// Net substitutable relevance above which two same-round items count as
  /// antagonistic.
  double antagonism_threshold = 0.25;
};

struct AdaptiveRound {
  int promotion = 0;      ///< 1-based t
  SeedGroup seeds;        ///< seeds placed this round (absolute timing)
  double spent = 0.0;
  double realized_sigma = 0.0;  ///< adoptions observed in this round
};

struct AdaptiveResult {
  SeedGroup seeds;
  double realized_sigma = 0.0;
  double total_spent = 0.0;
  std::vector<AdaptiveRound> rounds;
  /// How the run ended (see DysimResult::status); a non-ok run stops at
  /// the next promotion-round boundary with the rounds planned so far.
  util::Status status;
};

AdaptiveResult RunAdaptiveDysim(const Problem& problem, RunContext& run,
                                const AdaptiveConfig& config = {});

}  // namespace imdpp::core

#endif  // IMDPP_CORE_ADAPTIVE_DYSIM_H_
