// OPT: exhaustive search over (user, item, timing) triples (the brute-force
// reference of Fig. 8). Exact over the given candidate universe; on larger
// instances the universe must be pruned (`max_candidates` strongest
// singletons) and the seed-set size capped, which the Fig. 8 harness
// documents. Complexity: O( (|C|·T)^{max_seeds} ) σ̂ evaluations.
#ifndef IMDPP_BASELINES_OPT_H_
#define IMDPP_BASELINES_OPT_H_

#include "baselines/common.h"

namespace imdpp::baselines {

struct OptConfig {
  /// Keep the strongest-singleton candidates (0 = all).
  int max_candidates = 10;
  /// Cap on the seed-group size (0 = unbounded).
  int max_seeds = 3;
  /// Extra nominees force-included in the pruned pool (deduplicated).
  /// Passing the heuristics' solutions here guarantees the pruned
  /// enumeration still upper-bounds them.
  std::vector<Nominee> extra_candidates;
};

BaselineResult RunOpt(const Problem& problem, RunContext& run,
                      const OptConfig& config = {});

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_OPT_H_
