// HAG baseline (after Hung et al., "When social influence meets item
// inference", KDD'16, as characterized in Sec. VI-B): greedy selection of
// the most cost-effective user-item *pairs* (marginal σ̂ per cost), blind
// to item relationships and promotional structure. Its pair enumeration is
// what makes it slow at large budgets (Fig. 9(d)).
#ifndef IMDPP_BASELINES_HAG_H_
#define IMDPP_BASELINES_HAG_H_

#include "baselines/common.h"

namespace imdpp::baselines {

BaselineResult RunHag(const Problem& problem, RunContext& run);

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_HAG_H_
