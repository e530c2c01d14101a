// BGRD baseline (after Banerjee, Chen, Lakshmanan, "Maximizing welfare ...
// under a utility driven influence diffusion model", SIGMOD'19, as
// characterized in Sec. VI-B): items are treated as one *bundle*; users are
// selected greedily by the marginal influence of seeding them with the
// affordable part of the bundle (items in importance order), normalized
// by cost. It ignores the substitutable relationship by construction —
// the weakness Fig. 9 exposes on Douban-like data.
#ifndef IMDPP_BASELINES_BGRD_H_
#define IMDPP_BASELINES_BGRD_H_

#include "baselines/common.h"

namespace imdpp::baselines {

BaselineResult RunBgrd(const Problem& problem, RunContext& run);

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_BGRD_H_
