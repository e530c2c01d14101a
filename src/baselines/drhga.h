// DRHGA baseline (after Huang, Meng, Shen, "Competitive and complementary
// influence maximization ...", KBS'20, as characterized in Sec. VI-B): it
// promotes *every* item, selecting appropriate users per item — the
// per-item greedy is why it beats BGRD (which bundles) but it neither
// chooses which items to promote nor models dynamic perception. The
// per-item budget split is importance-proportional.
#ifndef IMDPP_BASELINES_DRHGA_H_
#define IMDPP_BASELINES_DRHGA_H_

#include "baselines/common.h"

namespace imdpp::baselines {

BaselineResult RunDrhga(const Problem& problem, RunContext& run);

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_DRHGA_H_
