// PS baseline (after Teng et al., "Revenue maximization on the multi-grade
// product", SDM'18, as characterized in Sec. VI-B): each candidate seed is
// scored *alone* by the importance- and preference-weighted mass of its
// maximum-influence-path region, with a discount for users already covered
// by selected seeds. It never re-simulates combinations, which makes it
// cheap but unable to exploit cross-promotion item impact (the weakness
// Fig. 9 exposes).
#ifndef IMDPP_BASELINES_PS_H_
#define IMDPP_BASELINES_PS_H_

#include "baselines/common.h"

namespace imdpp::baselines {

struct PsConfig {
  double path_threshold = 0.01;
  int max_hops = 8;
  /// Score multiplier for already-covered users.
  double covered_discount = 0.2;
};

BaselineResult RunPs(const Problem& problem, RunContext& run,
                     const PsConfig& config = {});

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_PS_H_
