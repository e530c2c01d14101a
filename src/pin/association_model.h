// Factor (4), item associations: Pext(u, u', x, y, ζ_t).
//
// When u is promoted x by u', an extra adoption of a relevant item y may
// trigger. Per Sec. V-A the probability derives from Pact(u',u),
// Ppref(u,x) (the probability of being promoted and preferring x) and the
// relationships between x and y in u's personal item network:
//
//   Pext = clip01( assoc_scale * Pact(u',u) * Ppref(u,x)
//                  * max(0, r^C(u,x,y) - r^S(u,x,y)) )
//
// Complementary relevance drives extra adoptions; substitutable relevance
// suppresses them (antagonism). The extra adoption is flipped independently
// of whether u actually adopts x (footnote 9 in the paper). Items u has
// already adopted draw no extra adoption; the simulator skips them.
//
// The model takes the net relevance r^C - r^S rather than u's state: the
// simulator reads it from the start-perception table for users still at
// their initial perception and computes it with
// PersonalItemNetwork::RelNet otherwise (diffusion/campaign_simulator.h).
#ifndef IMDPP_PIN_ASSOCIATION_MODEL_H_
#define IMDPP_PIN_ASSOCIATION_MODEL_H_

#include "pin/perception_params.h"
#include "util/mathutil.h"

namespace imdpp::pin {

class AssociationModel {
 public:
  explicit AssociationModel(const PerceptionParams& params)
      : params_(params) {}

  /// Probability that being promoted x (by an edge of dynamic strength
  /// `pact`, with preference `ppref_x` for x) triggers adoption of an item
  /// y whose net relevance to x in u's perception is `net`.
  double ExtraProb(double pact, double ppref_x, double net) const {
    if (net <= 0.0) return 0.0;
    return Clip01(params_.assoc_scale * pact * ppref_x * net);
  }

 private:
  const PerceptionParams& params_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_ASSOCIATION_MODEL_H_
