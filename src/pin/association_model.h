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
// of whether u actually adopts x (footnote 9 in the paper).
#ifndef IMDPP_PIN_ASSOCIATION_MODEL_H_
#define IMDPP_PIN_ASSOCIATION_MODEL_H_

#include "pin/personal_item_network.h"
#include "util/mathutil.h"

namespace imdpp::pin {

class AssociationModel {
 public:
  explicit AssociationModel(const PersonalItemNetwork& pin) : pin_(pin) {}

  /// Probability that being promoted x (by an edge of dynamic strength
  /// `pact`, with preference `ppref_x` for x) triggers adoption of y.
  double ExtraProb(const UserState& state, double pact, double ppref_x,
                   kg::ItemId x, kg::ItemId y) const {
    const PerceptionParams& params = pin_.params();
    if (params.assoc_scale <= 0.0) return 0.0;
    if (state.Has(y)) return 0.0;
    const double net = pin_.RelNet(state.wmeta(), x, y);
    if (net <= 0.0) return 0.0;
    return Clip01(params.assoc_scale * pact * ppref_x * net);
  }

 private:
  const PersonalItemNetwork& pin_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_ASSOCIATION_MODEL_H_
