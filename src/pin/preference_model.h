// Factor (2), preference estimation: Ppref(u, y, ζ_t).
//
// Following the cross-elasticity reading of Sec. III / V-A, a user's
// preference for a not-yet-adopted item y is her base preference plus a
// gain for every adopted complementary item and a penalty for every adopted
// substitutable item, all through her *personal* item network:
//
//   Ppref(u,y) = clip01( base(u,y) +
//                        pref_gain * Σ_{a ∈ A(u)} (r^C(u,a,y) - r^S(u,a,y)) )
//
// Already-adopted items have preference 0 (they cannot be promoted again).
//
// Bound(state, base) is the upper bound the realization kernel tests a
// coin against before evaluating the mean: every net relevance is at most
// 1, so the mean is too, and Ppref ≤ clip01(base + pref_gain) — or
// clip01(base) where Eval takes that branch (no adoption, pref_gain ≤ 0).
// Rounding is monotone, so it dominates Eval bit for bit.
#ifndef IMDPP_PIN_PREFERENCE_MODEL_H_
#define IMDPP_PIN_PREFERENCE_MODEL_H_

#include "pin/personal_item_network.h"

namespace imdpp::pin {

class PreferenceModel {
 public:
  explicit PreferenceModel(const PersonalItemNetwork& pin) : pin_(pin) {}

  /// `base_pref` is the user's static initial preference for y in [0,1].
  double Eval(const UserState& state, double base_pref, kg::ItemId y) const;

  /// Same but ignoring the adoption check (used when scoring hypothetical
  /// adoptions).
  double EvalUnchecked(const UserState& state, double base_pref,
                       kg::ItemId y) const;

  /// Upper bound of Eval(state, base_pref, y) over every item y, O(1).
  double Bound(const UserState& state, double base_pref) const;

 private:
  const PersonalItemNetwork& pin_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_PREFERENCE_MODEL_H_
