#include "pin/preference_model.h"

#include "util/mathutil.h"

namespace imdpp::pin {

double PreferenceModel::Eval(const UserState& state, double base_pref,
                             kg::ItemId y) const {
  if (state.Has(y)) return 0.0;
  return EvalUnchecked(state, base_pref, y);
}

double PreferenceModel::EvalUnchecked(const UserState& state, double base_pref,
                                      kg::ItemId y) const {
  const PerceptionParams& params = pin_.params();
  if (params.pref_gain <= 0.0 || state.Adopted().empty()) {
    return Clip01(base_pref);
  }
  // Mean (not sum) over adopted items: a user's perception of y is the
  // average pull of what she owns. The mean keeps the preference shift in
  // [-pref_gain, +pref_gain] regardless of basket size, preventing the
  // runaway where every large basket saturates all preferences to 1.
  double delta = 0.0;
  for (kg::ItemId a : state.Adopted()) {
    delta += pin_.RelNet(state.wmeta(), a, y);
  }
  delta /= static_cast<double>(state.Adopted().size());
  return Clip01(base_pref + params.pref_gain * delta);
}

double PreferenceModel::Bound(const UserState& state, double base_pref) const {
  const PerceptionParams& params = pin_.params();
  if (params.pref_gain <= 0.0 || state.Adopted().empty()) {
    return Clip01(base_pref);
  }
  return Clip01(base_pref + params.pref_gain);
}

}  // namespace imdpp::pin
