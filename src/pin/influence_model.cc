#include "pin/influence_model.h"

#include "util/mathutil.h"

namespace imdpp::pin {

namespace {

double CosineF(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace

double InfluenceModel::Similarity(const UserState& u,
                                  const UserState& v) const {
  double jac = JaccardSorted(u.Adopted(), v.Adopted());
  double cos = CosineF(u.wmeta(), v.wmeta());
  double a = params_.sim_adoption_weight;
  return Clip01(a * jac + (1.0 - a) * cos);
}

double InfluenceModel::Eval(double base_weight, const UserState& u,
                            const UserState& v) const {
  if (params_.act_gain <= 0.0) return Clip(base_weight, 0.0, params_.act_cap);
  double sim = Similarity(u, v);
  return Clip(base_weight * (1.0 + params_.act_gain * sim), 0.0,
              params_.act_cap);
}

double InfluenceModel::Bound(double base_weight) const {
  if (params_.act_gain <= 0.0) return Clip(base_weight, 0.0, params_.act_cap);
  return Clip(base_weight * (1.0 + params_.act_gain), 0.0, params_.act_cap);
}

}  // namespace imdpp::pin
