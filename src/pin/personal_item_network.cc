#include "pin/personal_item_network.h"

#include "util/mathutil.h"

namespace imdpp::pin {

void PersonalItemNetwork::UpdateWeights(
    UserState& state, std::span<const kg::ItemId> newly_adopted) const {
  if (params_.meta_learning_rate <= 0.0 || newly_adopted.empty()) return;
  const int metas = rel_.NumMetas();
  std::vector<float>& w = state.wmeta();
  IMDPP_DCHECK(static_cast<int>(w.size()) >= metas);

  for (int m = 0; m < metas; ++m) {
    double evidence = 0.0;
    int pairs = 0;
    // Pairs (previously adopted a, newly adopted b). The adoption set
    // already contains the new items, so skip them on the `a` side.
    for (kg::ItemId a : state.Adopted()) {
      bool a_is_new = false;
      for (kg::ItemId b : newly_adopted) {
        if (a == b) {
          a_is_new = true;
          break;
        }
      }
      if (a_is_new) continue;
      for (kg::ItemId b : newly_adopted) {
        evidence += rel_.Score(m, a, b);
        ++pairs;
      }
    }
    // First adoptions: learn from pairs within the new items themselves
    // (e.g. a seed adopting iPhone and AirPods together, Fig. 1).
    if (pairs == 0 && newly_adopted.size() >= 2) {
      for (size_t i = 0; i < newly_adopted.size(); ++i) {
        for (size_t j = i + 1; j < newly_adopted.size(); ++j) {
          evidence += rel_.Score(m, newly_adopted[i], newly_adopted[j]);
          ++pairs;
        }
      }
    }
    if (pairs == 0) continue;
    evidence /= static_cast<double>(pairs);
    double step = params_.meta_learning_rate * evidence * (1.0 - w[m]);
    w[m] = static_cast<float>(Clip01(w[m] + step));
  }
}

}  // namespace imdpp::pin
