#include "pin/personal_item_network.h"

#include "util/mathutil.h"

namespace imdpp::pin {

int PersonalItemNetwork::UpdateWeights(
    UserState& state, std::span<const kg::ItemId> newly_adopted) const {
  if (params_.meta_learning_rate <= 0.0 || newly_adopted.empty()) return 0;
  const size_t metas = static_cast<size_t>(rel_.NumMetas());
  std::vector<float>& w = state.wmeta();
  IMDPP_DCHECK(w.size() >= metas);

  // One evidence sum per meta, fed pair by pair: the pairs do not depend
  // on the meta, so each sum adds its scores in the same order a
  // meta-by-meta walk would, and each pair's scores are read once.
  thread_local std::vector<double> evidence;
  evidence.assign(metas, 0.0);
  int pairs = 0;
  auto add_pair = [&](kg::ItemId a, kg::ItemId b) {
    const std::span<const float> scores = rel_.PairScores(a, b);
    for (size_t m = 0; m < metas; ++m) evidence[m] += scores[m];
    ++pairs;
  };
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
    for (kg::ItemId b : newly_adopted) add_pair(a, b);
  }
  // First adoptions: learn from pairs within the new items themselves
  // (e.g. a seed adopting iPhone and AirPods together, Fig. 1).
  if (pairs == 0 && newly_adopted.size() >= 2) {
    for (size_t i = 0; i < newly_adopted.size(); ++i) {
      for (size_t j = i + 1; j < newly_adopted.size(); ++j) {
        add_pair(newly_adopted[i], newly_adopted[j]);
      }
    }
  }
  if (pairs == 0) return 0;
  for (size_t m = 0; m < metas; ++m) {
    const double step = params_.meta_learning_rate *
                        (evidence[m] / static_cast<double>(pairs)) *
                        (1.0 - w[m]);
    w[m] = static_cast<float>(Clip01(w[m] + step));
  }
  return pairs;
}

}  // namespace imdpp::pin
