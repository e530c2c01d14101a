#include "diffusion/problem.h"

namespace imdpp::diffusion {

void Problem::Validate() const {
  IMDPP_CHECK(graph != nullptr);
  IMDPP_CHECK(relevance != nullptr);
  IMDPP_CHECK_GE(NumUsers(), 0);
  IMDPP_CHECK_GE(NumItems(), 0);
  IMDPP_CHECK_GE(NumMetas(), 0);
  const size_t v = static_cast<size_t>(NumUsers());
  const size_t i = static_cast<size_t>(NumItems());
  const size_t m = static_cast<size_t>(NumMetas());
  IMDPP_CHECK_EQ(importance.size(), i);
  IMDPP_CHECK_EQ(base_pref.size(), v * i);
  IMDPP_CHECK_EQ(cost.size(), v * i);
  IMDPP_CHECK_EQ(wmeta0.size(), v * m);
  IMDPP_CHECK_GE(num_promotions, 1);
  IMDPP_CHECK_GE(budget, 0.0);
  for (double w : importance) IMDPP_CHECK_GE(w, 0.0);
  for (float p : base_pref) IMDPP_CHECK(p >= 0.0f && p <= 1.0f);
  for (float c : cost) IMDPP_CHECK_GT(c, 0.0f);
  for (float w : wmeta0) IMDPP_CHECK(w >= 0.0f && w <= 1.0f);
  IMDPP_CHECK(start_adopted.empty() || start_adopted.size() == v);
  for (const std::vector<ItemId>& items : start_adopted) {
    for (size_t k = 0; k < items.size(); ++k) {
      IMDPP_CHECK(items[k] >= 0 && items[k] < NumItems());
      IMDPP_CHECK(k == 0 || items[k - 1] < items[k]);
    }
  }
}

Problem Problem::StartedAt(const std::vector<pin::UserState>& states) const {
  IMDPP_CHECK_EQ(states.size(), static_cast<size_t>(NumUsers()));
  Problem started = *this;
  started.wmeta0.clear();
  started.start_adopted.clear();
  for (const pin::UserState& s : states) {
    IMDPP_CHECK_EQ(s.wmeta().size(), static_cast<size_t>(NumMetas()));
    started.wmeta0.insert(started.wmeta0.end(), s.wmeta().begin(),
                          s.wmeta().end());
    started.start_adopted.push_back(s.Adopted());
  }
  started.start_perception = std::make_shared<StartPerceptionCache>();
  started.Validate();
  return started;
}

}  // namespace imdpp::diffusion
