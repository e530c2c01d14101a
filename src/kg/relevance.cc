#include "kg/relevance.h"

#include <numeric>

#include "kg/meta_graph_matcher.h"
#include "util/mathutil.h"

namespace imdpp::kg {

void RelevanceModel::Init(int num_items, std::vector<MetaGraph> metas) {
  num_items_ = num_items;
  metas_ = std::move(metas);
  kinds_.clear();
  for (const MetaGraph& m : metas_) kinds_.push_back(m.kind);
  scores_.assign(static_cast<size_t>(num_items) * num_items * metas_.size(),
                 0.0f);
}

RelevanceModel RelevanceModel::FromKg(const KnowledgeGraph& kg,
                                      std::vector<MetaGraph> metas,
                                      double kappa) {
  IMDPP_CHECK_GT(kappa, 0.0);
  RelevanceModel model;
  model.Init(kg.NumItems(), std::move(metas));
  MetaGraphMatcher matcher(kg);
  const size_t num_metas = model.metas_.size();
  for (size_t m = 0; m < num_metas; ++m) {
    std::vector<int64_t> counts = matcher.CountAllPairs(model.metas_[m]);
    for (size_t i = 0; i < counts.size(); ++i) {
      double c = static_cast<double>(counts[i]);
      model.scores_[i * num_metas + m] = static_cast<float>(c / (c + kappa));
    }
  }
  model.BuildRelated();
  return model;
}

RelevanceModel RelevanceModel::FromMatrices(
    int num_items, std::vector<MetaGraph> metas,
    std::vector<std::vector<float>> matrices) {
  IMDPP_CHECK_EQ(metas.size(), matrices.size());
  RelevanceModel model;
  model.Init(num_items, std::move(metas));
  const size_t num_metas = model.metas_.size();
  for (size_t m = 0; m < num_metas; ++m) {
    const std::vector<float>& mat = matrices[m];
    IMDPP_CHECK_EQ(mat.size(),
                   static_cast<size_t>(num_items) * num_items);
    for (size_t i = 0; i < mat.size(); ++i) {
      IMDPP_CHECK(mat[i] >= 0.0f && mat[i] <= 1.0f);
      model.scores_[i * num_metas + m] = mat[i];
    }
  }
  model.BuildRelated();
  return model;
}

void RelevanceModel::BuildRelated() {
  related_.assign(num_items_, {});
  complement_.assign(num_items_, {});
  complement_bound_.assign(num_items_, {});
  // Rows are gathered in reused buffers and copied once, at their exact
  // size: growing each list push by push costs more than the scan.
  std::vector<ItemId> related, complement;
  std::vector<double> bound;
  for (ItemId x = 0; x < num_items_; ++x) {
    related.clear();
    complement.clear();
    bound.clear();
    for (ItemId y = 0; y < num_items_; ++y) {
      if (y == x) continue;
      bool any = false;
      bool comp = false;
      // RelNet's complementary sum with every weight at 1, in its order.
      double comp_sum = 0.0;
      const std::span<const float> s = PairScores(x, y);
      for (size_t m = 0; m < s.size(); ++m) {
        if (s[m] <= 0.0f) continue;
        any = true;
        if (kinds_[m] == RelationKind::kComplementary) {
          comp = true;
          comp_sum += s[m];
        }
      }
      if (any) related.push_back(y);
      if (comp) {
        complement.push_back(y);
        bound.push_back(Clip01(comp_sum));
      }
    }
    related_[x].assign(related.begin(), related.end());
    complement_[x].assign(complement.begin(), complement.end());
    complement_bound_[x].assign(bound.begin(), bound.end());
  }
}

RelevanceModel RelevanceModel::WithMetaSubset(
    const std::vector<int>& indices) const {
  IMDPP_CHECK(!indices.empty());
  std::vector<MetaGraph> metas;
  for (int i : indices) {
    IMDPP_CHECK(i >= 0 && i < NumMetas());
    metas.push_back(metas_[i]);
  }
  RelevanceModel model;
  model.Init(num_items_, std::move(metas));
  const size_t pairs = static_cast<size_t>(num_items_) * num_items_;
  const size_t from = kinds_.size();
  const size_t to = indices.size();
  for (size_t p = 0; p < pairs; ++p) {
    for (size_t k = 0; k < to; ++k) {
      model.scores_[p * to + k] =
          scores_[p * from + static_cast<size_t>(indices[k])];
    }
  }
  model.BuildRelated();
  return model;
}

RelevanceModel RelevanceModel::WithFirstMetas(int k) const {
  IMDPP_CHECK(k >= 1 && k <= NumMetas());
  std::vector<int> first(static_cast<size_t>(k));
  std::iota(first.begin(), first.end(), 0);
  return WithMetaSubset(first);
}

}  // namespace imdpp::kg
