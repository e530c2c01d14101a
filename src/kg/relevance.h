// Per-meta-graph item-item relevance s(x,y|m) in [0,1].
//
// The RelevanceModel owns one dense score store laid out pair-major —
// s(x,y|m) at [(x * NumItems + y) * NumMetas + m] — plus one relationship
// kind per meta-graph. Personal relevance is a user-weighted combination
// of a pair's scores (pin/personal_item_network), so the pair-major layout
// puts everything one relevance evaluation reads in one contiguous run of
// NumMetas floats. This class only holds the *shared* KG-derived part,
// which never changes during a campaign.
//
// Pair bounds: beside each ComplementItems(x) list sits a per-pair upper
// bound on the net relevance r^C − r^S that any user can perceive,
// Clip01(Σ_{complementary m} max(0, s(x,y|m))) summed in meta order. A
// weighting in [0, 1] scales every float term down (w·s ≤ s, and rounding
// is monotone), so RelNet — and every start-perception table entry, which
// is a RelNet — never exceeds it, bit for bit. The realization kernel
// compares an association coin against it before computing the exact net
// (diffusion/campaign_simulator.h, "Coins first").
#ifndef IMDPP_KG_RELEVANCE_H_
#define IMDPP_KG_RELEVANCE_H_

#include <span>
#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "kg/meta_graph.h"

namespace imdpp::kg {

class RelevanceModel {
 public:
  /// Builds s(x,y|m) = count / (count + kappa) from meta-graph instance
  /// counts over `kg`. `kappa > 0` controls saturation (default 2: one
  /// shared feature already gives s = 1/3, three give 0.6).
  static RelevanceModel FromKg(const KnowledgeGraph& kg,
                               std::vector<MetaGraph> metas,
                               double kappa = 2.0);

  /// Builds directly from caller-provided matrices (tests, toy examples).
  /// Each matrix is row-major num_items x num_items with values in [0,1].
  static RelevanceModel FromMatrices(int num_items,
                                     std::vector<MetaGraph> metas,
                                     std::vector<std::vector<float>> matrices);

  int NumItems() const { return num_items_; }
  int NumMetas() const { return static_cast<int>(metas_.size()); }

  const MetaGraph& Meta(int m) const { return metas_[m]; }
  RelationKind KindOf(int m) const { return kinds_[m]; }
  /// Every meta's kind, indexed by meta.
  std::span<const RelationKind> Kinds() const { return kinds_; }

  /// s(x,y|m) in [0,1].
  float Score(int m, ItemId x, ItemId y) const {
    IMDPP_DCHECK(m >= 0 && m < NumMetas());
    return PairScores(x, y)[static_cast<size_t>(m)];
  }

  /// s(x,y|m) for every meta m, in meta order.
  std::span<const float> PairScores(ItemId x, ItemId y) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    IMDPP_DCHECK(y >= 0 && y < num_items_);
    const size_t metas = kinds_.size();
    return {scores_.data() + PairIndex(x, y) * metas, metas};
  }

  /// Items y with Score(m, x, y) > 0 for *any* meta m; precomputed sparse
  /// neighbor lists used by item-association and DR propagation loops.
  const std::vector<ItemId>& RelatedItems(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    return related_[x];
  }

  /// The y in RelatedItems(x) with Score(m, x, y) > 0 for some
  /// complementary meta m, in the same order. Every other y has zero
  /// complementary relevance under any weighting, so its net relevance
  /// r^C - r^S is never positive and it can never trigger an extra
  /// adoption (pin::AssociationModel).
  const std::vector<ItemId>& ComplementItems(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    return complement_[x];
  }

  /// Entry k bounds RelNet(w, x, ComplementItems(x)[k]) from above for
  /// every weighting w in [0, 1] (see the file comment).
  const std::vector<double>& ComplementBounds(ItemId x) const {
    IMDPP_DCHECK(x >= 0 && x < num_items_);
    return complement_bound_[x];
  }

  /// Restricts the model to its first `k` meta-graphs (sensitivity test,
  /// Fig. 13). k must be in [1, NumMetas()].
  RelevanceModel WithFirstMetas(int k) const;

  /// Restricts the model to an arbitrary meta-graph subset, in the given
  /// order. Indices must be valid and non-empty.
  RelevanceModel WithMetaSubset(const std::vector<int>& indices) const;

 private:
  RelevanceModel() = default;
  /// Sets the metas (and their kinds) and sizes the zeroed score store.
  void Init(int num_items, std::vector<MetaGraph> metas);
  size_t PairIndex(ItemId x, ItemId y) const {
    return static_cast<size_t>(x) * static_cast<size_t>(num_items_) +
           static_cast<size_t>(y);
  }
  void BuildRelated();

  int num_items_ = 0;
  std::vector<MetaGraph> metas_;
  std::vector<RelationKind> kinds_;  ///< kinds_[m] == metas_[m].kind
  std::vector<float> scores_;        ///< pair-major, see the file comment
  std::vector<std::vector<ItemId>> related_;
  std::vector<std::vector<ItemId>> complement_;
  std::vector<std::vector<double>> complement_bound_;
};

}  // namespace imdpp::kg

#endif  // IMDPP_KG_RELEVANCE_H_
