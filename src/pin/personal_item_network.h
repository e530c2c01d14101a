// Factor (1), relevance measurement: the personal item network
// G_PIN(u, ζ_t) and the update of personal meta-graph weightings.
//
// r^C(u,x,y) = clip01( Σ_{m ∈ {m^C}} Wmeta(u,m) * s(x,y|m) )
// r^S(u,x,y) = clip01( Σ_{m ∈ {m^S}} Wmeta(u,m) * s(x,y|m) )
//
// Weight update (after u's adoption decisions at a step): for each meta m,
// the *evidence* is the mean relevance s(a,b|m) over pairs of previously
// adopted items a and newly adopted items b (for a first adoption, pairs
// within the new items). Weights move by a saturating step
//   w += eta * evidence * (1 - w),
// mirroring Fig. 1(c)->(d): metas that connect what the user just adopted
// gain significance, bounded by 1.
#ifndef IMDPP_PIN_PERSONAL_ITEM_NETWORK_H_
#define IMDPP_PIN_PERSONAL_ITEM_NETWORK_H_

#include <span>
#include <vector>

#include "kg/relevance.h"
#include "pin/perception_params.h"
#include "pin/user_state.h"
#include "util/mathutil.h"

namespace imdpp::pin {

class PersonalItemNetwork {
 public:
  PersonalItemNetwork(const kg::RelevanceModel& relevance,
                      const PerceptionParams& params)
      : rel_(relevance), params_(params) {}

  /// Complementary relevance between x and y in the perception encoded by
  /// `wmeta`.
  double RelC(std::span<const float> wmeta, kg::ItemId x, kg::ItemId y) const {
    return Clip01(Sums(wmeta, x, y).c);
  }

  /// Substitutable relevance.
  double RelS(std::span<const float> wmeta, kg::ItemId x, kg::ItemId y) const {
    return Clip01(Sums(wmeta, x, y).s);
  }

  /// Net relevance r^C - r^S (can be negative). One pass over the pair's
  /// scores, so it is RelC(...) - RelS(...) bit for bit at half the cost.
  double RelNet(std::span<const float> wmeta, kg::ItemId x,
                kg::ItemId y) const {
    const KindSums sums = Sums(wmeta, x, y);
    return Clip01(sums.c) - Clip01(sums.s);
  }

  /// Applies the weight update to `state` given the items newly adopted at
  /// this step. Call *after* the items were added to the adoption set.
  /// Returns the item pairs whose evidence it summed (0 = no update).
  int UpdateWeights(UserState& state,
                    std::span<const kg::ItemId> newly_adopted) const;

  const kg::RelevanceModel& relevance() const { return rel_; }
  const PerceptionParams& params() const { return params_; }

 private:
  /// Unclipped Σ Wmeta(u,m) * s(x,y|m) over the complementary (`c`) and
  /// the substitutable (`s`) metas, each summed in meta order.
  struct KindSums {
    double c = 0.0;
    double s = 0.0;
  };
  KindSums Sums(std::span<const float> wmeta, kg::ItemId x,
                kg::ItemId y) const {
    KindSums sums;
    if (x == y) return sums;
    const std::span<const float> scores = rel_.PairScores(x, y);
    const std::span<const kg::RelationKind> kinds = rel_.Kinds();
    IMDPP_DCHECK(wmeta.size() >= scores.size());
    for (size_t m = 0; m < scores.size(); ++m) {
      // Float product, double sum.
      const float term = wmeta[m] * scores[m];
      if (kinds[m] == kg::RelationKind::kComplementary) {
        sums.c += term;
      } else {
        sums.s += term;
      }
    }
    return sums;
  }

  const kg::RelevanceModel& rel_;
  const PerceptionParams& params_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_PERSONAL_ITEM_NETWORK_H_
