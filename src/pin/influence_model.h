// Factor (3), influence learning: Pact(u, v, ζ_t).
//
// The paper infers influence strength from the similarity of two users'
// adopted items and personal item networks (friends who adopt similar items
// and share perceptions grow closer). We realize this as
//
//   sim(u,v)  = a * Jaccard(A(u), A(v)) + (1-a) * cosine(Wmeta_u, Wmeta_v)
//   Pact(u,v) = min(act_cap, base(u,v) * (1 + act_gain * sim(u,v)))
//
// where base(u,v) is the static edge strength of the social graph. With
// act_gain = 0 this degenerates to the classic IC edge probability.
//
// Bound(base) is the state-free upper bound the realization kernel tests a
// coin against before evaluating the similarity: sim ≤ 1, so
// Pact ≤ clip(base * (1 + act_gain), 0, act_cap), the same operations in
// the same order with sim at 1 (rounding is monotone, so it dominates
// Eval bit for bit).
#ifndef IMDPP_PIN_INFLUENCE_MODEL_H_
#define IMDPP_PIN_INFLUENCE_MODEL_H_

#include "pin/perception_params.h"
#include "pin/user_state.h"

namespace imdpp::pin {

class InfluenceModel {
 public:
  explicit InfluenceModel(const PerceptionParams& params) : params_(params) {}

  /// Similarity in [0,1] of two users' dynamic states.
  double Similarity(const UserState& u, const UserState& v) const;

  /// Dynamic influence strength of edge with static weight `base_weight`.
  double Eval(double base_weight, const UserState& u, const UserState& v) const;

  /// Upper bound of Eval(base_weight, u, v) over every pair of states.
  double Bound(double base_weight) const;

 private:
  const PerceptionParams& params_;
};

}  // namespace imdpp::pin

#endif  // IMDPP_PIN_INFLUENCE_MODEL_H_
