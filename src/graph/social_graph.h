// Social network G_SN = (V, E) with per-edge base influence strength.
//
// The graph is stored in CSR form with both out- and in-adjacency so that
// diffusion (out-edges of newly adopting users) and AIS aggregation
// (in-edges of a candidate adopter, Eq. 13) are both cache-friendly.
// Each source's out-edges are sorted by target, and each in-edge knows
// its slot among its source's out-edges (InEdgeSlots).
// Edge weights are the *initial* influence strengths; the dynamic strength
// Pact(u,v,ζ_t) is derived on top of them by pin::InfluenceModel.
#ifndef IMDPP_GRAPH_SOCIAL_GRAPH_H_
#define IMDPP_GRAPH_SOCIAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace imdpp::graph {

using UserId = int32_t;

/// A directed edge with its base influence strength in [0,1].
struct Edge {
  UserId to = -1;
  float weight = 0.0f;
};

/// Immutable CSR social graph. Build with GraphBuilder.
class SocialGraph {
 public:
  SocialGraph() = default;

  int NumUsers() const { return num_users_; }
  int64_t NumEdges() const { return static_cast<int64_t>(out_edges_.size()); }

  /// Out-neighbors of u with base influence strengths.
  std::span<const Edge> OutEdges(UserId u) const {
    IMDPP_DCHECK(u >= 0 && u < num_users_);
    return {out_edges_.data() + out_offsets_[u],
            out_edges_.data() + out_offsets_[u + 1]};
  }

  /// In-neighbors of u: edges (v -> u) reported as {from=v, weight}.
  std::span<const Edge> InEdges(UserId u) const {
    IMDPP_DCHECK(u >= 0 && u < num_users_);
    return {in_edges_.data() + in_offsets_[u],
            in_edges_.data() + in_offsets_[u + 1]};
  }

  /// Aligned with InEdges(u): each in-edge's slot in its source's
  /// out-edges, so OutEdges(InEdges(u)[i].to)[InEdgeSlots(u)[i]].to == u.
  std::span<const uint32_t> InEdgeSlots(UserId u) const {
    IMDPP_DCHECK(u >= 0 && u < num_users_);
    return {in_slots_.data() + in_offsets_[u],
            in_slots_.data() + in_offsets_[u + 1]};
  }

  int OutDegree(UserId u) const {
    IMDPP_DCHECK(u >= 0 && u < num_users_);
    return static_cast<int>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  int InDegree(UserId u) const {
    IMDPP_DCHECK(u >= 0 && u < num_users_);
    return static_cast<int>(in_offsets_[u + 1] - in_offsets_[u]);
  }

  /// Base influence strength of edge (u -> v); 0 if the edge is absent.
  /// O(out-degree of u).
  double BaseWeight(UserId u, UserId v) const;

  /// True if edge (u -> v) exists.
  bool HasEdge(UserId u, UserId v) const { return BaseWeight(u, v) > 0.0; }

  /// Mean base influence strength over all edges (Table II row).
  double AverageInfluenceStrength() const;

 private:
  friend class GraphBuilder;

  int num_users_ = 0;
  std::vector<int64_t> out_offsets_{0};
  std::vector<Edge> out_edges_;
  std::vector<int64_t> in_offsets_{0};
  std::vector<Edge> in_edges_;
  std::vector<uint32_t> in_slots_;  ///< aligned with in_edges_
};

}  // namespace imdpp::graph

#endif  // IMDPP_GRAPH_SOCIAL_GRAPH_H_
