#include "graph/graph_builder.h"

#include <algorithm>

namespace imdpp::graph {

void GraphBuilder::AddEdge(UserId u, UserId v, double w) {
  IMDPP_CHECK(u >= 0 && u < num_users_);
  IMDPP_CHECK(v >= 0 && v < num_users_);
  if (u == v) return;
  IMDPP_CHECK(w >= 0.0 && w <= 1.0);
  raw_.push_back(Raw{u, v, static_cast<float>(w)});
}

SocialGraph GraphBuilder::Build() {
  std::sort(raw_.begin(), raw_.end(), [](const Raw& a, const Raw& b) {
    if (a.from != b.from) return a.from < b.from;
    if (a.to != b.to) return a.to < b.to;
    return a.weight > b.weight;  // keep max-weight duplicate first
  });
  // Deduplicate (from, to), keeping the first (max-weight) occurrence.
  std::vector<Raw> dedup;
  dedup.reserve(raw_.size());
  for (const Raw& r : raw_) {
    if (!dedup.empty() && dedup.back().from == r.from &&
        dedup.back().to == r.to) {
      continue;
    }
    dedup.push_back(r);
  }

  SocialGraph g;
  g.num_users_ = num_users_;
  g.out_offsets_.assign(num_users_ + 1, 0);
  g.in_offsets_.assign(num_users_ + 1, 0);
  for (const Raw& r : dedup) {
    ++g.out_offsets_[r.from + 1];
    ++g.in_offsets_[r.to + 1];
  }
  for (int u = 0; u < num_users_; ++u) {
    g.out_offsets_[u + 1] += g.out_offsets_[u];
    g.in_offsets_[u + 1] += g.in_offsets_[u];
  }
  g.out_edges_.resize(dedup.size());
  g.in_edges_.resize(dedup.size());
  g.in_slots_.resize(dedup.size());
  std::vector<int64_t> out_pos(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
  std::vector<int64_t> in_pos(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const Raw& r : dedup) {
    g.in_slots_[in_pos[r.to]] =
        static_cast<uint32_t>(out_pos[r.from] - g.out_offsets_[r.from]);
    g.out_edges_[out_pos[r.from]++] = Edge{r.to, r.weight};
    g.in_edges_[in_pos[r.to]++] = Edge{r.from, r.weight};
  }
  return g;
}

}  // namespace imdpp::graph
