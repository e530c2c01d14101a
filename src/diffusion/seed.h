// Seeds and seed groups. A seed (u, x, t) assigns item x to user u in the
// t-th promotion (t is 1-based, matching the paper). A nominee is the
// timing-free pair (u, x).
#ifndef IMDPP_DIFFUSION_SEED_H_
#define IMDPP_DIFFUSION_SEED_H_

#include <algorithm>
#include <vector>

#include "graph/social_graph.h"
#include "kg/types.h"

namespace imdpp::diffusion {

using graph::UserId;
using kg::ItemId;

/// Candidate seed without a promotional timing.
struct Nominee {
  UserId user = -1;
  ItemId item = -1;

  friend bool operator==(const Nominee& a, const Nominee& b) {
    return a.user == b.user && a.item == b.item;
  }
  friend bool operator<(const Nominee& a, const Nominee& b) {
    return a.user != b.user ? a.user < b.user : a.item < b.item;
  }
};

/// A scheduled seed (u, x, t).
struct Seed {
  UserId user = -1;
  ItemId item = -1;
  int promotion = 1;  ///< 1-based promotion index t

  Nominee AsNominee() const { return Nominee{user, item}; }

  friend bool operator==(const Seed& a, const Seed& b) {
    return a.user == b.user && a.item == b.item && a.promotion == b.promotion;
  }
  friend bool operator<(const Seed& a, const Seed& b) {
    if (a.promotion != b.promotion) return a.promotion < b.promotion;
    if (a.user != b.user) return a.user < b.user;
    return a.item < b.item;
  }
};

using SeedGroup = std::vector<Seed>;

/// Latest promotional timing t̂ in the group (0 if empty).
inline int LatestTiming(const SeedGroup& seeds) {
  int t = 0;
  for (const Seed& s : seeds) t = std::max(t, s.promotion);
  return t;
}

/// Seeds scheduled for promotion t.
inline SeedGroup SubgroupAt(const SeedGroup& seeds, int t) {
  SeedGroup out;
  for (const Seed& s : seeds) {
    if (s.promotion == t) out.push_back(s);
  }
  return out;
}

/// Every nominee seeded in the first promotion, in order: the group whose
/// σ̂ is f(N) for set-function selection (MCP, SMK, N_first).
inline SeedGroup AtFirstPromotion(const std::vector<Nominee>& nominees) {
  SeedGroup seeds;
  seeds.reserve(nominees.size());
  for (const Nominee& n : nominees) seeds.push_back({n.user, n.item, 1});
  return seeds;
}

/// True if the (user, item) nominee already appears at any timing.
inline bool ContainsNominee(const SeedGroup& seeds, const Nominee& n) {
  for (const Seed& s : seeds) {
    if (s.user == n.user && s.item == n.item) return true;
  }
  return false;
}

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_SEED_H_
