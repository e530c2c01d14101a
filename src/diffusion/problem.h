// The IMDPP problem instance: everything Definition 2 takes as given.
//
// Owns the per-(user,item) base preferences and seeding costs, the item
// importance vector W, the start of every realization (the initial
// personal meta-graph weightings and adoption sets), and the
// budget/promotion-count knobs. The social graph and relevance model are
// referenced, not owned (they typically live in a data::Dataset). Copies
// share one StartPerceptionCache, so every simulator of a problem and of
// its copies reads one start-perception table.
//
// A catalog problem starts with nothing adopted. Adaptive IM (Sec. V-D)
// replans from an observed state: StartedAt builds the problem whose
// realizations begin there, so every estimate path — checkpoints, base
// replay, the σ memo — serves it unchanged.
#ifndef IMDPP_DIFFUSION_PROBLEM_H_
#define IMDPP_DIFFUSION_PROBLEM_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/social_graph.h"
#include "kg/relevance.h"
#include "pin/perception_params.h"
#include "diffusion/seed.h"
#include "diffusion/start_perception.h"
#include "pin/user_state.h"

namespace imdpp::diffusion {

struct Problem {
  const graph::SocialGraph* graph = nullptr;
  const kg::RelevanceModel* relevance = nullptr;
  pin::PerceptionParams params;

  /// Item importance w_x (Definition 1).
  std::vector<double> importance;

  /// Row-major |V| x |I| initial preferences Ppref(u, x, 0) in [0,1].
  std::vector<float> base_pref;

  /// Row-major |V| x |I| seeding costs c_{u,x} > 0.
  std::vector<float> cost;

  /// Row-major |V| x NumMetas initial weightings Wmeta(u, m, 0) in [0,1].
  std::vector<float> wmeta0;

  /// Items each user has adopted at the start: empty (the default) when
  /// nobody has, else one sorted, duplicate-free list per user.
  std::vector<std::vector<ItemId>> start_adopted;

  /// Total campaign budget b and number of promotions T.
  double budget = 0.0;
  int num_promotions = 1;

  /// Home of the start-perception table, filled by the first simulator
  /// (diffusion/start_perception.h). A simulator reads the table it was
  /// built with, so edit `relevance` and `wmeta0` before constructing
  /// simulators; a copy with other values gets its own table, which
  /// replaces the one its copies share.
  std::shared_ptr<StartPerceptionCache> start_perception =
      std::make_shared<StartPerceptionCache>();

  int NumUsers() const { return graph->NumUsers(); }
  int NumItems() const { return relevance->NumItems(); }
  int NumMetas() const { return relevance->NumMetas(); }

  /// Row-major index into the |V| x |I| matrices. Uniformly size_t: on
  /// production-scale instances |V| x |I| overflows int, and mixing int
  /// operands into the product invites it.
  size_t UserItemIndex(UserId u, ItemId x) const {
    return static_cast<size_t>(u) * static_cast<size_t>(NumItems()) +
           static_cast<size_t>(x);
  }

  double BasePref(UserId u, ItemId x) const {
    return base_pref[UserItemIndex(u, x)];
  }
  double Cost(UserId u, ItemId x) const { return cost[UserItemIndex(u, x)]; }
  std::span<const float> Wmeta0(UserId u) const {
    const size_t metas = static_cast<size_t>(NumMetas());
    return {wmeta0.data() + static_cast<size_t>(u) * metas, metas};
  }
  std::span<const ItemId> StartAdopted(UserId u) const {
    if (start_adopted.empty()) return {};
    return start_adopted[static_cast<size_t>(u)];
  }

  double TotalCost(const SeedGroup& seeds) const {
    double c = 0.0;
    for (const Seed& s : seeds) c += Cost(s.user, s.item);
    return c;
  }

  /// This problem, starting at the observed `states` (one per user): the
  /// copy's weightings and start adoptions are theirs, and it gets its own
  /// StartPerceptionCache, so this problem's table is never replaced.
  Problem StartedAt(const std::vector<pin::UserState>& states) const;

  /// Sanity-checks array shapes and value ranges; aborts on violation.
  void Validate() const;
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_PROBLEM_H_
