// The start-perception table: the net relevance r^C − r^S that item
// associations read, evaluated once per problem under every user's
// initial perception.
//
// A user's meta-graph weighting changes only when the user adopts
// something (PersonalItemNetwork::UpdateWeights runs for adopters only).
// So in a realization that begins at the problem start, a user who has
// adopted nothing still perceives the world through Wmeta0(u), and every
// net relevance RelNet(Wmeta0(u), x, y) the association sweep needs for
// that user is a constant of the problem. The table holds those
// constants for every user u, item x and y in ComplementItems(x) — the
// only y the sweep visits — computed by the same RelNet, so a lookup
// returns the bits a recomputation would.
//
// Size: |V| × Σ_x |ComplementItems(x)| doubles (about 355 KB on
// yelp-like@0.5, 985 KB on amazon-like@0.5). One table serves every
// simulator of a problem: Problem holds a StartPerceptionCache that
// copies share, and the first CampaignSimulator fills it.
#ifndef IMDPP_DIFFUSION_START_PERCEPTION_H_
#define IMDPP_DIFFUSION_START_PERCEPTION_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/social_graph.h"
#include "kg/relevance.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace imdpp::diffusion {

struct Problem;

class StartPerceptionTable {
 public:
  /// Evaluates RelNet(Wmeta0(u), x, y) for every user u, item x and y in
  /// ComplementItems(x) of `problem`.
  explicit StartPerceptionTable(const Problem& problem);

  /// Whether the table was built from `problem`'s relevance model and
  /// initial weightings (compared by value).
  bool BuiltFor(const Problem& problem) const;

  /// Entry k is RelNet(Wmeta0(u), x, ComplementItems(x)[k]).
  const double* Row(graph::UserId u, kg::ItemId x) const {
    return nets_.data() + static_cast<size_t>(u) * stride_ +
           offsets_[static_cast<size_t>(x)];
  }

 private:
  const kg::RelevanceModel* relevance_;
  std::vector<float> wmeta0_;    ///< the weightings it was built from
  std::vector<size_t> offsets_;  ///< first entry of item x within a user row
  size_t stride_ = 0;            ///< Σ_x |ComplementItems(x)|
  std::vector<double> nets_;     ///< |V| x stride_
};

/// The shared, lazily filled home of a problem's StartPerceptionTable.
class StartPerceptionCache {
 public:
  /// The table for `problem`: the held one if it was built for the same
  /// relevance model and initial weightings, else a new one, which
  /// replaces it (tables already handed out stay valid).
  std::shared_ptr<const StartPerceptionTable> Get(const Problem& problem)
      IMDPP_EXCLUDES(mu_);

 private:
  util::Mutex mu_;
  std::shared_ptr<const StartPerceptionTable> table_ IMDPP_GUARDED_BY(mu_);
};

}  // namespace imdpp::diffusion

#endif  // IMDPP_DIFFUSION_START_PERCEPTION_H_
