// Nominee selection by Marginal Cost-Performance ratio (Procedure 2 /
// selectNominees) with CELF-style lazy evaluation, and the two greedy
// steps every planner shares: the gain/cost argmax over set additions
// (PickByRatio, looped by RatioGreedy) and the CR-Greedy round placement
// (PlaceByRound).
//
// f(N) is the importance-aware influence σ with all of N seeded in the
// first promotion; MCP of a candidate (u,x) given N is
// (f(N ∪ {(u,x)}) − f(N)) / c_{u,x}. The procedure repeatedly extracts the
// affordable candidate with the highest MCP until no candidate fits the
// remaining budget or every remaining marginal gain is non-positive (the
// two stopping cases of Lemma 3). Lazy evaluation exploits that marginal
// gains only shrink as N grows under the (near-)submodular σ̂; a stale
// heap entry is re-evaluated before being accepted (CELF/CELF++ — the
// speed-up the paper reports using in Sec. VI-A).
#ifndef IMDPP_CORE_NOMINEE_SELECTION_H_
#define IMDPP_CORE_NOMINEE_SELECTION_H_

#include <vector>

#include "diffusion/monte_carlo.h"
#include "diffusion/problem.h"
#include "diffusion/seed.h"
#include "util/cancel.h"

namespace imdpp::core {

using diffusion::Nominee;
using diffusion::Problem;
using diffusion::SeedGroup;
using diffusion::SigmaBackend;

/// Candidate pruning: the full universe is V x I (Algorithm 1 line 1); on
/// larger instances we keep the top users by out-degree and top items by
/// importance. 0 means "all".
struct CandidateConfig {
  int max_users = 0;
  int max_items = 0;
};

/// Builds the (possibly pruned) nominee universe, excluding candidates
/// whose cost alone exceeds the budget.
std::vector<Nominee> BuildCandidateUniverse(const Problem& problem,
                                            const CandidateConfig& config);

struct SelectionResult {
  std::vector<Nominee> nominees;  ///< in acceptance order
  double total_cost = 0.0;
};

/// One candidate addition to a nominee set: a single pair, or BGRD's
/// per-user bundle, with its total cost (> 0).
struct Addition {
  std::vector<Nominee> nominees;
  double cost = 0.0;
};

/// The gain/cost argmax step: the addition maximizing
/// (σ̂(base ∪ addition) − base_sigma) / cost, every group seeded in the
/// first promotion, through engine.SelectBest with min_score 0 (only
/// strictly positive gains win). The score is affine in the estimate, so
/// `adaptive` racing optimizes the same objective. best_index indexes
/// `additions` (−1: none has a positive gain, or no additions);
/// best_eval.sigma is the winner's σ̂(base ∪ addition).
diffusion::SelectBestResult PickByRatio(
    const SigmaBackend& engine, const std::vector<Nominee>& base,
    double base_sigma, const std::vector<Addition>& additions,
    const diffusion::AdaptiveEvalConfig& adaptive);

/// What RatioGreedy added to its base.
struct RatioGreedyResult {
  std::vector<Nominee> picked;  ///< in acceptance order
  double cost = 0.0;            ///< total cost of `picked`
  /// σ̂(base ∪ picked): the last winner's estimate (base_sigma if none).
  double sigma = 0.0;
};

/// The budgeted loop over PickByRatio: adds the best affordable, unused
/// candidate (costs from the engine's problem) to `base` until none has a
/// positive gain or fits `budget` minus what the loop spent.
RatioGreedyResult RatioGreedy(const SigmaBackend& engine,
                              std::vector<Nominee> base, double base_sigma,
                              const std::vector<Nominee>& candidates,
                              double budget,
                              const diffusion::AdaptiveEvalConfig& adaptive);

/// Runs Procedure 2 (RatioGreedy from ∅ with fixed options up to its
/// exact-greedy size limit, a lazy heap above it). `engine` supplies σ̂.
SelectionResult SelectNominees(const SigmaBackend& engine,
                               const Problem& problem,
                               const std::vector<Nominee>& candidates,
                               double budget);

/// Theorem 5's e_max: the σ̂-best singleton {(u,x,1)} among the
/// candidates that fit `budget`, by a fixed-count SelectBest with
/// min_score 0. best_index indexes `candidates`; best_score is its σ̂.
diffusion::SelectBestResult BestSingleton(
    const SigmaBackend& engine, const std::vector<Nominee>& candidates,
    double budget);

/// CR-Greedy round placement (after Sun et al., "Multi-round influence
/// maximization", KDD'18): each nominee, in order, goes to the promotion
/// in [1, num_promotions] with the highest σ̂ given the ones already
/// placed (ties prefer earlier rounds; SelectBest racing when `adaptive`
/// is enabled). `eval` is the caller's: candidates share the placement's
/// rounds < t, so each estimate resumes from its checkpoints, and the
/// caller may keep them (it is left rebased on the result). A fired
/// `cancel` stops before the next nominee, returning the ones placed.
SeedGroup PlaceByRound(diffusion::ScheduleEval& eval,
                       const std::vector<Nominee>& nominees,
                       int num_promotions,
                       const diffusion::AdaptiveEvalConfig& adaptive,
                       const util::CancelToken* cancel);

}  // namespace imdpp::core

#endif  // IMDPP_CORE_NOMINEE_SELECTION_H_
