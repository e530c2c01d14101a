// Nominee selection by Marginal Cost-Performance ratio (Procedure 2 /
// selectNominees) with CELF-style lazy evaluation.
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
  /// The best singleton gain σ̂({(u,x,1)}) over the candidates that fit
  /// the budget, read off the exact greedy's first iteration (or, above
  /// its size limit, the lazy heap's singleton pass); used for the e_max
  /// guarantee check in Theorem 5.
  Nominee best_single;
  double best_single_gain = 0.0;
};

/// Runs Procedure 2. `engine` supplies σ̂.
SelectionResult SelectNominees(const SigmaBackend& engine,
                               const Problem& problem,
                               const std::vector<Nominee>& candidates,
                               double budget);

}  // namespace imdpp::core

#endif  // IMDPP_CORE_NOMINEE_SELECTION_H_
