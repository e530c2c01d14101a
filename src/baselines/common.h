// Shared types for the comparison approaches of Sec. VI-A. Each baseline
// selects nominees its own way; all are extended (as in the paper) with a
// CR-Greedy-style timing assignment to support multiple promotions, and
// with cost-awareness when selecting from the remaining budget. Every
// baseline runs inside a core::RunContext: sample counts, candidate
// pruning, the campaign, the backend, the pool and the prep cache come
// from it, and it books the work of every engine and lease taken.
#ifndef IMDPP_BASELINES_COMMON_H_
#define IMDPP_BASELINES_COMMON_H_

#include <vector>

#include "core/nominee_selection.h"
#include "core/run_context.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/problem.h"
#include "util/status.h"

namespace imdpp::baselines {

using core::CandidateConfig;
using core::RunContext;
using diffusion::Nominee;
using diffusion::Problem;
using diffusion::Seed;
using diffusion::SeedGroup;
using diffusion::SigmaBackend;

struct BaselineResult {
  SeedGroup seeds;
  double total_cost = 0.0;
  /// How the run ended (see core::DysimResult::status): OkStatus() for a
  /// completed baseline, the token's reason or a prep-acquisition error
  /// otherwise.
  util::Status status;
};

}  // namespace imdpp::baselines

#endif  // IMDPP_BASELINES_COMMON_H_
