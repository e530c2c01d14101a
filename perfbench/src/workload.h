// The benchmark's workloads and the closed loop that drives them: one
// caller issues plan calls one after another through api::CampaignSession,
// times each, and checks each returned schedule.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/planner.h"
#include "api/session.h"
#include "data/dataset_registry.h"

namespace perfbench {

/// One named planning problem family: a dataset, the planners and budgets
/// swept on it (budgets outer, planners inner — the sweep runner's cell
/// order), and the planner configuration.
struct Workload {
  std::string name;
  imdpp::data::DatasetSpec dataset;
  std::vector<std::string> planners;
  std::vector<double> budgets;
  int promotions = 10;
  imdpp::api::PlannerConfig config;
};

/// The registered workloads, or nullopt for an unknown name.
std::optional<Workload> FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// One plan call and what came back.
struct Cell {
  std::string planner;
  double budget = 0.0;
  imdpp::api::PlanResult result;
  double wall_s = 0.0;
  /// Empty for a valid plan; otherwise why it counts as failed.
  std::string failure;
};

/// One sweep over a workload's cells.
struct Pass {
  std::vector<Cell> cells;
  double wall_s = 0.0;  ///< summed plan-call wall time
  double cpu_s = 0.0;   ///< process CPU time over the pass
};

class SeamSink;

/// Runs every cell of `workload` on `session` (which plans with its own
/// config). A non-null `sink` is told which planner runs, so seam calls
/// are attributed by that planner's call shapes.
Pass RunPass(imdpp::api::CampaignSession& session, const Workload& workload,
             SeamSink* sink);

/// Why `result` is not a valid plan for `problem` — non-ok status, over
/// budget, a promotion outside [1, T], a duplicate (user, item) or an
/// id out of range — or empty when it is valid.
std::string PlanFailure(const imdpp::api::PlanResult& result,
                        const imdpp::diffusion::Problem& problem);

/// True when both passes returned the same schedules and bit-identical
/// σ̂ and eval.* counters (and prep.builds/reuses when `with_prep`, for
/// passes on sessions in the same cache state), cell by cell; otherwise
/// fills *why.
bool SameOutputs(const Pass& a, const Pass& b, bool with_prep,
                 std::string* why);

/// σ̂ of `seeds` from an independent referee: a fresh "mc" backend with
/// its own coin stream (`referee_seed`) and `samples` realizations.
double RefereeSigma(const imdpp::diffusion::Problem& problem,
                    const imdpp::api::PlannerConfig& config,
                    const imdpp::diffusion::SeedGroup& seeds,
                    uint64_t referee_seed, int samples);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
