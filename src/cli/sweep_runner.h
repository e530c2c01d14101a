// Executes an expanded sweep grid on CampaignSessions — the engine behind
// `imdpp sweep`, and so behind every figure that is a checked-in
// configs/fig*.json.
//
// Session discipline mirrors the hand-rolled harness loops it replaced:
// one CampaignSession per dataset axis entry (configured with the
// dataset-level config, so every point of that dataset scores on the same
// shared evaluation engine), one SetProblem per (promotions, budget)
// pair, and per-point planner/theta/thread overrides passed to
// CampaignSession::Run(name, config) — which plans under the point config
// but keeps σ̂ scoring paired on the session engine.
#ifndef IMDPP_CLI_SWEEP_RUNNER_H_
#define IMDPP_CLI_SWEEP_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "report/report.h"

namespace imdpp::cli {

/// Called before each point runs: (point, index, total).
using SweepProgressFn =
    std::function<void(const config::SweepPoint&, size_t, size_t)>;

/// Runs every point of the expanded grid. Fails fast (kNotFound /
/// kInvalidArgument) on unknown planner, backend, or dataset names — with
/// the registries' sorted key listings — before any simulation starts. A
/// point whose PlanResult carries a non-ok status (deadline, cancellation,
/// injected fault) aborts the sweep with that status, prefixed with the
/// point's dataset/planner coordinates; records keeps the points that
/// completed before it.
util::Status RunSweep(const config::SweepSpec& spec,
                      std::vector<report::SweepRecord>* records,
                      const SweepProgressFn& progress = nullptr);

}  // namespace imdpp::cli

#endif  // IMDPP_CLI_SWEEP_RUNNER_H_
