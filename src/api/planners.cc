// The built-in planner adapters: one thin class per algorithm, running its
// entry point inside the plan's core::RunContext and mapping the native
// result onto PlanResult (schedules only: the run's owner scores σ̂). This
// file is the ONLY place that calls every per-algorithm entry point; all
// harnesses, examples and sessions go through the registry.
#include <memory>
#include <utility>

#include "api/registry.h"
#include "baselines/bgrd.h"
#include "baselines/drhga.h"
#include "baselines/hag.h"
#include "baselines/opt.h"
#include "baselines/ps.h"
#include "core/adaptive_dysim.h"
#include "core/dysim.h"
#include "core/smk.h"

namespace imdpp::api {
namespace {

/// The fields every native result shares (moved out of `r`).
template <typename Result>
PlanResult FromResult(Result&& r) {
  PlanResult out;
  out.seeds = std::move(r.seeds);
  out.total_cost = r.total_cost;
  out.status = std::move(r.status);
  return out;
}

// --------------------------------------------------------- Dysim family

class DysimPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "dysim"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    core::DysimResult r = core::RunDysim(problem, run, config().dysim);
    PlanResult out = FromResult(r);
    out.nominees = std::move(r.nominees);
    out.num_markets = r.plan.markets.size();
    out.num_groups = r.plan.groups.size();
    return out;
  }
};
IMDPP_REGISTER_PLANNER("dysim", DysimPlanner);

class AdaptivePlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "adaptive"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    core::AdaptiveResult r =
        core::RunAdaptiveDysim(problem, run, config().adaptive);
    PlanResult out;
    out.seeds = std::move(r.seeds);
    out.total_cost = r.total_spent;
    out.status = std::move(r.status);
    for (core::AdaptiveRound& round : r.rounds) {
      PlanRound pr;
      pr.promotion = round.promotion;
      pr.seeds = std::move(round.seeds);
      pr.spent = round.spent;
      pr.realized_sigma = round.realized_sigma;
      out.rounds.push_back(std::move(pr));
    }
    return out;
  }
};
IMDPP_REGISTER_PLANNER("adaptive", AdaptivePlanner);

// ------------------------------------------- selection-only core planners

/// Shares the select-then-schedule shape of the SMK and CR-Greedy
/// planners: build the candidate universe, pick nominees with `select`,
/// time them with `schedule`.
template <typename SelectFn, typename ScheduleFn>
PlanResult SelectAndSchedule(const diffusion::Problem& problem,
                             core::RunContext& run, const SelectFn& select,
                             const ScheduleFn& schedule) {
  // The search engine memoizes σ so the selection loops' re-checks of
  // identical seed vectors cost nothing.
  core::RunContext::Engine search =
      run.MakeEngine(problem, run.selection_samples());
  search->EnableSigmaMemo();
  std::vector<diffusion::Nominee> candidates =
      core::BuildCandidateUniverse(problem, run.candidates());
  core::SelectionResult sel = select(*search, candidates);

  PlanResult out;
  out.seeds = schedule(*search, sel.nominees);
  out.nominees = std::move(sel.nominees);
  return out;
}

class SmkPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "smk"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return SelectAndSchedule(
        problem, run,
        [&](const diffusion::SigmaBackend& engine,
            const std::vector<diffusion::Nominee>& candidates) {
          return core::SelectNomineesSmk(engine, problem, candidates,
                                         problem.budget);
        },
        [](const diffusion::SigmaBackend&,
           const std::vector<diffusion::Nominee>& nominees) {
          return diffusion::AtFirstPromotion(nominees);
        });
  }
};
IMDPP_REGISTER_PLANNER("smk", SmkPlanner);

class CrGreedyPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "cr_greedy"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return SelectAndSchedule(
        problem, run,
        [&](const diffusion::SigmaBackend& engine,
            const std::vector<diffusion::Nominee>& candidates) {
          return core::SelectNominees(engine, problem, candidates,
                                      problem.budget);
        },
        [&](const diffusion::SigmaBackend& engine,
            const std::vector<diffusion::Nominee>& nominees) {
          return core::PlaceByRound(*engine.MakeScheduleEval({}), nominees,
                                    problem.num_promotions, run.adaptive(),
                                    run.cancel().get());
        });
  }
};
IMDPP_REGISTER_PLANNER("cr_greedy", CrGreedyPlanner);

// ----------------------------------------------------- Sec. VI-A baselines

class BgrdPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "bgrd"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return FromResult(baselines::RunBgrd(problem, run));
  }
};
IMDPP_REGISTER_PLANNER("bgrd", BgrdPlanner);

class HagPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "hag"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return FromResult(baselines::RunHag(problem, run));
  }
};
IMDPP_REGISTER_PLANNER("hag", HagPlanner);

class DrhgaPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "drhga"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return FromResult(baselines::RunDrhga(problem, run));
  }
};
IMDPP_REGISTER_PLANNER("drhga", DrhgaPlanner);

class PsPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "ps"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return FromResult(baselines::RunPs(problem, run, config().ps));
  }
};
IMDPP_REGISTER_PLANNER("ps", PsPlanner);

class OptPlanner : public Planner {
 public:
  using Planner::Planner;
  std::string_view name() const override { return "opt"; }

 protected:
  PlanResult PlanImpl(const diffusion::Problem& problem,
                      core::RunContext& run) const override {
    return FromResult(baselines::RunOpt(problem, run, config().opt));
  }
};
IMDPP_REGISTER_PLANNER("opt", OptPlanner);

}  // namespace

namespace internal {
// Anchors this translation unit: the registry calls it, the linker keeps
// the self-registration statics above, static-archive or not.
void EnsureBuiltinPlanners() {}
}  // namespace internal

}  // namespace imdpp::api
