#include "workload.h"

#include <bit>
#include <cstdint>
#include <ctime>
#include <iterator>
#include <set>
#include <utility>

#include "diffusion/sigma_backend.h"
#include "seam.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace perfbench {

namespace api = imdpp::api;
namespace diffusion = imdpp::diffusion;
namespace metric = imdpp::util::metric;

namespace {

/// The `imdpp` CLI's default effort (10 search / 24 eval samples, 24x8
/// candidates), which configs/fig9_budget.json also uses.
api::PlannerConfig CliEffort(int num_threads) {
  api::PlannerConfig config;
  config.selection_samples = 10;
  config.eval_samples = 24;
  config.candidates.max_users = 24;
  config.candidates.max_items = 8;
  config.num_threads = num_threads;
  return config;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  // The reference run: kernel-bound, one thread, no pool, no racing.
  Workload yelp;
  yelp.name = "dysim-yelp-1t";
  yelp.dataset = {"yelp-like", 0.5, 0};
  yelp.planners = {"dysim"};
  yelp.budgets = {300};
  yelp.config = CliEffort(1);
  out.push_back(yelp);

  // The same problem with SelectBest racing over a 2-executor pool. Two,
  // not every core: on a 4-vCPU VM at 4 threads a straggling executor set
  // the pass time, and pass wall time spread 6.5-17.0 s over five runs,
  // against 9.4-12.6 s at 2 threads in runs interleaved with them.
  Workload adaptive = yelp;
  adaptive.name = "dysim-yelp-adaptive-2t";
  adaptive.config = CliEffort(2);
  adaptive.config.eval.adaptive.enabled = true;
  out.push_back(adaptive);

  // The paper's Fig. 9 shape: five planners x three budgets in one
  // session, sharing prep artifacts and the scoring engine.
  Workload fig9;
  fig9.name = "fig9-amazon-1t";
  fig9.dataset = {"amazon-like", 0.5, 0};
  fig9.planners = {"dysim", "bgrd", "hag", "ps", "drhga"};
  fig9.budgets = {100, 300, 500};
  fig9.config = CliEffort(1);
  out.push_back(fig9);
  return out;
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>* workloads =
      new std::vector<Workload>(MakeWorkloads());
  return *workloads;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// The work counters repeated passes must reproduce exactly.
constexpr const char* kEvalCounters[] = {
    metric::kEvalSimulations, metric::kEvalRoundsSimulated,
    metric::kEvalRoundsSkipped, metric::kEvalMemoHits,
    metric::kEvalBlocksRun,    metric::kEvalEarlyStops,
    metric::kEvalSamplesSaved};
/// Prep accounting, which depends on the session's cache state too.
constexpr const char* kPrepCounters[] = {metric::kPrepBuilds,
                                         metric::kPrepReuses};

}  // namespace

std::optional<Workload> FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

Pass RunPass(api::CampaignSession& session, const Workload& workload,
             SeamSink* sink) {
  Pass pass;
  const double cpu_begin = ProcessCpuSeconds();
  for (double budget : workload.budgets) {
    session.SetProblem(budget, workload.promotions);
    for (const std::string& planner : workload.planners) {
      if (sink != nullptr) sink->set_dysim_shapes(planner == "dysim");
      Cell cell;
      cell.planner = planner;
      cell.budget = budget;
      imdpp::Timer timer;
      cell.result = session.Run(planner);
      cell.wall_s = timer.Seconds();
      cell.failure = PlanFailure(cell.result, session.problem());
      pass.wall_s += cell.wall_s;
      pass.cells.push_back(std::move(cell));
    }
  }
  pass.cpu_s = ProcessCpuSeconds() - cpu_begin;
  return pass;
}

std::string PlanFailure(const api::PlanResult& result,
                        const diffusion::Problem& problem) {
  if (!result.status.ok()) return "status " + result.status.ToString();
  if (result.seeds.empty()) return "empty schedule";
  std::set<std::pair<int, int>> nominees;
  for (const diffusion::Seed& s : result.seeds) {
    if (s.promotion < 1 || s.promotion > problem.num_promotions) {
      return "promotion outside [1, T]";
    }
    if (s.user < 0 || s.user >= problem.NumUsers() || s.item < 0 ||
        s.item >= problem.NumItems()) {
      return "id out of range";
    }
    if (!nominees.insert({s.user, s.item}).second) {
      return "duplicate (user, item)";
    }
  }
  // After the id checks: TotalCost indexes the cost table by (user, item).
  if (problem.TotalCost(result.seeds) > problem.budget * (1.0 + 1e-9)) {
    return "over budget";
  }
  return "";
}

bool SameOutputs(const Pass& a, const Pass& b, bool with_prep,
                 std::string* why) {
  if (a.cells.size() != b.cells.size()) {
    *why = "cell counts differ";
    return false;
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const api::PlanResult& x = a.cells[i].result;
    const api::PlanResult& y = b.cells[i].result;
    const std::string where = a.cells[i].planner + "@" +
                              std::to_string(a.cells[i].budget) + ": ";
    if (x.seeds != y.seeds) {
      *why = where + "schedules differ";
      return false;
    }
    if (std::bit_cast<uint64_t>(x.sigma) != std::bit_cast<uint64_t>(y.sigma)) {
      *why = where + "reported sigma differs";
      return false;
    }
    std::vector<const char*> names(std::begin(kEvalCounters),
                                   std::end(kEvalCounters));
    if (with_prep) {
      names.insert(names.end(), std::begin(kPrepCounters),
                   std::end(kPrepCounters));
    }
    for (const char* name : names) {
      if (x.metrics.Counter(name) != y.metrics.Counter(name)) {
        *why = where + name + " differs";
        return false;
      }
    }
  }
  return true;
}

double RefereeSigma(const diffusion::Problem& problem,
                    const api::PlannerConfig& config,
                    const diffusion::SeedGroup& seeds, uint64_t referee_seed,
                    int samples) {
  diffusion::CampaignConfig campaign = config.campaign;
  campaign.base_seed = referee_seed;
  std::unique_ptr<diffusion::SigmaBackend> referee =
      diffusion::MakeSigmaBackend(diffusion::SigmaBackendSpec{}, problem,
                                  campaign, samples, config.num_threads,
                                  /*shared_pool=*/nullptr);
  return referee->Sigma(seeds);
}

}  // namespace perfbench
