#include "cli/cli.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "api/session.h"
#include "cli/sweep_runner.h"
#include "config/config_loader.h"
#include "core/dysim.h"
#include "data/dataset_registry.h"
#include "diffusion/sigma_backend.h"
#include "prep/prep.h"
#include "report/report.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace imdpp::cli {

namespace {

constexpr const char* kUsage = R"(imdpp — influence maximization with dynamic personal perception (ICDE'21)

usage: imdpp <command> [flags]

commands:
  plan      run one planner on one dataset, print the PlanResult as JSON
  compare   run several planners on one problem (paired σ̂), print JSON
  sweep     run a JSON sweep config (datasets x planners x budgets x ...)
  datasets  list the registered dataset names; --prep prints per-dataset
            prep-artifact stats (nominees, clusters, markets, MIOA
            regions; build millis with --timings) as JSON — for one
            dataset with --dataset, else for every registered name
  backends  list the registered σ-evaluation backends (name, summary,
            capabilities) — the names --backend / eval.backend accept
  help      show this message

shared flags (plan, compare):
  --dataset NAME[@SCALE]   dataset registry key, scale-<N>, or spec .json
  --scale S                dataset size multiplier (default 1, or @SCALE)
  --dataset-seed N         dataset RNG seed (0 = the flavor's default)
  --budget B               campaign budget        (default 300)
  --promotions T           promotion rounds       (default 10)
  --config FILE            planner-config JSON overrides; a flag below that
                           names a config key in parentheses sets that key
                           by the same rule, after --config
  --seed N                 master RNG seed (seed)
  --threads N              Monte-Carlo executors (num_threads; -1 =
                           hardware, 0 = serial)
  --theta N                market-overlap theta (market.overlap_theta)
  --selection-samples N    search-time Monte-Carlo samples
                           (selection_samples)
  --eval-samples N         final-evaluation Monte-Carlo samples
                           (eval_samples)
  --backend NAME           σ-evaluation backend (eval.backend; default mc,
                           see `imdpp backends`)
  --adaptive[=BOOL]        variance-adaptive sequential stopping for the
                           greedy argmax loops (eval.adaptive.enabled):
                           candidates race on paired per-sample values and
                           resolved ones stop early. Off = the fixed-count
                           reference loops (bit-identical across releases)
  --adaptive-delta D       racing error budget δ in (0, 1)
                           (eval.adaptive.delta; default 0.05; implies
                           nothing unless --adaptive)
  --adaptive-budget N      racing sample budget, a whole number
                           (eval.adaptive.max_samples): the race decides on
                           at most N samples per candidate; the winner is
                           still re-evaluated at the full count (0 = no
                           budget, the default)
  --deadline-ms N          per-run wall-clock budget in whole milliseconds
                           (deadline_ms; 0 = none); an expired deadline
                           fails the run with deadline_exceeded instead of
                           finishing
  --timings                include wall-clock fields (breaks byte-stability)
  --out FILE               write JSON here instead of stdout
  --trace-out FILE         record Chrome trace-event JSON spans for the run
                           (load in Perfetto / chrome://tracing); off = no
                           tracing work at all
  --metrics-out FILE       write the full metrics snapshot (all counters,
                           gauges, histograms, timings included) as JSON;
                           off = only the per-result counters are kept

plan:     --planner NAME   (default dysim)
compare:  --planners A,B,C (comma-separated registry names)
sweep:    --config FILE (required), --out FILE, --csv FILE, --timings,
          --quiet (no per-point progress on stderr)
datasets: --prep plus the shared flags above (problem coordinates default
          to --budget 300 --promotions 10)

flag files: --flagfile FILE splices whitespace-separated tokens from FILE
(# comments); flags given after it override the file's.

robustness: failures are structured — every error prints one JSON line
{"error":{"code":...,"code_name":...,"message":...}} on stderr before the
human message, and exits 2 for invalid_argument, 1 otherwise. A flag the
command does not read is an invalid_argument.
--fail-on SPEC[,SPEC...] (or the IMDPP_FAIL_ON env var) arms named fault
points for testing, SPEC = point[:RANGE][:CODE], e.g.
`prep.build:1:resource_exhausted`. Underscore spellings of the shared
flags (--deadline_ms, --adaptive_delta, ...) and --fail_on are accepted
aliases.

Identical invocations print identical bytes (unless --timings), so
`imdpp plan ... | diff - <(imdpp plan ...)` is a determinism check.
)";

/// CLI default effort = the bench harnesses' Effort defaults: moderate
/// samples and candidate pruning, so `imdpp plan --dataset yelp-like
/// --planner dysim --budget 300` answers in seconds, not hours. Override
/// any of it with --config / the sample flags.
api::PlannerConfig DefaultCliConfig() {
  api::PlannerConfig cfg;
  cfg.selection_samples = 10;
  cfg.eval_samples = 24;
  cfg.candidates.max_users = 24;
  cfg.candidates.max_items = 8;
  return cfg;
}

int UsageError(std::ostream& err, const std::string& message) {
  err << "imdpp: " << message << "\n";
  err << "run `imdpp help` for usage\n";
  return 2;
}

int RuntimeError(std::ostream& err, const std::string& message) {
  err << "imdpp: " << message << "\n";
  return 1;
}

/// The structured-error boundary (ISSUE 8): every util::Status failure
/// leaves the CLI through here. One compact machine-readable JSON line on
/// stderr — {"error":{"code":...,"code_name":...,"message":...}}, fixed
/// member order, byte-deterministic — then the human rendering; exit code
/// follows the legacy split: kInvalidArgument is a usage error (2),
/// everything else a runtime failure (1).
int StatusError(std::ostream& err, const util::Status& status) {
  util::Json detail = util::Json::Object();
  detail.Set("code", static_cast<int>(status.code()));
  detail.Set("code_name", std::string(util::StatusCodeName(status.code())));
  detail.Set("message", status.message());
  util::Json wrapper = util::Json::Object();
  wrapper.Set("error", std::move(detail));
  err << wrapper.Dump() << "\n";
  err << "imdpp: " << status.ToString() << "\n";
  return status.code() == util::StatusCode::kInvalidArgument ? 2 : 1;
}

/// Rejects a flag `args.command` does not read, so a typo'd flag fails
/// loudly instead of silently running the default. Every command takes
/// --help and --fail-on (either spelling); plan, compare and datasets
/// --prep also take the shared flags of kUsage, which include the
/// option-table and problem-coordinate flags in either spelling. Unknown
/// commands pass (the dispatch reports them).
util::Status CheckFlags(const config::ParsedArgs& args) {
  static const std::map<std::string_view, std::vector<std::string_view>>
      kOwnFlags = {{"plan", {"planner"}},
                   {"compare", {"planners"}},
                   {"datasets", {"prep"}},
                   {"sweep", {"config", "out", "csv", "timings", "quiet"}},
                   {"backends", {}}};
  static const std::vector<std::string_view> kSharedFlags = {
      "dataset", "config", "timings", "out", "trace-out", "metrics-out"};
  const auto own = kOwnFlags.find(args.command);
  if (own == kOwnFlags.end()) return util::OkStatus();
  const bool shared = args.command == "plan" || args.command == "compare" ||
                      (args.command == "datasets" && args.Has("prep"));
  const auto lists = [](const std::vector<std::string_view>& names,
                        const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const auto& [name, value] : args.flags) {
    if (name == "help" || name == "fail-on" || name == "fail_on" ||
        lists(own->second, name) ||
        (shared && (lists(kSharedFlags, name) ||
                    config::IsPlannerOrProblemFlag(name)))) {
      continue;
    }
    return util::InvalidArgumentError("unknown flag --" + name +
                                      " for imdpp " + args.command +
                                      " (run `imdpp help` for usage)");
  }
  return util::OkStatus();
}

/// Shared plan/compare setup: dataset spec + resolved PlannerConfig +
/// problem coordinates from flags (and an optional --config JSON file).
struct ProblemSetup {
  data::DatasetSpec dataset;
  api::PlannerConfig config = DefaultCliConfig();
  double budget = 300.0;
  int promotions = 10;
  bool timings = false;
  std::string trace_out;    ///< --trace-out path ("" = tracing disarmed)
  std::string metrics_out;  ///< --metrics-out path ("" = registry disarmed)
};

util::Status LoadProblemSetup(const config::ParsedArgs& args,
                              ProblemSetup* setup,
                              bool dataset_required = true) {
  const std::string* dataset = args.Find("dataset");
  if (dataset == nullptr && dataset_required) {
    return util::InvalidArgumentError("--dataset is required");
  }
  if (dataset != nullptr) setup->dataset = data::ParseDatasetSpec(*dataset);
  IMDPP_RETURN_IF_ERROR(config::ApplyProblemFlags(
      args, &setup->dataset, &setup->budget, &setup->promotions));
  if (const std::string* config_path = args.Find("config")) {
    util::Json overrides;
    IMDPP_RETURN_IF_ERROR(config::LoadJsonFile(*config_path, &overrides));
    const util::Status applied =
        config::ApplyPlannerConfigJson(overrides, &setup->config);
    if (!applied.ok()) {
      return util::Status(applied.code(),
                          *config_path + ": " + applied.message());
    }
  }
  // Planner-knob flags override --config.
  IMDPP_RETURN_IF_ERROR(config::ApplyPlannerFlags(args, &setup->config));
  setup->timings = args.Has("timings");
  setup->trace_out = args.GetOr("trace-out", "");
  setup->metrics_out = args.GetOr("metrics-out", "");
  return util::OkStatus();
}

/// Arms tracing and/or the metric registry for the bracketed command when
/// the corresponding --*-out flag was given, and disarms on every exit
/// path. Arming is per-invocation: cli::Run is also an in-process API, so
/// an armed layer must never leak into the caller's next invocation.
class ObservabilityScope {
 public:
  explicit ObservabilityScope(const ProblemSetup& setup)
      : trace_(!setup.trace_out.empty()),
        metrics_(!setup.metrics_out.empty()) {
    if (trace_) {
      util::trace::Enable();
      util::trace::RegisterCurrentThread("main");
    }
    if (metrics_) {
      util::MetricRegistry::Global().Reset();
      util::MetricRegistry::Enable();
    }
  }
  ~ObservabilityScope() {
    if (trace_) util::trace::Disable();
    if (metrics_) util::MetricRegistry::Disable();
  }
  ObservabilityScope(const ObservabilityScope&) = delete;
  ObservabilityScope& operator=(const ObservabilityScope&) = delete;

 private:
  const bool trace_;
  const bool metrics_;
};

/// Writes the --trace-out / --metrics-out artifacts after a successful
/// command. The metrics file is the result snapshot merged with whatever
/// the armed registry recorded (pool/task metrics), timings included —
/// these files are diagnostics, not byte-stable outputs.
int EmitObservability(const ProblemSetup& setup,
                      const util::MetricsSnapshot& result_metrics,
                      std::ostream& err) {
  if (!setup.trace_out.empty()) {
    const util::Status written = util::trace::WriteTrace(setup.trace_out);
    if (!written.ok()) return StatusError(err, written);
  }
  if (!setup.metrics_out.empty()) {
    util::MetricsSnapshot merged = result_metrics;
    merged.Merge(util::MetricRegistry::Global().Snapshot());
    const util::Json json =
        util::MetricsJson(merged, /*include_timings=*/true);
    std::ofstream file(setup.metrics_out);
    file << json.Dump(2) << "\n";
    file.flush();
    if (!file.good()) {
      return RuntimeError(err,
                          "cannot write \"" + setup.metrics_out + "\"");
    }
  }
  return 0;
}

/// Writes `text` to --out (if given) or to `out`.
bool EmitText(const config::ParsedArgs& args, const char* flag,
              const std::string& text, std::ostream& out,
              std::string* error) {
  const std::string* path = args.Find(flag);
  if (path == nullptr) {
    out << text;
    return true;
  }
  std::ofstream file(*path);
  file << text;
  file.flush();
  if (!file.good()) {  // a truncated artifact must not exit 0
    *error = "cannot write \"" + *path + "\"";
    return false;
  }
  return true;
}

/// Seeds echo losslessly: above 2^53 a JSON number would round, so big
/// seeds print as digit strings — which ReadSeed accepts right back.
util::Json SeedJsonValue(uint64_t seed) {
  if (seed < (1ULL << 53)) return util::Json(seed);
  return util::Json(std::to_string(seed));
}

util::Json DatasetJson(const data::DatasetSpec& spec) {
  util::Json out = util::Json::Object();
  out.Set("name", spec.name);
  out.Set("scale", spec.scale);
  if (spec.seed != 0) out.Set("seed", SeedJsonValue(spec.seed));
  return out;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// ------------------------------------------------------------ subcommands

int RunPlan(const config::ParsedArgs& args, std::ostream& out,
            std::ostream& err) {
  ProblemSetup setup;
  std::string error;
  util::Status status = LoadProblemSetup(args, &setup);
  if (!status.ok()) return StatusError(err, status);
  const std::string planner = args.GetOr("planner", "dysim");
  if (!api::PlannerRegistry::Has(planner)) {
    return StatusError(err, util::NotFoundError(
                                api::PlannerRegistry::UnknownMessage(planner)));
  }
  ObservabilityScope scope(setup);
  data::Dataset dataset;
  {
    util::trace::Span span("phase.dataset");
    status = data::DatasetRegistry::Make(setup.dataset, &dataset);
  }
  if (!status.ok()) return StatusError(err, status);
  api::CampaignSession session(std::move(dataset), setup.config);
  session.SetProblem(setup.budget, setup.promotions);
  api::PlanResult result = session.Run(planner);
  if (!result.status.ok()) return StatusError(err, result.status);

  util::Json output = util::Json::Object();
  output.Set("command", "plan");
  output.Set("dataset", DatasetJson(setup.dataset));
  output.Set("budget", setup.budget);
  output.Set("promotions", setup.promotions);
  output.Set("seed", SeedJsonValue(setup.config.seed));
  output.Set("result", report::PlanResultJson(result, setup.timings));
  if (!EmitText(args, "out", output.Dump(2) + "\n", out, &error)) {
    return RuntimeError(err, error);
  }
  return EmitObservability(setup, result.metrics, err);
}

int RunCompare(const config::ParsedArgs& args, std::ostream& out,
               std::ostream& err) {
  ProblemSetup setup;
  std::string error;
  util::Status status = LoadProblemSetup(args, &setup);
  if (!status.ok()) return StatusError(err, status);
  const std::string* planners_flag = args.Find("planners");
  if (planners_flag == nullptr) {
    return UsageError(err, "--planners A,B,C is required");
  }
  const std::vector<std::string> planners = SplitCommaList(*planners_flag);
  if (planners.empty()) {
    return UsageError(err, "--planners needs at least one name");
  }
  for (const std::string& name : planners) {
    if (!api::PlannerRegistry::Has(name)) {
      return StatusError(err, util::NotFoundError(
                                  api::PlannerRegistry::UnknownMessage(name)));
    }
  }
  ObservabilityScope scope(setup);
  data::Dataset dataset;
  {
    util::trace::Span span("phase.dataset");
    status = data::DatasetRegistry::Make(setup.dataset, &dataset);
  }
  if (!status.ok()) return StatusError(err, status);
  api::CampaignSession session(std::move(dataset), setup.config);
  session.SetProblem(setup.budget, setup.promotions);
  api::CompareResult compare = session.Compare(planners);
  for (const api::PlanResult& r : compare) {
    if (!r.status.ok()) {
      return StatusError(err, util::Status(r.status.code(),
                                           r.planner + ": " +
                                               r.status.message()));
    }
  }

  util::Json output = util::Json::Object();
  output.Set("command", "compare");
  output.Set("dataset", DatasetJson(setup.dataset));
  output.Set("seed", SeedJsonValue(setup.config.seed));
  // CompareResultJson carries budget/promotions alongside the results.
  util::Json body = report::CompareResultJson(compare, setup.timings);
  for (auto& [key, value] : body.members()) {
    if (key != "dataset") output.Set(key, value);
  }
  if (!EmitText(args, "out", output.Dump(2) + "\n", out, &error)) {
    return RuntimeError(err, error);
  }
  // The metrics artifact totals every compared planner's snapshot.
  util::MetricsSnapshot totals;
  for (const api::PlanResult& r : compare) totals.Merge(r.metrics);
  return EmitObservability(setup, totals, err);
}

int RunSweepCommand(const config::ParsedArgs& args, std::ostream& out,
                    std::ostream& err) {
  const std::string* config_path = args.Find("config");
  if (config_path == nullptr) {
    return UsageError(err, "sweep needs --config FILE (a JSON sweep spec)");
  }
  std::string error;
  util::Json parsed;
  util::Status status = config::LoadJsonFile(*config_path, &parsed);
  if (!status.ok()) return StatusError(err, status);
  config::SweepSpec spec;
  status = config::LoadSweepSpec(parsed, &spec);
  if (!status.ok()) {
    return StatusError(err, util::Status(status.code(), *config_path + ": " +
                                                            status.message()));
  }
  const bool timings = args.Has("timings");
  const bool quiet = args.Has("quiet");
  std::vector<report::SweepRecord> records;
  SweepProgressFn progress;
  if (!quiet) {
    progress = [&err](const config::SweepPoint& p, size_t i, size_t n) {
      err << "[" << (i + 1) << "/" << n << "] " << p.dataset.name << " "
          << p.planner << " b=" << p.budget << " T=" << p.num_promotions
          << "\n";
    };
  }
  status = RunSweep(spec, &records, progress);
  if (!status.ok()) return StatusError(err, status);
  const util::Json output = report::SweepJson(spec.name, records, timings);
  if (!EmitText(args, "out", output.Dump(2) + "\n", out, &error)) {
    return RuntimeError(err, error);
  }
  if (const std::string* csv_path = args.Find("csv")) {
    std::ofstream csv(*csv_path);
    csv << report::SweepCsv(records, timings);
    csv.flush();
    if (!csv.good()) {
      return RuntimeError(err, "cannot write \"" + *csv_path + "\"");
    }
  }
  return 0;
}

int RunDatasets(const config::ParsedArgs& args, std::ostream& out,
                std::ostream& err) {
  if (!args.Has("prep")) {
    for (const std::string& name : data::DatasetRegistry::Names()) {
      out << name << "\n";
    }
    out << "scale-<N>\n";
    out << "<path/to/spec.json>\n";
    return 0;
  }

  // --prep: build each dataset's prep artifacts, run the TMI phase at the
  // flagged problem coordinates, and report the structure. Deterministic
  // byte-stable JSON unless --timings (which adds the build millis).
  ProblemSetup setup;
  std::string error;
  util::Status status =
      LoadProblemSetup(args, &setup, /*dataset_required=*/false);
  if (!status.ok()) return StatusError(err, status);
  std::vector<data::DatasetSpec> specs;
  if (args.Has("dataset")) {
    specs.push_back(setup.dataset);
  } else {
    for (const std::string& name : data::DatasetRegistry::Names()) {
      specs.push_back({name, setup.dataset.scale, setup.dataset.seed});
    }
  }

  std::vector<report::PrepDatasetStats> stats;
  for (const data::DatasetSpec& spec : specs) {
    data::Dataset dataset;
    status = data::DatasetRegistry::Make(spec, &dataset);
    if (!status.ok()) return StatusError(err, status);
    diffusion::Problem problem =
        dataset.MakeProblem(setup.budget, setup.promotions);
    core::RunContext run(api::RunOptions(setup.config));
    core::RunContext::Engine engine =
        run.MakeEngine(problem, run.selection_samples());
    engine->EnableSigmaMemo();
    util::StatusOr<core::RunContext::Lease> lease = run.LeasePrep(problem);
    if (!lease.ok()) return StatusError(err, lease.status());
    prep::PrepArtifacts& art = lease->artifacts();
    core::TmiResult tmi =
        core::RunTmi(problem, *engine, run, setup.config.dysim, art);

    report::PrepDatasetStats s;
    s.dataset = spec;
    s.budget = setup.budget;
    s.promotions = setup.promotions;
    s.users = problem.NumUsers();
    s.items = problem.NumItems();
    s.nominees = tmi.selection.nominees.size();
    s.clusters = tmi.clusters.size();
    s.markets = tmi.plan.markets.size();
    s.groups = tmi.plan.groups.size();
    s.mioa_regions = art.num_regions();
    s.prep_millis = art.total_millis();
    stats.push_back(std::move(s));
  }

  util::Json output = util::Json::Object();
  output.Set("command", "datasets");
  output.Set("prep", report::PrepStatsJson(stats, setup.timings));
  if (!EmitText(args, "out", output.Dump(2) + "\n", out, &error)) {
    return RuntimeError(err, error);
  }
  return 0;
}

/// Lists the registered σ backends with their summaries and capability
/// flags. Descriptions and capabilities live on instances, so each backend
/// is probed on the tiny catalog toy — cheap (no estimates run) and
/// byte-stable, like `imdpp datasets`.
int RunBackends(const config::ParsedArgs&, std::ostream& out,
                std::ostream& err) {
  data::Dataset probe;
  const util::Status status =
      data::DatasetRegistry::Make({"fig1-toy", 1.0, 0}, &probe);
  if (!status.ok()) return StatusError(err, status);
  diffusion::Problem problem = probe.MakeProblem(/*budget=*/1.0,
                                                 /*num_promotions=*/1);
  for (const std::string& name : diffusion::SigmaBackendRegistry::Names()) {
    diffusion::SigmaBackendContext context;
    context.problem = &problem;
    context.num_samples = 1;
    context.num_threads = 0;
    context.spec.name = name;
    std::unique_ptr<diffusion::SigmaBackend> backend =
        diffusion::SigmaBackendRegistry::Create(name, context);
    if (backend == nullptr) {
      return RuntimeError(err,
                          diffusion::SigmaBackendRegistry::UnknownMessage(
                              name));
    }
    const diffusion::BackendCapabilities caps = backend->capabilities();
    std::string tags;
    if (caps.resimulates_dynamics) tags += " resimulates-dynamics";
    if (caps.market_likelihood_pi) tags += " market-likelihood-pi";
    if (caps.prefix_checkpointing) tags += " prefix-checkpointing";
    if (caps.sketch_prep) tags += " sketch-prep";
    if (caps.select_best) tags += " select-best";
    if (tags.empty()) tags = " (none)";
    out << name << "\n";
    out << "  " << backend->description() << "\n";
    out << "  capabilities:" << tags << "\n";
  }
  return 0;
}

}  // namespace

int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  config::ParsedArgs parsed;
  const util::Status parse_status = config::ParseArgs(args, &parsed);
  if (!parse_status.ok()) return StatusError(err, parse_status);
  // Fault arming before any command work, so config.parse / data.load
  // fire on this very invocation. Env first: --fail-on re-arms (replaces)
  // points it shares with IMDPP_FAIL_ON, so the flag wins.
  if (const char* env = std::getenv("IMDPP_FAIL_ON")) {
    const util::Status armed = util::FaultInjector::Global().ArmList(env);
    if (!armed.ok()) return StatusError(err, armed);
  }
  const std::string* fail_on = parsed.Find("fail-on");
  if (fail_on == nullptr) fail_on = parsed.Find("fail_on");
  if (fail_on != nullptr) {
    const util::Status armed = util::FaultInjector::Global().ArmList(*fail_on);
    if (!armed.ok()) return StatusError(err, armed);
  }
  // Disarm on the way out: cli::Run is an in-process API (tests, benches)
  // as well as the binary's main, so points armed for this invocation must
  // not leak into the caller's next one.
  const bool armed_faults =
      fail_on != nullptr || std::getenv("IMDPP_FAIL_ON") != nullptr;
  const int code = [&] {
    if (parsed.command.empty() || parsed.command == "help" ||
        parsed.Has("help")) {
      (parsed.command.empty() && !parsed.Has("help") ? err : out) << kUsage;
      return parsed.command.empty() && !parsed.Has("help") ? 2 : 0;
    }
    const util::Status flags = CheckFlags(parsed);
    if (!flags.ok()) return StatusError(err, flags);
    if (parsed.command == "plan") return RunPlan(parsed, out, err);
    if (parsed.command == "compare") return RunCompare(parsed, out, err);
    if (parsed.command == "sweep") return RunSweepCommand(parsed, out, err);
    if (parsed.command == "datasets") return RunDatasets(parsed, out, err);
    if (parsed.command == "backends") return RunBackends(parsed, out, err);
    return UsageError(err, "unknown command \"" + parsed.command +
                               "\" (expected plan, compare, sweep, datasets, "
                               "backends)");
  }();
  if (armed_faults) util::FaultInjector::Global().Reset();
  return code;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return Run(args, std::cout, std::cerr);
}

}  // namespace imdpp::cli
