// perfbench: runs one workload as a closed loop of plan calls and prints
// its metrics as one JSON line (the last line of stdout).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics: set-up time, plan wall and CPU
// time (medians over repeated passes), held-out σ̂ from an independent
// referee, the bias of the reported σ̂ against it, peak RSS and the share
// of plans that came back valid. --trace 1 repeats the untraced passes,
// then runs one more pass on a fresh session with spans, the metric
// registry and the timed σ seam armed, checks that pass is bit-identical
// to the untraced one, and prints the per-layer metrics instead.
//
// The workload fixes the planning problem (dataset, planner seed); --seed
// sets the referee's coin stream.
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "data/dataset_registry.h"
#include "layers.h"
#include "seam.h"
#include "spans.h"
#include "stats.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace api = imdpp::api;
namespace util = imdpp::util;

/// Set-ups per run; setup_s is their median. One set-up takes under a
/// millisecond and the first few run measurably slower, so many
/// repetitions cost nothing and keep the median in the warm regime.
constexpr int kSetupReps = 51;
/// Realizations per referee estimate.
constexpr int kRefereeSamples = 4096;
/// Mixed with --seed into the referee's base seed ("referee!").
constexpr uint64_t kRefereeStream = 0x7265666572656521ULL;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else {
        *error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) *error = "--workload is required";
  return error->empty();
}

struct Setup {
  std::unique_ptr<api::CampaignSession> session;
  double make_s = 0.0;   ///< dataset materialization
  double total_s = 0.0;  ///< materialization + session construction
};

util::StatusOr<Setup> SetUp(const Workload& workload) {
  imdpp::Timer total;
  imdpp::data::Dataset dataset;
  imdpp::Timer make;
  util::Status status = imdpp::data::DatasetRegistry::Make(workload.dataset,
                                                           &dataset);
  if (!status.ok()) return status;
  Setup setup;
  setup.make_s = make.Seconds();
  setup.session = std::make_unique<api::CampaignSession>(std::move(dataset),
                                                         workload.config);
  setup.session->SetProblem(workload.budgets.front(), workload.promotions);
  setup.total_s = total.Seconds();
  return setup;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

util::StatusOr<TraceCapture> RunTracedPass(const Workload& workload,
                                           std::vector<double>* make_s) {
  util::StatusOr<Setup> setup = SetUp(workload);
  if (!setup.ok()) return setup.status();
  make_s->push_back(setup->make_s);
  api::CampaignSession& session = *setup->session;
  session.mutable_config().eval.backend = kTimedBackendName;

  SeamSink sink(workload.config.eval_samples);
  SetSeamSink(&sink);
  util::MetricRegistry::Global().Reset();
  util::MetricRegistry::Enable();
  util::trace::Enable();
  TraceCapture capture;
  capture.pass = RunPass(session, workload, &sink);
  util::trace::Disable();
  util::MetricRegistry::Disable();
  SetSeamSink(nullptr);

  capture.events = util::trace::EventCount();
  capture.dropped = util::trace::DroppedEvents();
  capture.registry = util::MetricRegistry::Global().Snapshot();
  capture.seam_call_s = sink.call_seconds();
  for (int p = 0; p < kNumPhases; ++p) {
    capture.phases.push_back(sink.totals(static_cast<Phase>(p)));
  }
  util::StatusOr<SpanTable> spans = SummarizeTrace(util::trace::TraceJson());
  if (!spans.ok()) return spans.status();
  capture.spans = std::move(*spans);
  return capture;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 error.c_str());
    return 2;
  }
  const std::optional<Workload> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"; known:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& workload = *found;

  // ---- Set-up, several times; the last session plans. ----
  std::vector<double> setup_s;
  std::vector<double> make_s;
  std::unique_ptr<api::CampaignSession> session;
  for (int i = 0; i < kSetupReps; ++i) {
    session.reset();
    util::StatusOr<Setup> setup = SetUp(workload);
    if (!setup.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(setup->total_s);
    make_s.push_back(setup->make_s);
    session = std::move(setup->session);
  }

  // ---- The closed loop: whole passes until the next would overrun. ----
  std::vector<Pass> passes;
  imdpp::Timer loop;
  do {
    passes.push_back(RunPass(*session, workload, /*sink=*/nullptr));
  } while (loop.Seconds() + passes.back().wall_s / 2 < args.seconds);

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  for (const Pass& pass : passes) {
    for (const Cell& cell : pass.cells) {
      ++attempted;
      if (!cell.failure.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s@%g failed: %s\n",
                     cell.planner.c_str(), cell.budget, cell.failure.c_str());
      }
    }
  }
  for (size_t i = 1; i < passes.size(); ++i) {
    if (!SameOutputs(passes[0], passes[i], /*with_prep=*/false, &error)) {
      std::fprintf(stderr, "perfbench: pass %zu differs: %s\n", i,
                   error.c_str());
      correct = false;
    }
  }

  // ---- Held-out referee over the first pass's schedules. ----
  imdpp::Timer referee_timer;
  const uint64_t referee_seed = imdpp::HashTuple(args.seed, kRefereeStream);
  std::vector<double> heldout;
  std::vector<double> bias;
  for (const Cell& cell : passes[0].cells) {
    if (!cell.failure.empty()) continue;
    session->SetProblem(cell.budget, workload.promotions);
    const double h = RefereeSigma(session->problem(), workload.config,
                                  cell.result.seeds, referee_seed,
                                  kRefereeSamples);
    if (!(h > 0.0) || !std::isfinite(cell.result.sigma)) {
      std::fprintf(stderr, "perfbench: %s@%g: referee sigma %g\n",
                   cell.planner.c_str(), cell.budget, h);
      correct = false;
      continue;
    }
    heldout.push_back(h);
    bias.push_back(std::abs(cell.result.sigma - h) / h);
  }
  const double referee_s = referee_timer.Seconds();
  if (heldout.empty()) correct = false;
  session.reset();

  std::fprintf(stderr, "perfbench: %s seed %llu, %zu passes of %zu plans\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(args.seed), passes.size(),
               passes[0].cells.size());
  std::vector<double> plan_s;
  std::vector<double> cpu_s;
  for (const Pass& pass : passes) {
    plan_s.push_back(pass.wall_s);
    cpu_s.push_back(pass.cpu_s);
    std::fprintf(stderr, "  pass: %.4f s wall, %.4f s cpu\n", pass.wall_s,
                 pass.cpu_s);
  }

  MetricOut out;
  if (!args.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("plan_s", Median(plan_s), "s");
    out.Add("plan_cpu_s", Median(cpu_s), "s");
    out.Add("sigma_heldout", Mean(heldout), "adoptions");
    out.Add("sigma_bias", Mean(bias), "ratio");
    out.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    out.Add("ok_frac",
            1.0 - Ratio(static_cast<double>(failed),
                        static_cast<double>(attempted)),
            "ratio");
  } else {
    util::StatusOr<TraceCapture> trace = RunTracedPass(workload, &make_s);
    if (!trace.ok()) {
      std::fprintf(stderr, "perfbench: traced pass: %s\n",
                   trace.status().ToString().c_str());
      return 1;
    }
    for (const Cell& cell : trace->pass.cells) {
      ++attempted;
      if (!cell.failure.empty()) ++failed;
    }
    // The traced pass must be invisible: same schedules, σ̂ bits and
    // counters as the untraced pass on a session in the same (cold)
    // state, and no span may be dropped.
    if (!SameOutputs(passes[0], trace->pass, /*with_prep=*/true, &error)) {
      std::fprintf(stderr, "perfbench: traced pass differs: %s\n",
                   error.c_str());
      correct = false;
    }
    if (trace->dropped != 0) {
      std::fprintf(stderr, "perfbench: %zu trace events dropped\n",
                   trace->dropped);
      correct = false;
    }
    LayerInputs inputs;
    inputs.untraced_pass_s = plan_s;
    inputs.referee_s = referee_s;
    inputs.make_s = make_s;
    inputs.failed_frac = Ratio(static_cast<double>(failed),
                               static_cast<double>(attempted));
    inputs.threads = util::ResolveNumThreads(workload.config.num_threads);
    AddPerLayer(*trace, inputs, out);
  }
  if (failed != 0) correct = false;

  out.Print(stderr);
  util::Json result = util::Json::Object();
  result.Set("correct", correct);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", out.json());
  std::cout << result.Dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
