// Shared configuration and row-runner helpers for the per-figure
// reproduction harnesses. Every harness prints the same series the paper's
// plot reports (algorithm x sweep-point -> σ and/or seconds) as an ASCII
// table, plus a "shape" note saying what qualitative relation to expect.
// Figures a sweep can express are configs/fig*.json files run by
// `imdpp sweep`; a harness remains only for what a sweep cannot express
// (OPT candidates, flattened importance, meta-graph subsets).
//
// All algorithms run through the unified api:: planner layer: a harness
// names a registered planner ("dysim", "bgrd", "hag", "ps", "drhga",
// "opt", ...) on an api::CampaignSession and gets back one
// api::PlanResult — no per-algorithm plumbing here.
//
// Scaling note: our datasets are laptop-scale synthetics (DESIGN.md), so
// absolute σ values are NOT comparable to the paper; orderings and trends
// are.
#ifndef IMDPP_BENCH_BENCH_COMMON_H_
#define IMDPP_BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cstdio>
#include <string>

#include "api/session.h"
#include "data/catalog.h"
#include "util/table.h"

namespace imdpp::bench {

/// Search/eval effort shared by all algorithms so comparisons are fair.
struct Effort {
  int selection_samples = 10;
  int eval_samples = 24;
  int max_users = 24;
  int max_items = 8;
  /// Monte-Carlo executors per engine (util::kAutoThreads = hardware
  /// concurrency, 0 = serial). σ̂ values are identical for every setting;
  /// only wall-clock changes, so figures stay comparable across machines.
  int num_threads = util::kAutoThreads;
};

inline api::PlannerConfig MakeConfig(const Effort& e) {
  api::PlannerConfig cfg;
  cfg.selection_samples = e.selection_samples;
  cfg.eval_samples = e.eval_samples;
  cfg.candidates.max_users = e.max_users;
  cfg.candidates.max_items = e.max_items;
  cfg.num_threads = e.num_threads;
  return cfg;
}

/// Paper-style display label for a registry name ("dysim" -> "Dysim").
inline std::string Label(const std::string& registry_name) {
  if (registry_name == "dysim") return "Dysim";
  if (registry_name == "adaptive") return "Adaptive";
  if (registry_name == "cr_greedy") return "CR-Greedy";
  std::string label = registry_name;
  for (char& c : label) c = static_cast<char>(std::toupper(c));
  return label;
}

inline void PrintShapeNote(const char* figure, const char* expectation) {
  std::printf("\n[%s] expected shape: %s\n", figure, expectation);
}

}  // namespace imdpp::bench

#endif  // IMDPP_BENCH_BENCH_COMMON_H_
