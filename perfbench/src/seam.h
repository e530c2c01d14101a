// Timing of every call into the σ-evaluation seam, attributed to a Dysim
// phase by call shape.
//
// TimedBackend is a forwarding diffusion::SigmaBackend decorator over the
// registered "mc" backend. It is registered under kTimedBackendName from
// this file, so a run opts in with `PlannerConfig.eval.backend` and no
// library code changes. Every virtual forwards — SelectBest,
// MakeScheduleEval, EnableSigmaMemo, the work counters, AddMetrics — so
// racing, checkpoints and memos stay on the real path and the planner's
// outputs are bit-identical to an undecorated run.
//
// The phase a call belongs to follows from where it lands (the table in
// Classify): the search engine's Sigma is Procedure 2, its EvalMarket the
// market order, a market-bound ScheduleEval is TDSI, an unbound one is
// DRE (Expected) or the Theorem-5 guard and refinement (SelectBest), and
// any engine built with the final sample count is the final σ̂.
#ifndef PERFBENCH_SEAM_H_
#define PERFBENCH_SEAM_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "diffusion/sigma_backend.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace perfbench {

inline constexpr char kTimedBackendName[] = "perfbench-timed";

enum class Phase { kTmi, kOrder, kDre, kTdsi, kGuard, kFinal, kBaseline };
inline constexpr int kNumPhases = 7;

/// "tmi", "order", "dre", "tdsi", "guard", "final", "baseline".
const char* PhaseName(Phase phase);

/// Where a seam call lands: the engine itself, a ScheduleEval bound to a
/// target market, or an unbound ScheduleEval.
enum class Site { kEngine, kMarketEval, kUnboundEval };
enum class Call { kSigma, kEvalMarket, kExpected, kSelectBest };

/// The call-shape table. `final_engine`: the backend was built with the
/// final (eval) sample count. `dysim_shapes`: the running planner is
/// Dysim, whose phases the shapes name; every other planner's search
/// calls book to kBaseline.
Phase Classify(Site site, Call call, bool final_engine, bool dysim_shapes);

/// Per-phase call counts and seconds, plus every call's duration.
/// Thread-safe.
class SeamSink {
 public:
  struct Totals {
    int64_t calls = 0;
    double seconds = 0.0;
  };

  /// Engines built with this many samples are final-σ̂ engines.
  explicit SeamSink(int final_samples) : final_samples_(final_samples) {}

  int final_samples() const { return final_samples_; }

  /// Set before each plan call from the planner's name.
  void set_dysim_shapes(bool on) IMDPP_EXCLUDES(mu_);
  bool dysim_shapes() const IMDPP_EXCLUDES(mu_);

  void Record(Phase phase, double seconds) IMDPP_EXCLUDES(mu_);
  Totals totals(Phase phase) const IMDPP_EXCLUDES(mu_);
  std::vector<double> call_seconds() const IMDPP_EXCLUDES(mu_);

 private:
  const int final_samples_;
  mutable imdpp::util::Mutex mu_;
  bool dysim_shapes_ IMDPP_GUARDED_BY(mu_) = true;
  std::array<Totals, kNumPhases> totals_ IMDPP_GUARDED_BY(mu_){};
  std::vector<double> call_seconds_ IMDPP_GUARDED_BY(mu_);
};

/// The sink backends built through the registry record into (null = the
/// decorator forwards without recording). Set it before the traced run.
void SetSeamSink(SeamSink* sink);
SeamSink* ActiveSeamSink();

/// The decorator. `sink` may be null.
class TimedBackend final : public imdpp::diffusion::SigmaBackend {
 public:
  TimedBackend(std::unique_ptr<imdpp::diffusion::SigmaBackend> inner,
               SeamSink* sink, bool final_engine);

  std::string_view name() const override { return kTimedBackendName; }
  std::string_view description() const override {
    return "per-call timing decorator over the mc backend";
  }
  imdpp::diffusion::BackendCapabilities capabilities() const override {
    return inner_->capabilities();
  }

  double Sigma(const imdpp::diffusion::SeedGroup& seeds) const override;
  imdpp::diffusion::MarketEval EvalMarket(
      const imdpp::diffusion::SeedGroup& seeds,
      const std::vector<imdpp::diffusion::UserId>& users) const override;
  imdpp::diffusion::ExpectedState Expected(
      const imdpp::diffusion::SeedGroup& seeds) const override;
  imdpp::diffusion::SelectBestResult SelectBest(
      const std::vector<imdpp::diffusion::SelectCandidate>& candidates,
      const imdpp::diffusion::SelectOptions& options) const override;

  void EnableSigmaMemo(size_t max_entries) override {
    inner_->EnableSigmaMemo(max_entries);
  }
  std::unique_ptr<imdpp::diffusion::ScheduleEval> MakeScheduleEval(
      imdpp::diffusion::SeedGroup base,
      std::vector<imdpp::diffusion::UserId> market) const override;

  const imdpp::diffusion::CampaignSimulator& simulator() const override {
    return inner_->simulator();
  }
  int num_samples() const override { return inner_->num_samples(); }
  int num_threads() const override { return inner_->num_threads(); }
  int64_t num_simulations() const override {
    return inner_->num_simulations();
  }
  int64_t num_rounds_simulated() const override {
    return inner_->num_rounds_simulated();
  }
  int64_t num_rounds_skipped() const override {
    return inner_->num_rounds_skipped();
  }
  int64_t num_memo_hits() const override { return inner_->num_memo_hits(); }
  int64_t num_blocks_run() const override { return inner_->num_blocks_run(); }
  int64_t num_early_stops() const override {
    return inner_->num_early_stops();
  }
  int64_t num_samples_saved() const override {
    return inner_->num_samples_saved();
  }
  void AddMetrics(imdpp::util::MetricsSnapshot& out) const override {
    inner_->AddMetrics(out);
  }
  const imdpp::util::CancelToken* cancel_token() const override {
    return inner_->cancel_token();
  }

 private:
  std::unique_ptr<imdpp::diffusion::SigmaBackend> inner_;
  SeamSink* sink_;
  bool final_engine_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAM_H_
