// The per-layer metrics of a traced pass: seam time by Dysim phase, span
// and registry totals, the engines' work counters, and the ratios derived
// from them, each against a named base.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "seam.h"
#include "spans.h"
#include "util/json.h"
#include "util/metrics.h"
#include "workload.h"

namespace perfbench {

/// Metric name → {"value", "unit"}, in insertion order.
class MetricOut {
 public:
  void Add(const std::string& name, double value, const char* unit);
  const imdpp::util::Json& json() const { return json_; }
  /// The value of `name`; IMDPP_CHECK-fails when absent.
  double Value(const std::string& name) const;
  /// One "name value unit" line per metric.
  void Print(std::FILE* out) const;

 private:
  imdpp::util::Json json_ = imdpp::util::Json::Object();
};

/// What the traced pass recorded.
struct TraceCapture {
  Pass pass;
  SpanTable spans;
  imdpp::util::MetricsSnapshot registry;  ///< MetricRegistry (pool.*)
  std::vector<double> seam_call_s;        ///< every timed seam call
  std::vector<SeamSink::Totals> phases;   ///< indexed by Phase
  size_t events = 0;
  size_t dropped = 0;
};

/// Numbers from outside the traced pass.
struct LayerInputs {
  std::vector<double> untraced_pass_s;  ///< untraced pass wall times
  double referee_s = 0.0;
  std::vector<double> make_s;    ///< dataset materialization times
  double failed_frac = 0.0;
  int threads = 1;               ///< resolved executor count
};

void AddPerLayer(const TraceCapture& trace, const LayerInputs& inputs,
                 MetricOut& out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
