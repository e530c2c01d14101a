// Per-name totals of the spans in a Chrome trace-event document, as
// util::trace::TraceJson writes it: B/E pairs, each thread's events in
// recording order.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace perfbench {

struct SpanTotals {
  int64_t count = 0;
  /// Summed span durations.
  double inclusive_s = 0.0;
  /// Durations minus the part covered by direct child spans.
  double self_s = 0.0;
  /// Durations of the spans with no open ancestor of the same family
  /// (the name up to its first '.'): "mc.sigma" nested in
  /// "mc.select_best" adds nothing here, so summing a family's outer_s
  /// counts each covered interval once.
  double outer_s = 0.0;
};

using SpanTable = std::map<std::string, SpanTotals, std::less<>>;

/// Folds the trace into per-name totals. Fails on malformed JSON or an
/// unbalanced B/E sequence.
imdpp::util::StatusOr<SpanTable> SummarizeTrace(std::string_view trace_json);

/// Sum of outer_s over the names starting with `family` + ".".
double FamilyOuterSeconds(const SpanTable& table, std::string_view family);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
