// The benchmark's own arithmetic: medians, quartiles, tail percentiles
// and ratios. Pure functions, unit-tested in tests/perfbench_test.cc.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty input.
double Median(std::vector<double> values);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), so the spread this program reports
/// is the spread a Python check computes. Needs at least two values.
Quartiles ExclusiveQuartiles(std::vector<double> values);

/// A latency percentile that is backed by data: the highest of 50, 90,
/// 99, 99.9 and 99.99 with at least `min_beyond` samples above its
/// nearest-rank position. Falls back to the median (percentile 50) when
/// no rung has that many.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  int samples = 0;
};
Tail TailPercentile(std::vector<double> values, int min_beyond = 10);

/// num / den, or 0 when den is 0 — every ratio names its base here.
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
