#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/check.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles ExclusiveQuartiles(std::vector<double> values) {
  IMDPP_CHECK(values.size() >= 2);
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

Tail TailPercentile(std::vector<double> values, int min_beyond) {
  Tail tail;
  tail.samples = static_cast<int>(values.size());
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank_of = [n](double p) {
    return std::max(1.0, std::ceil(p / 100.0 * n));  // nearest rank, 1-based
  };
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (n - rank_of(p) >= min_beyond) tail.percentile = p;
  }
  tail.value = values[static_cast<size_t>(rank_of(tail.percentile)) - 1];
  return tail;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
