// Sample statistics the benchmark reports: exact nearest-rank percentiles
// over recorded samples, medians of per-window rates, and ratios with an
// explicit base.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `v` (p in (0, 100]): the smallest sample with
/// at least p% of the samples at or below it. Reorders `v`. Empty -> 0.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto k = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Median as the mean of the two middle samples for an even count (the
/// convention Python's statistics.median uses). Empty -> 0.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// num / base, or 0 when the base is empty (the metric has no events to
/// divide among). Every reported ratio goes through here so its base is
/// named at the call site.
inline double ratio(double num, double base) {
  return base > 0.0 ? num / base : 0.0;
}
inline double ratio(std::uint64_t num, std::uint64_t base) {
  return ratio(static_cast<double>(num), static_cast<double>(base));
}

/// Exact latency samples in microseconds with their summary.
struct LatencySummary {
  std::size_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

inline LatencySummary summarize(std::vector<double> us) {
  LatencySummary s;
  s.count = us.size();
  s.p50_us = percentile(us, 50.0);
  s.p99_us = percentile(us, 99.0);
  return s;
}

}  // namespace perfbench
