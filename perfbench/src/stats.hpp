// Percentiles from the benchmark's own raw samples.
//
// Every timing the benchmark reports is a percentile of samples it took
// itself (never a histogram bucket estimate), reported with the number
// of samples behind it. The tail reported next to a median is the
// highest percentile on a fixed ladder (p99.9, p99, p95, p90, p75) that
// still has at least kMinBeyond samples above it, so a p99 is only
// printed when at least 1000 samples back it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the smallest sample with at least q*n
/// samples at or below it. `sorted` must be ascending and non-empty;
/// q in (0, 1].
[[nodiscard]] double NearestRank(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q-th percentile position.
[[nodiscard]] std::size_t SamplesBeyond(std::size_t n, double q);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Highest ladder percentile with >= kMinBeyond samples beyond it;
  /// tail_q == 0 when no ladder percentile qualifies (n < 40).
  double tail_q = 0.0;
  double tail = 0.0;

  /// "p99", "p99.9", ... for tail_q; "" when there is no tail.
  [[nodiscard]] std::string TailLabel() const;
};

/// Summarise raw samples (any order). An empty input gives n == 0.
[[nodiscard]] Summary Summarize(std::vector<double> samples);

}  // namespace perfbench
