// The metric catalogue and the one-line JSON result.
//
// The end-to-end and per-layer metric names here are the ones
// BENCHMARK.json lists; run.py refuses a result whose keys differ.
// Every workload prints every metric of the set its mode asks for: a
// per-layer metric whose layer the workload never calls reads 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

[[nodiscard]] const std::vector<MetricDef>& EndToEndMetrics();
[[nodiscard]] const std::vector<MetricDef>& PerLayerMetrics();

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  /// Count one attempted operation; `ok == false` records `what`.
  void Check(bool ok, const std::string& what);
  /// Record operations that failed without a check (shed frames, ...).
  void AddFailed(std::uint64_t attempted_ops, std::uint64_t failed_ops, const std::string& what);

  [[nodiscard]] bool correct() const noexcept { return failures.empty() && failed == 0; }
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
/// over exactly the metrics in `defs`, taking values from `values`
/// (missing per-layer names read 0). Throws std::logic_error when an
/// end-to-end value is missing or any value is not finite.
[[nodiscard]] std::string ResultJson(const Outcome& outcome, const std::vector<MetricDef>& defs,
                                     const std::map<std::string, double>& values,
                                     bool missing_is_zero);

}  // namespace perfbench
