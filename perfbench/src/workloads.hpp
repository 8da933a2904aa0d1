// The four workloads and what they share.
//
// Every workload runs in one process with a 4-thread executor: set-up
// (repeated kSetupRepeats times, the median is setup_s), then a timed
// phase of `seconds`. A traced run splits its time: an untraced half
// gives the baseline for obs.trace_overhead_frac, then a traced half
// records spans around the benchmark's calls into each module. Output
// checks run outside the timed regions and feed Outcome.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr unsigned kThreads = 4;
inline constexpr int kSetupRepeats = 3;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  // scratch space inside the checkout
};

struct WorkloadResult {
  Outcome outcome;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> lines;  // human-readable report, printed before the JSON
  std::vector<SpanRecord> spans;   // traced runs only
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Runs `op(i)` until starting another operation would overrun `seconds`
/// (predicted from the previous one), but at least `min_ops` times.
void RunFor(double seconds, std::size_t min_ops, const std::function<void(std::size_t)>& op);

/// Runs `setup` kSetupRepeats times, with `teardown` (untimed) between
/// repeats to release the previous state; returns the median wall time
/// in s. The state of the last repeat is the one the workload uses.
[[nodiscard]] double RepeatSetup(const std::function<void()>& setup,
                                 const std::function<void()>& teardown);

/// Peak resident set of the process so far, in MB (getrusage).
[[nodiscard]] double PeakRssMb();

/// Heap bytes currently allocated (mallinfo2), in MB.
[[nodiscard]] double HeapMb();

/// Process-wide executor counter (exec.jobs / exec.chunks / exec.steals).
[[nodiscard]] std::uint64_t ExecCounter(const char* name);

/// Executor counters at construction time; FillExecMetrics takes the
/// per-operation deltas since then.
struct ExecCounters {
  std::uint64_t jobs = ExecCounter("exec.jobs");
  std::uint64_t chunks = ExecCounter("exec.chunks");
  std::uint64_t steals = ExecCounter("exec.steals");
};

/// exec.jobs/chunks/steals per traced operation since `before`, and
/// exec.cpu_util: median over the `op_span` spans of CPU time / (wall *
/// kThreads).
void FillExecMetrics(WorkloadResult& r, const ExecCounters& before, std::size_t ops,
                     const std::map<std::string, SpanTimes>& spans, const std::string& op_span);

/// "name = value unit (n=..)" style report line.
[[nodiscard]] std::string Line(const std::string& name, double value, const char* unit,
                               const std::string& note = "");

/// Report lines for a sample set: <name>_p50 and the rule's tail.
void AddSummaryLines(std::vector<std::string>& lines, const std::string& name,
                     const Summary& s, const char* unit);

/// Layer metrics from spans: median duration (or self time) per name.
[[nodiscard]] double MedianDuration(const std::map<std::string, SpanTimes>& by_name,
                                    const std::string& name);
[[nodiscard]] double MedianSelf(const std::map<std::string, SpanTimes>& by_name,
                                const std::string& name);

/// Fill op.samples / op.tail_q / op.tail_ms and obs.trace_overhead_frac
/// from the untraced and traced operation samples of a traced run.
void FillOpLayerMetrics(WorkloadResult& result, const Summary& untraced, const Summary& traced);

WorkloadResult RunColdPipeline(const RunOptions& options);
WorkloadResult RunThresholdSweep(const RunOptions& options);
WorkloadResult RunSnapshotQuery(const RunOptions& options);
WorkloadResult RunStreamOpenLoop(const RunOptions& options);

}  // namespace perfbench
