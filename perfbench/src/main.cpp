// perfbench: runs one workload and prints its report, then the result
// as one JSON line (the last line of stdout).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Exit codes: 0 every output check passed; 1 an output check failed
// (the JSON line still prints, with "correct": false); 2 usage error or
// an exception (no JSON line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "cellspot/exec/executor.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"cold_pipeline", RunColdPipeline},
    {"threshold_sweep", RunThresholdSweep},
    {"snapshot_query", RunSnapshotQuery},
    {"stream_openloop", RunStreamOpenLoop},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <cold_pipeline|threshold_sweep|"
               "snapshot_query|stream_openloop> --seed <n> --seconds <s> --trace <0|1> "
               "--out-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace needs 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown option " + arg).c_str());
    }
  }
  if (out_dir.empty()) return Usage("--out-dir is required");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage(("unknown workload '" + options.workload + "'").c_str());

  namespace fs = std::filesystem;
  options.work_dir = fs::path(out_dir) / ("tmp-" + std::to_string(::getpid()));
  int rc = 0;
  try {
    cellspot::exec::Executor::SetDefaultThreadCount(kThreads);
    fs::create_directories(options.work_dir);
    WorkloadResult result = workload->run(options);
    fs::remove_all(options.work_dir);

    const Outcome& outcome = result.outcome;
    result.layer["error_frac"] = outcome.attempted == 0
                                     ? 0.0
                                     : static_cast<double>(outcome.failed) /
                                           static_cast<double>(outcome.attempted);
    std::printf("workload %s  seed %llu  %.0f s  trace %d\n", workload->name,
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    for (const std::string& line : result.lines) std::printf("%s\n", line.c_str());
    std::printf("  checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    for (const std::string& failure : outcome.failures) {
      std::printf("  FAILED: %s\n", failure.c_str());
    }
    if (options.trace) {
      const fs::path spans = fs::path(out_dir) / ("spans-" + options.workload + "-seed" +
                                                  std::to_string(options.seed) + ".json");
      if (!WriteSpansJson(spans, result.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans.c_str());
        return 2;
      }
      std::printf("  spans: %zu written to %s\n", result.spans.size(), spans.c_str());
      std::printf("  self time by span name (median ms):\n");
      for (const auto& [name, times] : GroupByName(result.spans)) {
        std::printf("    %-28s n=%-6zu total %10.3f  self %10.3f\n", name.c_str(),
                    times.duration_ms.size(), Summarize(times.duration_ms).p50,
                    Summarize(times.self_ms).p50);
      }
    }
    const std::string json =
        options.trace ? ResultJson(outcome, PerLayerMetrics(), result.layer, true)
                      : ResultJson(outcome, EndToEndMetrics(), result.e2e, false);
    std::printf("%s\n", json.c_str());
    rc = outcome.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(), e.what());
    std::error_code ignored;
    fs::remove_all(options.work_dir, ignored);
    return 2;
  }
  std::fflush(stdout);
  return rc;
}
