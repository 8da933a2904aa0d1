#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "cellspot/obs/metrics.hpp"

namespace perfbench {

void RunFor(double seconds, std::size_t min_ops, const std::function<void(std::size_t)>& op) {
  const Clock::time_point start = Clock::now();
  double last_ms = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (i >= min_ops && MsSince(start) + last_ms > seconds * 1000.0) break;
    const Clock::time_point op_start = Clock::now();
    op(i);
    last_ms = MsSince(op_start);
  }
}

double RepeatSetup(const std::function<void()>& setup,
                   const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) teardown();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MsSince(start) / 1000.0);
  }
  return Summarize(seconds).p50;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::uint64_t ExecCounter(const char* name) {
  return cellspot::obs::MetricsRegistry::Global().counter(name).value();
}

void FillExecMetrics(WorkloadResult& r, const ExecCounters& before, std::size_t ops,
                     const std::map<std::string, SpanTimes>& spans, const std::string& op_span) {
  const ExecCounters after;
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  r.layer["exec.jobs"] = static_cast<double>(after.jobs - before.jobs) / n;
  r.layer["exec.chunks"] = static_cast<double>(after.chunks - before.chunks) / n;
  r.layer["exec.steals"] = static_cast<double>(after.steals - before.steals) / n;
  const auto it = spans.find(op_span);
  if (it == spans.end()) return;
  std::vector<double> util;
  for (std::size_t i = 0; i < it->second.duration_ms.size(); ++i) {
    const double wall = it->second.duration_ms[i];
    if (wall > 0.0) util.push_back(it->second.cpu_ms[i] / (wall * kThreads));
  }
  r.layer["exec.cpu_util"] = Summarize(util).p50;
}

std::string Line(const std::string& name, double value, const char* unit,
                 const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-28s %14.4f %-6s %s", name.c_str(), value, unit,
                note.c_str());
  return buf;
}

void AddSummaryLines(std::vector<std::string>& lines, const std::string& name,
                     const Summary& s, const char* unit) {
  const std::string n = "n=" + std::to_string(s.n);
  lines.push_back(Line(name + "_p50", s.p50, unit, n));
  if (s.tail_q > 0.0) {
    lines.push_back(Line(name + "_" + s.TailLabel(), s.tail, unit,
                         n + ", highest percentile with >=10 samples beyond"));
  } else {
    lines.push_back("  " + name + ": no tail percentile (" + n + ", a p75 needs n>=40)");
  }
}

double MedianDuration(const std::map<std::string, SpanTimes>& by_name, const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Summarize(it->second.duration_ms).p50;
}

double MedianSelf(const std::map<std::string, SpanTimes>& by_name, const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Summarize(it->second.self_ms).p50;
}

void FillOpLayerMetrics(WorkloadResult& result, const Summary& untraced, const Summary& traced) {
  result.layer["op.samples"] = static_cast<double>(untraced.n);
  result.layer["op.tail_q"] = untraced.tail_q;
  result.layer["op.tail_ms"] = untraced.tail;
  result.layer["obs.trace_overhead_frac"] =
      untraced.p50 > 0.0 ? (traced.p50 - untraced.p50) / untraced.p50 : 0.0;
  result.lines.push_back(Line("obs.trace_overhead_frac",
                              result.layer["obs.trace_overhead_frac"], "frac",
                              "traced op p50 vs untraced op p50"));
}

}  // namespace perfbench
