// In-memory span recorder for the traced run.
//
// Spans are opened only in benchmark code, around calls into the
// library's public API (nothing inside src/ is instrumented). Each span
// records name, start, end, parent and operation id, plus the process
// CPU time it covered; spans stay in memory and are written out once,
// when the run ends. A null Tracer makes every Span a no-op, which is
// how the untraced runs stay untraced.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // 0 for a root span
  std::uint32_t op = 0;      // operation the span belongs to
  std::string name;
  double start_ms = 0.0;     // since the tracer's origin
  double end_ms = 0.0;
  double cpu_ms = 0.0;       // process CPU time (all threads) inside the span
  std::uint64_t items = 0;

  [[nodiscard]] double duration_ms() const noexcept { return end_ms - start_ms; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under `parent` (0 = root). A root span starts a new
  /// operation; a child inherits its parent's operation.
  std::uint32_t Open(std::string_view name, std::uint32_t parent);
  void Close(std::uint32_t id, std::uint64_t items);

  /// A copy of every span recorded so far, in opening order.
  [[nodiscard]] std::vector<SpanRecord> Spans() const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_; index = id - 1
  std::vector<double> cpu_open_;   // guarded by mu_
  std::uint32_t next_op_ = 0;      // guarded by mu_
};

/// RAII span. Nesting is per thread: a span opened while another span
/// of the same tracer is open on this thread becomes its child.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_items(std::uint64_t items) noexcept { items_ = items; }

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
  std::uint32_t saved_parent_ = 0;
  std::uint64_t items_ = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// that the union of its direct children covers. Indexed like `spans`.
[[nodiscard]] std::vector<double> SelfTimesMs(const std::vector<SpanRecord>& spans);

/// Per span name: every occurrence's duration and self time.
struct SpanTimes {
  std::vector<double> duration_ms;
  std::vector<double> self_ms;
  std::vector<double> cpu_ms;
};
[[nodiscard]] std::map<std::string, SpanTimes> GroupByName(const std::vector<SpanRecord>& spans);

/// Write spans (with their self times) as one JSON document; returns
/// false on I/O error.
bool WriteSpansJson(const std::filesystem::path& path, const std::vector<SpanRecord>& spans);

/// Process CPU time (user + system, all threads) in ms.
[[nodiscard]] double ProcessCpuMs();

}  // namespace perfbench
