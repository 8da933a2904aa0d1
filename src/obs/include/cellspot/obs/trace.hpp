// Scoped trace spans. A TraceSpan measures the wall time of its scope
// and, on destruction, folds one occurrence into its registry's per-path
// span aggregate. Spans nest per thread: a span opened while another is
// active on the same thread becomes its child, and the aggregate is
// keyed by the '/'-joined path ("pipeline.classify/exec.batch"), so one
// aggregate row exists per distinct call-site nesting rather than per
// occurrence.
//
// Nesting state is thread_local, which keeps the fast path lock-free: a
// span opened on one thread is not the parent of spans another thread
// opens, unless that thread adopts it with a ScopedTraceParent. The
// executor's workers adopt the submitting thread's exec.batch span for
// each batch, so a chunk's spans get the same path whichever thread ran
// it, and the span tree is the same at any thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace cellspot::obs {

class MetricsRegistry;

class TraceSpan {
 public:
  /// Opens a span named `name` under the innermost span currently active
  /// on this thread (if any), recording into `registry` when it closes.
  explicit TraceSpan(std::string_view name);
  TraceSpan(std::string_view name, MetricsRegistry& registry);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Item count reported with this occurrence (summed in the aggregate).
  void set_items(std::uint64_t items) noexcept { items_ = items; }
  void AddItems(std::uint64_t items) noexcept { items_ += items; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] int depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint64_t items() const noexcept { return items_; }

  /// Elapsed wall time so far, in ms.
  [[nodiscard]] double elapsed_ms() const noexcept;

  /// The innermost span active on the calling thread, or nullptr.
  [[nodiscard]] static const TraceSpan* Current() noexcept;

 private:
  MetricsRegistry* registry_;
  const TraceSpan* parent_;
  std::string path_;
  int depth_;
  std::uint64_t items_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Makes `parent` — typically a span open on another thread — the calling
/// thread's innermost span for this scope, so spans opened here nest
/// under it; the previous innermost span is restored on exit. `parent`
/// must stay open until the scope ends. Spans only read their parent's
/// path and depth, so many threads may adopt one parent at once.
class ScopedTraceParent {
 public:
  explicit ScopedTraceParent(const TraceSpan* parent) noexcept;
  ~ScopedTraceParent();

  ScopedTraceParent(const ScopedTraceParent&) = delete;
  ScopedTraceParent& operator=(const ScopedTraceParent&) = delete;

 private:
  const TraceSpan* saved_;
};

}  // namespace cellspot::obs
