#include "openloop.hpp"

#include <algorithm>

namespace perfbench {

LagSamples ComputeLags(const std::vector<FrameTiming>& frames) {
  LagSamples out;
  out.lag_ms.reserve(frames.size());
  out.queue_wait_ms.reserve(frames.size());
  for (const FrameTiming& f : frames) {
    out.generator_late_max_ms = std::max(out.generator_late_max_ms, f.sent_ms - f.due_ms);
    if (!f.applied) continue;
    out.lag_ms.push_back(f.tick_end_ms - f.due_ms);
    out.queue_wait_ms.push_back(f.tick_start_ms - f.due_ms);
  }
  return out;
}

}  // namespace perfbench
