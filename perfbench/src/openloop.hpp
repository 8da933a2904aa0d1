// Open-loop arithmetic for the stream workload.
//
// Frames are due in fixed-size batches at a fixed interval, the way a
// log shipper flushes (batch 1 is a uniform schedule): frame i is due at
// start + floor(i / batch) * batch / rate, whatever happened to the
// frames before it. Its latency ("lag") runs from that due time to the end of
// the Tick() that applied it, so a stall is charged to every frame it
// delayed, including frames the generator itself pushed late: the
// generator's lateness (sent - due) is part of the lag, and is also
// reported on its own so a late generator cannot pass for a fast daemon.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Schedule {
  double rate_per_s = 0.0;
  std::size_t batch = 1;

  /// Due time of frame `i`, in ms after the start of the open loop.
  [[nodiscard]] double DueMs(std::size_t i) const noexcept {
    return static_cast<double>(i / batch * batch) * 1000.0 / rate_per_s;
  }
};

/// One offered frame, all times in ms on the same clock as DueMs.
struct FrameTiming {
  double due_ms = 0.0;
  double sent_ms = 0.0;        // when the producer pushed it
  bool applied = false;        // false: shed, the tick times are unset
  double tick_start_ms = 0.0;  // start of the Tick() that applied it
  double tick_end_ms = 0.0;    // end of that Tick()
};

struct LagSamples {
  std::vector<double> lag_ms;          // tick_end - due, applied frames
  std::vector<double> queue_wait_ms;   // lag minus tick time = tick_start - due
  double generator_late_max_ms = 0.0;  // max(sent - due) over all offered frames
};

[[nodiscard]] LagSamples ComputeLags(const std::vector<FrameTiming>& frames);

}  // namespace perfbench
