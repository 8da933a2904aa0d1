// stream_openloop: the streaming daemon fed on a fixed schedule, the way
// `cellspot stream --backpressure shed-newest` runs it, plus a lossless
// closed-loop replay and a cold restore from the last checkpoint.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <memory>
#include <thread>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/demand_generator.hpp"
#include "cellspot/cdn/event_stream.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/stream/daemon.hpp"
#include "digest.hpp"
#include "openloop.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace cellspot;
namespace fs = std::filesystem;

constexpr double kStreamScale = 0.002;
constexpr std::uint32_t kRounds = 4;
/// Offered load, events per second, in batches of kBatch (every 5 ms).
/// The daemon's defaults (queue 1024, a checkpoint every 64 ticks) bound
/// the rate: a checkpoint tick stalls the consumer (~5 ms at this scale,
/// ~43 ms at scale 0.02), and the frames due during a stall must fit in
/// the queue, so 20k/s tolerates ~45 ms stalls. Batches let the consumer
/// idle between them, so a checkpoint comes every ~64 batches instead of
/// every ~64 back-to-back ticks, and the lag median stays clear of
/// checkpoint waits.
constexpr double kRatePerS = 20000.0;
constexpr std::size_t kBatch = 100;
constexpr int kReplays = 15;

std::uint64_t Processed(const stream::DaemonStats& s) {
  return s.applied + s.duplicate + s.stale_seq + s.corrupt + s.bad_subnet;
}

stream::DaemonConfig OpenLoopConfig() {
  stream::DaemonConfig config;  // queue 1024, shed-newest, 4096 events per tick
  config.checkpoint_interval_ticks = 64;
  return config;
}

struct SessionStats {
  std::vector<FrameTiming> frames;  // every offered frame, in schedule order
  std::vector<double> tick_ms;
  std::size_t depth_max = 0;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t corrupt = 0;
};

/// Push `frames` on the schedule from a producer thread while this
/// thread drives the RunUntilClosed loop (Tick, then WaitForFrame),
/// timing each Tick from outside.
SessionStats RunOpenLoop(stream::StreamDaemon& daemon, const std::vector<std::string>& frames,
                         std::size_t final_round_begin, Tracer* tracer) {
  SessionStats out;
  const std::size_t n = frames.size();
  const Schedule schedule{kRatePerS, kBatch};
  std::vector<double> sent_ms(n, 0.0);
  std::vector<std::uint32_t> admitted(n, 0);  // admission order -> frame index
  std::vector<double> tick_start(n, 0.0);     // by admission order
  std::vector<double> tick_end(n, 0.0);
  stream::FrameQueue& queue = daemon.queue();

  const Clock::time_point t0 = Clock::now();
  const auto since_t0 = [&] { return MsSince(t0); };
  const auto produce = [&] {
    std::size_t a = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double due = schedule.DueMs(i);
      const Clock::time_point due_at =
          t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(due));
      // Spin rather than sleep: a sleeping producer's wake-up latency
      // would land in every frame's lag.
      while (Clock::now() < due_at) {
      }
      sent_ms[i] = since_t0();
      admitted[a] = static_cast<std::uint32_t>(i);
      // Rounds before the last may be shed; the final round must arrive.
      const bool ok = i < final_round_begin ? queue.Push(frames[i]) : queue.PushWait(frames[i]);
      if (ok) {
        ++a;
      } else if (queue.closed()) {
        return;  // the consumer failed and closed the queue
      }
    }
  };
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      produce();
    } catch (...) {
      producer_error = std::current_exception();
    }
    queue.Close();
  });

  std::uint64_t processed = 0;
  const auto tick = [&] {
    out.depth_max = std::max(out.depth_max, queue.size());
    const double start = since_t0();
    {
      Span s(tracer, "stream.tick");
      daemon.Tick();
    }
    const double end = since_t0();
    const std::uint64_t now = Processed(daemon.stats());
    for (std::uint64_t k = processed; k < now; ++k) {
      tick_start[k] = start;
      tick_end[k] = end;
    }
    processed = now;
    out.tick_ms.push_back(end - start);
  };
  try {
    for (;;) {
      tick();
      if (queue.WaitForFrame()) continue;
      tick();  // closed and drained: settle staleness, as RunUntilClosed does
      Span s(tracer, "stream.checkpoint");
      daemon.Checkpoint();
      break;
    }
  } catch (...) {
    queue.Close();
    producer.join();
    throw;
  }
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);

  out.frames.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.frames[i] = {schedule.DueMs(i), sent_ms[i]};
  for (std::uint64_t k = 0; k < processed; ++k) {
    FrameTiming& f = out.frames[admitted[k]];
    f.applied = true;
    f.tick_start_ms = tick_start[k];
    f.tick_end_ms = tick_end[k];
  }
  out.offered = n;
  out.shed = queue.shed_newest() + queue.shed_oldest();
  out.corrupt = daemon.stats().corrupt;
  return out;
}

}  // namespace

WorkloadResult RunStreamOpenLoop(const RunOptions& options) {
  WorkloadResult r;
  exec::Executor executor(kThreads);
  simnet::WorldConfig config = simnet::WorldConfig::Paper(kStreamScale);
  config.seed = options.seed;

  // Set-up: the world and its frame stream, on one thread. At this size
  // the 4-thread set-up is a few hundred short parallel jobs whose time
  // follows thread wake-up latency (its median moved 70% between two sets
  // of runs); on one thread it follows the generators' own work.
  exec::Executor setup_executor(1);
  std::unique_ptr<simnet::World> world;
  std::vector<std::string> frames;
  std::vector<double> world_ms;
  std::vector<double> frames_ms;
  const double setup_s = RepeatSetup(
      [&] {
        Clock::time_point start = Clock::now();
        world = std::make_unique<simnet::World>(simnet::World::Generate(config, setup_executor));
        world_ms.push_back(MsSince(start));
        start = Clock::now();
        frames =
            cdn::EventStreamGenerator(*world, {.rounds = kRounds}).GenerateFrames(setup_executor);
        frames_ms.push_back(MsSince(start));
      },
      [&] {
        frames.clear();
        frames.shrink_to_fit();
        world.reset();
      });
  const std::size_t final_round_begin =
      cdn::EventStreamGenerator(*world, {.rounds = kRounds}).FinalRoundBegin(frames.size());

  // Reference: the batch datasets and classification of the same world.
  std::string reference_datasets;
  std::string reference_classified;
  {
    const dataset::BeaconDataset beacons = cdn::BeaconGenerator(*world).GenerateDataset(executor);
    const dataset::DemandDataset demand = cdn::DemandGenerator(*world).GenerateDataset(executor);
    reference_datasets = DatasetsBytes(beacons, demand);
    reference_classified = ClassifiedBytes(core::SubnetClassifier(core::ClassifierConfig{}).Classify(beacons, executor));
  }
  const auto check_exports = [&](const stream::StreamDaemon& daemon, const std::string& what) {
    r.outcome.Check(DatasetsBytes(daemon.ExportBeacons(), daemon.ExportDemand()) ==
                        reference_datasets,
                    what + ": exported datasets differ from the batch datasets");
    r.outcome.Check(ClassifiedBytes(daemon.ExportClassified()) == reference_classified,
                    what + ": exported classification differs from the batch classification");
  };

  const fs::path checkpoint_dir = options.work_dir / "checkpoints";
  const std::uint64_t config_hash = stream::StreamDaemon::ConfigHash(config, {});

  std::vector<double> lag_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> tick_ms;
  std::vector<double> replay_eps;
  std::vector<double> replay_tick_ms;
  std::vector<double> restore_ms;
  std::vector<double> frames_per_tick;
  double checkpoint_bytes = 0.0;
  double gen_late_max = 0.0;
  std::size_t depth_max = 0;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t ticks = 0;
  std::size_t sessions = 0;

  // One operation: an open-loop session, kReplays lossless replays and a
  // cold restore of the session's final checkpoint.
  const auto operation = [&](Tracer* tracer) {
    fs::remove_all(checkpoint_dir);
    stream::CheckpointStore store(checkpoint_dir, config_hash);
    const stream::DaemonConfig daemon_config = OpenLoopConfig();
    {
      stream::StreamDaemon daemon(*world, {}, daemon_config, &store);
      SessionStats s;
      {
        Span span(tracer, "op.stream_session");
        s = RunOpenLoop(daemon, frames, final_round_begin, tracer);
      }
      const LagSamples lags = ComputeLags(s.frames);
      lag_ms.insert(lag_ms.end(), lags.lag_ms.begin(), lags.lag_ms.end());
      queue_wait_ms.insert(queue_wait_ms.end(), lags.queue_wait_ms.begin(),
                           lags.queue_wait_ms.end());
      tick_ms.insert(tick_ms.end(), s.tick_ms.begin(), s.tick_ms.end());
      gen_late_max = std::max(gen_late_max, lags.generator_late_max_ms);
      depth_max = std::max(depth_max, s.depth_max);
      offered += s.offered;
      shed += s.shed;
      ticks += s.tick_ms.size();
      frames_per_tick.push_back(static_cast<double>(lags.lag_ms.size()) /
                                static_cast<double>(s.tick_ms.size()));
      checkpoint_bytes = static_cast<double>(fs::file_size(store.PathForTick(daemon.tick())));
      r.outcome.AddFailed(s.offered, s.shed + s.corrupt,
                          "open loop: " + std::to_string(s.shed) + " frames shed, " +
                              std::to_string(s.corrupt) + " corrupt");
      if (tracer != nullptr) {
        Span span(tracer, "stream.export");
        (void)daemon.ExportBeacons();
        (void)daemon.ExportDemand();
        (void)daemon.ExportClassified();
      }
      check_exports(daemon, "open loop");
    }
    for (int k = 0; k < kReplays; ++k) {
      stream::DaemonConfig replay_config;
      replay_config.queue_capacity = frames.size();
      replay_config.backpressure = stream::BackpressurePolicy::kBlock;
      stream::StreamDaemon daemon(*world, {}, replay_config);
      std::vector<double> replay_ticks;
      const Clock::time_point start = Clock::now();
      {
        Span span(tracer, "stream.replay");
        for (const std::string& frame : frames) daemon.queue().Push(frame);
        daemon.queue().Close();
        for (;;) {
          const Clock::time_point t = Clock::now();
          daemon.Tick();
          replay_ticks.push_back(MsSince(t));
          if (!daemon.queue().WaitForFrame()) break;
        }
      }
      const double ms = MsSince(start);
      replay_eps.push_back(static_cast<double>(frames.size()) / (ms / 1000.0));
      replay_tick_ms.push_back(Summarize(replay_ticks).p50);
      r.outcome.Check(daemon.stats().applied == frames.size(),
                      "replay: not every frame was applied");
      if (k == 0) check_exports(daemon, "replay");
    }
    {
      stream::StreamDaemon restored(*world, {}, daemon_config, &store);
      const Clock::time_point start = Clock::now();
      bool ok = false;
      {
        Span span(tracer, "stream.restore");
        ok = restored.TryRestore();
      }
      restore_ms.push_back(MsSince(start));
      r.outcome.Check(ok, "restore: no usable checkpoint");
      check_exports(restored, "restored daemon");
    }
    ++sessions;
  };

  RunFor(options.trace ? options.seconds / 2 : options.seconds, 1,
         [&](std::size_t) { operation(nullptr); });
  const Summary lag = Summarize(lag_ms);
  const Summary replay = Summarize(replay_eps);
  const Summary restore = Summarize(restore_ms);

  r.e2e["setup_s"] = setup_s;
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.e2e["op_ms_p50"] = lag.p50;
  r.e2e["rate_per_s"] = replay.p50;
  r.lines.push_back(Line("setup_s", setup_s, "s", "median of 3 set-ups"));
  r.lines.push_back(Line("peak_rss_mb", r.e2e["peak_rss_mb"], "MB"));
  AddSummaryLines(r.lines, "stream_lag_ms", lag, "ms");
  r.lines.push_back(Line("stream_replay_eps", replay.p50, "1/s",
                         "n=" + std::to_string(replay.n) + " lossless replays"));
  r.lines.push_back(Line("restore_ms", restore.p50, "ms", "n=" + std::to_string(restore.n)));
  r.lines.push_back(Line("frames_offered", static_cast<double>(offered), "count",
                         std::to_string(sessions) + " sessions of " +
                             std::to_string(frames.size()) + " frames at " +
                             std::to_string(static_cast<long>(kRatePerS)) + " events/s in batches of " +
                             std::to_string(kBatch)));
  r.lines.push_back(Line("frames_shed", static_cast<double>(shed), "count"));
  r.lines.push_back(Line("stream.gen_late_ms_max", gen_late_max, "ms"));
  r.layer["simnet.generate_ms"] = Summarize(world_ms).p50;
  r.layer["simnet.subnets"] = static_cast<double>(world->subnets().size());
  r.layer["cdn.frames_ms"] = Summarize(frames_ms).p50;
  r.layer["cdn.frames"] = static_cast<double>(frames.size());
  if (!options.trace) return r;

  // Traced: the same operation with spans around each Tick and call.
  Tracer tracer;
  const std::size_t traced_from = tick_ms.size();
  const std::size_t lag_from = lag_ms.size();
  const std::size_t sessions_before = sessions;
  const ExecCounters before;
  RunFor(options.seconds / 2, 1, [&](std::size_t) { operation(&tracer); });
  r.spans = tracer.Spans();
  const auto by_name = GroupByName(r.spans);
  FillExecMetrics(r, before, sessions - sessions_before, by_name, "op.stream_session");
  const std::vector<double> traced_ticks(tick_ms.begin() + static_cast<std::ptrdiff_t>(traced_from),
                                         tick_ms.end());
  const std::vector<double> traced_waits(
      queue_wait_ms.begin() + static_cast<std::ptrdiff_t>(lag_from), queue_wait_ms.end());
  std::vector<double> sorted_ticks = traced_ticks;
  std::sort(sorted_ticks.begin(), sorted_ticks.end());
  r.layer["stream.tick_ms_p50"] = NearestRank(sorted_ticks, 0.5);
  r.layer["stream.tick_ms_p99"] = NearestRank(sorted_ticks, 0.99);
  r.layer["stream.frames_per_tick"] = Summarize(frames_per_tick).p50;
  r.layer["stream.queue_depth_max"] = static_cast<double>(depth_max);
  r.layer["stream.queue_wait_ms_p50"] = Summarize(traced_waits).p50;
  r.layer["stream.shed_frac"] = static_cast<double>(shed) / static_cast<double>(offered);
  r.layer["stream.ticks"] = static_cast<double>(ticks) / static_cast<double>(sessions);
  r.layer["stream.replay_tick_ms"] = Summarize(replay_tick_ms).p50;
  r.layer["stream.export_ms"] = MedianDuration(by_name, "stream.export");
  r.layer["stream.checkpoint_ms"] = MedianDuration(by_name, "stream.checkpoint");
  r.layer["stream.checkpoint_bytes"] = checkpoint_bytes;
  r.layer["stream.restore_ms"] = MedianDuration(by_name, "stream.restore");
  r.layer["stream.gen_late_ms_max"] = gen_late_max;
  const std::vector<double> traced_lags(lag_ms.begin() + static_cast<std::ptrdiff_t>(lag_from),
                                        lag_ms.end());
  FillOpLayerMetrics(r, lag, Summarize(traced_lags));
  return r;
}

}  // namespace perfbench
