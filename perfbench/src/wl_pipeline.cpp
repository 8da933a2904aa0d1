// cold_pipeline and threshold_sweep: the paper's batch job, cold, and
// the re-classification loop Fig 3 and the ablation benches run on one
// prebuilt world.
#include <map>
#include <memory>
#include <optional>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/demand_generator.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "digest.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace cellspot;

constexpr double kColdScale = 0.1;
constexpr double kWarmUpScale = 0.01;
constexpr double kSweepScale = 0.1;
constexpr double kThresholds[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr std::size_t kThresholdCount = sizeof kThresholds / sizeof kThresholds[0];

simnet::WorldConfig PaperWorld(double scale, std::uint64_t seed) {
  simnet::WorldConfig config = simnet::WorldConfig::Paper(scale);
  config.seed = seed;
  return config;
}

/// Median of per-occurrence samples collected by name.
double Median(const std::map<std::string, std::vector<double>>& samples, const std::string& name) {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : Summarize(it->second).p50;
}

}  // namespace

WorkloadResult RunColdPipeline(const RunOptions& options) {
  WorkloadResult r;
  exec::Executor executor(kThreads);
  const simnet::WorldConfig config = PaperWorld(kColdScale, options.seed);
  const simnet::WorldConfig warm = PaperWorld(kWarmUpScale, options.seed);

  // Set-up: a warm-up run on a small world so lazy initialisation and the
  // executor's first dispatch are not charged to the first cold run.
  const double setup_s = RepeatSetup(
      [&] {
        analysis::Pipeline warmup({.world = warm}, executor);
        (void)warmup.Run();
      },
      [] {});

  std::optional<std::uint64_t> reference;
  const auto check_digest = [&](std::uint64_t digest, const std::string& what) {
    if (!reference) reference = digest;
    r.outcome.Check(digest == *reference, what + ": result digest differs from the first run");
  };

  // Untraced cold runs: Pipeline::Run() from nothing, no snapshot dir.
  std::vector<double> run_ms;
  std::vector<double> blocks_per_s;
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  RunFor(untraced_s, options.trace ? 1 : 3, [&](std::size_t i) {
    const Clock::time_point start = Clock::now();
    analysis::Pipeline pipeline({.world = config}, executor);
    const analysis::Experiment& e = pipeline.Run();
    run_ms.push_back(MsSince(start));
    blocks_per_s.push_back(static_cast<double>(e.beacons.block_count() + e.demand.block_count()) /
                           (run_ms.back() / 1000.0));
    check_digest(ResultDigest(e.classified, e.candidates, e.filtered), "cold run");
    if (i == 0) {
      const std::vector<core::AsAggregate> sequential = core::AggregateCandidateAsesSequential(
          e.world.rib(), e.classified, e.beacons, e.demand, executor);
      r.outcome.Check(AsListBytes(sequential) == AsListBytes(e.candidates),
                      "cold run: sharded candidates differ from AggregateCandidateAsesSequential");
      r.layer["core.candidate_ases"] = static_cast<double>(e.candidates.size());
      r.layer["core.kept_ases"] = static_cast<double>(e.filtered.kept.size());
    }
  });
  const Summary untraced = Summarize(run_ms);

  r.e2e["setup_s"] = setup_s;
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.e2e["op_ms_p50"] = untraced.p50;
  r.e2e["rate_per_s"] = Summarize(blocks_per_s).p50;
  r.lines.push_back(Line("setup_s", setup_s, "s", "median of 3 set-ups"));
  r.lines.push_back(Line("peak_rss_mb", r.e2e["peak_rss_mb"], "MB"));
  AddSummaryLines(r.lines, "pipeline_ms", untraced, "ms");
  r.lines.push_back(Line("pipeline_s", untraced.p50 / 1000.0, "s", "median cold Pipeline::Run"));
  r.lines.push_back(Line("blocks_per_s", r.e2e["rate_per_s"], "1/s",
                         "beacon + demand blocks per second, median run"));
  if (!options.trace) return r;

  // Traced runs: the same calls Pipeline::Run makes, one span per module.
  Tracer tracer;
  std::map<std::string, std::vector<double>> heap;
  std::vector<double> traced_ms;
  const ExecCounters before;
  RunFor(options.seconds / 2, 1, [&](std::size_t) {
    const Clock::time_point start = Clock::now();
    analysis::Experiment e;
    {
      Span op(&tracer, "op.cold_pipeline");
      double h = HeapMb();
      const auto heap_delta = [&](const char* layer) {
        const double now = HeapMb();
        heap[layer].push_back(now - h);
        h = now;
      };
      {
        Span s(&tracer, "simnet.generate");
        e.world = simnet::World::Generate(config, executor);
        s.set_items(e.world.subnets().size());
      }
      heap_delta("simnet");
      {
        Span s(&tracer, "asdb.compile_lpm");
        s.set_items(e.world.rib().Flat().segment_count());
      }
      heap_delta("asdb");
      {
        Span s(&tracer, "cdn.beacons");
        e.beacons = cdn::BeaconGenerator(e.world).GenerateDataset(executor);
        s.set_items(e.beacons.block_count());
      }
      {
        Span s(&tracer, "cdn.demand");
        e.demand = cdn::DemandGenerator(e.world).GenerateDataset(executor);
        s.set_items(e.demand.block_count());
      }
      heap_delta("cdn");
      {
        Span s(&tracer, "core.classify");
        e.classified = core::SubnetClassifier(core::ClassifierConfig{}).Classify(e.beacons, executor);
        s.set_items(e.classified.ratios().size());
      }
      {
        Span s(&tracer, "core.aggregate");
        e.candidates = core::AggregateCandidateAsesSharded(e.world.rib(), e.classified,
                                                           e.beacons, e.demand, executor);
        s.set_items(e.candidates.size());
      }
      {
        Span s(&tracer, "core.filter");
        e.filtered = core::ApplyAsFilters(e.candidates, e.world.as_db(), {});
        s.set_items(e.filtered.kept.size());
      }
    }
    traced_ms.push_back(MsSince(start));
    check_digest(ResultDigest(e.classified, e.candidates, e.filtered),
                 "traced run (module calls)");
    r.layer["simnet.subnets"] = static_cast<double>(e.world.subnets().size());
    r.layer["netaddr.lpm_segments"] = static_cast<double>(e.world.rib().Flat().segment_count());
    r.layer["dataset.beacon_blocks"] = static_cast<double>(e.beacons.block_count());
    r.layer["dataset.demand_blocks"] = static_cast<double>(e.demand.block_count());
  });
  r.spans = tracer.Spans();
  const auto by_name = GroupByName(r.spans);
  FillExecMetrics(r, before, traced_ms.size(), by_name, "op.cold_pipeline");
  r.layer["simnet.generate_ms"] = MedianDuration(by_name, "simnet.generate");
  r.layer["asdb.compile_lpm_ms"] = MedianDuration(by_name, "asdb.compile_lpm");
  r.layer["cdn.beacons_ms"] = MedianDuration(by_name, "cdn.beacons");
  r.layer["cdn.demand_ms"] = MedianDuration(by_name, "cdn.demand");
  r.layer["core.classify_ms"] = MedianDuration(by_name, "core.classify");
  r.layer["core.aggregate_ms"] = MedianDuration(by_name, "core.aggregate");
  r.layer["core.filter_ms"] = MedianDuration(by_name, "core.filter");
  r.layer["simnet.heap_delta_mb"] = Median(heap, "simnet");
  r.layer["asdb.heap_delta_mb"] = Median(heap, "asdb");
  r.layer["cdn.heap_delta_mb"] = Median(heap, "cdn");
  FillOpLayerMetrics(r, untraced, Summarize(traced_ms));

  // Single-thread baseline of the same cold run.
  {
    exec::Executor single(1);
    const Clock::time_point start = Clock::now();
    analysis::Pipeline pipeline({.world = config}, single);
    const analysis::Experiment& e = pipeline.Run();
    const double one_thread_ms = MsSince(start);
    check_digest(ResultDigest(e.classified, e.candidates, e.filtered), "1-thread run");
    r.layer["exec.speedup_1to4"] = one_thread_ms / untraced.p50;
  }
  return r;
}

WorkloadResult RunThresholdSweep(const RunOptions& options) {
  WorkloadResult r;
  exec::Executor executor(kThreads);
  const simnet::WorldConfig config = PaperWorld(kSweepScale, options.seed);

  // Set-up: world, datasets and the compiled LPM (BuildWorld primes it).
  std::unique_ptr<analysis::Pipeline> pipeline;
  const double setup_s = RepeatSetup(
      [&] {
        pipeline = std::make_unique<analysis::Pipeline>(
            analysis::Pipeline::Config{.world = config}, executor);
        pipeline->GenerateDatasets();
      },
      [&] { pipeline.reset(); });

  // Reference: the default (0.5) run of the set-up pipeline.
  const analysis::Experiment& first = pipeline->Run();
  const std::uint64_t default_digest =
      ResultDigest(first.classified, first.candidates, first.filtered);
  r.layer["core.candidate_ases"] = static_cast<double>(first.candidates.size());
  r.layer["core.kept_ases"] = static_cast<double>(first.filtered.kept.size());
  r.layer["simnet.subnets"] = static_cast<double>(first.world.subnets().size());
  r.layer["netaddr.lpm_segments"] =
      static_cast<double>(first.world.rib().Flat().segment_count());
  r.layer["dataset.beacon_blocks"] = static_cast<double>(first.beacons.block_count());
  r.layer["dataset.demand_blocks"] = static_cast<double>(first.demand.block_count());

  std::map<std::size_t, std::uint64_t> digests;  // threshold index -> first digest
  const auto check = [&](std::size_t t, const std::string& what) {
    const analysis::Experiment& e = pipeline->experiment();
    const std::uint64_t digest = ResultDigest(e.classified, e.candidates, e.filtered);
    const auto [it, inserted] = digests.emplace(t, digest);
    r.outcome.Check(inserted || it->second == digest,
                    what + ": threshold " + std::to_string(kThresholds[t]) +
                        " digest differs between repeats");
    if (kThresholds[t] == 0.5) {
      r.outcome.Check(digest == default_digest,
                      what + ": 0.5 result differs from the set-up pipeline's default run");
    }
  };

  std::vector<double> op_ms;
  std::vector<double> blocks_per_s;
  RunFor(options.trace ? options.seconds / 2 : options.seconds, kThresholdCount,
         [&](std::size_t i) {
           const std::size_t t = i % kThresholdCount;
           const Clock::time_point start = Clock::now();
           pipeline->set_classifier({.threshold = kThresholds[t]});
           const analysis::Experiment& e = pipeline->Run();
           const double ms = MsSince(start);
           op_ms.push_back(ms);
           blocks_per_s.push_back(static_cast<double>(e.classified.ratios().size()) /
                                  (ms / 1000.0));
           check(t, "reclassify");
         });
  const Summary untraced = Summarize(op_ms);
  r.e2e["setup_s"] = setup_s;
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.e2e["op_ms_p50"] = untraced.p50;
  r.e2e["rate_per_s"] = Summarize(blocks_per_s).p50;
  r.lines.push_back(Line("setup_s", setup_s, "s", "median of 3 set-ups"));
  r.lines.push_back(Line("peak_rss_mb", r.e2e["peak_rss_mb"], "MB"));
  AddSummaryLines(r.lines, "reclassify_ms", untraced, "ms");
  r.lines.push_back(Line("blocks_per_s", r.e2e["rate_per_s"], "1/s",
                         "beacon blocks re-classified per second, median op"));
  if (!options.trace) return r;

  // Traced: the staged calls Run() would make after set_classifier.
  Tracer tracer;
  std::vector<double> traced_ms;
  const ExecCounters before;
  RunFor(options.seconds / 2, kThresholdCount, [&](std::size_t i) {
    const std::size_t t = i % kThresholdCount;
    const Clock::time_point start = Clock::now();
    {
      Span op(&tracer, "op.reclassify");
      {
        Span s(&tracer, "analysis.set_classifier");
        pipeline->set_classifier({.threshold = kThresholds[t]});
      }
      {
        Span s(&tracer, "core.classify");
        s.set_items(pipeline->Classify().ratios().size());
      }
      {
        Span s(&tracer, "core.aggregate");
        s.set_items(pipeline->Aggregate().size());
      }
      {
        Span s(&tracer, "core.filter");
        s.set_items(pipeline->Filter().kept.size());
      }
      (void)pipeline->Run();
    }
    traced_ms.push_back(MsSince(start));
    check(t, "traced reclassify");
  });
  r.spans = tracer.Spans();
  const auto by_name = GroupByName(r.spans);
  FillExecMetrics(r, before, traced_ms.size(), by_name, "op.reclassify");
  r.layer["analysis.invalidate_ms"] = MedianDuration(by_name, "analysis.set_classifier");
  r.layer["analysis.self_ms"] = MedianSelf(by_name, "op.reclassify");
  r.layer["core.classify_ms"] = MedianDuration(by_name, "core.classify");
  r.layer["core.aggregate_ms"] = MedianDuration(by_name, "core.aggregate");
  r.layer["core.filter_ms"] = MedianDuration(by_name, "core.filter");
  FillOpLayerMetrics(r, untraced, Summarize(traced_ms));

  // Single-thread baseline: classify + aggregate + filter at 0.5 on one
  // thread against the same calls on four.
  {
    const analysis::Experiment& e = pipeline->experiment();
    const auto core_run = [&](exec::Executor& ex) {
      const Clock::time_point start = Clock::now();
      const core::ClassifiedSubnets classified = core::SubnetClassifier(core::ClassifierConfig{}).Classify(e.beacons, ex);
      const std::vector<core::AsAggregate> candidates = core::AggregateCandidateAsesSharded(
          e.world.rib(), classified, e.beacons, e.demand, ex);
      const core::AsFilterOutcome filtered = core::ApplyAsFilters(candidates, e.world.as_db(), {});
      const double ms = MsSince(start);
      r.outcome.Check(ResultDigest(classified, candidates, filtered) == default_digest,
                      "core calls at " + std::to_string(ex.thread_count()) +
                          " threads differ from the default run");
      return ms;
    };
    const double four = core_run(executor);
    exec::Executor single(1);
    r.layer["exec.speedup_1to4"] = core_run(single) / four;
  }
  return r;
}

}  // namespace perfbench
