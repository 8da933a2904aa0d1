// snapshot_query: a cold `cellspot query` session against snapshots the
// set-up wrote, then a fixed mix of ad-hoc plans on the built tables.
#include <filesystem>
#include <map>
#include <memory>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/query/presets.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "digest.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace cellspot;
namespace fs = std::filesystem;

constexpr double kQueryScale = 0.05;
/// Rounds of the ad-hoc mix after each session's first, so that the
/// plan latency has enough samples for a tail percentile.
constexpr std::size_t kWarmPlanRounds = 20;

constexpr query::Preset kPresets[] = {query::Preset::kTable2, query::Preset::kFig2Cdf,
                                      query::Preset::kCountryShare};

struct NamedPlan {
  const char* name;
  const char* table;
  query::Plan plan;
};

/// The ad-hoc mix: top ASes by cellular demand, a per-country group, a
/// quantile aggregate and a filter-heavy scan.
std::vector<NamedPlan> PlanMix() {
  std::vector<NamedPlan> mix;
  {
    query::Plan p;
    p.filters.push_back({"kept", query::CompareOp::kEq, query::Value::U64(1)});
    p.group_by = {"asn"};
    p.aggregates.push_back({query::AggKind::kSum, "cell_du", 0.5, ""});
    p.aggregates.push_back({query::AggKind::kSum, "du", 0.5, ""});
    p.order_by.push_back({"sum(cell_du)", true});
    p.limit = 20;
    mix.push_back({"top_as_cell_du", "demand", std::move(p)});
  }
  {
    query::Plan p;
    p.group_by = {"country"};
    p.aggregates.push_back({query::AggKind::kSum, "du", 0.5, ""});
    p.aggregates.push_back({query::AggKind::kSum, "cell_du", 0.5, ""});
    p.aggregates.push_back({query::AggKind::kCount, "", 0.5, ""});
    p.order_by.push_back({"sum(du)", true});
    mix.push_back({"per_country", "demand", std::move(p)});
  }
  {
    query::Plan p;
    p.filters.push_back({"netinfo_hits", query::CompareOp::kGe, query::Value::U64(5)});
    p.group_by = {"continent"};
    p.aggregates.push_back({query::AggKind::kQuantile, "ratio", 0.5, ""});
    p.aggregates.push_back({query::AggKind::kQuantile, "ratio", 0.9, ""});
    p.aggregates.push_back({query::AggKind::kMean, "ratio", 0.5, ""});
    p.order_by.push_back({"continent", false});
    mix.push_back({"ratio_quantiles", "beacon", std::move(p)});
  }
  {
    query::Plan p;
    p.columns = {"block", "asn", "country", "du"};
    p.filters.push_back({"cellular", query::CompareOp::kEq, query::Value::U64(1)});
    p.filters.push_back({"kept", query::CompareOp::kEq, query::Value::U64(1)});
    p.filters.push_back({"excluded", query::CompareOp::kEq, query::Value::U64(0)});
    p.filters.push_back({"family", query::CompareOp::kEq, query::Value::Str("v4")});
    p.filters.push_back({"du", query::CompareOp::kGt, query::Value::F64(1e-4)});
    p.order_by.push_back({"du", true});
    p.limit = 100;
    mix.push_back({"filter_scan", "demand", std::move(p)});
  }
  return mix;
}

struct Paths {
  fs::path world;
  fs::path datasets;
  fs::path classified;
};

/// Every preset and plan output of a session, in a fixed order.
struct Answers {
  std::vector<std::string> names;
  std::vector<query::Table> tables;
};

}  // namespace

WorkloadResult RunSnapshotQuery(const RunOptions& options) {
  WorkloadResult r;
  exec::Executor executor(kThreads);
  simnet::WorldConfig config = simnet::WorldConfig::Paper(kQueryScale);
  config.seed = options.seed;
  const std::vector<NamedPlan> mix = PlanMix();

  const fs::path dir = options.work_dir / "snapshots";
  fs::create_directories(dir);
  const Paths paths{dir / "world.snap", dir / "datasets.snap", dir / "classified.snap"};

  // Set-up: run the pipeline and write the world, datasets and
  // classified snapshots.
  std::unique_ptr<analysis::Experiment> exp;
  std::vector<double> encode_ms;
  std::vector<double> write_ms;
  const double setup_s = RepeatSetup(
      [&] {
        analysis::Pipeline pipeline({.world = config}, executor);
        (void)pipeline.Run();
        exp = std::make_unique<analysis::Experiment>(std::move(pipeline).TakeExperiment());
        Clock::time_point start = Clock::now();
        const auto world = snapshot::EncodeWorld(exp->world);
        const auto datasets = snapshot::EncodeDatasets(exp->beacons, exp->demand);
        const auto classified = snapshot::EncodeClassified(exp->classified);
        encode_ms.push_back(MsSince(start));
        start = Clock::now();
        snapshot::WriteSnapshotFile(paths.world, world);
        snapshot::WriteSnapshotFile(paths.datasets, datasets);
        snapshot::WriteSnapshotFile(paths.classified, classified);
        write_ms.push_back(MsSince(start));
      },
      [&] { exp.reset(); });
  const double snapshot_bytes = static_cast<double>(
      fs::file_size(paths.world) + fs::file_size(paths.datasets) + fs::file_size(paths.classified));

  const auto answer = [&](const query::TableSet& tables) {
    Answers out;
    for (const query::Preset preset : kPresets) {
      out.names.push_back(std::string(query::PresetName(preset)));
      out.tables.push_back(query::RunPreset(preset, tables, executor));
    }
    for (const NamedPlan& p : mix) {
      out.names.push_back(p.name);
      out.tables.push_back(query::Engine(tables.Find(p.table), executor).Run(p.plan));
    }
    return out;
  };

  // Reference answers: the same presets and plans on tables built from
  // the in-memory set-up Experiment, not from the snapshots.
  std::vector<std::string> reference;  // canonical bytes per answer
  {
    query::ArtifactRefs refs;
    refs.rib = &exp->world.rib();
    refs.as_db = &exp->world.as_db();
    refs.beacons = &exp->beacons;
    refs.demand = &exp->demand;
    refs.classified = &exp->classified;
    refs.filtered = &exp->filtered;
    for (const simnet::CountryProfile& country : exp->world.config().countries) {
      if (country.exclude_from_analysis) refs.excluded_isos.push_back(country.iso2);
    }
    for (const query::Table& t : answer(query::BuildTables(refs, executor)).tables) {
      reference.push_back(TableBytes(t));
    }
  }
  exp.reset();

  const auto check_answers = [&](const Answers& got, const std::string& what) {
    for (std::size_t i = 0; i < got.tables.size(); ++i) {
      r.outcome.Check(TableBytes(got.tables[i]) == reference[i],
                      what + ": " + got.names[i] + " differs from the in-memory reference tables");
    }
  };

  // One cold session: load -> BuildTables -> presets -> the plan mix;
  // then warm rounds of the mix for plan latency.
  std::vector<double> session_ms;
  std::vector<double> plan_ms;
  std::map<std::string, std::vector<double>> plan_ms_by_name;
  std::vector<double> load_bytes_per_s;
  const auto warm_rounds = [&](const query::TableSet& tables) {
    for (std::size_t round = 0; round < kWarmPlanRounds; ++round) {
      for (const NamedPlan& p : mix) {
        const query::Table& table = tables.Find(p.table);
        const Clock::time_point start = Clock::now();
        const query::Table out = query::Engine(table, executor).Run(p.plan);
        const double ms = MsSince(start);
        plan_ms.push_back(ms);
        plan_ms_by_name[p.name].push_back(ms);
      }
    }
  };
  RunFor(options.trace ? options.seconds / 2 : options.seconds, options.trace ? 1 : 3,
         [&](std::size_t) {
           const Clock::time_point start = Clock::now();
           const query::SnapshotBundle bundle = query::LoadBundleFromFiles(
               paths.world, paths.datasets, paths.classified, {}, executor);
           load_bytes_per_s.push_back(snapshot_bytes / (MsSince(start) / 1000.0));
           const query::TableSet tables = query::BuildTables(bundle, executor);
           const Answers got = answer(tables);
           session_ms.push_back(MsSince(start));
           check_answers(got, "session");
           warm_rounds(tables);
         });
  const Summary sessions = Summarize(session_ms);
  const Summary plans = Summarize(plan_ms);
  r.e2e["setup_s"] = setup_s;
  r.e2e["peak_rss_mb"] = PeakRssMb();
  r.e2e["op_ms_p50"] = sessions.p50;
  // The gated throughput is the snapshot load. Warm plan latency (many
  // small 4-thread jobs) moved 30-45% between runs of one seed with host
  // load, too much for a regression bound; it is reported, not gated.
  r.e2e["rate_per_s"] = Summarize(load_bytes_per_s).p50;
  r.lines.push_back(Line("setup_s", setup_s, "s", "median of 3 set-ups"));
  r.lines.push_back(Line("peak_rss_mb", r.e2e["peak_rss_mb"], "MB"));
  AddSummaryLines(r.lines, "session_ms", sessions, "ms");
  AddSummaryLines(r.lines, "query_ms", plans, "ms");
  for (const auto& [name, samples] : plan_ms_by_name) {
    const Summary s = Summarize(samples);
    r.lines.push_back(Line("query_ms_p50[" + name + "]", s.p50, "ms", "n=" + std::to_string(s.n)));
  }
  r.lines.push_back(Line("load_bytes_per_s", r.e2e["rate_per_s"], "1/s",
                         "snapshot bytes per second of LoadBundleFromFiles, median session"));
  r.layer["snapshot.bytes"] = snapshot_bytes;
  r.layer["snapshot.encode_ms"] = Summarize(encode_ms).p50;
  r.layer["snapshot.write_ms"] = Summarize(write_ms).p50;
  if (!options.trace) return r;

  // Traced sessions: the calls LoadBundleFromFiles makes, one span each.
  Tracer tracer;
  std::vector<double> traced_ms;
  double scanned = 0.0;
  double returned = 0.0;
  const ExecCounters before;
  RunFor(options.seconds / 2, 1, [&](std::size_t) {
    const Clock::time_point start = Clock::now();
    // Declared outside the op span: the untraced session does not time
    // their destruction either.
    Answers got;
    query::SnapshotBundle bundle;
    query::TableSet tables;
    {
      Span op(&tracer, "op.session");
      {
        Span load(&tracer, "query.load");
        std::vector<snapshot::Section> world_sections;
        std::vector<snapshot::Section> dataset_sections;
        std::vector<snapshot::Section> classified_sections;
        {
          Span s(&tracer, "snapshot.read");
          world_sections = snapshot::ReadSnapshotFile(paths.world);
        }
        {
          Span s(&tracer, "snapshot.decode_world");
          bundle.world = snapshot::DecodeWorld(world_sections);
        }
        {
          Span s(&tracer, "snapshot.read");
          dataset_sections = snapshot::ReadSnapshotFile(paths.datasets);
        }
        {
          Span s(&tracer, "snapshot.decode_datasets");
          auto datasets = snapshot::DecodeDatasets(dataset_sections);
          bundle.beacons = std::move(datasets.first);
          bundle.demand = std::move(datasets.second);
        }
        {
          Span s(&tracer, "snapshot.read");
          classified_sections = snapshot::ReadSnapshotFile(paths.classified);
        }
        {
          Span s(&tracer, "snapshot.decode_classified");
          bundle.classified = snapshot::DecodeClassified(classified_sections);
        }
        {
          Span s(&tracer, "asdb.compile_lpm");
          s.set_items(bundle.world.rib().Flat().segment_count());
        }
        {
          Span s(&tracer, "core.aggregate");
          bundle.candidates = core::AggregateCandidateAsesSharded(
              bundle.world.rib(), bundle.classified, bundle.beacons, bundle.demand, executor);
        }
        {
          Span s(&tracer, "core.filter");
          bundle.filtered = core::ApplyAsFilters(bundle.candidates, bundle.world.as_db(), {});
        }
      }
      {
        Span s(&tracer, "query.build_tables");
        tables = query::BuildTables(bundle, executor);
      }
      {
        Span s(&tracer, "query.preset");
        for (const query::Preset preset : kPresets) {
          got.names.push_back(std::string(query::PresetName(preset)));
          got.tables.push_back(query::RunPreset(preset, tables, executor));
        }
      }
      for (const NamedPlan& p : mix) {
        const query::Table& table = tables.Find(p.table);
        Span s(&tracer, "query.plan");
        got.names.push_back(p.name);
        got.tables.push_back(query::Engine(table, executor).Run(p.plan));
        s.set_items(got.tables.back().row_count());
        scanned += static_cast<double>(table.row_count());
        returned += static_cast<double>(got.tables.back().row_count());
      }
    }
    traced_ms.push_back(MsSince(start));
    check_answers(got, "traced session");
  });
  r.spans = tracer.Spans();
  const auto by_name = GroupByName(r.spans);
  const double ops = static_cast<double>(traced_ms.size());
  FillExecMetrics(r, before, traced_ms.size(), by_name, "op.session");
  r.layer["snapshot.read_ms"] = MedianDuration(by_name, "snapshot.read");
  r.layer["snapshot.decode_world_ms"] = MedianDuration(by_name, "snapshot.decode_world");
  r.layer["snapshot.decode_datasets_ms"] = MedianDuration(by_name, "snapshot.decode_datasets");
  r.layer["snapshot.decode_classified_ms"] =
      MedianDuration(by_name, "snapshot.decode_classified");
  r.layer["asdb.compile_lpm_ms"] = MedianDuration(by_name, "asdb.compile_lpm");
  r.layer["core.aggregate_ms"] = MedianDuration(by_name, "core.aggregate");
  r.layer["core.filter_ms"] = MedianDuration(by_name, "core.filter");
  r.layer["query.load_self_ms"] = MedianSelf(by_name, "query.load");
  r.layer["query.build_tables_ms"] = MedianDuration(by_name, "query.build_tables");
  r.layer["query.preset_ms"] = MedianDuration(by_name, "query.preset");
  r.layer["query.plan_ms"] = MedianDuration(by_name, "query.plan");
  r.layer["query.rows_scanned"] = scanned / ops;
  r.layer["query.rows_returned"] = returned / ops;
  r.layer["query.selectivity"] = scanned > 0.0 ? returned / scanned : 0.0;
  FillOpLayerMetrics(r, sessions, Summarize(traced_ms));

  // Single-thread baseline of one cold session.
  {
    exec::Executor single(1);
    const Clock::time_point start = Clock::now();
    const query::SnapshotBundle bundle = query::LoadBundleFromFiles(
        paths.world, paths.datasets, paths.classified, {}, single);
    const query::TableSet tables = query::BuildTables(bundle, single);
    for (const query::Preset preset : kPresets) (void)query::RunPreset(preset, tables, single);
    for (const NamedPlan& p : mix) (void)query::Engine(tables.Find(p.table), single).Run(p.plan);
    r.layer["exec.speedup_1to4"] = MsSince(start) / sessions.p50;
  }
  return r;
}

}  // namespace perfbench
