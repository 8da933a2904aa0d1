// Self-tests of the benchmark's own logic: the percentile rule, self-time
// arithmetic, open-loop lag, the output checks and the result line.
//
//   perfbench_selftest        (exit 0 when every test passes)
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/query/source.hpp"
#include "digest.hpp"
#include "openloop.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  const double diff = got - want;
  Expect(diff < 1e-9 && diff > -1e-9,
         what + " (got " + std::to_string(got) + ", want " + std::to_string(want) + ")");
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  const Summary s100 = Summarize(OneTo(100));
  Expect(s100.n == 100, "sample count is reported");
  ExpectNear(s100.p50, 50, "nearest-rank p50 of 1..100");
  ExpectNear(s100.tail_q, 0.9, "n=100: p90 is the highest percentile with 10 beyond");
  ExpectNear(s100.tail, 90, "n=100: p90 value");
  Expect(s100.TailLabel() == "p90", "tail label p90");
  Expect(SamplesBeyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
  Expect(SamplesBeyond(100, 0.95) == 5, "5 samples beyond p95 of 100");

  const Summary s1000 = Summarize(OneTo(1000));
  ExpectNear(s1000.tail_q, 0.99, "n=1000: p99 qualifies");
  ExpectNear(s1000.tail, 990, "n=1000: p99 value");
  const Summary s999 = Summarize(OneTo(999));
  ExpectNear(s999.tail_q, 0.95, "n=999: p99 has only 9 beyond, falls back to p95");

  Expect(Summarize(OneTo(39)).tail_q == 0.0, "n=39: no ladder percentile has 10 beyond");
  ExpectNear(Summarize(OneTo(40)).tail_q, 0.75, "n=40: p75 has exactly 10 beyond");
  const Summary one = Summarize({7.0});
  Expect(one.n == 1 && one.p50 == 7.0 && one.tail_q == 0.0, "single sample: median only");
  Expect(Summarize({}).n == 0, "no samples");
  const Summary s3 = Summarize({3.0, 1.0, 2.0});
  ExpectNear(s3.p50, 2.0, "median of three");
  Expect(s3.min <= s3.p50 && s3.p50 <= s3.max, "p50 lies within [min, max]");
  bool threw = false;
  try {
    (void)NearestRank({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  Expect(threw, "percentile of nothing throws");
}

void TestSelfTime() {
  // root [0,100]; children a [10,40] and b [30,60] overlap; c [90,120]
  // runs past the root's end; a has its own child d [15,20].
  std::vector<SpanRecord> spans(5);
  spans[0] = {1, 0, 1, "root", 0, 100, 0, 0};
  spans[1] = {2, 1, 1, "a", 10, 40, 0, 0};
  spans[2] = {3, 1, 1, "b", 30, 60, 0, 0};
  spans[3] = {4, 1, 1, "c", 90, 120, 0, 0};
  spans[4] = {5, 2, 1, "d", 15, 20, 0, 0};
  const std::vector<double> self = SelfTimesMs(spans);
  ExpectNear(self[0], 40, "root self = 100 - |[10,60] u [90,100]|");
  ExpectNear(self[1], 25, "a self = 30 - 5");
  ExpectNear(self[2], 30, "b has no children");
  ExpectNear(self[4], 5, "leaf self = duration");
  const auto by_name = GroupByName(spans);
  Expect(by_name.at("root").self_ms.size() == 1, "grouped by name");

  // Spans recorded through the RAII API nest by thread and share an op.
  Tracer tracer;
  {
    Span root(&tracer, "root");
    { Span child(&tracer, "child"); }
    std::thread other([&] { Span own(&tracer, "other-thread"); });
    other.join();
  }
  { Span second(&tracer, "second-root"); }
  { Span untraced(nullptr, "ignored"); }
  const std::vector<SpanRecord> rec = tracer.Spans();
  Expect(rec.size() == 4, "null tracer records nothing");
  Expect(rec[1].parent == rec[0].id && rec[1].op == rec[0].op, "child nests under root");
  Expect(rec[2].parent == 0, "a span on another thread is a root there");
  Expect(rec[3].parent == 0 && rec[3].op != rec[0].op, "a new root starts a new op");
  Expect(rec[0].end_ms >= rec[1].end_ms && rec[1].start_ms >= rec[0].start_ms,
         "child lies within parent");
}

void TestOpenLoopLag() {
  const Schedule schedule{1000.0};  // one frame per ms
  ExpectNear(schedule.DueMs(3), 3.0, "due time from the schedule");
  const Schedule batched{1000.0, 5};  // 5 frames every 5 ms
  ExpectNear(batched.DueMs(4), 0.0, "a batch is due at once");
  ExpectNear(batched.DueMs(7), 5.0, "the next batch is due one interval later");
  // Frame 1 was sent 4 ms late; frame 3 was shed. The tick that applied
  // frames 0..2 ran from 6 to 8 ms.
  const std::vector<FrameTiming> frames = {
      {0.0, 0.0, true, 6.0, 8.0},
      {1.0, 5.0, true, 6.0, 8.0},
      {2.0, 5.0, true, 6.0, 8.0},
      {3.0, 3.5, false, 0.0, 0.0},
  };
  const LagSamples lags = ComputeLags(frames);
  Expect(lags.lag_ms.size() == 3, "shed frames have no lag sample");
  ExpectNear(lags.lag_ms[0], 8.0, "lag runs from due to the end of the applying tick");
  ExpectNear(lags.lag_ms[1], 7.0, "a late send does not shorten the lag (8 - 1, not 8 - 5)");
  ExpectNear(lags.queue_wait_ms[1], 5.0, "queue wait = lag minus tick time");
  ExpectNear(lags.generator_late_max_ms, 4.0, "generator lateness = max(sent - due)");
}

void TestChecksCatchCorruption() {
  using namespace cellspot;
  exec::Executor executor(2);
  analysis::Pipeline pipeline({.world = simnet::WorldConfig::Tiny()}, executor);
  const analysis::Experiment& e = pipeline.Run();
  const std::uint64_t good = ResultDigest(e.classified, e.candidates, e.filtered);
  Expect(good == ResultDigest(e.classified, e.candidates, e.filtered), "digest is stable");
  Expect(!e.candidates.empty(), "tiny world has candidate ASes");

  std::vector<core::AsAggregate> corrupted = e.candidates;
  corrupted[0].cell_demand_du = std::nextafter(corrupted[0].cell_demand_du, 1e300);
  Expect(ResultDigest(e.classified, corrupted, e.filtered) != good,
         "a one-ulp change in one AS is caught");
  Expect(AsListBytes(corrupted) != AsListBytes(e.candidates),
         "candidate comparison catches it too");
  std::vector<core::AsAggregate> reordered = e.candidates;
  if (reordered.size() > 1) {
    std::swap(reordered[0], reordered[1]);
    Expect(AsListBytes(reordered) != AsListBytes(e.candidates), "order matters");
  }

  // A corrupted query answer.
  const query::SnapshotBundle bundle{e.world, e.beacons, e.demand, e.classified, e.candidates,
                                     e.filtered};
  const query::TableSet tables = query::BuildTables(bundle, executor);
  std::vector<query::Column> columns = tables.demand.columns();
  for (query::Column& c : columns) {
    if (c.type == query::ColumnType::kF64 && !c.f64.empty()) {
      c.f64.back() += 1.0;
      break;
    }
  }
  Expect(TableBytes(query::Table(columns)) != TableBytes(tables.demand),
         "a changed cell in a query table is caught");

  // The outcome and result line report it.
  Outcome outcome;
  outcome.Check(TableBytes(query::Table(columns)) == TableBytes(tables.demand), "demand table");
  Expect(!outcome.correct() && outcome.failed == 1 && outcome.attempted == 1,
         "a failed check makes the outcome incorrect");
  const std::string json = ResultJson(
      outcome, EndToEndMetrics(),
      {{"setup_s", 1.5}, {"peak_rss_mb", 2.0}, {"op_ms_p50", 3.25}, {"rate_per_s", 4.0}}, false);
  Expect(json.rfind("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {", 0) == 0,
         "result line leads with correct/attempted/failed: " + json);
  Expect(json.find("\"op_ms_p50\": {\"value\": 3.25, \"unit\": \"ms\"}") != std::string::npos,
         "metric printed with value and unit");
}

void TestResultLine() {
  Outcome ok;
  ok.Check(true, "fine");
  bool threw = false;
  try {
    (void)ResultJson(ok, EndToEndMetrics(), {{"setup_s", 1.0}}, false);
  } catch (const std::logic_error&) {
    threw = true;
  }
  Expect(threw, "a missing end-to-end metric is an error, never a silent 0");
  const std::string layer = ResultJson(ok, PerLayerMetrics(), {{"stream.ticks", 12.0}}, true);
  Expect(layer.find("\"stream.ticks\": {\"value\": 12, \"unit\": \"count\"}") != std::string::npos,
         "measured per-layer value printed");
  Expect(layer.find("\"query.plan_ms\": {\"value\": 0, \"unit\": \"ms\"}") != std::string::npos,
         "per-layer metric of an unused layer reads 0");
  Expect(layer.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0", 0) == 0,
         "correct run");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestOpenLoopLag();
  TestChecksCatchCorruption();
  TestResultLine();
  if (g_failures != 0) {
    std::printf("perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all tests passed\n");
  return 0;
}
