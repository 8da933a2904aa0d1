#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"op_ms_p50", "ms"},
      {"rate_per_s", "1/s"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"error_frac", "frac"},
      {"op.samples", "count"},
      {"op.tail_q", "frac"},
      {"op.tail_ms", "ms"},
      {"simnet.generate_ms", "ms"},
      {"simnet.subnets", "count"},
      {"simnet.heap_delta_mb", "MB"},
      {"asdb.compile_lpm_ms", "ms"},
      {"netaddr.lpm_segments", "count"},
      {"asdb.heap_delta_mb", "MB"},
      {"cdn.beacons_ms", "ms"},
      {"cdn.demand_ms", "ms"},
      {"dataset.beacon_blocks", "count"},
      {"dataset.demand_blocks", "count"},
      {"cdn.heap_delta_mb", "MB"},
      {"cdn.frames_ms", "ms"},
      {"cdn.frames", "count"},
      {"core.classify_ms", "ms"},
      {"core.aggregate_ms", "ms"},
      {"core.filter_ms", "ms"},
      {"core.candidate_ases", "count"},
      {"core.kept_ases", "count"},
      {"analysis.invalidate_ms", "ms"},
      {"analysis.self_ms", "ms"},
      {"exec.cpu_util", "frac"},
      {"exec.jobs", "count"},
      {"exec.chunks", "count"},
      {"exec.steals", "count"},
      {"exec.speedup_1to4", "x"},
      {"snapshot.read_ms", "ms"},
      {"snapshot.decode_world_ms", "ms"},
      {"snapshot.decode_datasets_ms", "ms"},
      {"snapshot.decode_classified_ms", "ms"},
      {"snapshot.bytes", "bytes"},
      {"snapshot.encode_ms", "ms"},
      {"snapshot.write_ms", "ms"},
      {"query.load_self_ms", "ms"},
      {"query.build_tables_ms", "ms"},
      {"query.preset_ms", "ms"},
      {"query.plan_ms", "ms"},
      {"query.rows_scanned", "count"},
      {"query.rows_returned", "count"},
      {"query.selectivity", "frac"},
      {"stream.tick_ms_p50", "ms"},
      {"stream.tick_ms_p99", "ms"},
      {"stream.frames_per_tick", "count"},
      {"stream.queue_depth_max", "count"},
      {"stream.queue_wait_ms_p50", "ms"},
      {"stream.shed_frac", "frac"},
      {"stream.ticks", "count"},
      {"stream.replay_tick_ms", "ms"},
      {"stream.export_ms", "ms"},
      {"stream.checkpoint_ms", "ms"},
      {"stream.checkpoint_bytes", "bytes"},
      {"stream.restore_ms", "ms"},
      {"stream.gen_late_ms_max", "ms"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return kDefs;
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Outcome::AddFailed(std::uint64_t attempted_ops, std::uint64_t failed_ops,
                        const std::string& what) {
  attempted += attempted_ops;
  failed += failed_ops;
  if (failed_ops != 0) failures.push_back(what);
}

std::string ResultJson(const Outcome& outcome, const std::vector<MetricDef>& defs,
                       const std::map<std::string, double>& values, bool missing_is_zero) {
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(std::string(def.name));
    if (it == values.end() && !missing_is_zero) {
      throw std::logic_error("metric " + std::string(def.name) + " was not measured");
    }
    const double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + std::string(def.name) + " is not finite");
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(def.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
           std::string(def.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
