#include "digest.hpp"

#include <bit>
#include <cstring>

#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"

namespace perfbench {

namespace {

using namespace cellspot;

void PutU64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof buf);
  out.append(buf, sizeof buf);
}

void PutF64(std::string& out, double v) { PutU64(out, std::bit_cast<std::uint64_t>(v)); }

void PutStr(std::string& out, std::string_view s) {
  PutU64(out, s.size());
  out.append(s);
}

}  // namespace

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string AsListBytes(const std::vector<core::AsAggregate>& ases) {
  std::string out;
  PutU64(out, ases.size());
  for (const core::AsAggregate& as : ases) {
    PutU64(out, as.asn);
    PutU64(out, as.cell_blocks_v4);
    PutU64(out, as.cell_blocks_v6);
    PutU64(out, as.observed_blocks_v4);
    PutU64(out, as.observed_blocks_v6);
    PutU64(out, as.demand_blocks);
    PutF64(out, as.cell_demand_du);
    PutF64(out, as.total_demand_du);
    PutU64(out, as.beacon_hits);
    PutU64(out, as.cellular_blocks.size());
    for (const netaddr::Prefix& p : as.cellular_blocks) PutStr(out, p.ToString());
  }
  return out;
}

std::string ClassifiedBytes(const core::ClassifiedSubnets& classified) {
  return snapshot::EncodeSnapshot(snapshot::EncodeClassified(classified));
}

std::string DatasetsBytes(const dataset::BeaconDataset& beacons,
                          const dataset::DemandDataset& demand) {
  return snapshot::EncodeSnapshot(snapshot::EncodeDatasets(beacons, demand));
}

std::uint64_t ResultDigest(const core::ClassifiedSubnets& classified,
                           const std::vector<core::AsAggregate>& candidates,
                           const core::AsFilterOutcome& filtered) {
  std::string bytes = ClassifiedBytes(classified);
  bytes += AsListBytes(candidates);
  bytes += AsListBytes(filtered.kept);
  PutU64(bytes, filtered.input_count);
  PutU64(bytes, filtered.removed_low_demand);
  PutU64(bytes, filtered.removed_low_hits);
  PutU64(bytes, filtered.removed_class);
  return Fnv1a(bytes);
}

std::string TableBytes(const query::Table& table) {
  std::string out;
  PutU64(out, table.column_count());
  PutU64(out, table.row_count());
  for (const query::Column& col : table.columns()) {
    PutStr(out, col.name);
    PutU64(out, static_cast<std::uint64_t>(col.type));
    switch (col.type) {
      case query::ColumnType::kU64:
        for (const std::uint64_t v : col.u64) PutU64(out, v);
        break;
      case query::ColumnType::kF64:
        for (const double v : col.f64) PutF64(out, v);
        break;
      case query::ColumnType::kStr:
        for (std::size_t row = 0; row < col.codes.size(); ++row) PutStr(out, col.Str(row));
        break;
    }
  }
  return out;
}

}  // namespace perfbench
