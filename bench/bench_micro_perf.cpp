// Microbenchmarks of the pipeline's hot paths (google-benchmark):
// RIB longest-prefix-match, flat LPM compilation, block classification,
// beacon log parsing, per-block aggregate generation, and the block-keyed
// StableMap every dataset sits in. These are not paper experiments; they
// bound the cost of scaling the world up.
#include <benchmark/benchmark.h>

#include <array>
#include <sstream>
#include <vector>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/beacon_log.hpp"
#include "cellspot/core/aggregation.hpp"
#include "cellspot/core/cellular_map.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/netaddr/flat_lpm.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/util/stable_map.hpp"

namespace {

using namespace cellspot;

const simnet::World& TinyWorld() {
  static const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

void BM_RibOriginOf(benchmark::State& state) {
  const auto& world = TinyWorld();
  std::vector<netaddr::IpAddress> probes;
  for (std::size_t i = 0; i < world.subnets().size(); i += 7) {
    probes.push_back(netaddr::NthAddress(world.subnets()[i].block, 99));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto origin = world.rib().OriginOf(probes[i]);
    benchmark::DoNotOptimize(origin);
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RibOriginOf);

void BM_FlatLpmBuild(benchmark::State& state) {
  std::vector<std::pair<netaddr::Prefix, std::uint32_t>> entries;
  const auto parent = netaddr::Prefix::Parse("10.0.0.0/16");
  for (std::uint64_t b = 0; b < 256; ++b) {
    entries.emplace_back(netaddr::NthBlock(parent, b), static_cast<std::uint32_t>(b));
  }
  for (auto _ : state) {
    auto flat = netaddr::FlatLpm<std::uint32_t>::Build(entries);
    benchmark::DoNotOptimize(flat);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FlatLpmBuild);

void BM_ClassifyDataset(benchmark::State& state) {
  static const dataset::BeaconDataset beacons =
      cdn::BeaconGenerator(TinyWorld()).GenerateDataset();
  const core::SubnetClassifier classifier;
  for (auto _ : state) {
    auto out = classifier.Classify(beacons);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(beacons.block_count()));
}
BENCHMARK(BM_ClassifyDataset);

void BM_BeaconAggregateGeneration(benchmark::State& state) {
  const auto& world = TinyWorld();
  for (auto _ : state) {
    auto dataset = cdn::BeaconGenerator(world).GenerateDataset();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(world.subnets().size()));
}
BENCHMARK(BM_BeaconAggregateGeneration);

void BM_BeaconLogParse(benchmark::State& state) {
  // Pre-render a log chunk, then measure parse+aggregate throughput.
  std::string log_text;
  {
    std::ostringstream log;
    cdn::BeaconGenerator(TinyWorld()).StreamHits(
        [&](const netaddr::Prefix&, const cdn::BeaconHit& hit) {
          log << cdn::FormatBeaconLogLine(hit) << '\n';
        },
        20000);
    log_text = log.str();
  }
  std::uint64_t lines = 0;
  for (auto _ : state) {
    std::istringstream in(log_text);
    auto dataset = cdn::AggregateBeaconLog(in);
    lines += dataset.total_hits();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lines));
}
BENCHMARK(BM_BeaconLogParse);

void BM_CompressPrefixes(benchmark::State& state) {
  // Compress a realistic detected set: the Tiny world's cellular map.
  static const std::vector<netaddr::Prefix> blocks = [] {
    const auto beacons = cdn::BeaconGenerator(TinyWorld()).GenerateDataset();
    const auto classified = core::SubnetClassifier().Classify(beacons);
    return std::vector<netaddr::Prefix>(classified.cellular().begin(),
                                        classified.cellular().end());
  }();
  for (auto _ : state) {
    auto out = core::CompressPrefixes(blocks);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(blocks.size()));
}
BENCHMARK(BM_CompressPrefixes);

void BM_CellularMapLookup(benchmark::State& state) {
  static const core::CellularMap map = [] {
    const auto beacons = cdn::BeaconGenerator(TinyWorld()).GenerateDataset();
    return core::CellularMap::FromClassification(
        core::SubnetClassifier().Classify(beacons));
  }();
  std::vector<netaddr::IpAddress> probes;
  for (std::size_t i = 0; i < TinyWorld().subnets().size(); i += 11) {
    probes.push_back(netaddr::NthAddress(TinyWorld().subnets()[i].block, 42));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Contains(probes[i]));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CellularMapLookup);

void BM_WorldGeneration(benchmark::State& state) {
  const auto config = simnet::WorldConfig::Tiny();
  for (auto _ : state) {
    auto world = simnet::World::Generate(config);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_WorldGeneration)->Unit(benchmark::kMillisecond);

/// Block i of a distinct set: three of four are v4 /24s scattered over
/// the block space (an odd multiplier is a bijection mod 2^24), the rest
/// v6 /48s — roughly the datasets' family mix.
netaddr::Prefix ScatteredBlock(std::uint32_t i) {
  if (i % 4 != 3) {
    return {netaddr::IpAddress::V4(((i * 2654435761U) & 0xFFFFFFU) << 8), 24};
  }
  std::array<std::uint8_t, 16> bytes{0x20, 0x01};
  for (int b = 0; b < 4; ++b) bytes[2 + b] = static_cast<std::uint8_t>(i >> (24 - 8 * b));
  return {netaddr::IpAddress::V6(bytes), 48};
}

constexpr std::uint32_t kMapKeys = 1'000'000;

const std::vector<netaddr::Prefix>& MillionBlocks() {
  static const std::vector<netaddr::Prefix> blocks = [] {
    std::vector<netaddr::Prefix> out;
    out.reserve(kMapKeys);
    for (std::uint32_t i = 0; i < kMapKeys; ++i) out.push_back(ScatteredBlock(i));
    return out;
  }();
  return blocks;
}

// Build a 1M-block map from empty (no reserve): the dataset-merge shape.
void BM_StableMapInsert(benchmark::State& state) {
  const auto& blocks = MillionBlocks();
  for (auto _ : state) {
    util::StableMap<netaddr::Prefix, double> map;
    for (const netaddr::Prefix& block : blocks) map.Emplace(block, 1.0);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kMapKeys));
}
BENCHMARK(BM_StableMapInsert)->Unit(benchmark::kMillisecond);

// One lookup in the 1M-block map; probes alternate a present block (in
// a scattered order) and an absent one, like aggregate's IsCellular mix.
void BM_StableMapFind(benchmark::State& state) {
  static const util::StableMap<netaddr::Prefix, double> map = [] {
    util::StableMap<netaddr::Prefix, double> m;
    for (const netaddr::Prefix& block : MillionBlocks()) m.Emplace(block, 1.0);
    return m;
  }();
  std::vector<netaddr::Prefix> probes;
  probes.reserve(2 * 65'536);
  for (std::uint32_t k = 0; k < 65'536; ++k) {
    probes.push_back(MillionBlocks()[(k * 40'503U) % kMapKeys]);
    probes.push_back(ScatteredBlock(kMapKeys + k));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(probes[i]));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StableMapFind);

}  // namespace

BENCHMARK_MAIN();
