#include "cellspot/cdn/demand_generator.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/util/date.hpp"
#include "cellspot/util/rng.hpp"

namespace cellspot::cdn {

namespace {

// Mild weekly rhythm: weekends carry a little more consumer traffic.
constexpr double kDayFactor[7] = {1.00, 0.97, 0.96, 0.98, 1.02, 1.05, 1.02};

}  // namespace

DemandGenerator::DemandGenerator(const simnet::World& world, std::uint64_t seed_offset)
    : config_(world.config()),
      subnets_(world.subnets()),
      seed_(world.config().seed ^ (0xDE3A4DULL + seed_offset)) {}

DemandGenerator::DemandGenerator(const simnet::WorldConfig& config,
                                 std::span<const simnet::Subnet> subnets,
                                 std::uint64_t seed)
    : config_(config), subnets_(subnets), seed_(seed) {}

double DemandGenerator::DailyDemand(const simnet::Subnet& subnet, int day,
                                    util::Rng& rng) const {
  if (subnet.demand_du <= 0.0) return 0.0;
  const double base = subnet.demand_du / util::kDemandWindowDays;
  const double weekday = kDayFactor[day % 7];
  // Per-day multiplicative measurement noise; the weekly aggregation
  // (§3.2 "combined with results from the previous 7 days") smooths it.
  const double noise = std::exp((rng.UniformDouble() - 0.5) * 0.3);
  return base * weekday * noise;
}

dataset::DemandDataset DemandGenerator::GenerateDataset() const {
  return GenerateDataset(exec::Executor::Shared());
}

dataset::DemandDataset DemandGenerator::GenerateDataset(exec::Executor& executor) const {
  dataset::DemandDataset out = GenerateRawDataset(executor);
  out.Normalize();
  return out;
}

dataset::DemandDataset DemandGenerator::GenerateRawDataset() const {
  return GenerateRawDataset(exec::Executor::Shared());
}

dataset::DemandDataset DemandGenerator::GenerateRawDataset(exec::Executor& executor) const {
  dataset::DemandDataset out;
  util::Rng root(seed_);
  const auto subnets = subnets_;

  // Sequential prepass replicating the snapshot filter: the root engine
  // advances only for included subnets, exactly like the sequential
  // loop's conditional Fork(i).
  std::vector<std::pair<std::size_t, std::uint64_t>> work;  // (subnet index, fork seed)
  work.reserve(subnets.size());
  for (std::size_t i = 0; i < subnets.size(); ++i) {
    const simnet::Subnet& s = subnets[i];
    if (s.demand_du <= 0.0 || !s.in_demand_snapshot) continue;
    work.emplace_back(i, root.ForkSeed(i));
  }

  constexpr std::size_t kGrain = 2048;
  const std::size_t chunks = exec::Executor::ChunkCount(work.size(), kGrain);
  std::vector<std::vector<std::pair<std::size_t, double>>> partials(chunks);
  executor.ParallelForChunks(
      work.size(), kGrain, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = partials[chunk];
        local.reserve(end - begin);
        for (std::size_t w = begin; w < end; ++w) {
          const auto [i, seed] = work[w];
          const simnet::Subnet& s = subnets[i];
          util::Rng rng(seed);
          double total = 0.0;
          for (int day = 0; day < util::kDemandWindowDays; ++day) {
            total += DailyDemand(s, day, rng);
          }
          local.emplace_back(i, total);
        }
      });

  out.Reserve(work.size());
  for (auto& local : partials) {
    for (const auto& [i, total] : local) out.Add(subnets[i].block, total);
  }
  return out;
}

}  // namespace cellspot::cdn
