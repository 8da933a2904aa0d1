#include "cellspot/cdn/beacon_generator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "cellspot/exec/executor.hpp"
#include "cellspot/netinfo/availability.hpp"

namespace cellspot::cdn {

namespace {

using netinfo::Browser;
using netinfo::ConnectionType;

/// Label mix for API-enabled hits from one subnet.
struct LabelMix {
  double cellular = 0.0;
  double wifi = 0.0;
  double ethernet = 0.0;
  double other = 0.0;  // bluetooth/wimax
};

LabelMix MixFor(const simnet::WorldConfig& config, const simnet::Subnet& s) {
  const auto& noise = config.noise;
  LabelMix mix;
  if (s.proxy_terminating) {
    mix.cellular = config.proxy_cell_label_fraction;
    mix.wifi = 1.0 - mix.cellular;
    return mix;
  }
  if (s.truth_cellular) {
    const double tether =
        s.tether_rate >= 0.0 ? s.tether_rate : noise.tether_wifi_given_cellular;
    mix.other = noise.exotic_label_rate;
    mix.cellular = (1.0 - mix.other) * (1.0 - tether);
    mix.wifi = (1.0 - mix.other) * tether;
    return mix;
  }
  // Fixed access. A tether_rate override on a fixed block marks an
  // LTE-backup enterprise line: it reports mostly cellular.
  if (s.tether_rate >= 0.0) {
    mix.cellular = s.tether_rate;
    mix.wifi = 1.0 - mix.cellular;
    return mix;
  }
  mix.other = noise.exotic_label_rate;
  const double rest = 1.0 - mix.other;
  mix.cellular = rest * noise.switch_cellular_given_fixed;
  mix.ethernet = (rest - mix.cellular) * noise.ethernet_given_fixed;
  mix.wifi = rest - mix.cellular - mix.ethernet;
  return mix;
}

}  // namespace

double ExpectedCellularLabelFraction(const simnet::World& world,
                                     const simnet::Subnet& subnet) {
  return MixFor(world.config(), subnet).cellular;
}

BeaconGenerator::BeaconGenerator(const simnet::World& world, std::uint64_t seed_offset)
    : config_(world.config()),
      subnets_(world.subnets()),
      seed_(world.config().seed ^ (0xBEAC0DULL + seed_offset)) {}

BeaconGenerator::BeaconGenerator(const simnet::WorldConfig& config,
                                 std::span<const simnet::Subnet> subnets,
                                 std::uint64_t seed)
    : config_(config), subnets_(subnets), seed_(seed) {}

BeaconGenerator::BlockDraws BeaconGenerator::DrawBlock(const simnet::Subnet& s,
                                                       util::Rng& rng) const {
  BlockDraws d;
  const double lambda = s.demand_du * config_.beacon_hits_per_du * s.beacon_scale;
  if (lambda <= 0.0) return d;
  d.hits = rng.Poisson(lambda);
  if (d.hits == 0) return d;

  // Device mix: the block's generation-time mobile share, falling back
  // to the truth-derived default for hand-built subnets.
  const double mobile_share =
      s.mobile_share >= 0.0 ? s.mobile_share : (s.truth_cellular ? 0.93 : 0.45);
  d.mobile = rng.Binomial(d.hits, mobile_share);

  const double netinfo_frac = std::clamp(
      netinfo::NetInfoFraction(config_.study_month) * config_.netinfo_coverage_scale,
      0.0, 1.0);
  d.netinfo = rng.Binomial(d.hits, netinfo_frac);
  if (d.netinfo == 0) return d;

  const LabelMix mix = MixFor(config_, s);
  // Sequential binomial thinning implements the multinomial split.
  d.cellular = rng.Binomial(d.netinfo, mix.cellular);
  std::uint64_t rest = d.netinfo - d.cellular;
  const double denom1 = 1.0 - mix.cellular;
  d.wifi = denom1 > 0.0 ? rng.Binomial(rest, mix.wifi / denom1) : 0;
  rest -= d.wifi;
  const double denom2 = denom1 - mix.wifi;
  d.ethernet = denom2 > 0.0 ? rng.Binomial(rest, mix.ethernet / denom2) : 0;
  d.other = rest - d.ethernet;
  return d;
}

dataset::BeaconDataset BeaconGenerator::GenerateDataset() const {
  return GenerateDataset(exec::Executor::Shared());
}

dataset::BeaconDataset BeaconGenerator::GenerateDataset(exec::Executor& executor) const {
  dataset::BeaconDataset out;
  util::Rng root(seed_);
  const auto subnets = subnets_;

  // Sequential fork-seed prepass: each subnet's stream is the one a
  // sequential root.Fork(i) loop would have produced.
  std::vector<std::uint64_t> fork_seeds(subnets.size());
  for (std::size_t i = 0; i < subnets.size(); ++i) fork_seeds[i] = root.ForkSeed(i);

  constexpr std::size_t kGrain = 2048;
  const std::size_t chunks = exec::Executor::ChunkCount(subnets.size(), kGrain);
  std::vector<std::vector<std::pair<std::size_t, dataset::BeaconBlockStats>>> partials(chunks);
  executor.ParallelForChunks(
      subnets.size(), kGrain, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = partials[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          util::Rng rng(fork_seeds[i]);
          const BlockDraws d = DrawBlock(subnets[i], rng);
          if (d.hits == 0) continue;
          dataset::BeaconBlockStats stats;
          stats.hits = d.hits;
          stats.netinfo_hits = d.netinfo;
          stats.cellular_labels = d.cellular;
          stats.wifi_labels = d.wifi;
          stats.ethernet_labels = d.ethernet;
          stats.other_labels = d.other;
          stats.mobile_browser_hits = d.mobile;
          local.emplace_back(i, stats);
        }
      });

  // Ordered merge: chunk order is index order, so the dataset sees the
  // same insertion sequence as the sequential loop.
  std::size_t blocks = 0;
  for (const auto& local : partials) blocks += local.size();
  out.Reserve(blocks);
  for (auto& local : partials) {
    for (auto& [i, stats] : local) out.Add(subnets[i].block, stats);
  }
  return out;
}

std::uint64_t BeaconGenerator::StreamHits(const HitSink& sink,
                                          std::uint64_t max_hits) const {
  util::Rng root(seed_);
  std::uint64_t emitted = 0;
  const auto subnets = subnets_;
  const auto month = config_.study_month;
  const auto mix = netinfo::BrowserSharesAt(month);
  std::vector<double> browser_weights(mix.share.begin(), mix.share.end());
  const util::WeightedSampler browser_sampler(browser_weights);

  for (std::size_t i = 0; i < subnets.size() && emitted < max_hits; ++i) {
    util::Rng rng = root.Fork(i);
    const simnet::Subnet& s = subnets[i];
    const BlockDraws d = DrawBlock(s, rng);
    if (d.hits == 0) continue;

    // Reconstruct per-hit labels consistent with the aggregate draws.
    std::uint64_t remaining_netinfo = d.netinfo;
    std::uint64_t cellular = d.cellular;
    std::uint64_t wifi = d.wifi;
    std::uint64_t ethernet = d.ethernet;
    util::Rng hit_rng = rng.Fork(1);
    const std::uint64_t to_emit = std::min(d.hits, max_hits - emitted);
    for (std::uint64_t h = 0; h < to_emit; ++h) {
      BeaconHit hit;
      const std::uint64_t host = hit_rng.UniformInt(1, 250);
      hit.client_ip = netaddr::NthAddress(s.block, host);
      hit.day = static_cast<std::int32_t>(hit_rng.UniformInt(0, util::kBeaconWindowDays - 1));
      // Prefer an API-capable browser while API-labelled hits remain.
      const std::uint64_t hits_left = d.hits - h;
      hit.has_netinfo = remaining_netinfo > 0 &&
                        hit_rng.Chance(static_cast<double>(remaining_netinfo) /
                                       static_cast<double>(hits_left));
      if (hit.has_netinfo) {
        --remaining_netinfo;
        // Draw a browser among API-enabled ones proportionally.
        double cm = netinfo::NetInfoFractionOf(Browser::kChromeMobile, month);
        double aw = netinfo::NetInfoFractionOf(Browser::kAndroidWebkit, month);
        double fm = netinfo::NetInfoFractionOf(Browser::kFirefoxMobile, month);
        const double total = cm + aw + fm;
        const double u = hit_rng.UniformDouble() * (total > 0 ? total : 1.0);
        hit.browser = u < cm ? Browser::kChromeMobile
                             : (u < cm + aw ? Browser::kAndroidWebkit
                                            : Browser::kFirefoxMobile);
        if (cellular > 0) {
          hit.connection = ConnectionType::kCellular;
          --cellular;
        } else if (wifi > 0) {
          hit.connection = ConnectionType::kWifi;
          --wifi;
        } else if (ethernet > 0) {
          hit.connection = ConnectionType::kEthernet;
          --ethernet;
        } else {
          hit.connection = ConnectionType::kBluetooth;
        }
      } else {
        // Respect the block's device mix: draw mobile vs desktop first,
        // then a browser within that class from the month's shares.
        const double mobile_share =
            s.mobile_share >= 0.0 ? s.mobile_share : (s.truth_cellular ? 0.93 : 0.45);
        const bool mobile = hit_rng.Chance(mobile_share);
        Browser b = static_cast<Browser>(browser_sampler.Sample(hit_rng));
        for (int attempts = 0; attempts < 12 && netinfo::IsMobileBrowser(b) != mobile;
             ++attempts) {
          b = static_cast<Browser>(browser_sampler.Sample(hit_rng));
        }
        hit.browser = b;
        hit.connection = ConnectionType::kUnknown;
      }
      sink(s.block, hit);
      ++emitted;
    }
  }
  return emitted;
}

}  // namespace cellspot::cdn
