#include "cellspot/asdb/as_database.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "cellspot/obs/metrics.hpp"

namespace cellspot::asdb {

std::string_view AsClassName(AsClass c) noexcept {
  switch (c) {
    case AsClass::kUnknown: return "Unknown";
    case AsClass::kEnterprise: return "Enterprise";
    case AsClass::kContent: return "Content";
    case AsClass::kTransitAccess: return "Transit/Access";
  }
  return "?";
}

std::string_view OperatorKindName(OperatorKind k) noexcept {
  switch (k) {
    case OperatorKind::kDedicatedCellular: return "DedicatedCellular";
    case OperatorKind::kMixed: return "Mixed";
    case OperatorKind::kFixedOnly: return "FixedOnly";
    case OperatorKind::kCloudHosting: return "CloudHosting";
    case OperatorKind::kMobileProxy: return "MobileProxy";
    case OperatorKind::kTransit: return "Transit";
  }
  return "?";
}

void AsDatabase::Upsert(AsRecord record) {
  if (record.asn == 0) throw std::invalid_argument("AsDatabase::Upsert: asn 0 is reserved");
  const auto it = index_.find(record.asn);
  if (it != index_.end()) {
    records_[it->second] = std::move(record);
    return;
  }
  index_.emplace(record.asn, records_.size());
  records_.push_back(std::move(record));
}

const AsRecord* AsDatabase::Find(AsNumber asn) const noexcept {
  const auto it = index_.find(asn);
  if (it == index_.end()) return nullptr;
  return &records_[it->second];
}

namespace {

/// One announcement as a packed sort key. Within a family, (hi, lo, tail)
/// order is Prefix::operator< order (big-endian address bytes, then
/// length) with announcement order breaking ties, so a group of equal
/// prefixes ends at its winning announcement. The key holds the whole
/// announcement: the prefix is rebuilt from it.
struct AnnouncementKey {
  std::uint64_t hi = 0;    // address bytes 0..7, big-endian
  std::uint64_t lo = 0;    // address bytes 8..15
  std::uint64_t tail = 0;  // length << 32 | announcement sequence
  AsNumber asn = 0;

  [[nodiscard]] bool SamePrefix(const AnnouncementKey& o) const noexcept {
    return hi == o.hi && lo == o.lo && (tail >> 32) == (o.tail >> 32);
  }
  [[nodiscard]] std::uint32_t seq() const noexcept { return static_cast<std::uint32_t>(tail); }

  [[nodiscard]] netaddr::Prefix ToPrefix(netaddr::Family family) const {
    const int length = static_cast<int>(tail >> 32);
    if (family == netaddr::Family::kIpv4) {
      return {netaddr::IpAddress::V4(static_cast<std::uint32_t>(hi >> 32)), length};
    }
    std::array<std::uint8_t, 16> bytes{};
    for (int i = 0; i < 8; ++i) {
      bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(hi >> (56 - 8 * i));
      bytes[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(lo >> (56 - 8 * i));
    }
    return {netaddr::IpAddress::V6(bytes), length};
  }
};

std::uint64_t LoadBigEndian64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

RoutingTable::RoutingTable(const RoutingTable& other) { CopyFrom(other); }

RoutingTable& RoutingTable::operator=(const RoutingTable& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

RoutingTable::RoutingTable(RoutingTable&& other) noexcept { MoveFrom(other); }

RoutingTable& RoutingTable::operator=(RoutingTable&& other) noexcept {
  if (this != &other) MoveFrom(other);
  return *this;
}

void RoutingTable::CopyFrom(const RoutingTable& other) {
  // Copying is a const query on `other`: hold its lock so a concurrent
  // compile cannot rewrite the routes mid-copy. The compiled engine is
  // immutable, so the copy shares it.
  std::scoped_lock lock(other.flat_mu_);
  routes_ = other.routes_;
  sorted_ = other.sorted_;
  announced_ = other.announced_;
  moved_at_ = other.moved_at_;
  by_origin_ = other.by_origin_;
  indexed_.store(other.indexed_.load(std::memory_order_relaxed), std::memory_order_release);
  origins_indexed_.store(other.origins_indexed_.load(std::memory_order_relaxed),
                         std::memory_order_release);
  flat_ = other.flat_;
  flat_ptr_.store(flat_.get(), std::memory_order_release);
}

void RoutingTable::MoveFrom(RoutingTable& other) noexcept {
  // Like every mutation, moving is not thread-safe against concurrent
  // queries on `other`; no lock needed to take its state.
  routes_ = std::exchange(other.routes_, {});
  sorted_ = std::exchange(other.sorted_, 0);
  announced_ = std::exchange(other.announced_, 0);
  moved_at_ = std::exchange(other.moved_at_, {});
  by_origin_ = std::exchange(other.by_origin_, {});
  indexed_.store(other.indexed_.exchange(true), std::memory_order_release);
  origins_indexed_.store(other.origins_indexed_.exchange(true), std::memory_order_release);
  flat_ = std::move(other.flat_);
  flat_ptr_.store(flat_.get(), std::memory_order_release);
  other.flat_ptr_.store(nullptr, std::memory_order_release);
}

void RoutingTable::Announce(const netaddr::Prefix& prefix, AsNumber asn) {
  routes_.emplace_back(prefix, asn);
  ++announced_;
  Invalidate();
}

void RoutingTable::Index() const {
  if (indexed_.load(std::memory_order_acquire)) return;
  std::scoped_lock lock(flat_mu_);
  IndexLocked();
}

void RoutingTable::IndexLocked() const {
  if (indexed_.load(std::memory_order_relaxed)) return;
  if (announced_ > 0xFFFFFFFFULL) {
    throw std::length_error("RoutingTable: more than 2^32-1 announcements");
  }
  // Announcement sequence numbers: a compiled route keeps the number of
  // the announcement that moved it to its origin; the appended tail
  // numbers on from there.
  const std::size_t n = routes_.size();
  const auto seq_of = [&](std::size_t i) {
    return i < sorted_ ? moved_at_[i] : static_cast<std::uint32_t>(announced_ - (n - i));
  };

  // One key vector per family, sized exactly: both families sort in the
  // same key order, and v4 routes come first.
  constexpr std::array kFamilies{netaddr::Family::kIpv4, netaddr::Family::kIpv6};
  std::array<std::vector<AnnouncementKey>, 2> keys;
  const auto v4_count = static_cast<std::size_t>(std::count_if(
      routes_.begin(), routes_.end(), [](const Route& r) { return r.first.address().is_v4(); }));
  keys[0].reserve(v4_count);
  keys[1].reserve(n - v4_count);
  for (std::size_t i = 0; i < n; ++i) {
    const netaddr::Prefix& prefix = routes_[i].first;
    const auto& bytes = prefix.address().bytes();
    keys[prefix.family() == netaddr::Family::kIpv4 ? 0 : 1].push_back(
        {LoadBigEndian64(bytes.data()), LoadBigEndian64(bytes.data() + 8),
         static_cast<std::uint64_t>(prefix.length()) << 32 | seq_of(i), routes_[i].second});
  }
  std::vector<std::uint32_t> moved_at;
  moved_at.reserve(n);

  // One route per prefix group: the last announcement wins, and the
  // prefix's place in its origin's list is the first announcement of the
  // trailing run naming that origin (A -> B -> A moves it to the back).
  // The keys carry every announcement, so the routes are rewritten in
  // place; nothing here allocates, so a failure above leaves them intact.
  std::size_t out = 0;
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    std::vector<AnnouncementKey>& fk = keys[f];
    std::sort(fk.begin(), fk.end(), [](const AnnouncementKey& a, const AnnouncementKey& b) {
      if (a.hi != b.hi) return a.hi < b.hi;
      if (a.lo != b.lo) return a.lo < b.lo;
      return a.tail < b.tail;
    });
    for (std::size_t i = 0; i < fk.size();) {
      std::size_t last = i;
      while (last + 1 < fk.size() && fk[last + 1].SamePrefix(fk[i])) ++last;
      const AsNumber asn = fk[last].asn;
      std::size_t moved = last;
      while (moved > i && fk[moved - 1].asn == asn) --moved;
      routes_[out++] = {fk[i].ToPrefix(kFamilies[f]), asn};
      moved_at.push_back(fk[moved].seq());
      i = last + 1;
    }
    fk = {};
  }
  routes_.resize(out);
  moved_at_ = std::move(moved_at);
  sorted_ = routes_.size();
  indexed_.store(true, std::memory_order_release);
}

void RoutingTable::IndexOrigins() const {
  if (origins_indexed_.load(std::memory_order_acquire)) return;
  std::scoped_lock lock(flat_mu_);
  if (origins_indexed_.load(std::memory_order_relaxed)) return;
  IndexLocked();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(routes_.size());
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    order.emplace_back(static_cast<std::uint64_t>(routes_[i].second) << 32 | moved_at_[i],
                       static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());
  by_origin_.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) by_origin_[k] = order[k].second;
  origins_indexed_.store(true, std::memory_order_release);
}

std::size_t RoutingTable::size() const {
  Index();
  return routes_.size();
}

std::size_t RoutingTable::origin_count() const { return OriginRanges().size(); }

std::vector<RoutingTable::OriginRange> RoutingTable::OriginRanges() const {
  IndexOrigins();
  std::vector<OriginRange> ranges;
  for (std::uint32_t k = 0; k < by_origin_.size(); ++k) {
    const AsNumber asn = routes_[by_origin_[k]].second;
    if (ranges.empty() || ranges.back().asn != asn) ranges.push_back({asn, k, k});
    ++ranges.back().end;
  }
  return ranges;
}

std::optional<AsNumber> RoutingTable::OriginOf(const netaddr::IpAddress& addr) const {
  const AsNumber* found = Flat().LongestMatch(addr);
  if (found == nullptr) return std::nullopt;
  return *found;
}

void RoutingTable::OriginOfBatch(std::span<const netaddr::IpAddress> addrs,
                                 std::span<AsNumber> out) const {
  obs::MetricsRegistry::Global().counter("lpm.lookup").Increment(addrs.size());
  Flat().LongestMatchBatch(addrs, out, AsNumber{0});
}

const RoutingTable::FlatRib& RoutingTable::Flat() const {
  if (const FlatRib* published = flat_ptr_.load(std::memory_order_acquire)) {
    return *published;
  }
  std::scoped_lock lock(flat_mu_);
  if (!flat_) {
    // cellspot-lint: allow(L003) build wall-clock is telemetry; no output depends on it
    const auto start = std::chrono::steady_clock::now();
    IndexLocked();
    flat_ = std::make_shared<const FlatRib>(FlatRib::Build(routes_));
    // cellspot-lint: allow(L003) build wall-clock is telemetry; no output depends on it
    const auto elapsed = std::chrono::steady_clock::now() - start;
    auto& reg = obs::MetricsRegistry::Global();
    reg.counter("lpm.build").Increment();
    reg.latency("lpm.build").Record(
        std::chrono::duration<double, std::milli>(elapsed).count());
    reg.gauge("lpm.segments").Set(static_cast<double>(flat_->segment_count()));
  }
  flat_ptr_.store(flat_.get(), std::memory_order_release);
  return *flat_;
}

bool RoutingTable::AdoptFlat(FlatRib flat) const {
  if (flat.size() != size()) return false;
  std::scoped_lock lock(flat_mu_);
  flat_ = std::make_shared<const FlatRib>(std::move(flat));
  flat_ptr_.store(flat_.get(), std::memory_order_release);
  obs::MetricsRegistry::Global().counter("lpm.adopt").Increment();
  return true;
}

void RoutingTable::Invalidate() {
  flat_ptr_.store(nullptr, std::memory_order_release);
  flat_.reset();
  indexed_.store(false, std::memory_order_release);
  origins_indexed_.store(false, std::memory_order_release);
}

std::optional<AsNumber> RoutingTable::ExactOrigin(const netaddr::Prefix& prefix) const {
  Index();
  const auto it = std::lower_bound(
      routes_.begin(), routes_.end(), prefix,
      [](const Route& route, const netaddr::Prefix& p) { return route.first < p; });
  if (it == routes_.end() || it->first != prefix) return std::nullopt;
  return it->second;
}

std::vector<netaddr::Prefix> RoutingTable::PrefixesOf(AsNumber asn) const {
  IndexOrigins();
  const auto origin_below = [this](std::uint32_t route, AsNumber a) {
    return routes_[route].second < a;
  };
  auto it = std::lower_bound(by_origin_.begin(), by_origin_.end(), asn, origin_below);
  std::vector<netaddr::Prefix> out;
  for (; it != by_origin_.end() && routes_[*it].second == asn; ++it) {
    out.push_back(routes_[*it].first);
  }
  return out;
}

}  // namespace cellspot::asdb
