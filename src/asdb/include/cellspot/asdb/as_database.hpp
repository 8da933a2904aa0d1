// In-memory AS registry plus a routing table mapping announced prefixes to
// their origin AS, the substrate for the paper's prefix-to-AS attribution.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cellspot/asdb/as_record.hpp"
#include "cellspot/netaddr/flat_lpm.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/util/ordered_mutex.hpp"

namespace cellspot::asdb {

/// Registry of AS records keyed by ASN.
class AsDatabase {
 public:
  /// Insert or replace a record. Throws std::invalid_argument on asn 0.
  void Upsert(AsRecord record);

  [[nodiscard]] const AsRecord* Find(AsNumber asn) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// All records in insertion order.
  [[nodiscard]] std::span<const AsRecord> records() const noexcept { return records_; }

 private:
  std::vector<AsRecord> records_;
  std::unordered_map<AsNumber, std::size_t> index_;
};

/// Announced-prefix table with longest-prefix-match origin lookup.
///
/// Announce() is an O(1) append to one announcement vector (not
/// thread-safe, like all mutation). The first const query after a
/// mutation compiles the table once: the announcements are sorted on
/// packed integer keys and deduplicated, the last announcement of a
/// prefix winning, into sorted routes; an index by origin follows on the
/// first PrefixesOf. Origin lookups run against a netaddr::FlatLpm over
/// the routes — built from them on first use (Flat()) or adopted
/// precompiled from a memory-mapped snapshot (AdoptFlat). Every step
/// publishes under one mutex, so concurrent const queries are safe.
class RoutingTable {
 public:
  using FlatRib = netaddr::FlatLpm<AsNumber>;

  RoutingTable() = default;
  RoutingTable(const RoutingTable& other);
  RoutingTable& operator=(const RoutingTable& other);
  RoutingTable(RoutingTable&& other) noexcept;
  RoutingTable& operator=(RoutingTable&& other) noexcept;
  ~RoutingTable() = default;

  /// Announce `prefix` as originated by `asn` (later announcements of the
  /// same prefix overwrite, mimicking a most-recent-RIB view).
  void Announce(const netaddr::Prefix& prefix, AsNumber asn);

  /// Origin AS of the most specific covering announcement, if any.
  [[nodiscard]] std::optional<AsNumber> OriginOf(const netaddr::IpAddress& addr) const;

  /// Batch origin lookup over the compiled engine (built on first use):
  /// out[i] is the origin of addrs[i], or 0 — a reserved, never-announced
  /// ASN — when no announcement covers it. Spans must match in length.
  void OriginOfBatch(std::span<const netaddr::IpAddress> addrs,
                     std::span<AsNumber> out) const;

  /// Origin by exact prefix (a binary search over the sorted routes).
  [[nodiscard]] std::optional<AsNumber> ExactOrigin(const netaddr::Prefix& prefix) const;

  /// All prefixes announced by `asn`, each in the order of the
  /// announcement that last moved it to `asn` (re-announcing the same
  /// origin keeps a prefix's place). Copied out; the CSV and snapshot
  /// writers' bytes depend on this order.
  [[nodiscard]] std::vector<netaddr::Prefix> PrefixesOf(AsNumber asn) const;

  /// visit(asn, prefix) for every prefix whose origin has a record in
  /// `db`: records in database order, each origin's prefixes in
  /// PrefixesOf order — the CSV and snapshot RIB writers' order. One walk
  /// over the origin index, nothing copied. Returns the number visited
  /// (size() unless some origin has no record).
  template <typename Visit>
  std::size_t ForEachPrefixByRecord(const AsDatabase& db, Visit&& visit) const {
    const std::vector<OriginRange> ranges = OriginRanges();
    std::size_t visited = 0;
    for (const AsRecord& record : db.records()) {
      const auto it = std::lower_bound(
          ranges.begin(), ranges.end(), record.asn,
          [](const OriginRange& r, AsNumber asn) { return r.asn < asn; });
      if (it == ranges.end() || it->asn != record.asn) continue;
      for (std::uint32_t k = it->begin; k < it->end; ++k) {
        visit(record.asn, routes_[by_origin_[k]].first);
      }
      visited += it->end - it->begin;
    }
    return visited;
  }

  /// Number of distinct announced prefixes.
  [[nodiscard]] std::size_t size() const;

  /// Number of distinct origins with at least one announced prefix.
  [[nodiscard]] std::size_t origin_count() const;

  /// The compiled flat engine, building (and caching) it on first use.
  /// Logically const: the engine is a cache over the routes.
  [[nodiscard]] const FlatRib& Flat() const;

  /// Adopt a precompiled engine — the warm-start path, typically a
  /// zero-copy view into a memory-mapped snapshot. Returns false (and
  /// keeps the current state) when the engine's prefix count disagrees
  /// with this table, so a stale or foreign snapshot can never serve
  /// wrong origins.
  bool AdoptFlat(FlatRib flat) const;

  /// True once a compiled engine is serving lookups.
  [[nodiscard]] bool has_flat() const noexcept {
    return flat_ptr_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  using Route = std::pair<netaddr::Prefix, AsNumber>;
  /// One origin's run [begin, end) of by_origin_.
  struct OriginRange {
    AsNumber asn;
    std::uint32_t begin;
    std::uint32_t end;
  };

  /// Compile the routes if an announcement arrived since the last time.
  void Index() const;
  /// Index() with flat_mu_ already held.
  void IndexLocked() const;
  /// Index(), plus the origin index PrefixesOf and origin_count read.
  void IndexOrigins() const;
  /// IndexOrigins(), then each origin's run of it, ascending by ASN.
  [[nodiscard]] std::vector<OriginRange> OriginRanges() const;
  /// Drop the compiled state after a mutation.
  void Invalidate();
  void CopyFrom(const RoutingTable& other);
  void MoveFrom(RoutingTable& other) noexcept;

  // The announcement vector. While indexed_ is false, routes_[sorted_,
  // end) are announcements appended in order since the last compile; the
  // compile rewrites the whole vector, under flat_mu_, as routes sorted by
  // prefix with no prefix twice — the exact input FlatRib::Build takes.
  mutable std::vector<Route> routes_;
  mutable std::size_t sorted_ = 0;
  std::uint64_t announced_ = 0;  // Announce() calls over the table's life
  // Per compiled route: the sequence number of the announcement that last
  // moved the prefix to its origin (re-announcing that origin does not).
  mutable std::vector<std::uint32_t> moved_at_;
  // Built on first use: route indices ordered by (origin, moved_at_), so
  // PrefixesOf(asn) is one range.
  mutable std::vector<std::uint32_t> by_origin_;
  mutable std::atomic<bool> indexed_{true};
  mutable std::atomic<bool> origins_indexed_{true};

  // Compiled-engine cache: flat_ owns, flat_ptr_ publishes (release on
  // store, acquire on load) so hot-path readers skip the mutex.
  mutable util::OrderedMutex flat_mu_{"asdb.RoutingTable.flat"};
  mutable std::shared_ptr<const FlatRib> flat_;
  mutable std::atomic<const FlatRib*> flat_ptr_{nullptr};
};

}  // namespace cellspot::asdb
