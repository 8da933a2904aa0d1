// FlatLpm: an immutable, build-once longest-prefix-match engine compiled
// from a sorted (prefix, value) vector.
//
// Instead of walking a pointer-chasing binary trie one bit per step, the
// stored prefixes are flattened into sorted, disjoint address ranges —
// for every address the innermost covering prefix is precomputed — so a
// lookup is one bucketed binary search over packed arrays:
//
//   per family (v4 uses 4 address bytes, v6 all 16):
//     starts[]  big-endian address bytes, strictly increasing
//     ends[]    inclusive range ends, ranges pairwise disjoint
//     vidx[]    u32 LE index into the shared value table
//     index[]   optional 65537-entry bucket table over the top 16
//               address bits: index[b] = first segment whose start
//               lies at or beyond bucket b (narrows the search to a
//               handful of probes on routing-table-sized inputs)
//
// Big-endian byte order makes memcmp() the numeric comparison, and every
// array is read through unaligned-safe byte loads, so the same blob
// serves three ways: built in memory, decoded from a snapshot section
// (copying), or viewed zero-copy straight out of a memory-mapped
// snapshot with a keepalive handle. Build() takes its input in
// Prefix::operator< order (v4 before v6, ascending starts, covering
// before covered — the pre-order of a binary trie), and a nested-interval
// sweep over it emits at most 2n-1 segments per family for n prefixes.
//
// Exact-prefix queries are not answerable from disjoint ranges (an outer
// prefix's start may be shadowed by a child); callers that need them
// binary-search their sorted input instead. Lookup results are
// byte-identical to a bit-per-node trie's — the differential property
// test (tests/lpm_differential_test.cpp) locks this against a trie oracle.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellspot/netaddr/prefix.hpp"

namespace cellspot::netaddr {

/// Thrown when a FlatLpm payload fails validation (truncated, malformed,
/// or inconsistent bytes). The snapshot layer maps this onto
/// SnapshotError{kMalformed} so the stage cache quarantines the file.
class FlatLpmError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Fixed-width value codec: FlatLpm stores values as u32 little-endian
/// slots in its payload. Specialize for each stored type; Decode must
/// reject encodings Encode cannot produce so corrupt slots are caught.
template <typename T>
struct FlatLpmCodec;

template <>
struct FlatLpmCodec<bool> {
  [[nodiscard]] static std::uint32_t Encode(bool v) noexcept { return v ? 1U : 0U; }
  [[nodiscard]] static bool Decode(std::uint32_t raw) {
    if (raw > 1U) throw FlatLpmError("FlatLpm: bool value slot out of range");
    return raw != 0U;
  }
};

template <>
struct FlatLpmCodec<std::uint32_t> {
  [[nodiscard]] static std::uint32_t Encode(std::uint32_t v) noexcept { return v; }
  [[nodiscard]] static std::uint32_t Decode(std::uint32_t raw) noexcept { return raw; }
};

template <typename T>
class FlatLpm {
 public:
  /// An empty engine: every lookup misses. Equivalent to building from
  /// an empty vector.
  FlatLpm() = default;

  /// Compile the packed-range layout from (prefix, value) pairs sorted
  /// strictly ascending by Prefix::operator< — sorted, and no prefix
  /// twice. O(n) in stored prefixes; the result is immutable. Throws
  /// FlatLpmError on unsorted or duplicate input. The encoded bytes then
  /// pass the same validation as Decode and View, the one path every
  /// engine shares.
  [[nodiscard]] static FlatLpm Build(std::span<const std::pair<Prefix, T>> entries) {
    return Own(EncodeSorted(entries));
  }

  /// Parse and validate a payload, copying the bytes into an owned
  /// buffer. Throws FlatLpmError on any defect.
  [[nodiscard]] static FlatLpm Decode(std::string_view payload) {
    return Own(std::string(payload));
  }

  /// Zero-copy view over externally owned bytes (e.g. a memory-mapped
  /// snapshot section). `keepalive` must keep `payload` valid for the
  /// lifetime of the FlatLpm and every copy of it. Validation is a full
  /// structural pass (exact length, ordering, disjointness, index
  /// consistency, value range), so a view is as trustworthy as a build —
  /// only the O(n log n) compilation is skipped.
  [[nodiscard]] static FlatLpm View(std::string_view payload,
                                    std::shared_ptr<const void> keepalive) {
    FlatLpm lpm;
    lpm.keepalive_ = std::move(keepalive);
    lpm.view_ = true;
    lpm.InitFromPayload(payload);
    return lpm;
  }

  /// The canonical payload these bytes round-trip through. For a
  /// default-constructed engine this is the (valid) empty layout.
  [[nodiscard]] std::string Encode() const {
    if (!payload_.empty()) return std::string(payload_);
    return EncodeSorted({});
  }

  /// Value at the most specific stored prefix containing `addr`, or
  /// nullptr.
  [[nodiscard]] const T* LongestMatch(const IpAddress& addr) const {
    const FamilyView& fv = ViewFor(addr.family());
    const std::size_t seg = FindSegment(fv, addr.bytes().data());
    if (seg == kNone) return nullptr;
    return &values_[ReadU32(fv.vidx + 4 * seg)].v;
  }

  /// Longest match along with the matched prefix length.
  [[nodiscard]] std::optional<std::pair<int, const T*>> LongestMatchWithLength(
      const IpAddress& addr) const {
    const FamilyView& fv = ViewFor(addr.family());
    const std::size_t seg = FindSegment(fv, addr.bytes().data());
    if (seg == kNone) return std::nullopt;
    const std::uint32_t vidx = ReadU32(fv.vidx + 4 * seg);
    return std::pair<int, const T*>{static_cast<int>(value_len_[vidx]), &values_[vidx].v};
  }

  /// Batch lookup: out[i] = LongestMatch(addrs[i]). The spans must have
  /// equal lengths. This is the cache-friendly form the executor drives.
  void LongestMatchBatch(std::span<const IpAddress> addrs,
                         std::span<const T*> out) const {
    if (addrs.size() != out.size()) {
      throw std::invalid_argument("FlatLpm::LongestMatchBatch: span size mismatch");
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) out[i] = LongestMatch(addrs[i]);
  }

  /// Value-copying batch: out[i] = value or `miss` when unmatched.
  void LongestMatchBatch(std::span<const IpAddress> addrs, std::span<T> out,
                         const T& miss) const {
    if (addrs.size() != out.size()) {
      throw std::invalid_argument("FlatLpm::LongestMatchBatch: span size mismatch");
    }
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const T* found = LongestMatch(addrs[i]);
      out[i] = (found != nullptr) ? *found : miss;
    }
  }

  /// Chunked batch lookup driven by an external runner, typically an
  /// executor: `run(n, grain, body)` must invoke body(begin, end) over
  /// chunks covering [0, n) — exec::Executor::ParallelFor has exactly
  /// this shape. Results are positional, so output is independent of
  /// chunk scheduling. (netaddr stays below exec in the layering; the
  /// runner parameter is the seam.)
  template <typename RunChunks>
  void LongestMatchBatchChunked(std::span<const IpAddress> addrs,
                                std::span<const T*> out, std::size_t grain,
                                RunChunks&& run) const {
    if (addrs.size() != out.size()) {
      throw std::invalid_argument("FlatLpm::LongestMatchBatchChunked: span size mismatch");
    }
    run(addrs.size(), grain, [this, addrs, out](std::size_t begin, std::size_t end) {
      LongestMatchBatch(addrs.subspan(begin, end - begin),
                        out.subspan(begin, end - begin));
    });
  }

  /// As above, copying values with a miss default.
  template <typename RunChunks>
  void LongestMatchBatchChunked(std::span<const IpAddress> addrs, std::span<T> out,
                                const T& miss, std::size_t grain,
                                RunChunks&& run) const {
    if (addrs.size() != out.size()) {
      throw std::invalid_argument("FlatLpm::LongestMatchBatchChunked: span size mismatch");
    }
    run(addrs.size(), grain,
        [this, addrs, out, &miss](std::size_t begin, std::size_t end) {
          LongestMatchBatch(addrs.subspan(begin, end - begin),
                            out.subspan(begin, end - begin), miss);
        });
  }

  /// Number of stored prefixes (== the length of Build's input).
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  /// Total packed ranges across both families (≤ 2·size() − 1 each).
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return v4_.count + v6_.count;
  }

  /// True when this engine reads someone else's bytes (mmap view) rather
  /// than an owned buffer.
  [[nodiscard]] bool is_view() const noexcept { return view_ && !payload_.empty(); }

  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload_.size(); }

 private:
  static constexpr std::string_view kMagic = "FLPM";
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kBuckets = 65536;
  /// Families below this many segments skip the bucket table: the plain
  /// binary search is already a couple of probes and the table would be
  /// 256 KiB of dead weight.
  static constexpr std::size_t kIndexThreshold = 64;
  static constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 1 + 1;

  using Byte = unsigned char;
  using AddrBytes = std::array<Byte, 16>;

  struct FamilyView {
    const Byte* starts = nullptr;
    const Byte* ends = nullptr;
    const Byte* vidx = nullptr;   // u32 LE per segment
    const Byte* index = nullptr;  // 65537 u32 LE entries, or nullptr
    std::size_t count = 0;
    std::size_t width = 4;  // address bytes per entry: 4 (v4) or 16 (v6)
  };

  /// Validate `bytes` (View's full structural pass) and keep them as
  /// the engine's owned buffer.
  [[nodiscard]] static FlatLpm Own(std::string bytes) {
    auto owned = std::make_shared<const std::string>(std::move(bytes));
    const std::string_view stable(*owned);
    FlatLpm lpm = View(stable, std::move(owned));
    lpm.view_ = false;
    return lpm;
  }

  [[nodiscard]] const FamilyView& ViewFor(Family f) const noexcept {
    return f == Family::kIpv4 ? v4_ : v6_;
  }

  // ---- unaligned little-endian loads/stores -------------------------

  [[nodiscard]] static std::uint32_t ReadU32(const Byte* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  [[nodiscard]] static std::uint64_t ReadU64(const Byte* p) noexcept {
    return static_cast<std::uint64_t>(ReadU32(p)) |
           (static_cast<std::uint64_t>(ReadU32(p + 4)) << 32);
  }

  /// Store at `w` and advance it.
  static void PutU32(Byte*& w, std::uint32_t v) noexcept {
    w[0] = static_cast<Byte>(v);
    w[1] = static_cast<Byte>(v >> 8);
    w[2] = static_cast<Byte>(v >> 16);
    w[3] = static_cast<Byte>(v >> 24);
    w += 4;
  }

  static void PutU64(Byte*& w, std::uint64_t v) noexcept {
    PutU32(w, static_cast<std::uint32_t>(v));
    PutU32(w, static_cast<std::uint32_t>(v >> 32));
  }

  // ---- big-endian address-byte arithmetic ---------------------------

  /// memcmp is the numeric order because the bytes are big-endian. The
  /// two constant widths let the compiler inline each comparison.
  [[nodiscard]] static int CmpAddr(const Byte* a, const Byte* b, std::size_t w) noexcept {
    return w == 4 ? std::memcmp(a, b, 4) : std::memcmp(a, b, 16);
  }

  /// a += 1 over the first `w` bytes; false on wraparound past all-ones.
  static bool IncAddr(AddrBytes& a, std::size_t w) noexcept {
    for (std::size_t i = w; i-- > 0;) {
      if (++a[i] != 0) return true;
    }
    return false;
  }

  /// a -= 1 over the first `w` bytes. Requires a != 0.
  static void DecAddr(AddrBytes& a, std::size_t w) noexcept {
    for (std::size_t i = w; i-- > 0;) {
      if (a[i]-- != 0) return;
    }
  }

  // ---- build: nested-interval sweep over the sorted input -----------

  /// One stored prefix as its inclusive address range.
  struct BuildPrefix {
    AddrBytes start{};
    AddrBytes end{};
    std::uint32_t vidx = 0;
  };

  [[nodiscard]] static BuildPrefix Bounds(const Prefix& prefix, std::size_t w,
                                          std::uint32_t vidx) noexcept {
    BuildPrefix bp;
    std::memcpy(bp.start.data(), prefix.address().bytes().data(), 16);
    bp.end = bp.start;
    // Set every host bit: the inclusive top of the prefix's range.
    std::size_t k = static_cast<std::size_t>(prefix.length()) / 8;
    if (const int partial = prefix.length() % 8; partial != 0) {
      bp.end[k++] |= static_cast<Byte>(0xFFU >> partial);
    }
    for (; k < w; ++k) bp.end[k] = 0xFF;
    bp.vidx = vidx;
    return bp;
  }

  /// One family's segments in payload layout: `width`-byte starts and
  /// ends, and value indices.
  struct FamilySegments {
    std::vector<Byte> starts;
    std::vector<Byte> ends;
    std::vector<std::uint32_t> vidx;
  };

  /// Flatten one family's prefixes (Prefix order: ascending starts,
  /// covering before covered, no duplicates) into sorted disjoint
  /// segments labelled with the innermost covering prefix. A stack of
  /// currently open prefixes plays the nesting (at most one per prefix
  /// length); a cursor marks the first address not yet assigned to a
  /// segment. `first_vidx` is the value index of prefixes[0].
  static FamilySegments SweepFamily(std::span<const std::pair<Prefix, T>> prefixes,
                                    std::uint32_t first_vidx, std::size_t w) {
    FamilySegments segs;
    // n prefixes yield at most 2n-1 segments, typically about n.
    segs.starts.reserve(prefixes.size() * w);
    segs.ends.reserve(prefixes.size() * w);
    segs.vidx.reserve(prefixes.size());
    std::vector<BuildPrefix> open;
    AddrBytes cursor{};
    const auto emit = [&](const AddrBytes& from, const AddrBytes& to, std::uint32_t vidx) {
      segs.starts.insert(segs.starts.end(), from.begin(), from.begin() + w);
      segs.ends.insert(segs.ends.end(), to.begin(), to.begin() + w);
      segs.vidx.push_back(vidx);
    };
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      const BuildPrefix p =
          Bounds(prefixes[i].first, w, first_vidx + static_cast<std::uint32_t>(i));
      // Close every open prefix that ends before this one starts.
      while (!open.empty() && CmpAddr(open.back().end.data(), p.start.data(), w) < 0) {
        const BuildPrefix top = open.back();
        open.pop_back();
        if (CmpAddr(cursor.data(), top.end.data(), w) <= 0) {
          emit(cursor, top.end, top.vidx);
          cursor = top.end;
          IncAddr(cursor, w);  // top.end < p.start <= max: no wraparound
        }
      }
      // The gap between the cursor and this start belongs to the
      // enclosing prefix, if one is open.
      if (!open.empty() && CmpAddr(cursor.data(), p.start.data(), w) < 0) {
        AddrBytes gap_end = p.start;
        DecAddr(gap_end, w);
        emit(cursor, gap_end, open.back().vidx);
      }
      cursor = p.start;
      open.push_back(p);
    }
    while (!open.empty()) {
      const BuildPrefix top = open.back();
      open.pop_back();
      if (CmpAddr(cursor.data(), top.end.data(), w) <= 0) {
        emit(cursor, top.end, top.vidx);
        cursor = top.end;
        if (!IncAddr(cursor, w)) break;  // covered through the top address
      }
    }
    return segs;
  }

  [[nodiscard]] static std::string EncodeSorted(
      std::span<const std::pair<Prefix, T>> entries) {
    const std::size_t n = entries.size();
    if (n > 0xFFFFFFFFULL) throw FlatLpmError("FlatLpm: more than 2^32-1 prefixes");
    for (std::size_t i = 1; i < n; ++i) {
      const Prefix& prev = entries[i - 1].first;
      const Prefix& next = entries[i].first;
      if (!(prev < next)) {
        throw FlatLpmError(std::string("FlatLpm::Build: ") +
                           (prev == next ? "duplicate prefix " : "input not sorted at ") +
                           next.ToString());
      }
    }
    // Sorted input puts every v4 prefix first.
    const auto v4_count = static_cast<std::size_t>(
        std::partition_point(entries.begin(), entries.end(),
                             [](const auto& e) { return e.first.family() == Family::kIpv4; }) -
        entries.begin());
    const FamilySegments v4s = SweepFamily(entries.first(v4_count), 0, 4);
    const FamilySegments v6s =
        SweepFamily(entries.subspan(v4_count), static_cast<std::uint32_t>(v4_count), 16);

    const bool idx4 = v4s.vidx.size() >= kIndexThreshold;
    const bool idx6 = v6s.vidx.size() >= kIndexThreshold;
    const std::size_t index_bytes = (kBuckets + 1) * 4;
    std::string out(kHeaderBytes + n * 5 + v4s.vidx.size() * 12 + v6s.vidx.size() * 36 +
                        (idx4 ? index_bytes : 0) + (idx6 ? index_bytes : 0),
                    '\0');
    Byte* w = reinterpret_cast<Byte*>(out.data());
    std::memcpy(w, kMagic.data(), kMagic.size());
    w += kMagic.size();
    PutU32(w, kVersion);
    PutU64(w, n);
    PutU64(w, v4s.vidx.size());
    PutU64(w, v6s.vidx.size());
    *w++ = idx4 ? 1 : 0;
    *w++ = idx6 ? 1 : 0;
    for (const auto& entry : entries) *w++ = static_cast<Byte>(entry.first.length());
    for (const auto& entry : entries) PutU32(w, FlatLpmCodec<T>::Encode(entry.second));
    const auto put_family = [&w](const FamilySegments& segs, std::size_t width,
                                 bool with_index) {
      w = std::copy(segs.starts.begin(), segs.starts.end(), w);
      w = std::copy(segs.ends.begin(), segs.ends.end(), w);
      for (const std::uint32_t vidx : segs.vidx) PutU32(w, vidx);
      if (!with_index) return;
      // index[b] = first segment whose start's top 16 bits are >= b.
      const std::size_t count = segs.vidx.size();
      std::size_t seg = 0;
      for (std::size_t b = 0; b <= kBuckets; ++b) {
        while (seg < count && (static_cast<std::size_t>(segs.starts[seg * width]) << 8 |
                               segs.starts[seg * width + 1]) < b) {
          ++seg;
        }
        PutU32(w, static_cast<std::uint32_t>(seg));
      }
    };
    put_family(v4s, 4, idx4);
    put_family(v6s, 16, idx6);
    return out;
  }

  // ---- validate + wire up a payload ---------------------------------

  void InitFromPayload(std::string_view payload) {
    const auto fail = [](const std::string& what) -> void {
      throw FlatLpmError("FlatLpm payload: " + what);
    };
    if (payload.size() < kHeaderBytes) fail("shorter than its header");
    const Byte* base = reinterpret_cast<const Byte*>(payload.data());
    if (payload.substr(0, 4) != kMagic) fail("bad magic");
    if (ReadU32(base + 4) != kVersion) fail("unsupported layout version");
    const std::uint64_t n_prefixes = ReadU64(base + 8);
    const std::uint64_t s4 = ReadU64(base + 16);
    const std::uint64_t s6 = ReadU64(base + 24);
    const Byte idx4_flag = base[32];
    const Byte idx6_flag = base[33];
    if (idx4_flag > 1 || idx6_flag > 1) fail("bad index flag");
    if (n_prefixes > 0xFFFFFFFFULL) fail("prefix count exceeds 32-bit indices");
    // The per-family bounds make the sum and the size arithmetic below
    // overflow-free: counts are capped near 2^33 each.
    if (s4 > 2 * n_prefixes || s6 > 2 * n_prefixes || s4 + s6 > 2 * n_prefixes) {
      fail("more segments than prefixes allow");
    }
    const std::uint64_t index_bytes = (kBuckets + 1) * 4;
    const std::uint64_t expected = kHeaderBytes + n_prefixes * 5 + s4 * 12 + s6 * 36 +
                                   (idx4_flag ? index_bytes : 0) +
                                   (idx6_flag ? index_bytes : 0);
    if (payload.size() != expected) fail("length does not match its counts");

    const Byte* p = base + kHeaderBytes;
    value_len_ = p;
    p += n_prefixes;
    const Byte* value_enc = p;
    p += n_prefixes * 4;

    const auto wire_family = [&](FamilyView& fv, std::uint64_t count, std::size_t w,
                                 bool with_index) {
      fv.width = w;
      fv.count = static_cast<std::size_t>(count);
      fv.starts = p;
      p += count * w;
      fv.ends = p;
      p += count * w;
      fv.vidx = p;
      p += count * 4;
      fv.index = nullptr;
      if (with_index) {
        fv.index = p;
        p += index_bytes;
      }
    };
    wire_family(v4_, s4, 4, idx4_flag != 0);
    wire_family(v6_, s6, 16, idx6_flag != 0);

    // Structural checks, one O(count) pass per family: ordered disjoint
    // ranges, value indices in range, prefix lengths consistent with the
    // family, and a bucket table that matches the starts it indexes.
    const auto check_family = [&](const FamilyView& fv, const char* name) {
      const int width_bits = static_cast<int>(fv.width) * 8;
      for (std::size_t i = 0; i < fv.count; ++i) {
        const Byte* start = fv.starts + i * fv.width;
        const Byte* end = fv.ends + i * fv.width;
        if (CmpAddr(start, end, fv.width) > 0) {
          fail(std::string(name) + " segment with start past its end");
        }
        if (i > 0 &&
            CmpAddr(fv.ends + (i - 1) * fv.width, start, fv.width) >= 0) {
          fail(std::string(name) + " segments out of order or overlapping");
        }
        const std::uint32_t vidx = ReadU32(fv.vidx + 4 * i);
        if (vidx >= n_prefixes) fail(std::string(name) + " value index out of range");
        if (value_len_[vidx] > width_bits) {
          fail(std::string(name) + " prefix length exceeds the family width");
        }
      }
      if (fv.index != nullptr) {
        std::size_t seg = 0;
        for (std::size_t b = 0; b <= kBuckets; ++b) {
          while (seg < fv.count &&
                 (static_cast<std::size_t>(fv.starts[seg * fv.width]) << 8 |
                  fv.starts[seg * fv.width + 1]) < b) {
            ++seg;
          }
          if (ReadU32(fv.index + 4 * b) != seg) {
            fail(std::string(name) + " bucket index disagrees with segment starts");
          }
        }
      }
    };
    check_family(v4_, "v4");
    check_family(v6_, "v6");

    values_.clear();
    values_.reserve(static_cast<std::size_t>(n_prefixes));
    for (std::uint64_t i = 0; i < n_prefixes; ++i) {
      values_.push_back({FlatLpmCodec<T>::Decode(ReadU32(value_enc + 4 * i))});
    }
    payload_ = payload;
  }

  // ---- lookup core --------------------------------------------------

  /// Index of the segment containing `key`, or kNone. One bucketed
  /// upper-bound binary search plus one range check.
  [[nodiscard]] std::size_t FindSegment(const FamilyView& fv, const Byte* key) const {
    if (fv.count == 0) return kNone;
    std::size_t lo = 0;
    std::size_t hi = fv.count;
    if (fv.index != nullptr) {
      // Segments whose start shares the key's top 16 bits live in
      // [index[b], index[b+1]); the global upper bound lands inside or
      // at the edge of that window (see the layout comment up top).
      const std::size_t bucket = (static_cast<std::size_t>(key[0]) << 8) | key[1];
      lo = ReadU32(fv.index + 4 * bucket);
      hi = ReadU32(fv.index + 4 * (bucket + 1));
    }
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (CmpAddr(fv.starts + mid * fv.width, key, fv.width) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // lo is now the first segment with start > key; its predecessor is
    // the only candidate (possibly from an earlier bucket).
    if (lo == 0) return kNone;
    const std::size_t cand = lo - 1;
    if (CmpAddr(key, fv.ends + cand * fv.width, fv.width) > 0) return kNone;
    return cand;
  }

  std::shared_ptr<const void> keepalive_;
  bool view_ = false;         // bytes come from an external mapping
  std::string_view payload_;  // the validated blob, owned via keepalive_
  // One decoded value per prefix. The wrapper keeps the container an
  // ordinary vector for every T — vector<bool>'s packed specialization
  // has no element addresses, and lookups hand out `const T*`.
  struct ValueSlot {
    T v;
  };
  std::vector<ValueSlot> values_;
  const Byte* value_len_ = nullptr;  // matched prefix lengths, per slot
  FamilyView v4_{};
  FamilyView v6_{};
};

}  // namespace cellspot::netaddr
