// StableMap/StableSet contract tests over their flat open-addressing
// index (util::FlatIndex): insertion order across many growths, lookups
// under forced hash collisions, misses on empty containers, reserve,
// string and ASN keys, order-insensitive equality, copies and moves, and
// the 2^32 - 2 entry limit.
#include "cellspot/util/stable_map.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cellspot/asdb/as_record.hpp"
#include "cellspot/netaddr/prefix.hpp"
#include "cellspot/util/flat_index.hpp"

namespace cellspot::util {
namespace {

using netaddr::IpAddress;
using netaddr::Prefix;

/// A distinct block per i: three of four are v4 /24s scattered over the
/// 24-bit block space (an odd multiplier is a bijection mod 2^24), the
/// fourth a v6 /48 carrying i in its network bits.
Prefix BlockFor(std::uint32_t i) {
  if (i % 4 != 3) {
    const std::uint32_t network = (i * 2654435761U) & 0xFFFFFFU;
    return {IpAddress::V4(network << 8), 24};
  }
  std::array<std::uint8_t, 16> bytes{};
  bytes[0] = 0x20;
  bytes[1] = 0x01;
  bytes[2] = static_cast<std::uint8_t>(i >> 24);
  bytes[3] = static_cast<std::uint8_t>(i >> 16);
  bytes[4] = static_cast<std::uint8_t>(i >> 8);
  bytes[5] = static_cast<std::uint8_t>(i);
  return {IpAddress::V6(bytes), 48};
}

/// Every key in one bucket: each probe walks the whole cluster.
struct ConstantHash {
  std::size_t operator()(int /*key*/) const noexcept { return 42; }
};

TEST(StableMap, InsertionOrderSurvivesManyGrowths) {
  constexpr std::uint32_t kKeys = 1'000'000;
  StableMap<Prefix, std::uint64_t> map;
  std::vector<std::pair<Prefix, std::uint64_t>> reference;
  reference.reserve(kKeys);
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    const Prefix block = BlockFor(i);
    map[block] += i;
    reference.emplace_back(block, i);
    // Revisit an earlier key now and then: it accumulates in place and
    // keeps its first position.
    if (i % 7 == 6) {
      map[reference[i / 2].first] += 1;
      reference[i / 2].second += 1;
    }
  }
  ASSERT_EQ(map.size(), reference.size());
  std::size_t at = 0;
  for (const auto& [block, value] : map) {
    ASSERT_EQ(block, reference[at].first) << "position " << at;
    ASSERT_EQ(value, reference[at].second) << "position " << at;
    ++at;
  }
  for (const auto& [block, value] : reference) {
    const std::uint64_t* found = map.Find(block);
    ASSERT_NE(found, nullptr) << block.ToString();
    ASSERT_EQ(*found, value);
  }
  // Absent keys of both families miss.
  for (std::uint32_t i = kKeys; i < kKeys + 4096; ++i) {
    ASSERT_FALSE(map.Contains(BlockFor(i))) << BlockFor(i).ToString();
  }
  EXPECT_FALSE(map.Contains(Prefix(IpAddress::V4(0x0A000000U), 8)));
}

TEST(StableMap, ConstantHashForcesLongProbeChains) {
  constexpr int kKeys = 3000;
  StableMap<int, int, ConstantHash> map;
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(map.Emplace(k * 3, k));
  }
  EXPECT_FALSE(map.Emplace(0, -1)) << "a repeated key keeps its first value";
  ASSERT_EQ(map.size(), static_cast<std::size_t>(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    const int* found = map.Find(k * 3);
    ASSERT_NE(found, nullptr) << k;
    EXPECT_EQ(*found, k);
    EXPECT_FALSE(map.Contains(k * 3 + 1)) << "a miss walks the full chain";
  }
  int expected = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, expected * 3);
    EXPECT_EQ(value, expected);
    ++expected;
  }

  StableSet<int, ConstantHash> set;
  for (int k = kKeys; k > 0; --k) EXPECT_TRUE(set.Insert(k));
  for (int k = kKeys; k > 0; --k) EXPECT_FALSE(set.Insert(k));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_FALSE(set.Contains(0));
  EXPECT_EQ(*set.begin(), kKeys);
}

TEST(StableMap, EmptyAndDefaultConstructedContainersMiss) {
  const StableMap<Prefix, double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(BlockFor(0)), nullptr);
  EXPECT_FALSE(map.Contains(BlockFor(3)));
  EXPECT_EQ(map.begin(), map.end());

  StableMap<Prefix, double> reserved;
  reserved.reserve(100);
  EXPECT_EQ(reserved.Find(BlockFor(0)), nullptr);
  EXPECT_TRUE(reserved.empty());

  const StableSet<std::string> set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(""));
  EXPECT_FALSE(set.Contains("absent"));

  StableSet<asdb::AsNumber> reserved_set;
  reserved_set.reserve(10);
  EXPECT_FALSE(reserved_set.Contains(0));
  EXPECT_FALSE(reserved_set.Contains(7));
}

TEST(StableMap, ReserveThenGrowPastIt) {
  StableMap<asdb::AsNumber, int> map;
  map.reserve(16);
  for (asdb::AsNumber asn = 1; asn <= 5000; ++asn) map[asn] = static_cast<int>(asn) * 2;
  map.reserve(8);  // smaller than size: no effect
  ASSERT_EQ(map.size(), 5000U);
  asdb::AsNumber expected = 1;
  for (const auto& [asn, value] : map) {
    EXPECT_EQ(asn, expected);
    EXPECT_EQ(value, static_cast<int>(expected) * 2);
    ++expected;
  }
  map.reserve(100'000);  // re-slots every entry
  for (asdb::AsNumber asn = 1; asn <= 5000; ++asn) {
    ASSERT_NE(map.Find(asn), nullptr) << asn;
    EXPECT_EQ(*map.Find(asn), static_cast<int>(asn) * 2);
  }
  EXPECT_FALSE(map.Contains(0));
  EXPECT_FALSE(map.Contains(5001));
}

TEST(StableMap, StringKeys) {
  StableMap<std::string, int> map{{"b", 1}, {"a", 2}, {"b", 3}, {"", 4}};
  ASSERT_EQ(map.size(), 3U);
  EXPECT_EQ(*map.Find("b"), 1) << "the initializer list keeps a repeated key's first value";
  EXPECT_EQ(*map.Find(""), 4);
  const std::string long_key(300, 'x');
  map[long_key] = 5;
  EXPECT_EQ(*map.Find(long_key), 5);
  EXPECT_FALSE(map.Contains(std::string(299, 'x')));
  std::vector<std::string> order;
  for (const auto& [key, value] : map) order.push_back(key);
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a", "", long_key}));

  const std::vector<std::string> words{"x", "y", "x", "z", "y"};
  const StableSet<std::string> set(words.begin(), words.end());
  EXPECT_EQ(std::vector<std::string>(set.begin(), set.end()),
            (std::vector<std::string>{"x", "y", "z"}));
}

TEST(StableMap, SequentialAsNumberKeys) {
  // std::hash of an integer is the identity; the index mixes it before
  // masking, so dense ASN ranges neither cluster nor lose order.
  StableSet<asdb::AsNumber> set;
  for (asdb::AsNumber asn = 64'512; asn < 64'512 + 70'000; ++asn) EXPECT_TRUE(set.Insert(asn));
  for (asdb::AsNumber asn = 64'512; asn < 64'512 + 70'000; asn += 1000) {
    EXPECT_FALSE(set.Insert(asn));
  }
  EXPECT_EQ(set.size(), 70'000U);
  EXPECT_EQ(*set.begin(), 64'512U);
  EXPECT_FALSE(set.Contains(64'511));
  EXPECT_TRUE(set.Contains(64'512 + 69'999));
}

TEST(StableMap, EqualityIgnoresInsertionOrder) {
  StableMap<Prefix, int> forward;
  StableMap<Prefix, int> backward;
  for (std::uint32_t i = 0; i < 500; ++i) forward[BlockFor(i)] = static_cast<int>(i);
  for (std::uint32_t i = 500; i-- > 0;) backward[BlockFor(i)] = static_cast<int>(i);
  EXPECT_EQ(forward, backward);
  EXPECT_NE(forward.begin()->first, backward.begin()->first);
  backward[BlockFor(7)] = -1;
  EXPECT_FALSE(forward == backward) << "same keys, one value differs";
  backward[BlockFor(7)] = 7;
  backward[BlockFor(500)] = 500;
  EXPECT_FALSE(forward == backward) << "one extra key";

  const std::vector<int> a{1, 2, 3};
  const std::vector<int> b{3, 1, 2};
  EXPECT_EQ(StableSet<int>(a.begin(), a.end()), StableSet<int>(b.begin(), b.end()));
  const std::vector<int> c{1, 2, 4};
  EXPECT_FALSE(StableSet<int>(a.begin(), a.end()) == StableSet<int>(c.begin(), c.end()));
}

TEST(StableMap, CopiesAreIndependentAndMovesLeaveEmpty) {
  StableMap<Prefix, int> original;
  for (std::uint32_t i = 0; i < 100; ++i) original[BlockFor(i)] = static_cast<int>(i);
  StableMap<Prefix, int> copy = original;
  copy[BlockFor(1000)] = 1000;
  EXPECT_FALSE(original.Contains(BlockFor(1000)));
  EXPECT_EQ(*copy.Find(BlockFor(99)), 99);

  StableMap<Prefix, int> moved = std::move(original);
  EXPECT_EQ(moved.size(), 100U);
  EXPECT_EQ(*moved.Find(BlockFor(42)), 42);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is the subject
  EXPECT_TRUE(original.empty());
  EXPECT_FALSE(original.Contains(BlockFor(42)));
  original[BlockFor(5)] = 5;  // a moved-from map is reusable
  EXPECT_EQ(original.size(), 1U);
  EXPECT_EQ(*original.Find(BlockFor(5)), 5);

  StableSet<int> set;
  set.Insert(1);
  StableSet<int> assigned;
  assigned.Insert(9);
  assigned = std::move(set);
  EXPECT_TRUE(assigned.Contains(1));
  EXPECT_FALSE(assigned.Contains(9));
}

TEST(StableMap, MoreThanTheIndexLimitThrows) {
  // 2^32 - 1 entries cannot be indexed (position + 1 must fit 32 bits and
  // one value is reserved); the check fires before anything is allocated.
  StableMap<int, int> map;
  EXPECT_THROW(map.reserve(0xFFFF'FFFFULL), std::length_error);
  StableSet<int> set;
  EXPECT_THROW(set.reserve(0xFFFF'FFFFULL), std::length_error);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ((FlatIndex<int>::kMaxSize), 0xFFFF'FFFEULL);
}

TEST(FlatIndex, IndexesACallerOwnedSequence) {
  std::vector<Prefix> blocks;
  for (std::uint32_t i = 0; i < 1000; ++i) blocks.push_back(BlockFor(i));
  blocks.push_back(BlockFor(10));  // a repeat
  const auto key_at = [&](std::size_t pos) -> const Prefix& { return blocks[pos]; };

  FlatIndex<Prefix> index;
  index.Reserve(blocks.size(), key_at);
  std::size_t rejected = 0;
  for (const Prefix& block : blocks) {
    if (!index.FindOrAppend(block, key_at, [] {}).second) ++rejected;
  }
  EXPECT_EQ(rejected, 1U);
  EXPECT_EQ(index.size(), 1000U);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(index.Find(BlockFor(i), key_at), i);
  EXPECT_EQ(index.Find(BlockFor(1000), key_at), FlatIndex<Prefix>::kNpos);

  // An append that throws leaves the key unindexed.
  blocks.back() = BlockFor(1000);
  EXPECT_THROW(index.FindOrAppend(BlockFor(1000), key_at, [] { throw std::runtime_error("full"); }),
               std::runtime_error);
  EXPECT_EQ(index.size(), 1000U);
  EXPECT_EQ(index.Find(BlockFor(1000), key_at), FlatIndex<Prefix>::kNpos);
  const auto [pos, inserted] = index.FindOrAppend(BlockFor(1000), key_at, [] {});
  EXPECT_TRUE(inserted);
  EXPECT_EQ(pos, 1000U);
  EXPECT_EQ(index.Find(BlockFor(1000), key_at), 1000U);
}

}  // namespace
}  // namespace cellspot::util
