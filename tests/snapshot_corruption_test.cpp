// Corruption tolerance of the stage cache: truncated files, bit-flipped
// headers and payloads, stale format versions, and StreamCorruptor
// damage must each (a) fail the load with the right
// snapshot.miss.<reason> counter, (b) quarantine the file in place as
// *.corrupt, and (c) leave the pipeline able to regenerate — never a
// crash, never silently wrong data.
#include "cellspot/snapshot/stage_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "cellspot/faultsim/stream_corruptor.hpp"
#include "cellspot/netaddr/ip_address.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/snapshot/binary_io.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"

namespace cellspot::snapshot {
namespace {

namespace fs = std::filesystem;

std::uint64_t CounterValue(std::string_view name) {
  for (const auto& c : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// `sections` with the world.subnets payload re-encoded so that subnet 1
// carries subnet 0's block; every other byte is kept. The section CRCs
// are recomputed by EncodeSnapshot, so only the decoder's own validation
// can catch the duplicate.
std::vector<Section> WithSecondSubnetBlockDuplicated(std::vector<Section> sections) {
  for (Section& section : sections) {
    if (section.name != "world.subnets") continue;
    ByteReader r(section.payload);
    ByteWriter w;
    const std::uint64_t count = r.Varint();
    w.Varint(count);
    std::string first_block;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint8_t family = r.U8();
      const std::uint8_t length = r.U8();
      const std::size_t width =
          family == static_cast<std::uint8_t>(netaddr::Family::kIpv4) ? 4 : 16;
      std::string block;
      block.push_back(static_cast<char>(family));
      block.push_back(static_cast<char>(length));
      block.append(r.Bytes(width));
      if (i == 0) first_block = block;
      w.Bytes(i == 1 ? first_block : block);
      w.Varint(r.Varint());  // asn
      w.U16(r.U16());        // country
      w.U8(r.U8());          // flags
      for (int f = 0; f < 4; ++f) w.U64(r.U64());
    }
    r.ExpectEnd();
    section.payload = std::move(w).Take();
    return sections;
  }
  ADD_FAILURE() << "no world.subnets section";
  return sections;
}

class CorruptionMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().ResetForTest();
    dir_ = fs::path(::testing::TempDir()) /
           ("snapcorrupt_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    config_ = simnet::WorldConfig::Tiny();
    world_ = simnet::World::Generate(config_);
    cache_.emplace(dir_);
    ASSERT_TRUE(cache_->enabled());
    cache_->StoreWorld(world_);
    path_ = cache_->WorldPath(config_);
    ASSERT_TRUE(fs::exists(path_));
    clean_bytes_ = ReadFileBytes(path_);
  }

  /// Asserts the mutated file misses with `reason`, is quarantined, and
  /// that regenerating + re-storing recovers an identical snapshot.
  void ExpectRejectedThenRecovers(std::string_view reason) {
    const std::uint64_t hits_before = CounterValue("snapshot.hit");
    auto loaded = cache_->TryLoadWorld(config_);
    EXPECT_FALSE(loaded.has_value());
    EXPECT_EQ(CounterValue("snapshot.hit"), hits_before);
    EXPECT_EQ(CounterValue("snapshot.miss"), 1u);
    EXPECT_EQ(CounterValue("snapshot.miss." + std::string(reason)), 1u)
        << "expected reason " << reason;
    EXPECT_FALSE(fs::exists(path_)) << "corrupt file must not stay in place";
    EXPECT_TRUE(fs::exists(path_.string() + ".corrupt"))
        << "corrupt file must be quarantined for diagnosis";

    // Fallback: regenerate, store, and the warm path works again with
    // the exact same bytes as the original save.
    cache_->StoreWorld(world_);
    EXPECT_EQ(ReadFileBytes(path_), clean_bytes_);
    auto reloaded = cache_->TryLoadWorld(config_);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(EncodeSnapshot(EncodeWorld(*reloaded)),
              EncodeSnapshot(EncodeWorld(world_)));
  }

  fs::path dir_;
  fs::path path_;
  simnet::WorldConfig config_;
  simnet::World world_;
  std::optional<StageCache> cache_;
  std::string clean_bytes_;
};

TEST_F(CorruptionMatrix, TruncatedFileFallsBack) {
  WriteFileBytes(path_, clean_bytes_.substr(0, clean_bytes_.size() / 2));
  ExpectRejectedThenRecovers("truncated");
}

TEST_F(CorruptionMatrix, HeaderBitFlipFallsBack) {
  std::string bytes = clean_bytes_;
  bytes[0] ^= 0x01;  // first magic byte
  WriteFileBytes(path_, bytes);
  ExpectRejectedThenRecovers("bad-magic");
}

TEST_F(CorruptionMatrix, PayloadBitFlipFailsCrcAndFallsBack) {
  std::string bytes = clean_bytes_;
  bytes.back() ^= 0x40;  // last byte of the final section's payload
  WriteFileBytes(path_, bytes);
  ExpectRejectedThenRecovers("checksum");
}

TEST_F(CorruptionMatrix, StaleFormatVersionFallsBack) {
  std::string bytes = clean_bytes_;
  bytes[4] = static_cast<char>(kSnapshotFormatVersion + 1);  // u32 LE version field
  WriteFileBytes(path_, bytes);
  ExpectRejectedThenRecovers("version-mismatch");
}

TEST_F(CorruptionMatrix, DuplicatedSubnetBlockIsMalformed) {
  // Every section is well formed and every CRC matches; only the block
  // index the decoder builds can see that two subnets share a block.
  const std::vector<Section> sections = WithSecondSubnetBlockDuplicated(EncodeWorld(world_));
  ASSERT_GE(world_.subnets().size(), 2U);
  try {
    (void)DecodeWorld(sections);
    ADD_FAILURE() << "a duplicated subnet block decoded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.reason(), SnapshotErrorReason::kMalformed);
    EXPECT_NE(std::string(e.what()).find("duplicate subnet blocks"), std::string::npos)
        << e.what();
  }
  WriteFileBytes(path_, EncodeSnapshot(sections));
  ExpectRejectedThenRecovers("malformed");
}

TEST_F(CorruptionMatrix, StreamCorruptorDamageNeverCrashesOrLies) {
  // Line-oriented corruption over the binary image: whatever it breaks,
  // the load must reject (the odds of surviving per-section CRC32 are
  // negligible) and quarantine.
  std::istringstream in(clean_bytes_);
  std::ostringstream out;
  faultsim::StreamCorruptor corruptor(faultsim::FaultMix::Destructive(0.8), 1234);
  const auto stats = corruptor.Corrupt(in, out);
  ASSERT_GT(stats.total_faults(), 0u);
  ASSERT_NE(out.str(), clean_bytes_);
  WriteFileBytes(path_, out.str());

  auto loaded = cache_->TryLoadWorld(config_);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(CounterValue("snapshot.miss"), 1u);
  EXPECT_TRUE(fs::exists(path_.string() + ".corrupt"));

  cache_->StoreWorld(world_);
  auto reloaded = cache_->TryLoadWorld(config_);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(EncodeSnapshot(EncodeWorld(*reloaded)), EncodeSnapshot(EncodeWorld(world_)));
}

TEST_F(CorruptionMatrix, AbsentFileIsAQuietMiss) {
  fs::remove(path_);
  auto loaded = cache_->TryLoadWorld(config_);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_EQ(CounterValue("snapshot.miss"), 1u);
  EXPECT_EQ(CounterValue("snapshot.miss.absent"), 1u);
  EXPECT_FALSE(fs::exists(path_.string() + ".corrupt"));
}

TEST(StageCacheSetup, UnwritableDirectoryDisablesCacheInsteadOfThrowing) {
  StageCache cache("/dev/null/not-a-directory");
  EXPECT_FALSE(cache.enabled());
  const auto config = simnet::WorldConfig::Tiny();
  EXPECT_FALSE(cache.TryLoadWorld(config).has_value());
}

}  // namespace
}  // namespace cellspot::snapshot
