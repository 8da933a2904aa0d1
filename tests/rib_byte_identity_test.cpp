// Byte identity of the routing table's two serialized forms — the RIB CSV
// (SaveRoutingTableCsv) and the world snapshot's "world.rib" section —
// pinned by FNV-1a-64 on a Paper(0.02) world, plus the announcement-order
// contract both depend on: PrefixesOf(asn) lists each prefix at the
// announcement that last moved it to `asn`, so re-announcing the same
// origin keeps its place and A -> B -> A churn moves it to the back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/asdb/serialization.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/stage_cache.hpp"

namespace cellspot::asdb {
namespace {

using netaddr::Prefix;

std::vector<Prefix> P(std::initializer_list<const char*> texts) {
  std::vector<Prefix> out;
  for (const char* t : texts) out.push_back(Prefix::Parse(t));
  return out;
}

TEST(RibByteIdentity, PaperWorldCsvAndSnapshotSectionArePinned) {
  const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Paper(0.02));

  std::ostringstream csv;
  SaveRoutingTableCsv(world.rib(), world.as_db(), csv);
  EXPECT_EQ(csv.str().size(), 3707722u);
  EXPECT_EQ(snapshot::Fnv1a64(csv.str()), 0x9eddb5ccde84a13dULL);

  const std::vector<snapshot::Section> sections = snapshot::EncodeWorld(world);
  const auto rib = std::find_if(sections.begin(), sections.end(),
                                [](const snapshot::Section& s) { return s.name == "world.rib"; });
  ASSERT_NE(rib, sections.end());
  EXPECT_EQ(rib->payload.size(), 1989620u);
  EXPECT_EQ(snapshot::Fnv1a64(rib->payload), 0x85f9ed735c287d02ULL);
}

TEST(RibAnnounceOrder, PrefixesOfFollowsTheAnnouncementThatLastMovedEachPrefix) {
  RoutingTable rib;
  rib.Announce(Prefix::Parse("10.0.0.0/24"), 1);
  rib.Announce(Prefix::Parse("10.0.1.0/24"), 1);
  rib.Announce(Prefix::Parse("10.0.2.0/24"), 1);
  rib.Announce(Prefix::Parse("10.0.0.0/24"), 2);  // 1 -> 2
  rib.Announce(Prefix::Parse("10.0.1.0/24"), 1);  // same origin: keeps its place
  rib.Announce(Prefix::Parse("10.0.3.0/24"), 1);
  rib.Announce(Prefix::Parse("10.0.0.0/24"), 1);  // 2 -> 1: back of the list
  rib.Announce(Prefix::Parse("2001:db8::/48"), 2);
  EXPECT_EQ(rib.PrefixesOf(1),
            P({"10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24", "10.0.0.0/24"}));
  EXPECT_EQ(rib.PrefixesOf(2), P({"2001:db8::/48"}));
  EXPECT_TRUE(rib.PrefixesOf(3).empty());
  EXPECT_EQ(rib.size(), 5u);
  EXPECT_EQ(rib.origin_count(), 2u);
  EXPECT_EQ(rib.ExactOrigin(Prefix::Parse("10.0.0.0/24")), 1u);
  EXPECT_EQ(rib.ExactOrigin(Prefix::Parse("10.0.0.0/23")), std::nullopt);
}

TEST(RibAnnounceOrder, ChurnAcrossLookupsKeepsTheSameOrder) {
  // The same history with reads in between must list identically: a
  // lookup compiles the table, and later announcements build on it.
  RoutingTable rib;
  rib.Announce(Prefix::Parse("10.0.0.0/24"), 1);
  rib.Announce(Prefix::Parse("10.0.1.0/24"), 1);
  EXPECT_EQ(rib.OriginOf(netaddr::IpAddress::Parse("10.0.1.7")), 1u);
  rib.Announce(Prefix::Parse("10.0.0.0/24"), 2);
  EXPECT_EQ(rib.PrefixesOf(2), P({"10.0.0.0/24"}));
  rib.Announce(Prefix::Parse("10.0.2.0/24"), 1);
  EXPECT_EQ(rib.size(), 3u);
  rib.Announce(Prefix::Parse("10.0.1.0/24"), 1);
  rib.Announce(Prefix::Parse("10.0.0.0/24"), 1);
  EXPECT_EQ(rib.PrefixesOf(1), P({"10.0.1.0/24", "10.0.2.0/24", "10.0.0.0/24"}));
  EXPECT_TRUE(rib.PrefixesOf(2).empty());
  EXPECT_EQ(rib.origin_count(), 1u);
  EXPECT_EQ(rib.OriginOf(netaddr::IpAddress::Parse("10.0.0.9")), 1u);

  // Copies carry the order too.
  const RoutingTable copy = rib;
  EXPECT_EQ(copy.PrefixesOf(1), rib.PrefixesOf(1));
  EXPECT_EQ(copy.Flat().Encode(), rib.Flat().Encode());
}

}  // namespace
}  // namespace cellspot::asdb
