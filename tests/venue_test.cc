#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "itgraph/csr_adjacency.h"
#include "venue/venue.h"

namespace itspq {
namespace {

// Two rooms side by side sharing a wall at x = 10, plus a hall above.
//
//   +--------+--------+
//   |  hall (y 10..20) |
//   +---d1---+---d2---+
//   | room a | room b |
//   +--------+--------+
Venue MakeTinyVenue() {
  Venue::Builder builder;
  const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
  const PartitionId b = builder.AddPartition(Rect{10, 0, 20, 10}, 0);
  const PartitionId hall = builder.AddPartition(Rect{0, 10, 20, 20}, 0);
  builder.AddDoor(Point2d{5, 10}, 0, a, hall);
  builder.AddDoor(Point2d{15, 10}, 0, b, hall);
  auto venue = std::move(builder).Build();
  EXPECT_TRUE(venue.ok());
  return *std::move(venue);
}

TEST(VenueBuilderTest, BuildsAndIndexes) {
  const Venue venue = MakeTinyVenue();
  EXPECT_EQ(venue.NumPartitions(), 3u);
  EXPECT_EQ(venue.NumDoors(), 2u);
  EXPECT_EQ(venue.DoorsOf(0).size(), 1u);
  EXPECT_EQ(venue.DoorsOf(2).size(), 2u);  // the hall touches both doors
  EXPECT_GT(venue.MemoryUsage(), 0u);
}

TEST(VenueBuilderTest, RejectsBadInput) {
  {
    Venue::Builder builder;
    builder.AddPartition(Rect{0, 0, 10, 0}, 0);  // degenerate
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    Venue::Builder builder;
    const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    builder.AddDoor(Point2d{5, 5}, 0, a, a);  // self-loop
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
  {
    Venue::Builder builder;
    const PartitionId a = builder.AddPartition(Rect{0, 0, 10, 10}, 0);
    builder.AddDoor(Point2d{5, 5}, 0, a, 7);  // unknown partition
    EXPECT_FALSE(std::move(builder).Build().ok());
  }
}

TEST(VenueTest, LocateAllInterior) {
  const Venue venue = MakeTinyVenue();
  const auto in_a = venue.LocateAll(IndoorPoint{{3, 3}, 0});
  ASSERT_EQ(in_a.size(), 1u);
  EXPECT_EQ(in_a[0], 0);
  // Wrong floor: nowhere.
  EXPECT_TRUE(venue.LocateAll(IndoorPoint{{3, 3}, 1}).empty());
  // Outside the footprint entirely.
  EXPECT_TRUE(venue.LocateAll(IndoorPoint{{50, 50}, 0}).empty());
}

TEST(VenueTest, LocateAllOnSharedBoundaryReturnsBoth) {
  const Venue venue = MakeTinyVenue();
  auto shared = venue.LocateAll(IndoorPoint{{10, 5}, 0});  // wall a|b
  std::sort(shared.begin(), shared.end());
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_EQ(shared[0], 0);
  EXPECT_EQ(shared[1], 1);
}

// Door positions + door lists are the only source of door-to-door
// distances: the compiled adjacency links the hall's two doors both
// ways at their straight-line distance, and a one-door room adds no
// edge.
TEST(VenueTest, DoorDistancesAreEuclideanAndSymmetric) {
  const Venue venue = MakeTinyVenue();
  const CsrAdjacency adj = CsrAdjacency::Compile(venue);
  // Door d owns segments 2d (partitions[0], its room) and 2d+1 (hall).
  for (DoorId d = 0; d < 2; ++d) {
    const size_t room = 2 * static_cast<size_t>(d);
    EXPECT_EQ(adj.seg_offsets[room], adj.seg_offsets[room + 1]);
    const size_t hall = room + 1;
    ASSERT_EQ(adj.seg_offsets[hall + 1] - adj.seg_offsets[hall], 1u);
    EXPECT_EQ(adj.seg_partition[hall], 2);
    EXPECT_EQ(adj.neighbor_ids[adj.seg_offsets[hall]],
              static_cast<uint32_t>(1 - d));
    EXPECT_EQ(adj.neighbor_weights[adj.seg_offsets[hall]], 10.0);
  }
  EXPECT_EQ(adj.min_edge_weight, 10.0);
  EXPECT_EQ(adj.max_edge_weight, 10.0);
}

TEST(VenueBuilderTest, SetDoorAtiValidatesDoorId) {
  Venue::Builder builder = Venue::Builder::FromVenue(MakeTinyVenue());
  EXPECT_TRUE(builder.SetDoorAti(0, {MakeInterval(8, 0, 20, 0)}).ok());
  EXPECT_FALSE(builder.SetDoorAti(99, {}).ok());
  auto venue = std::move(builder).Build();
  ASSERT_TRUE(venue.ok());
  EXPECT_EQ(venue->DoorAti(0).size(), 1u);
  EXPECT_TRUE(venue->DoorAti(1).empty());
}

// An edit-only derivation shares the source's geometry block; adding a
// partition or door detaches it, keeps the source ATI rows, and starts
// the new door always open until SetDoorAti.
TEST(VenueBuilderTest, FromVenueSharesGeometryUntilAGeometryEdit) {
  Venue::Builder edit = Venue::Builder::FromVenue(MakeTinyVenue());
  ASSERT_TRUE(edit.SetDoorAti(1, {MakeInterval(8, 0, 20, 0)}).ok());
  auto built = std::move(edit).Build();
  ASSERT_TRUE(built.ok());
  const Venue source = *std::move(built);

  Venue::Builder same = Venue::Builder::FromVenue(source);
  ASSERT_TRUE(same.SetDoorAti(0, {MakeInterval(9, 0, 17, 0)}).ok());
  built = std::move(same).Build();
  ASSERT_TRUE(built.ok());
  const Venue edited = *std::move(built);
  EXPECT_EQ(edited.geometry_handle().get(), source.geometry_handle().get());
  EXPECT_EQ(edited.DoorAti(0).size(), 1u);
  EXPECT_EQ(edited.DoorAti(1).size(), 1u);
  EXPECT_TRUE(source.DoorAti(0).empty());

  Venue::Builder grow = Venue::Builder::FromVenue(source);
  const PartitionId annex = grow.AddPartition(Rect{20, 0, 30, 10}, 0);
  const DoorId door = grow.AddDoor(Point2d{20, 5}, 0, 1, annex);
  built = std::move(grow).Build();
  ASSERT_TRUE(built.ok());
  const Venue grown = *std::move(built);
  EXPECT_NE(grown.geometry_handle().get(), source.geometry_handle().get());
  ASSERT_EQ(grown.NumDoors(), 3u);
  EXPECT_TRUE(grown.DoorAti(0).empty());
  ASSERT_EQ(grown.DoorAti(1).size(), 1u);
  EXPECT_EQ(grown.DoorAti(1)[0].start, MakeInterval(8, 0, 20, 0).start);
  EXPECT_TRUE(grown.DoorAti(door).empty());
  EXPECT_EQ(grown.DoorsOf(annex), std::vector<DoorId>{door});
}

TEST(VenueBuilderTest, FromVenueRoundTrips) {
  const Venue original = MakeTinyVenue();
  auto copy = std::move(Venue::Builder::FromVenue(original)).Build();
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->NumPartitions(), original.NumPartitions());
  EXPECT_EQ(copy->NumDoors(), original.NumDoors());
  for (DoorId d = 0; d < 2; ++d) {
    EXPECT_EQ(copy->door(d).pos.x, original.door(d).pos.x);
    EXPECT_EQ(copy->door(d).pos.y, original.door(d).pos.y);
  }
  for (PartitionId p = 0; p < 3; ++p) {
    EXPECT_EQ(copy->DoorsOf(p), original.DoorsOf(p));
  }
}

}  // namespace
}  // namespace itspq
