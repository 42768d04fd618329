// The packed-artifact subsystem (artifact/): header + section-table
// validation on hostile files (truncation, bit flips, wrong magic,
// older or newer format versions — each a precise Status, never UB),
// structural validation of the geometry the adjacency compile reads
// (behind faithfully recomputed checksums), and the round-trip
// property: a venue world rebuilt from its `.itspq` bytes answers a
// randomized workload bit-identically to the in-process build, for
// every registered strategy, midnight-wrap ATIs included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "artifact/format.h"
#include "common/time.h"
#include "gen/workload_gen.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/itgraph.h"
#include "query/registry.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "update/versioned_graph.h"
#include "venue/venue.h"

namespace itspq {
namespace {

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

// Each test writes into its own directory under the test runner's cwd
// so parallel ctest shards never collide.
std::string TestDir(const char* name) {
  const std::string dir = std::string("artifact_test_") + name;
  std::remove((dir + "/a.itspq").c_str());
  (void)std::system(("mkdir -p " + dir).c_str());
  return dir;
}

Venue MakeSmallVenue(uint64_t seed = 7) {
  FleetConfig config;
  config.num_venues = 1;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 2;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  return std::move(fleet[0]);
}

std::vector<uint8_t> EncodeSmallVenue() {
  return ValueOrDie(EncodeVenueArtifact(MakeSmallVenue()),
                    "EncodeVenueArtifact");
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A corrupt or stale artifact must be rejected at registration with the
// same status the raw loader reports, and the catalog must stay
// untouched — no shard slot, no id burned.
void ExpectRegistrationRejected(const std::string& path, StatusCode code,
                                const std::string& message_fragment) {
  VenueCatalog catalog;
  auto id = catalog.AddArtifactShard(path, "itg-s");
  ASSERT_FALSE(id.ok()) << path;
  EXPECT_EQ(id.status().code(), code) << id.status().ToString();
  EXPECT_NE(id.status().message().find(message_fragment), std::string::npos)
      << id.status().ToString();
  EXPECT_EQ(catalog.NumVenues(), 0u);
  EXPECT_FALSE(catalog.Contains(0));
}

TEST(ArtifactNegativeTest, TruncatedFileRejected) {
  const std::string dir = TestDir("truncated");
  const std::vector<uint8_t> image = EncodeSmallVenue();

  // Cut mid-payload: the header still declares the full size.
  std::vector<uint8_t> cut(image.begin(),
                           image.begin() + static_cast<long>(image.size() / 2));
  WriteBytes(dir + "/a.itspq", cut);
  auto loaded = LoadVenueArtifact(dir + "/a.itspq");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << loaded.status().ToString();
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "truncated");

  // Cut inside the fixed header: too small to even carry the magic.
  std::vector<uint8_t> stub(image.begin(), image.begin() + 16);
  WriteBytes(dir + "/a.itspq", stub);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "truncated");
}

TEST(ArtifactNegativeTest, FlippedPayloadByteRejectedByChecksum) {
  const std::string dir = TestDir("bitflip");
  std::vector<uint8_t> image = EncodeSmallVenue();

  // Flip one bit in the last payload byte — far from the header, so
  // only the per-section checksum can catch it.
  image[image.size() - 1] ^= 0x01;
  WriteBytes(dir + "/a.itspq", image);

  auto loaded = LoadVenueArtifact(dir + "/a.itspq");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();

  // Payload corruption is not visible to the header-only registration
  // check, so the shard registers — the damage must surface as a load
  // error on first touch, with the shard staying cold, not as UB.
  VenueCatalog catalog;
  const VenueId id =
      ValueOrDie(catalog.AddArtifactShard(dir + "/a.itspq", "itg-s"),
                 "AddArtifactShard");
  EXPECT_FALSE(catalog.IsResident(id));
  auto world = catalog.EnsureResident(id);
  ASSERT_FALSE(world.ok());
  EXPECT_EQ(world.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(catalog.IsResident(id));
  EXPECT_EQ(catalog.Stats().total_loads, 0u);
}

TEST(ArtifactNegativeTest, FlippedTableByteRejectedByTableChecksum) {
  const std::string dir = TestDir("tableflip");
  std::vector<uint8_t> image = EncodeSmallVenue();
  // First byte past the fixed header sits in the section table.
  image[sizeof(ArtifactHeader)] ^= 0x80;
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "section table checksum mismatch");
}

TEST(ArtifactNegativeTest, WrongMagicRejected) {
  const std::string dir = TestDir("magic");
  std::vector<uint8_t> image = EncodeSmallVenue();
  image[0] = 'X';
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kInvalidArgument,
                             "bad magic");
}

TEST(ArtifactNegativeTest, FutureFormatVersionRejected) {
  const std::string dir = TestDir("version");
  std::vector<uint8_t> image = EncodeSmallVenue();
  // The version field (offset 8, after the magic) is deliberately not
  // covered by any checksum, so a version-only patch is exactly what a
  // newer builder would produce.
  const uint32_t future = kArtifactFormatVersion + 1;
  std::memcpy(image.data() + 8, &future, sizeof(future));
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(dir + "/a.itspq", StatusCode::kFailedPrecondition,
                             "newer than this build supports");
}

TEST(ArtifactNegativeTest, OldFormatVersionRejected) {
  const std::string dir = TestDir("oldversion");
  std::vector<uint8_t> image = EncodeSmallVenue();
  // A v2 file still carries the DistanceMatrices and AdjacencyCsr
  // sections: the layout genuinely differs, so the reader must refuse
  // it outright instead of guessing at sections.
  const uint32_t old_version = kArtifactFormatVersion - 1;
  std::memcpy(image.data() + 8, &old_version, sizeof(old_version));
  WriteBytes(dir + "/a.itspq", image);
  ExpectRegistrationRejected(
      dir + "/a.itspq", StatusCode::kFailedPrecondition,
      "artifact format version " + std::to_string(old_version) +
          " is older than this build supports (" +
          std::to_string(kArtifactFormatVersion) + "); rebuild the artifact");
}

// Swaps one section's payload for `payload` and re-lays the image out
// with faithfully recomputed offsets and checksums — a hostile writer,
// not random bit rot — so only the structural validator stands between
// the bytes and the adjacency compile.
std::vector<uint8_t> ReplaceSection(const std::vector<uint8_t>& image,
                                    ArtifactSection kind,
                                    const std::vector<uint8_t>& payload) {
  ArtifactHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<ArtifactSectionEntry> table(header.section_count);
  std::memcpy(table.data(), image.data() + sizeof(header),
              table.size() * sizeof(table[0]));
  std::vector<std::vector<uint8_t>> payloads;
  for (const ArtifactSectionEntry& e : table) {
    if (e.kind == static_cast<uint32_t>(kind)) {
      payloads.push_back(payload);
    } else {
      const auto begin = image.begin() + static_cast<long>(e.offset);
      payloads.emplace_back(begin, begin + static_cast<long>(e.bytes));
    }
  }
  uint64_t offset = sizeof(header) + table.size() * sizeof(table[0]);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i].offset = offset;
    table[i].bytes = payloads[i].size();
    table[i].checksum =
        ArtifactChecksum(payloads[i].data(), payloads[i].size());
    offset += payloads[i].size();
  }
  header.file_bytes = offset;
  header.table_checksum =
      ArtifactChecksum(table.data(), table.size() * sizeof(table[0]));
  std::vector<uint8_t> out(sizeof(header) + table.size() * sizeof(table[0]));
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), table.data(),
              table.size() * sizeof(table[0]));
  for (const auto& bytes : payloads) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

std::vector<uint8_t> SectionPayload(const std::vector<uint8_t>& image,
                                    ArtifactSection kind) {
  ArtifactHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    ArtifactSectionEntry e;
    std::memcpy(&e, image.data() + sizeof(header) + i * sizeof(e), sizeof(e));
    if (e.kind == static_cast<uint32_t>(kind)) {
      const auto begin = image.begin() + static_cast<long>(e.offset);
      return std::vector<uint8_t>(begin, begin + static_cast<long>(e.bytes));
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<uint32_t>(kind);
  return {};
}

// The DoorsOf section as the encoder lays it out: P+1 u64 offsets, then
// the i32 door pool.
struct DoorLists {
  std::vector<std::vector<DoorId>> lists;

  explicit DoorLists(const std::vector<uint8_t>& payload, size_t partitions) {
    std::vector<uint64_t> offsets(partitions + 1);
    std::memcpy(offsets.data(), payload.data(),
                offsets.size() * sizeof(uint64_t));
    const uint8_t* pool = payload.data() + offsets.size() * sizeof(uint64_t);
    lists.resize(partitions);
    for (size_t p = 0; p < partitions; ++p) {
      lists[p].resize(static_cast<size_t>(offsets[p + 1] - offsets[p]));
      std::memcpy(lists[p].data(), pool + offsets[p] * sizeof(DoorId),
                  lists[p].size() * sizeof(DoorId));
    }
  }

  std::vector<uint8_t> Encode() const {
    std::vector<uint64_t> offsets = {0};
    for (const auto& list : lists) {
      offsets.push_back(offsets.back() + list.size());
    }
    std::vector<uint8_t> out(offsets.size() * sizeof(uint64_t));
    std::memcpy(out.data(), offsets.data(), out.size());
    for (const auto& list : lists) {
      const auto* bytes = reinterpret_cast<const uint8_t*>(list.data());
      out.insert(out.end(), bytes, bytes + list.size() * sizeof(DoorId));
    }
    return out;
  }
};

void ExpectLoadRejected(const std::string& dir,
                        const std::vector<uint8_t>& image,
                        const std::string& section,
                        const std::string& message_fragment) {
  WriteBytes(dir + "/a.itspq", image);
  auto loaded = LoadVenueArtifact(dir + "/a.itspq");
  ASSERT_FALSE(loaded.ok()) << message_fragment;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("artifact section " + section + ":"),
            std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(message_fragment), std::string::npos)
      << loaded.status().ToString();
}

// Door positions feed the adjacency compile directly, so a NaN or
// infinite coordinate must be rejected before it becomes an edge weight.
TEST(ArtifactNegativeTest, NonFiniteDoorPositionRejected) {
  const std::string dir = TestDir("doorpos");
  const std::vector<uint8_t> image = EncodeSmallVenue();
  const std::vector<uint8_t> doors =
      SectionPayload(image, ArtifactSection::kDoors);
  // Door record: f64 x | f64 y | i32 floor | i32 partitions[2] | u32 pad.
  constexpr size_t kDoorRecord = 32;
  ASSERT_GT(doors.size(), 3 * kDoorRecord);
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : bad_values) {
    for (size_t coordinate = 0; coordinate < 2; ++coordinate) {
      std::vector<uint8_t> patched = doors;
      std::memcpy(patched.data() + 2 * kDoorRecord + coordinate * 8, &bad,
                  sizeof(bad));
      ExpectLoadRejected(
          dir, ReplaceSection(image, ArtifactSection::kDoors, patched),
          "Doors", "door position is not finite");
    }
  }
}

// Finite but far-apart positions still overflow the straight-line
// distance; the world must not be assembled with an infinite weight.
TEST(ArtifactNegativeTest, OverflowingDoorDistanceRejectedAtAssembly) {
  const std::string dir = TestDir("doorfar");
  const std::vector<uint8_t> image = EncodeSmallVenue();
  std::vector<uint8_t> doors = SectionPayload(image, ArtifactSection::kDoors);
  const double far = std::numeric_limits<double>::max();
  std::memcpy(doors.data(), &far, sizeof(far));  // door 0's x
  WriteBytes(dir + "/a.itspq",
             ReplaceSection(image, ArtifactSection::kDoors, doors));
  auto published = BuildWorldFromArtifact(
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact"),
      "itg-s");
  ASSERT_FALSE(published.ok());
  EXPECT_EQ(published.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(published.status().message().find(
                "door positions overflow an edge weight"),
            std::string::npos)
      << published.status().ToString();
}

// Every door must sit in the door list of both of its partitions; a
// list that drops one would silently delete edges from the compiled
// adjacency.
TEST(ArtifactNegativeTest, DoorMissingFromPartitionListRejected) {
  const std::string dir = TestDir("doorsof_missing");
  const Venue venue = MakeSmallVenue();
  const std::vector<uint8_t> image =
      ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  DoorLists doors_of(SectionPayload(image, ArtifactSection::kDoorsOf),
                     venue.NumPartitions());
  const DoorId door = 5;
  const PartitionId side = venue.door(door).partitions[1];
  auto& list = doors_of.lists[static_cast<size_t>(side)];
  const auto at = std::find(list.begin(), list.end(), door);
  ASSERT_NE(at, list.end());
  list.erase(at);
  ExpectLoadRejected(
      dir, ReplaceSection(image, ArtifactSection::kDoorsOf, doors_of.Encode()),
      "DoorsOf",
      "door 5 is missing from partition " + std::to_string(side) +
          "'s door list");
}

// The compile walks each list once per door: a duplicate entry would
// emit a duplicate edge, and the encoder only ever writes ascending
// lists, so both a repeat and an out-of-order pair are rejected.
TEST(ArtifactNegativeTest, DuplicateOrUnsortedDoorListRejected) {
  const std::string dir = TestDir("doorsof_order");
  const Venue venue = MakeSmallVenue();
  const std::vector<uint8_t> image =
      ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  const DoorLists original(SectionPayload(image, ArtifactSection::kDoorsOf),
                           venue.NumPartitions());
  size_t busy = 0;  // a partition with at least two doors
  while (original.lists[busy].size() < 2) ++busy;
  const std::string what = "partition " + std::to_string(busy) +
                           " door list is not strictly ascending";

  DoorLists duplicated = original;
  duplicated.lists[busy].insert(duplicated.lists[busy].begin(),
                                duplicated.lists[busy][0]);
  ExpectLoadRejected(dir,
                     ReplaceSection(image, ArtifactSection::kDoorsOf,
                                    duplicated.Encode()),
                     "DoorsOf", what);

  DoorLists unsorted = original;
  std::swap(unsorted.lists[busy][0], unsorted.lists[busy][1]);
  ExpectLoadRejected(
      dir, ReplaceSection(image, ArtifactSection::kDoorsOf, unsorted.Encode()),
      "DoorsOf", what);
}

// The compile expands each door list quadratically, so a small file
// could otherwise demand an enormous adjacency: 6000 doors shared by
// two partitions (a 190 KB Doors section) imply 72M directed edges,
// past the cap, and must be refused before anything is allocated.
TEST(ArtifactNegativeTest, OversizedAdjacencyRejected) {
  const std::string dir = TestDir("adjcap");
  const Venue venue = MakeSmallVenue();
  std::vector<uint8_t> image =
      ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  const uint64_t partitions = venue.NumPartitions();
  const uint64_t doors = 6000;

  // Meta: u64 partitions | u64 doors | u64 flags | u64 label length.
  std::vector<uint8_t> meta(4 * sizeof(uint64_t), 0);
  std::memcpy(meta.data(), &partitions, sizeof(partitions));
  std::memcpy(meta.data() + 8, &doors, sizeof(doors));
  image = ReplaceSection(image, ArtifactSection::kMeta, meta);

  // Every door connects partitions 0 and 1 at a distinct position.
  std::vector<uint8_t> door_records;
  for (uint64_t d = 0; d < doors; ++d) {
    uint8_t record[32] = {};
    const double x = static_cast<double>(d);
    const int32_t sides[2] = {0, 1};
    std::memcpy(record, &x, sizeof(x));
    std::memcpy(record + 20, sides, sizeof(sides));
    door_records.insert(door_records.end(), record, record + sizeof(record));
  }
  image = ReplaceSection(image, ArtifactSection::kDoors, door_records);

  // DoorAtis: u64 offset count | n+1 zero offsets (always open).
  std::vector<uint8_t> atis((doors + 2) * sizeof(uint64_t), 0);
  const uint64_t offset_count = doors + 1;
  std::memcpy(atis.data(), &offset_count, sizeof(offset_count));
  image = ReplaceSection(image, ArtifactSection::kDoorAtis, atis);

  DoorLists doors_of(SectionPayload(image, ArtifactSection::kDoorsOf),
                     venue.NumPartitions());
  for (auto& list : doors_of.lists) list.clear();
  for (uint64_t d = 0; d < doors; ++d) {
    doors_of.lists[0].push_back(static_cast<DoorId>(d));
    doors_of.lists[1].push_back(static_cast<DoorId>(d));
  }
  ExpectLoadRejected(
      dir, ReplaceSection(image, ArtifactSection::kDoorsOf, doors_of.Encode()),
      "DoorsOf", "door lists imply more than 67108864 adjacency edges");
}

// The loaded world's adjacency is compiled from the decoded geometry,
// so it matches the in-process compile of the source venue bit for bit.
TEST(ArtifactTest, LoadedAdjacencyIsCompiledFromGeometry) {
  const std::string dir = TestDir("adjcompile");
  const Venue venue = MakeSmallVenue();
  ASSERT_TRUE(WriteVenueArtifact(dir + "/a.itspq", venue).ok());
  auto published = BuildWorldFromArtifact(
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact"),
      "itg-s");
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  const CsrAdjacency& loaded = (*published)->graph().adjacency();
  const CsrAdjacency fresh = CsrAdjacency::Compile(venue);
  EXPECT_EQ(loaded.num_doors, venue.NumDoors());
  EXPECT_EQ(loaded.seg_offsets, fresh.seg_offsets);
  EXPECT_EQ(loaded.seg_partition, fresh.seg_partition);
  EXPECT_EQ(loaded.neighbor_ids, fresh.neighbor_ids);
  ASSERT_EQ(loaded.neighbor_weights.size(), fresh.neighbor_weights.size());
  EXPECT_EQ(std::memcmp(loaded.neighbor_weights.data(),
                        fresh.neighbor_weights.data(),
                        fresh.neighbor_weights.size() * sizeof(double)),
            0);
  EXPECT_EQ(loaded.min_edge_weight, fresh.min_edge_weight);
  EXPECT_EQ(loaded.max_edge_weight, fresh.max_edge_weight);
}

TEST(ArtifactNegativeTest, UnknownStrategyRejectedAtRegistration) {
  const std::string dir = TestDir("strategy");
  WriteBytes(dir + "/a.itspq", EncodeSmallVenue());
  VenueCatalog catalog;
  auto id = catalog.AddArtifactShard(dir + "/a.itspq", "no-such-strategy");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.NumVenues(), 0u);
}

TEST(ArtifactNegativeTest, MissingFileRejected) {
  VenueCatalog catalog;
  auto id = catalog.AddArtifactShard("no/such/dir/a.itspq", "itg-s");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.NumVenues(), 0u);
}

// Writers racing on one path (parallel test processes sharing a fixture
// directory, or threads) each stage in their own file, so every write
// succeeds and the survivor is one whole image.
TEST(ArtifactTest, ConcurrentWritesOfOnePathAllSucceed) {
  const std::string dir = TestDir("concurrent");
  const std::string path = dir + "/a.itspq";
  const Venue venue = MakeSmallVenue();
  const std::vector<uint8_t> expect =
      ValueOrDie(EncodeVenueArtifact(venue), "EncodeVenueArtifact");
  for (int round = 0; round < 8; ++round) {
    std::vector<Status> results(4, Status::Ok());
    std::vector<std::thread> writers;
    for (size_t t = 0; t < results.size(); ++t) {
      writers.emplace_back([&, t] {
        results[t] = WriteVenueArtifact(path, venue);
      });
    }
    for (std::thread& w : writers) w.join();
    for (const Status& status : results) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    std::ifstream in(path, std::ios::binary);
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, expect) << "round " << round;
    EXPECT_TRUE(LoadVenueArtifact(path).ok()) << "round " << round;
  }
}

// The metadata round-trips: label, D2D flag, and the manifest loader's
// relative-path resolution.
TEST(ArtifactTest, LabelAndD2dRoundTrip) {
  const std::string dir = TestDir("meta");
  Venue venue = MakeSmallVenue();
  ArtifactWriteOptions options;
  options.include_d2d = true;
  options.label = "flagship";
  ASSERT_TRUE(WriteVenueArtifact(dir + "/a.itspq", venue, options).ok());

  LoadedVenueWorld world =
      ValueOrDie(LoadVenueArtifact(dir + "/a.itspq"), "LoadVenueArtifact");
  EXPECT_EQ(world.label, "flagship");
  const size_t n = world.venue->NumDoors();
  ASSERT_EQ(world.d2d_matrix.size(), n * n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(world.d2d_matrix[i * n + i], 0.0);

  {
    std::ofstream manifest(dir + "/fleet.manifest");
    manifest << "# comment\n\na.itspq\n";
  }
  auto listed = ReadFleetManifest(dir + "/fleet.manifest");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0], dir + "/a.itspq");
}

// The tentpole property: for EVERY registered strategy, a shard loaded
// from its artifact answers a 200-query randomized workload
// bit-identically to the same venue built in-process — including a
// venue whose ATIs wrap past midnight (the normalisation-sensitive
// case: wrapped intervals are split at 0/86400 during compilation, and
// the artifact carries both the raw and the compiled form).
TEST(ArtifactRoundTripTest, LoadedWorldAnswersBitIdenticallyPerStrategy) {
  const std::string dir = TestDir("roundtrip");

  // Venue 0: generator output as-is. Venue 1: same geometry with every
  // third door forced onto a 22:00 -> 02:00 midnight-wrap schedule.
  std::vector<Venue> sources;
  sources.push_back(MakeSmallVenue(7));
  {
    const Venue& base = sources[0];
    Venue::Builder wrap = Venue::Builder::FromVenue(base);
    for (DoorId d = 0; d < static_cast<DoorId>(base.NumDoors()); d += 3) {
      ASSERT_TRUE(
          wrap.SetDoorAti(d, {TimeInterval{22 * 3600.0, 2 * 3600.0}}).ok());
    }
    sources.push_back(ValueOrDie(std::move(wrap).Build(), "wrap Build"));
  }

  for (const std::string& strategy : RouterRegistry::Global().Names()) {
    VenueCatalog eager, loaded;
    for (size_t i = 0; i < sources.size(); ++i) {
      const std::string path =
          dir + "/" + strategy + "_" + std::to_string(i) + ".itspq";
      ASSERT_TRUE(WriteVenueArtifact(path, sources[i]).ok()) << path;
      (void)ValueOrDie(eager.AddVenue(Venue(sources[i]), strategy),
                       strategy.c_str());
      (void)ValueOrDie(loaded.AddArtifactShard(path, strategy),
                       strategy.c_str());
    }

    MultiVenueWorkloadConfig workload;
    workload.num_requests = 200;
    workload.seed = 1234;
    workload.pairs_per_venue = 6;
    std::vector<QueryRequest> requests = ValueOrDie(
        GenerateMultiVenueWorkload(eager, workload), "workload");
    // Exercise the snapshot read path too where the strategy has one.
    for (size_t i = 0; i < requests.size(); i += 2) {
      requests[i].options.use_snapshot_cache = true;
    }

    ShardedRouter expect_router(eager), got_router(loaded);
    QueryContext expect_context, got_context;
    for (size_t i = 0; i < requests.size(); ++i) {
      auto expect = expect_router.Route(requests[i], &expect_context);
      auto got = got_router.Route(requests[i], &got_context);
      ASSERT_EQ(expect.ok(), got.ok())
          << strategy << " #" << i << ": " << got.status().ToString();
      if (!expect.ok()) continue;
      ASSERT_EQ(expect->found, got->found) << strategy << " #" << i;
      if (!expect->found) continue;
      // Bit-identical, not approximately equal: the artifact carries
      // the exact doubles the in-process build computes.
      EXPECT_EQ(expect->path.length_m(), got->path.length_m())
          << strategy << " #" << i;
      EXPECT_EQ(expect->path.steps().size(), got->path.steps().size())
          << strategy << " #" << i;
    }

    const CatalogStats stats = loaded.Stats();
    EXPECT_EQ(stats.lazy_shards, sources.size());
    EXPECT_EQ(stats.resident_shards, sources.size());  // all touched
    EXPECT_EQ(stats.total_loads, sources.size());      // exactly once each
  }
}

}  // namespace
}  // namespace itspq
