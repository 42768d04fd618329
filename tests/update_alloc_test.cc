// Heap allocations per online ATI update. An epoch transition shares
// the venue geometry and the compiled adjacency and copies only flat
// tables, so it must allocate the same number of blocks whatever the
// venue's door and partition count. This binary replaces the global
// operator new with a counting one, which is why it is kept apart from
// the main suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/snapshot_store.h"
#include "query/venue_catalog.h"
#include "update/ati_update.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace itspq {
namespace {

// One committed update on a `floors`-floor paper mall (|T| = 8) whose
// every interval snapshot is resident, so the carry path runs too.
size_t AllocationsPerUpdate(int floors) {
  MallConfig mall = MallConfig::Paper();
  mall.floors = floors;
  AtiGenConfig atis;
  atis.checkpoint_count = 8;
  auto shell = GenerateMall(mall);
  EXPECT_TRUE(shell.ok());
  auto venue = AssignTemporalVariations(*shell, atis);
  EXPECT_TRUE(venue.ok());
  VenueCatalog catalog;
  EXPECT_TRUE(catalog.AddVenue(*std::move(venue), "itg-a+").ok());
  const auto world = catalog.world(0);
  const SnapshotStore* store = world->router().snapshot_store();
  for (size_t i = 0; i < world->checkpoints().NumIntervals(); ++i) {
    store->Get(i);
  }

  AtiUpdate update;
  update.door_id = 3;
  update.intervals = {MakeInterval(9, 17, 18, 43)};
  g_allocations.store(0);
  g_counting.store(true);
  const bool ok = catalog.ApplyAtiUpdate(update).ok();
  g_counting.store(false);
  EXPECT_TRUE(ok);
  return g_allocations.load();
}

TEST(UpdateAllocationTest, CountIsIndependentOfVenueSize) {
  const size_t one_floor = AllocationsPerUpdate(1);  // 224 doors
  const size_t five_floors = AllocationsPerUpdate(5);  // 1128 doors
  EXPECT_EQ(one_floor, five_floors);
  // O(|T|) blocks, never one per door: the copy-on-write venue, graph,
  // ledger, carry plan and router (whose store borrows the version's
  // flip index). A change that adds blocks per commit must raise this
  // bound deliberately.
  EXPECT_GT(one_floor, 0u);
  EXPECT_LE(one_floor, 41u);
}

}  // namespace
}  // namespace itspq
