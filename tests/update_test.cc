// The live-world update plane: ItGraph::BuildFrom copy-on-write,
// epochs sharing geometry and adjacency, spliced ATI rows and the
// merge-patched ledger vs a fresh compile, the boundary-ledger flip
// index vs the probe-built one,
// UpdateApplier/VenueCatalog epoch transitions, snapshot carry and
// targeted invalidation across versions, and the rebuild-equivalence
// property — N online updates answer bit-identically to a from-scratch
// rebuild of the mutated fleet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "itgraph/checkpoints.h"
#include "itgraph/graph_update.h"
#include "itgraph/snapshot_store.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "update/ati_update.h"
#include "update/update_applier.h"
#include "update/versioned_graph.h"

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

Venue MakeVariedVenue(uint64_t seed = 5, int checkpoints = 8,
                      int floors = 2) {
  MallConfig mall = MallConfig::Paper();
  mall.floors = floors;
  mall.seed = seed;
  Venue shell = ValueOrDie(GenerateMall(mall), "GenerateMall");
  AtiGenConfig ati;
  ati.checkpoint_count = checkpoints;
  ati.seed = seed + 1;
  return ValueOrDie(AssignTemporalVariations(shell, ati),
                    "AssignTemporalVariations");
}

VenueCatalog MakeCatalog(const std::string& strategy,
                         const RouterBuildOptions& options =
                             RouterBuildOptions(),
                         uint64_t seed = 5) {
  VenueCatalog catalog;
  ValueOrDie(catalog.AddVenue(MakeVariedVenue(seed), strategy, "", options),
             "AddVenue");
  return catalog;
}

// Bit-identical answer comparison: same algorithm over equal graphs
// must produce equal doubles, so exact == is the intended check.
void ExpectSameAnswer(const StatusOr<QueryResult>& a,
                      const StatusOr<QueryResult>& b, size_t index) {
  ASSERT_EQ(a.ok(), b.ok()) << "request " << index;
  if (!a.ok()) return;
  ASSERT_EQ(a->found, b->found) << "request " << index;
  if (!a->found) return;
  EXPECT_EQ(a->path.length_m(), b->path.length_m()) << "request " << index;
  ASSERT_EQ(a->path.steps().size(), b->path.steps().size())
      << "request " << index;
  for (size_t s = 0; s < a->path.steps().size(); ++s) {
    EXPECT_EQ(a->path.steps()[s].door, b->path.steps()[s].door)
        << "request " << index << " step " << s;
    EXPECT_EQ(a->path.steps()[s].cumulative_m, b->path.steps()[s].cumulative_m)
        << "request " << index << " step " << s;
    EXPECT_EQ(a->path.steps()[s].arrival_seconds,
              b->path.steps()[s].arrival_seconds)
        << "request " << index << " step " << s;
  }
}

TEST(ItGraphBuildFromTest, MatchesFullRebuildAfterSingleDoorEdit) {
  Venue venue = MakeVariedVenue();
  ItGraph before = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");

  const DoorId door = 3;
  Venue::Builder builder = Venue::Builder::FromVenue(venue);
  ASSERT_TRUE(
      builder.SetDoorAti(door, {MakeInterval(9, 30, 17, 45)}).ok());
  Venue edited = ValueOrDie(std::move(builder).Build(), "Builder::Build");

  ItGraph incremental =
      ValueOrDie(ItGraph::BuildFrom(before, edited, door), "BuildFrom");
  ItGraph scratch = ValueOrDie(ItGraph::Build(edited), "ItGraph::Build");

  ASSERT_EQ(incremental.NumDoors(), scratch.NumDoors());
  for (size_t d = 0; d < scratch.NumDoors(); ++d) {
    const auto bounds_a =
        incremental.Ati(static_cast<DoorId>(d)).InteriorBoundaries();
    const auto bounds_b =
        scratch.Ati(static_cast<DoorId>(d)).InteriorBoundaries();
    EXPECT_EQ(bounds_a, bounds_b) << "door " << d;
    for (double t = 0; t < kSecondsPerDay; t += 1800.0) {
      EXPECT_EQ(incremental.Ati(static_cast<DoorId>(d)).ContainsTimeOfDay(t),
                scratch.Ati(static_cast<DoorId>(d)).ContainsTimeOfDay(t))
          << "door " << d << " t " << t;
    }
  }
}

TEST(ItGraphBuildFromTest, RejectsDoorCountMismatchAndUnknownDoor) {
  Venue venue = MakeVariedVenue();
  ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  Venue other = MakeVariedVenue(/*seed=*/6, /*checkpoints=*/8, /*floors=*/1);
  ASSERT_NE(other.NumDoors(), venue.NumDoors());
  EXPECT_EQ(ItGraph::BuildFrom(graph, other, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ItGraph::BuildFrom(graph, venue,
                               static_cast<DoorId>(venue.NumDoors()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(VersionedGraphTest, LedgerFlipIndexMatchesProbeBuild) {
  auto world = ValueOrDie(
      VersionedGraph::Build(MakeVariedVenue(), "itg-a+"), "Build");
  // The ledger-derived checkpoint set and CSR flip index must be
  // bit-identical to the from-scratch derivations.
  const CheckpointSet probe_cps = CheckpointSet::FromGraph(world->graph());
  EXPECT_EQ(world->checkpoints().times(), probe_cps.times());

  const BoundaryFlipIndex probe =
      BoundaryFlipIndex::Build(world->graph(), probe_cps);
  const BoundaryFlipIndex& ledger = world->flip_index();
  ASSERT_EQ(ledger.NumBoundaries(), probe.NumBoundaries());
  ASSERT_GT(ledger.NumBoundaries(), 0u);
  for (size_t b = 0; b < probe.NumBoundaries(); ++b) {
    const std::vector<DoorId> from_ledger(ledger.FlipsBegin(b),
                                          ledger.FlipsEnd(b));
    const std::vector<DoorId> from_probe(probe.FlipsBegin(b),
                                         probe.FlipsEnd(b));
    EXPECT_EQ(from_ledger, from_probe) << "boundary " << b;
  }
}

TEST(VersionedGraphTest, LedgerStaysConsistentAcrossUpdates) {
  auto world = ValueOrDie(
      VersionedGraph::Build(MakeVariedVenue(), "itg-a+"), "Build");
  Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    AtiUpdate update;
    update.door_id =
        static_cast<DoorId>(rng.UniformIndex(world->venue().NumDoors()));
    const double open = rng.UniformDouble(5 * 3600.0, 11 * 3600.0);
    const double close = rng.UniformDouble(13 * 3600.0, 23 * 3600.0);
    update.intervals = {TimeInterval{open, close}};
    world = ValueOrDie(UpdateApplier::Apply(*world, update), "Apply");

    const CheckpointSet probe_cps = CheckpointSet::FromGraph(world->graph());
    ASSERT_EQ(world->checkpoints().times(), probe_cps.times())
        << "round " << round;
    const BoundaryFlipIndex probe =
        BoundaryFlipIndex::Build(world->graph(), probe_cps);
    const BoundaryFlipIndex& ledger = world->flip_index();
    ASSERT_EQ(ledger.NumBoundaries(), probe.NumBoundaries());
    for (size_t b = 0; b < probe.NumBoundaries(); ++b) {
      ASSERT_EQ(std::vector<DoorId>(ledger.FlipsBegin(b), ledger.FlipsEnd(b)),
                std::vector<DoorId>(probe.FlipsBegin(b), probe.FlipsEnd(b)))
          << "round " << round << " boundary " << b;
    }
  }
  EXPECT_EQ(world->epoch(), 8u);
}

// Epoch N+1 aliases epoch N's venue geometry and compiled adjacency:
// an ATI edit copies only the flat ATI tables. Its snapshot store reads
// the epoch's own flip index, which the epoch counts once.
TEST(UpdateApplierTest, NextEpochSharesGeometryAndAdjacency) {
  VenueCatalog catalog = MakeCatalog("itg-a+");
  const std::shared_ptr<const VersionedGraph> before = catalog.world(0);
  AtiUpdate update;
  update.door_id = 7;
  update.intervals = {MakeInterval(9, 30, 17, 45)};
  ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");
  const std::shared_ptr<const VersionedGraph> after = catalog.world(0);
  ASSERT_NE(before.get(), after.get());
  ASSERT_NE(after->venue().geometry_handle(), nullptr);
  EXPECT_EQ(after->venue().geometry_handle().get(),
            before->venue().geometry_handle().get());
  EXPECT_EQ(after->graph().adjacency_handle().get(),
            before->graph().adjacency_handle().get());
  // The ATI tables are the epoch's own.
  EXPECT_EQ(after->venue().DoorAti(7).size(), 1u);
  EXPECT_NE(before->venue().DoorAti(7).data(),
            after->venue().DoorAti(7).data());

  // Nothing is resident, so the store counts its slots only, like a
  // store that has not built its own index yet; one that builds it
  // counts it.
  const SnapshotStore* store = after->router().snapshot_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(&store->flip_index(), &after->flip_index());
  SnapshotStore cold(after->graph(), after->checkpoints(),
                     SnapshotStoreOptions());
  const size_t slot_bytes = cold.MemoryUsage();
  EXPECT_EQ(store->MemoryUsage(), slot_bytes);
  const size_t own_index_bytes = cold.flip_index().MemoryUsage();
  EXPECT_GT(own_index_bytes, 0u);
  EXPECT_EQ(cold.MemoryUsage(), slot_bytes + own_index_bytes);
}

/// `venue` rebuilt from nothing through a fresh Builder: every
/// partition, door and source ATI row re-added, so no geometry or table
/// is shared with it.
Venue RebuildFromScratch(const Venue& venue) {
  Venue::Builder builder;
  for (size_t p = 0; p < venue.NumPartitions(); ++p) {
    const Partition& part = venue.partition(static_cast<PartitionId>(p));
    builder.AddPartition(part.rect, part.floor);
  }
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    const Door& door = venue.door(static_cast<DoorId>(d));
    builder.AddDoor(door.pos, door.floor, door.partitions[0],
                    door.partitions[1]);
  }
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    const Span<TimeInterval> row = venue.DoorAti(static_cast<DoorId>(d));
    if (row.empty()) continue;
    EXPECT_TRUE(
        builder.SetDoorAti(static_cast<DoorId>(d), row.ToVector()).ok());
  }
  return ValueOrDie(std::move(builder).Build(), "Builder::Build");
}

// After a long random update stream the incrementally spliced ATI rows
// and the merge-patched flip index are bit-identical to a from-scratch
// compile of the same venue.
TEST(UpdateApplierTest, PatchedRowsAndFlipIndexMatchFreshBuild) {
  VenueCatalog catalog = MakeCatalog("itg-a+");
  UpdateStreamConfig stream_config;
  stream_config.num_updates = 200;
  stream_config.seed = 91;
  const std::vector<TimedAtiUpdate> stream =
      ValueOrDie(GenerateUpdateStream(catalog, stream_config), "stream");
  for (const TimedAtiUpdate& timed : stream) {
    ValueOrDie(catalog.ApplyAtiUpdate(timed.update), "stream update");
  }
  const std::shared_ptr<const VersionedGraph> live = catalog.world(0);
  ASSERT_EQ(live->epoch(), 200u);

  const Venue fresh = RebuildFromScratch(live->venue());
  ASSERT_NE(fresh.geometry_handle().get(),
            live->venue().geometry_handle().get());
  const ItGraph graph = ValueOrDie(ItGraph::Build(fresh), "ItGraph::Build");
  ASSERT_EQ(graph.NumDoors(), live->graph().NumDoors());
  for (size_t d = 0; d < graph.NumDoors(); ++d) {
    const DoorId door = static_cast<DoorId>(d);
    const Span<TimeInterval> a = live->venue().DoorAti(door);
    const Span<TimeInterval> b = fresh.DoorAti(door);
    ASSERT_EQ(a.size(), b.size()) << "door " << d;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].start, b[i].start) << "door " << d;
      EXPECT_EQ(a[i].end, b[i].end) << "door " << d;
    }
    EXPECT_EQ(live->graph().Ati(door).starts().ToVector(),
              graph.Ati(door).starts().ToVector())
        << "door " << d;
    EXPECT_EQ(live->graph().Ati(door).ends().ToVector(),
              graph.Ati(door).ends().ToVector())
        << "door " << d;
  }

  const auto rebuilt =
      ValueOrDie(VersionedGraph::Build(fresh, "itg-a+"), "Build");
  EXPECT_EQ(live->checkpoints().times(), rebuilt->checkpoints().times());
  const BoundaryFlipIndex& patched = live->flip_index();
  const BoundaryFlipIndex& expect = rebuilt->flip_index();
  ASSERT_EQ(patched.NumBoundaries(), expect.NumBoundaries());
  EXPECT_EQ(patched.TotalFlips(), expect.TotalFlips());
  for (size_t b = 0; b < expect.NumBoundaries(); ++b) {
    EXPECT_EQ(std::vector<DoorId>(patched.FlipsBegin(b), patched.FlipsEnd(b)),
              std::vector<DoorId>(expect.FlipsBegin(b), expect.FlipsEnd(b)))
        << "boundary " << b;
  }
}

// The reference carry plan: one binary search per new interval, whose
// only candidate is the old interval holding the new span's midpoint.
std::vector<ptrdiff_t> ReferenceCarryPlan(
    const std::vector<double>& old_times, const std::vector<double>& new_times,
    AtiView old_door_ati, AtiView new_door_ati,
    std::vector<size_t>* invalidate) {
  auto span_of = [](const std::vector<double>& times, size_t i) {
    return std::make_pair(i == 0 ? 0.0 : times[i - 1],
                          i == times.size() ? kSecondsPerDay : times[i]);
  };
  std::vector<ptrdiff_t> plan(new_times.size() + 1, kNoCarrySource);
  for (size_t j = 0; j <= new_times.size(); ++j) {
    const auto span = span_of(new_times, j);
    const double mid = (span.first + span.second) * 0.5;
    const size_t i = static_cast<size_t>(
        std::upper_bound(old_times.begin(), old_times.end(), mid) -
        old_times.begin());
    if (span_of(old_times, i) != span) continue;
    plan[j] = static_cast<ptrdiff_t>(i);
    if (old_door_ati.ContainsTimeOfDay(mid) !=
        new_door_ati.ContainsTimeOfDay(mid)) {
      invalidate->push_back(j);
    }
  }
  return plan;
}

// The O(|T|) carry plan equals the binary-search reference on every
// transition of a 200-update random stream, interleaved with
// midnight-wrapping replacements and replacements whose both ends land
// exactly on existing checkpoints.
TEST(UpdateApplierTest, CarryPlanMatchesBinarySearchReference) {
  VenueCatalog catalog = MakeCatalog("itg-a+");
  UpdateStreamConfig stream_config;
  stream_config.num_updates = 200;
  stream_config.seed = 92;
  const std::vector<TimedAtiUpdate> stream =
      ValueOrDie(GenerateUpdateStream(catalog, stream_config), "stream");
  size_t carried = 0, shifted = 0, invalidated = 0;
  for (size_t k = 0; k < stream.size(); ++k) {
    const std::shared_ptr<const VersionedGraph> before = catalog.world(0);
    const std::vector<double>& times = before->checkpoints().times();
    AtiUpdate update = stream[k].update;
    if (k % 10 == 3) {
      update.intervals = {
          TimeInterval{21 * 3600.0 + 60.0 * static_cast<double>(k % 60),
                       3 * 3600.0}};
    } else if (k % 10 == 7 && times.size() >= 3) {
      // Start on one checkpoint, end on another (wrapping past midnight
      // when the second is earlier).
      update.intervals = {TimeInterval{times[k % times.size()],
                                       times[(k + 2) % times.size()]}};
    }
    ValueOrDie(catalog.ApplyAtiUpdate(update), "update");
    const std::shared_ptr<const VersionedGraph> after = catalog.world(0);
    const DoorId door = update.door_id;
    std::vector<size_t> invalidate, expect_invalidate;
    const std::vector<ptrdiff_t> plan = PlanSnapshotCarry(
        times, after->checkpoints().times(), before->graph().Ati(door),
        after->graph().Ati(door), &invalidate);
    const std::vector<ptrdiff_t> expect = ReferenceCarryPlan(
        times, after->checkpoints().times(), before->graph().Ati(door),
        after->graph().Ati(door), &expect_invalidate);
    EXPECT_EQ(plan, expect) << "update " << k;
    EXPECT_EQ(invalidate, expect_invalidate) << "update " << k;
    for (size_t j = 0; j < plan.size(); ++j) {
      if (plan[j] == kNoCarrySource) continue;
      ++carried;
      if (plan[j] != static_cast<ptrdiff_t>(j)) ++shifted;
    }
    invalidated += invalidate.size();
  }
  // Every branch of the plan ran: carries in place, shifted carries, and
  // invalidations.
  EXPECT_GT(carried, shifted);
  EXPECT_GT(shifted, 0u);
  EXPECT_GT(invalidated, 0u);
}

TEST(UpdateApplierTest, ErrorsLeaveCatalogOnCurrentEpoch) {
  VenueCatalog catalog = MakeCatalog("itg-s");
  EXPECT_EQ(catalog.epoch(0), 0u);

  AtiUpdate unknown_venue;
  unknown_venue.venue_id = 42;
  unknown_venue.door_id = 0;
  EXPECT_EQ(catalog.ApplyAtiUpdate(unknown_venue).status().code(),
            StatusCode::kNotFound);

  AtiUpdate unknown_door;
  unknown_door.door_id = static_cast<DoorId>(catalog.venue(0).NumDoors());
  EXPECT_EQ(catalog.ApplyAtiUpdate(unknown_door).status().code(),
            StatusCode::kNotFound);

  AtiUpdate zero_length;
  zero_length.door_id = 0;
  zero_length.intervals = {TimeInterval{3600, 3600}};
  EXPECT_EQ(catalog.ApplyAtiUpdate(zero_length).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(catalog.epoch(0), 0u);
  const CatalogStats stats = catalog.Stats();
  EXPECT_EQ(stats.total_updates_applied, 0u);
  // The unknown-venue rejection has no shard to charge; only the two
  // that reached shard 0 count.
  EXPECT_EQ(stats.total_updates_rejected, 2u);

  AtiUpdate good;
  good.door_id = 0;
  good.intervals = {MakeInterval(8, 0, 20, 0)};
  const UpdateOutcome outcome =
      ValueOrDie(catalog.ApplyAtiUpdate(good), "ApplyAtiUpdate");
  EXPECT_EQ(outcome.epoch, 1u);
  EXPECT_EQ(catalog.epoch(0), 1u);
  EXPECT_EQ(catalog.Stats().total_updates_applied, 1u);
}

TEST(UpdateApplierTest, OldEpochStaysPinnedAndServable) {
  VenueCatalog catalog = MakeCatalog("itg-s");
  const std::shared_ptr<const VersionedGraph> pinned = catalog.world(0);
  const std::vector<double> bounds_before =
      pinned->graph().Ati(1).InteriorBoundaries();

  AtiUpdate update;
  update.door_id = 1;
  update.intervals = {MakeInterval(10, 0, 16, 0)};
  ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");

  // The pre-update world is untouched by the swap; the catalog serves
  // the new epoch.
  EXPECT_EQ(pinned->epoch(), 0u);
  EXPECT_EQ(catalog.world(0)->epoch(), 1u);
  EXPECT_NE(pinned.get(), catalog.world(0).get());
  EXPECT_EQ(pinned->graph().Ati(1).InteriorBoundaries(), bounds_before);
  EXPECT_TRUE(catalog.world(0)->graph().Ati(1).ContainsTimeOfDay(11 * 3600.0));
  EXPECT_FALSE(catalog.world(0)->graph().Ati(1).ContainsTimeOfDay(9 * 3600.0));
}

TEST(UpdateApplierTest, CarriesResidentSnapshotsOnSingleDoorUpdate) {
  // An evicting store is not needed; what matters is that snapshots are
  // RESIDENT before the update, so warm every interval first.
  RouterBuildOptions options;
  VenueCatalog catalog = MakeCatalog("itg-a+", options);
  const std::shared_ptr<const VersionedGraph> before = catalog.world(0);
  const SnapshotStore* store = before->router().snapshot_store();
  ASSERT_NE(store, nullptr);
  const size_t intervals_before = before->checkpoints().NumIntervals();
  ASSERT_GT(intervals_before, 4u) << "need a multi-checkpoint venue";
  for (size_t i = 0; i < intervals_before; ++i) store->Get(i);
  ASSERT_EQ(store->Stats().resident_snapshots, intervals_before);

  // Replace one door's hours with a window whose boundaries are new
  // checkpoint times; every interval not touching the changed door's
  // old/new applicability flips must carry.
  AtiUpdate update;
  update.door_id = 2;
  update.intervals = {MakeInterval(9, 17, 18, 43)};
  const UpdateOutcome outcome =
      ValueOrDie(catalog.ApplyAtiUpdate(update), "ApplyAtiUpdate");

  EXPECT_GT(outcome.snapshots_carried, 0u);
  EXPECT_GT(outcome.intervals_invalidated, 0u);
  // Carry + rebase + invalidate can never exceed what was resident.
  EXPECT_LE(outcome.snapshots_carried + outcome.snapshots_rebased +
                outcome.intervals_invalidated,
            intervals_before);

  // Every mask in the new store — carried, rebased, or rebuilt on
  // demand — must equal the from-scratch derivation for the new graph.
  const std::shared_ptr<const VersionedGraph> after = catalog.world(0);
  const SnapshotStore* new_store = after->router().snapshot_store();
  ASSERT_NE(new_store, nullptr);
  for (size_t i = 0; i < after->checkpoints().NumIntervals(); ++i) {
    const std::shared_ptr<const GraphSnapshot> got = new_store->Get(i);
    const GraphSnapshot expect =
        BuildSnapshot(after->graph(), after->checkpoints(), i);
    EXPECT_EQ(got->interval_index, i);
    EXPECT_TRUE(got->open == expect.open) << "interval " << i;
    EXPECT_EQ(got->open_door_count, expect.open_door_count)
        << "interval " << i;
  }
}

TEST(SnapshotStoreTest, InvalidateIntervalsDropsExactlyTheListed) {
  Venue venue = MakeVariedVenue();
  ItGraph graph = ValueOrDie(ItGraph::Build(venue), "ItGraph::Build");
  const CheckpointSet cps = CheckpointSet::FromGraph(graph);
  SnapshotStore store(graph, cps);
  const size_t n = cps.NumIntervals();
  ASSERT_GT(n, 3u);
  for (size_t i = 0; i < n; ++i) store.Get(i);
  ASSERT_EQ(store.Stats().resident_snapshots, n);

  // Out-of-range and duplicate entries are ignored; each listed
  // resident interval drops exactly once.
  const std::shared_ptr<const GraphSnapshot> pinned = store.Get(1);
  EXPECT_EQ(store.InvalidateIntervals({1, 3, 3, n + 7}), 2u);
  CacheStatsSnapshot stats = store.Stats();
  EXPECT_EQ(stats.resident_snapshots, n - 2);
  EXPECT_EQ(stats.intervals_invalidated, 2u);

  // The pinned shared_ptr survives the drop, and a re-Get rebuilds a
  // mask identical to the from-scratch derivation.
  EXPECT_TRUE(pinned->open == BuildSnapshot(graph, cps, 1).open);
  const std::shared_ptr<const GraphSnapshot> rebuilt = store.Get(1);
  EXPECT_TRUE(rebuilt->open == BuildSnapshot(graph, cps, 1).open);
  EXPECT_EQ(store.Stats().resident_snapshots, n - 1);
}

// The acceptance property: after N random online updates — including a
// midnight-wrapping replacement and one landing exactly on an existing
// checkpoint — a 200-query workload answers bit-identically to a
// catalog rebuilt from scratch on the mutated venues.
TEST(RebuildEquivalenceTest, OnlineUpdatesMatchFromScratchRebuild) {
  const char* const strategies[] = {"itg-s", "itg-a+", "snap"};
  FleetConfig fleet_config;
  fleet_config.num_venues = 3;
  fleet_config.seed = 21;
  fleet_config.min_floors = 1;
  fleet_config.max_floors = 2;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(fleet_config), "GenerateVenueFleet");

  VenueCatalog live;
  for (size_t i = 0; i < fleet.size(); ++i) {
    ValueOrDie(live.AddVenue(std::move(fleet[i]), strategies[i]),
               strategies[i]);
  }

  // Two deterministic edge cases first. #1: a midnight-wrapping
  // replacement (22:00 -> 02:00, split by normalisation). #2: a window
  // opening exactly on an existing checkpoint of venue 1.
  AtiUpdate wrap;
  wrap.venue_id = 0;
  wrap.door_id = 4;
  wrap.intervals = {TimeInterval{22 * 3600.0, 2 * 3600.0}};
  ValueOrDie(live.ApplyAtiUpdate(wrap), "wrap update");

  const std::vector<double>& cps1 = live.world(1)->checkpoints().times();
  ASSERT_FALSE(cps1.empty());
  AtiUpdate on_checkpoint;
  on_checkpoint.venue_id = 1;
  on_checkpoint.door_id = 2;
  on_checkpoint.intervals = {
      TimeInterval{cps1.front(), cps1.front() + 3 * 3600.0}};
  ValueOrDie(live.ApplyAtiUpdate(on_checkpoint), "on-checkpoint update");

  // Then a random stream across the fleet.
  UpdateStreamConfig stream_config;
  stream_config.num_updates = 30;
  stream_config.seed = 33;
  const std::vector<TimedAtiUpdate> stream =
      ValueOrDie(GenerateUpdateStream(live, stream_config), "stream");
  for (const TimedAtiUpdate& timed : stream) {
    ValueOrDie(live.ApplyAtiUpdate(timed.update), "stream update");
  }

  // From-scratch control: copy each mutated venue out of the live
  // catalog and rebuild under the same strategy.
  VenueCatalog rebuilt;
  for (size_t i = 0; i < live.NumVenues(); ++i) {
    Venue copy = live.venue(static_cast<VenueId>(i));
    ValueOrDie(rebuilt.AddVenue(std::move(copy), strategies[i]),
               strategies[i]);
    EXPECT_EQ(rebuilt.world(static_cast<VenueId>(i))->epoch(), 0u);
  }

  MultiVenueWorkloadConfig workload_config;
  workload_config.num_requests = 200;
  workload_config.seed = 77;
  workload_config.pairs_per_venue = 5;
  // Route through the snapshot store so carried snapshots are on the
  // compared path.
  workload_config.options.use_snapshot_cache = true;
  const std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(live, workload_config), "workload");

  ShardedRouter live_router(live);
  ShardedRouter rebuilt_router(rebuilt);
  QueryContext live_context, rebuilt_context;
  size_t found = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const StatusOr<QueryResult> a = live_router.Route(workload[i],
                                                      &live_context);
    const StatusOr<QueryResult> b =
        rebuilt_router.Route(workload[i], &rebuilt_context);
    ExpectSameAnswer(a, b, i);
    if (a.ok() && a->found) ++found;
  }
  EXPECT_GT(found, 0u) << "workload found no routes; test is vacuous";
  EXPECT_GT(live.Stats().total_updates_applied, 30u);
}

}  // namespace
}  // namespace itspq
