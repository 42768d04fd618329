// The cache-conscious search core's compiled views, pinned to the
// object-graph sources they replaced: CsrAdjacency vs a brute-force
// pairwise DoorsOf/EuclideanDistance walk, flat ATI rows vs AtiSet
// membership, DoorMask's word-wise scan helpers vs the per-bit loop,
// generation-stamped scratch reuse vs fresh contexts, and epoch
// adjacency sharing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/door_mask.h"
#include "itgraph/itgraph.h"
#include "query/registry.h"
#include "query/router.h"
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

// Bit-identical path comparison: same length, same door sequence, same
// cumulative distances and projected arrivals.
void ExpectSamePath(const Path& a, const Path& b, const std::string& label) {
  EXPECT_EQ(a.length_m(), b.length_m()) << label;
  ASSERT_EQ(a.steps().size(), b.steps().size()) << label;
  for (size_t i = 0; i < a.steps().size(); ++i) {
    EXPECT_EQ(a.steps()[i].door, b.steps()[i].door) << label << " step " << i;
    EXPECT_EQ(a.steps()[i].cumulative_m, b.steps()[i].cumulative_m)
        << label << " step " << i;
    EXPECT_EQ(a.steps()[i].arrival_seconds, b.steps()[i].arrival_seconds)
        << label << " step " << i;
  }
}

struct CoreWorld {
  std::unique_ptr<Venue> venue;
  std::unique_ptr<ItGraph> graph;
  std::vector<QueryInstance> queries;
};

CoreWorld MakeWorld(uint64_t seed) {
  MallConfig mall_config = MallConfig::Paper();
  mall_config.floors = 1;
  mall_config.shop_rows = 3;
  mall_config.shops_per_row = 16;
  mall_config.seed = seed;
  Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");

  AtiGenConfig ati_config;
  ati_config.checkpoint_count = 5;
  ati_config.seed = seed + 1;
  CoreWorld world;
  world.venue = std::make_unique<Venue>(
      ValueOrDie(AssignTemporalVariations(mall, ati_config, nullptr),
                 "AssignTemporalVariations"));
  world.graph = std::make_unique<ItGraph>(
      ValueOrDie(ItGraph::Build(*world.venue), "ItGraph::Build"));

  QueryGenConfig query_config;
  query_config.s2t_distance = 500;
  query_config.tolerance = 250;
  query_config.num_pairs = 5;
  query_config.seed = seed + 2;
  world.queries = ValueOrDie(GenerateQueries(*world.graph, query_config),
                             "GenerateQueries");
  return world;
}

// Brute-force oracle for CsrAdjacency::Compile: per partition, every
// ordered pair of its doors measured directly with EuclideanDistance
// (no symmetry shortcut), then each door's two segments are checked
// against the rows of its two partitions — ids in DoorsOf order, and
// weights compared bit for bit.
void ExpectAdjacencyMatchesPairwiseWalk(const Venue& venue,
                                        const std::string& label) {
  const CsrAdjacency adj = CsrAdjacency::Compile(venue);
  const size_t n = venue.NumDoors();
  ASSERT_EQ(adj.num_doors, n) << label;
  ASSERT_EQ(adj.seg_offsets.size(), 2 * n + 1) << label;
  ASSERT_EQ(adj.seg_partition.size(), 2 * n) << label;

  // pairwise[p][i * k + j]: door i to door j of partition p's k doors.
  std::vector<std::vector<double>> pairwise(venue.NumPartitions());
  for (size_t p = 0; p < pairwise.size(); ++p) {
    const Span<DoorId> doors = venue.DoorsOf(static_cast<PartitionId>(p));
    for (DoorId a : doors) {
      for (DoorId b : doors) {
        pairwise[p].push_back(
            EuclideanDistance(venue.door(a).pos, venue.door(b).pos));
      }
    }
  }

  double min_w = std::numeric_limits<double>::infinity();
  double max_w = 0;
  for (size_t d = 0; d < n; ++d) {
    const DoorId door = static_cast<DoorId>(d);
    for (size_t side = 0; side < 2; ++side) {
      const size_t seg = 2 * d + side;
      const PartitionId p = venue.door(door).partitions[side];
      ASSERT_EQ(adj.seg_partition[seg], p) << label << " door " << d;
      const Span<DoorId> doors = venue.DoorsOf(p);
      const size_t row = static_cast<size_t>(
          std::find(doors.begin(), doors.end(), door) - doors.begin());
      ASSERT_LT(row, doors.size()) << label << " door " << d;
      std::vector<uint32_t> ids;
      std::vector<double> weights;
      for (size_t j = 0; j < doors.size(); ++j) {
        if (j == row) continue;
        ids.push_back(static_cast<uint32_t>(doors[j]));
        weights.push_back(
            pairwise[static_cast<size_t>(p)][row * doors.size() + j]);
        min_w = std::min(min_w, weights.back());
        max_w = std::max(max_w, weights.back());
      }
      const uint32_t begin = adj.seg_offsets[seg];
      ASSERT_EQ(adj.seg_offsets[seg + 1] - begin, ids.size())
          << label << " door " << d << " side " << side;
      EXPECT_TRUE(std::equal(ids.begin(), ids.end(),
                             adj.neighbor_ids.begin() + begin))
          << label << " door " << d << " side " << side;
      if (!weights.empty()) {  // memcmp needs non-null pointers
        EXPECT_EQ(std::memcmp(weights.data(),
                              adj.neighbor_weights.data() + begin,
                              weights.size() * sizeof(double)),
                  0)
            << label << " door " << d << " side " << side;
      }
    }
  }
  EXPECT_EQ(adj.min_edge_weight, min_w) << label;
  EXPECT_EQ(adj.max_edge_weight, max_w) << label;
}

// The CSR is exactly the venue's implicit adjacency, flattened: per
// door, one segment per partition side, each listing that partition's
// other doors in DoorsOf order at their straight-line distance. Checked
// on the paper's 5-floor mall and a generated fleet.
TEST(SearchCoreTest, CsrAdjacencyMatchesVenueWalk) {
  ExpectAdjacencyMatchesPairwiseWalk(
      ValueOrDie(GenerateMall(MallConfig::Paper()), "GenerateMall"),
      "paper mall");
  FleetConfig fleet_config;
  fleet_config.num_venues = 4;
  fleet_config.seed = 17;
  const std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(fleet_config), "GenerateVenueFleet");
  for (size_t i = 0; i < fleet.size(); ++i) {
    ExpectAdjacencyMatchesPairwiseWalk(fleet[i],
                                       "fleet venue " + std::to_string(i));
  }
}

// The flat rows answer exactly as an AtiSet normalised independently
// from the venue's source intervals, including boundaries, empty
// (always-open) rows, and wrapped times; the Ati(d) view holds the same
// bounds.
TEST(SearchCoreTest, FlatAtiRowsMatchAtiSets) {
  const CoreWorld world = MakeWorld(23);
  const ItGraph& graph = *world.graph;
  Rng rng(5);
  for (size_t d = 0; d < graph.NumDoors(); ++d) {
    const DoorId door = static_cast<DoorId>(d);
    const AtiSet ati = ValueOrDie(
        AtiSet::Create(world.venue->DoorAti(door).ToVector()), "AtiSet");
    EXPECT_EQ(graph.Ati(door).starts().ToVector(), ati.starts());
    EXPECT_EQ(graph.Ati(door).ends().ToVector(), ati.ends());
    for (int probe = 0; probe < 64; ++probe) {
      const double t = rng.UniformDouble(0, kSecondsPerDay);
      EXPECT_EQ(graph.AtiContainsTimeOfDay(door, t),
                ati.ContainsTimeOfDay(t))
          << "door " << d << " t " << t;
    }
    // Interval boundaries: start is inside a [start, end) interval,
    // end is outside; the exactly-at-checkpoint cases.
    for (size_t i = 0; i < ati.NumIntervals(); ++i) {
      for (double t : {ati.starts()[i], ati.ends()[i]}) {
        if (t >= kSecondsPerDay) continue;
        EXPECT_EQ(graph.AtiContainsTimeOfDay(door, t),
                  ati.ContainsTimeOfDay(t))
            << "door " << d << " boundary " << t;
      }
    }
    // Projected arrivals past midnight arrive unwrapped.
    EXPECT_EQ(graph.AtiContainsTimeOfDay(door, kSecondsPerDay + 3600),
              ati.ContainsTimeOfDay(WrapTimeOfDay(kSecondsPerDay + 3600)));
  }
}

TEST(SearchCoreTest, DoorMaskScanHelpersMatchPerBitLoop) {
  Rng rng(77);
  for (size_t n : {1u, 63u, 64u, 65u, 200u, 515u}) {
    DoorMask mask(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformIndex(3) == 0) mask.Set(static_cast<DoorId>(i));
    }

    // ForEachSetAmong over a random (sorted, CSR-like) id list.
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformIndex(2) == 0) ids.push_back(static_cast<uint32_t>(i));
    }
    std::vector<size_t> got;
    mask.ForEachSetAmong(ids.data(), ids.size(),
                         [&](size_t k) { got.push_back(k); });
    std::vector<size_t> want;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (mask.Test(static_cast<DoorId>(ids[k]))) want.push_back(k);
    }
    EXPECT_EQ(got, want) << "n=" << n;

    // ForEachSetInRange across word-boundary-straddling windows.
    for (int probe = 0; probe < 16; ++probe) {
      const size_t lo = rng.UniformIndex(n + 1);
      const size_t hi = lo + rng.UniformIndex(n + 1 - lo);
      std::vector<DoorId> got_range;
      mask.ForEachSetInRange(lo, hi,
                             [&](DoorId d) { got_range.push_back(d); });
      std::vector<DoorId> want_range;
      for (size_t i = lo; i < hi; ++i) {
        if (mask.Test(static_cast<DoorId>(i))) {
          want_range.push_back(static_cast<DoorId>(i));
        }
      }
      EXPECT_EQ(got_range, want_range) << "n=" << n << " [" << lo << ", "
                                       << hi << ")";
    }
  }
}

// A generously sampled mall has coincident doors nowhere, so the
// compiled adjacency qualifies for the bucket frontier; the eligibility
// predicate must also reject the degenerate cases.
TEST(SearchCoreTest, BucketEligibilityGuardsDegenerateWeights) {
  const CoreWorld world = MakeWorld(31);
  const CsrAdjacency& adj = world.graph->adjacency();
  EXPECT_GT(adj.min_edge_weight, 0);
  EXPECT_TRUE(adj.BucketEligible());

  CsrAdjacency zero = adj;
  zero.min_edge_weight = 0;  // a zero-weight edge breaks Dial exactness
  EXPECT_FALSE(zero.BucketEligible());

  CsrAdjacency wide = adj;
  wide.min_edge_weight = 1.0;
  wide.max_edge_weight = 2.0 * CsrAdjacency::kMaxBucketSpan;
  EXPECT_FALSE(wide.BucketEligible());  // ring would be unbounded

  CsrAdjacency empty;
  EXPECT_FALSE(empty.BucketEligible());  // min stays +inf with no edges
}

// Generation-stamped scratch: a context reused across many queries (the
// whole point of the stamping) answers bit-identically to a fresh
// context per query, for every strategy, across interleaved venues of
// different sizes (forcing the resize/stamp-reset paths).
TEST(SearchCoreTest, ReusedContextIsBitIdenticalToFreshContexts) {
  const CoreWorld small = MakeWorld(41);
  const CoreWorld big = [] {
    CoreWorld big;
    MallConfig mall_config = MallConfig::Paper();
    mall_config.floors = 2;
    mall_config.shop_rows = 3;
    mall_config.shops_per_row = 16;
    mall_config.seed = 43;
    Venue mall = ValueOrDie(GenerateMall(mall_config), "GenerateMall");
    AtiGenConfig ati_config;
    ati_config.checkpoint_count = 5;
    ati_config.seed = 44;
    big.venue = std::make_unique<Venue>(
        ValueOrDie(AssignTemporalVariations(mall, ati_config, nullptr),
                   "AssignTemporalVariations"));
    big.graph = std::make_unique<ItGraph>(
        ValueOrDie(ItGraph::Build(*big.venue), "ItGraph::Build"));
    QueryGenConfig query_config;
    query_config.s2t_distance = 500;
    query_config.tolerance = 250;
    query_config.num_pairs = 5;
    query_config.seed = 45;
    big.queries = ValueOrDie(GenerateQueries(*big.graph, query_config),
                             "GenerateQueries");
    return big;
  }();
  ASSERT_NE(small.graph->NumDoors(), big.graph->NumDoors());

  for (const std::string& strategy : RouterRegistry::Global().Names()) {
    std::unique_ptr<Router> small_router = ValueOrDie(
        RouterRegistry::Global().Create(strategy, *small.graph), "Create");
    std::unique_ptr<Router> big_router = ValueOrDie(
        RouterRegistry::Global().Create(strategy, *big.graph), "Create");

    QueryContext reused;
    for (int round = 0; round < 3; ++round) {
      for (const CoreWorld* world : {&small, &big}) {
        const Router& router =
            world == &small ? *small_router : *big_router;
        for (const QueryInstance& q : world->queries) {
          for (int hour : {9, 13, 20}) {
            const QueryRequest request{q.ps, q.pt, Instant::FromHMS(hour),
                                       QueryOptions()};
            QueryContext fresh;
            const QueryResult a =
                ValueOrDie(router.Route(request, &reused), "Route");
            const QueryResult b =
                ValueOrDie(router.Route(request, &fresh), "Route");
            ASSERT_EQ(a.found, b.found)
                << strategy << " h" << hour << " round " << round;
            if (!a.found) continue;
            ExpectSamePath(a.path, b.path,
                           strategy + " h" + std::to_string(hour));
          }
        }
      }
    }
  }
}

// Batch-shared pins: RouteBatch on a shared context with the snapshot
// cache answers exactly as one-by-one Route calls on fresh contexts.
TEST(SearchCoreTest, BatchWithRetainedPinsMatchesSingleQueries) {
  const CoreWorld world = MakeWorld(53);
  for (const std::string& strategy : {std::string("itg-a+"),
                                      std::string("itg-a"),
                                      std::string("itg-s")}) {
    std::unique_ptr<Router> router = ValueOrDie(
        RouterRegistry::Global().Create(strategy, *world.graph), "Create");
    std::vector<QueryRequest> requests;
    QueryOptions options;
    options.use_snapshot_cache = true;
    for (const QueryInstance& q : world.queries) {
      for (int hour : {8, 12, 18, 22}) {
        requests.push_back(
            QueryRequest{q.ps, q.pt, Instant::FromHMS(hour), options});
      }
    }
    QueryContext shared;
    BatchOptions batch;
    batch.context = &shared;
    const auto batched = router->RouteBatch(requests, batch);
    ASSERT_EQ(batched.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(batched[i].ok()) << strategy;
      const QueryResult single =
          ValueOrDie(router->Route(requests[i], nullptr), "Route");
      ASSERT_EQ(batched[i]->found, single.found) << strategy << " #" << i;
      if (!single.found) continue;
      ExpectSamePath(batched[i]->path, single.path,
                     strategy + " #" + std::to_string(i));
    }
  }
}

// BuildFrom epochs alias their predecessor's compiled adjacency — ATI
// edits never change geometry, so recompiling (or copying) the CSR per
// epoch would be pure waste.
TEST(SearchCoreTest, BuildFromSharesTheAdjacencyHandle) {
  const CoreWorld world = MakeWorld(61);
  const DoorId changed = 3;
  Venue::Builder builder = Venue::Builder::FromVenue(*world.venue);
  ASSERT_TRUE(
      builder.SetDoorAti(changed, {MakeInterval(9, 0, 17, 0)}).ok());
  const Venue edited = ValueOrDie(std::move(builder).Build(), "Build");
  const ItGraph next = ValueOrDie(
      ItGraph::BuildFrom(*world.graph, edited, changed), "BuildFrom");
  EXPECT_EQ(next.adjacency_handle().get(),
            world.graph->adjacency_handle().get());
  EXPECT_TRUE(next.AtiContainsTimeOfDay(changed, 10 * 3600.0));
  EXPECT_FALSE(next.AtiContainsTimeOfDay(changed, 18 * 3600.0));
}

}  // namespace
}  // namespace itspq
