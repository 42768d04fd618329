// Micro-benchmarks (google-benchmark) for the hot primitives underneath
// the ITSPQ search: ATI membership, checkpoint lookup, reduced-graph
// derivation, point location, door-adjacency compile, frontier
// disciplines, masked neighbour scans, end-to-end queries, the
// online-update commit, and an artifact cold load.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "bench/bench_common.h"
#include "itgraph/csr_adjacency.h"
#include "itgraph/frontier_queue.h"
#include "itgraph/graph_update.h"

namespace itspq {
namespace bench {
namespace {

const World& SharedWorld() {
  static World* world = new World(BuildWorld(kDefaultT, /*floors=*/2));
  return *world;
}

void BM_AtiContains(benchmark::State& state) {
  const AtiSet atis = *AtiSet::Create(
      {MakeInterval(8, 0, 12, 0), MakeInterval(13, 0, 18, 0),
       MakeInterval(19, 0, 23, 0)});
  double tod = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(atis.ContainsTimeOfDay(tod));
    tod += 977.0;
    if (tod >= kSecondsPerDay) tod -= kSecondsPerDay;
  }
}
BENCHMARK(BM_AtiContains);

void BM_CheckpointLookup(benchmark::State& state) {
  std::vector<double> times;
  for (int i = 1; i <= state.range(0); ++i) {
    times.push_back(i * kSecondsPerDay / (state.range(0) + 1));
  }
  const CheckpointSet cps = *CheckpointSet::FromTimes(times);
  double tod = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cps.NextCheckpoint(tod));
    tod += 977.0;
    if (tod >= kSecondsPerDay) tod -= kSecondsPerDay;
  }
}
BENCHMARK(BM_CheckpointLookup)->Arg(4)->Arg(16);

void BM_GraphUpdate(benchmark::State& state) {
  const World& world = SharedWorld();
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  int idx = 0;
  for (auto _ : state) {
    GraphSnapshot snap = BuildSnapshot(*world.graph, cps, idx);
    benchmark::DoNotOptimize(snap.open_door_count);
    idx = (idx + 1) % static_cast<int>(cps.NumIntervals());
  }
}
BENCHMARK(BM_GraphUpdate);

void BM_GraphUpdateDelta(benchmark::State& state) {
  const World& world = SharedWorld();
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  const BoundaryFlipIndex flips = BoundaryFlipIndex::Build(*world.graph, cps);
  std::vector<GraphSnapshot> snaps;
  for (size_t i = 0; i < cps.NumIntervals(); ++i) {
    snaps.push_back(BuildSnapshot(*world.graph, cps, i));
  }
  size_t i = 0;
  for (auto _ : state) {
    GraphSnapshot snap =
        BuildSnapshotDelta(*world.graph, cps, flips, snaps[i], i + 1);
    benchmark::DoNotOptimize(snap.open_door_count);
    i = (i + 1) % (cps.NumIntervals() - 1);
  }
}
BENCHMARK(BM_GraphUpdateDelta);

void BM_PointLocation(benchmark::State& state) {
  const World& world = SharedWorld();
  Rng rng(5);
  std::vector<IndoorPoint> probes;
  for (int i = 0; i < 256; ++i) {
    probes.push_back(IndoorPoint{{rng.UniformDouble(0, 1368),
                                  rng.UniformDouble(0, 1368)},
                                 0});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.venue->LocateAll(probes[i & 255]));
    ++i;
  }
}
BENCHMARK(BM_PointLocation);

void BM_CsrAdjacencyCompile(benchmark::State& state) {
  // Build-time (and artifact-load) cost of the door adjacency: one
  // straight-line distance per directed edge of the mall.
  const World& world = SharedWorld();
  for (auto _ : state) {
    const CsrAdjacency adj = CsrAdjacency::Compile(*world.venue);
    benchmark::DoNotOptimize(adj.neighbor_weights.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CsrAdjacencyCompile);

void BM_ApplyAtiUpdate(benchmark::State& state) {
  // The write path as the search_families probe drives it: the paper
  // mall (|T| = 8) as an itg-a+ and an itg-a shard, committing one fixed
  // pre-generated update stream. Replacement hours add checkpoints, so a
  // fresh catalog every Arg commits bounds |T|: 100 keeps it at its
  // realistic size, 1000 grows it to hundreds, where a commit that is
  // not linear in |T| shows.
  const size_t commits = static_cast<size_t>(state.range(0));
  static World* paper = new World(BuildWorld(kDefaultT, /*floors=*/5));
  auto make_catalog = [] {
    auto catalog = std::make_unique<VenueCatalog>();
    for (const char* strategy : {"itg-a+", "itg-a"}) {
      if (!catalog->AddVenue(Venue(*paper->venue), strategy).ok()) {
        std::abort();
      }
    }
    return catalog;
  };
  UpdateStreamConfig config;
  config.num_updates = static_cast<int>(commits);
  config.seed = 1;
  auto stream = GenerateUpdateStream(*make_catalog(), config);
  if (!stream.ok()) std::abort();
  std::unique_ptr<VenueCatalog> catalog;
  size_t i = 0;
  for (auto _ : state) {
    if (i % commits == 0) {
      state.PauseTiming();
      catalog = make_catalog();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        catalog->ApplyAtiUpdate((*stream)[i % commits].update));
    ++i;
  }
}
BENCHMARK(BM_ApplyAtiUpdate)->Arg(100)->Arg(1000);

void BM_FrontierQueue(benchmark::State& state) {
  // A synthetic Dijkstra-shaped workload: pushes drift upward from the
  // running pop frontier (as relaxations do), ~2 pushes per pop until
  // the tail drains. Arg selects the discipline.
  const FrontierQueue::Kind kind =
      static_cast<FrontierQueue::Kind>(state.range(0));
  constexpr size_t kOps = 4096;
  Rng rng(17);
  std::vector<double> jitter(kOps);
  for (double& j : jitter) j = rng.UniformDouble(1.0, 32.0);
  FrontierQueue q;
  for (auto _ : state) {
    if (kind == FrontierQueue::Kind::kBucketQueue) {
      q.ResetBuckets(1.0);
    } else {
      q.ResetHeap(kind);
    }
    q.Push(0.0, 0);
    double frontier = 0.0;
    uint32_t id;
    size_t pushed = 1;
    while (q.Pop(&frontier, &id)) {
      for (int c = 0; c < 2 && pushed < kOps; ++c, ++pushed) {
        q.Push(frontier + jitter[pushed], static_cast<uint32_t>(pushed));
      }
    }
    benchmark::DoNotOptimize(frontier);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kOps));
}
BENCHMARK(BM_FrontierQueue)->Arg(0)->Arg(1)->Arg(2);

void BM_MaskedNeighborScan(benchmark::State& state) {
  // The CSR relaxation's masked scan over every door's neighbour
  // segments. Arg 0: per-neighbour DoorMask::Test. Arg 1: the word-wise
  // ForEachSetAmong helper the search core uses.
  const World& world = SharedWorld();
  const CsrAdjacency& adj = world.graph->adjacency();
  const CheckpointSet cps = CheckpointSet::FromGraph(*world.graph);
  const GraphSnapshot snap =
      BuildSnapshot(*world.graph, cps, cps.NumIntervals() / 2);
  const DoorMask& open = snap.open;
  const bool word_wise = state.range(0) == 1;
  for (auto _ : state) {
    double acc = 0;
    for (size_t d = 0; d < adj.num_doors; ++d) {
      const uint32_t begin = adj.seg_offsets[2 * d];
      const uint32_t end = adj.seg_offsets[2 * d + 2];
      if (word_wise) {
        open.ForEachSetAmong(
            adj.neighbor_ids.data() + begin, end - begin,
            [&](size_t k) { acc += adj.neighbor_weights[begin + k]; });
      } else {
        for (uint32_t k = begin; k < end; ++k) {
          if (open.Test(static_cast<DoorId>(adj.neighbor_ids[k]))) {
            acc += adj.neighbor_weights[k];
          }
        }
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_MaskedNeighborScan)->Arg(0)->Arg(1);

void BM_QueryEndToEnd(benchmark::State& state) {
  const World& world = SharedWorld();
  static std::vector<QueryInstance>* queries = new std::vector<QueryInstance>(
      MakeWorkload(world, 900, /*pairs=*/3));
  const Router& router = [&]() -> const Router& {
    static std::unique_ptr<Router> itg_s =
        MakeRouterOrDie(SharedWorld(), "itg-s");
    static std::unique_ptr<Router> itg_a =
        MakeRouterOrDie(SharedWorld(), "itg-a");
    return state.range(0) == 1 ? *itg_a : *itg_s;
  }();
  // Arg 2: itg-s in exact mode (Alg. 1's partition pruning off), the
  // goal-directed A* path — the pruned default keeps plain Dijkstra
  // order to reproduce the paper's answers.
  QueryOptions options;
  if (state.range(0) == 2) options.partition_visited_pruning = false;
  QueryContext context;
  size_t i = 0;
  for (auto _ : state) {
    const QueryInstance& q = (*queries)[i % queries->size()];
    auto r = router.Route(
        QueryRequest{q.ps, q.pt, Instant::FromHMS(12), options}, &context);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_QueryEndToEnd)->Arg(0)->Arg(1)->Arg(2);

void BM_RouteBatch(benchmark::State& state) {
  const World& world = SharedWorld();
  static std::unique_ptr<Router> router = MakeRouterOrDie(world, "itg-s");
  static std::vector<QueryRequest>* requests = [] {
    auto* reqs = new std::vector<QueryRequest>();
    for (const QueryInstance& q : MakeWorkload(SharedWorld(), 900,
                                               /*pairs=*/4)) {
      for (int hour : {10, 12, 14, 16}) {
        reqs->push_back(QueryRequest{q.ps, q.pt, Instant::FromHMS(hour),
                                     QueryOptions()});
      }
    }
    return reqs;
  }();
  for (auto _ : state) {
    auto results = router->RouteBatch(*requests);
    benchmark::DoNotOptimize(results.size());
  }
}
// RouteBatch is sequential; the /1 suffix keeps the row name that the
// committed BENCH_*.json snapshots record.
BENCHMARK(BM_RouteBatch)->Arg(1);

void BM_ArtifactLoad(benchmark::State& state) {
  // A cold load on the request path, as a lazy catalog shard pays it:
  // decode one in-memory image of a 3-floor fleet venue, then assemble
  // its serving world (adjacency compile + itg-a+ router). Teardown of
  // the previous world is inside the timed loop, as an eviction is.
  static const std::vector<uint8_t>* image = [] {
    FleetConfig config;
    config.num_venues = 1;
    config.seed = 1;
    config.min_floors = 3;
    config.max_floors = 3;
    auto fleet = GenerateVenueFleet(config);
    if (!fleet.ok()) std::abort();
    auto bytes = EncodeVenueArtifact((*fleet)[0]);
    if (!bytes.ok()) std::abort();
    return new std::vector<uint8_t>(*std::move(bytes));
  }();
  for (auto _ : state) {
    auto decoded = DecodeVenueArtifact(image->data(), image->size());
    if (!decoded.ok()) std::abort();
    auto world = BuildWorldFromArtifact(*std::move(decoded), "itg-a+");
    if (!world.ok()) std::abort();
    benchmark::DoNotOptimize(world->get());
  }
}
BENCHMARK(BM_ArtifactLoad);

}  // namespace
}  // namespace bench
}  // namespace itspq

BENCHMARK_MAIN();
