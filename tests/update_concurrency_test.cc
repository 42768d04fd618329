// Concurrent read/write hammers for the update plane, written to run
// under TSan: readers route while writers flip doors between two ATI
// configurations. Every answer must be coherent — bit-identical to the
// answer under configuration A's world or configuration B's world,
// never a mix — and the service keeps serving throughout (no drain, no
// pause). Pre-building static control worlds gives the exact answer set
// for each world. With several writers on disjoint doors, the final
// worlds must also match a from-scratch rebuild.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/time.h"
#include "gen/ati_gen.h"
#include "gen/venue_gen.h"
#include "gen/workload_gen.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"
#include "update/ati_update.h"
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

// Configuration A keeps the toggled door open across every workload
// departure hour; configuration B confines it to a short night window,
// i.e. effectively closed — so any on-path door must reroute.
const std::vector<TimeInterval> kConfigA = {MakeInterval(6, 0, 23, 30)};
const std::vector<TimeInterval> kConfigB = {MakeInterval(2, 0, 2, 30)};

Venue MakeHammerVenue() {
  MallConfig mall = MallConfig::Paper();
  mall.floors = 1;
  mall.seed = 13;
  Venue shell = ValueOrDie(GenerateMall(mall), "GenerateMall");
  AtiGenConfig ati;
  ati.seed = 14;
  return ValueOrDie(AssignTemporalVariations(shell, ati),
                    "AssignTemporalVariations");
}

Venue WithDoorConfig(const Venue& base, DoorId door,
                     const std::vector<TimeInterval>& intervals) {
  Venue::Builder builder = Venue::Builder::FromVenue(base);
  Status status = builder.SetDoorAti(door, intervals);
  if (!status.ok()) {
    ADD_FAILURE() << "SetDoorAti: " << status.ToString();
    std::abort();
  }
  return ValueOrDie(std::move(builder).Build(), "Builder::Build");
}

VenueCatalog MakeCatalogWith(const Venue& venue) {
  VenueCatalog catalog;
  ValueOrDie(catalog.AddVenue(venue, "itg-a+"), "AddVenue");
  return catalog;
}

// A coherent answer equals exactly one of the two worlds' answers for
// the same request (or both, when the toggled door doesn't matter).
bool Matches(const StatusOr<QueryResult>& got,
             const StatusOr<QueryResult>& expect) {
  if (got.ok() != expect.ok()) return false;
  if (!got.ok()) return got.status().code() == expect.status().code();
  if (got->found != expect->found) return false;
  if (!got->found) return true;
  if (got->path.length_m() != expect->path.length_m()) return false;
  if (got->path.steps().size() != expect->path.steps().size()) return false;
  for (size_t s = 0; s < got->path.steps().size(); ++s) {
    if (got->path.steps()[s].door != expect->path.steps()[s].door ||
        got->path.steps()[s].cumulative_m !=
            expect->path.steps()[s].cumulative_m ||
        got->path.steps()[s].arrival_seconds !=
            expect->path.steps()[s].arrival_seconds) {
      return false;
    }
  }
  return true;
}

struct HammerFixture {
  Venue base = MakeHammerVenue();
  DoorId door = kInvalidDoor;

  // Live catalog starts in configuration A; static controls hold A and
  // B frozen for answer comparison.
  VenueCatalog live, control_a, control_b;

  std::vector<QueryRequest> workload;
  std::vector<StatusOr<QueryResult>> expect_a, expect_b;

  HammerFixture() {
    // Draw the workload against the unmodified venue (configs only
    // change door hours, never geometry, so endpoints stay valid).
    VenueCatalog plain = MakeCatalogWith(base);
    MultiVenueWorkloadConfig config;
    config.num_requests = 64;
    config.seed = 55;
    config.pairs_per_venue = 8;
    workload = ValueOrDie(GenerateMultiVenueWorkload(plain, config),
                          "GenerateMultiVenueWorkload");

    // Toggle the door the workload's shortest paths cross most often —
    // closing it (config B) must reroute some answers.
    std::vector<size_t> door_hits(base.NumDoors(), 0);
    {
      ShardedRouter router(plain);
      QueryContext context;
      for (const QueryRequest& request : workload) {
        const StatusOr<QueryResult> result = router.Route(request, &context);
        if (!result.ok() || !result->found) continue;
        for (const PathStep& step : result->path.steps()) {
          if (step.door != kInvalidDoor) ++door_hits[step.door];
        }
      }
    }
    size_t best = 0;
    for (size_t d = 1; d < door_hits.size(); ++d) {
      if (door_hits[d] > door_hits[best]) best = d;
    }
    if (door_hits[best] == 0) {
      ADD_FAILURE() << "workload found no routes";
      std::abort();
    }
    door = static_cast<DoorId>(best);

    live = MakeCatalogWith(WithDoorConfig(base, door, kConfigA));
    control_a = MakeCatalogWith(WithDoorConfig(base, door, kConfigA));
    control_b = MakeCatalogWith(WithDoorConfig(base, door, kConfigB));

    ShardedRouter router_a(control_a);
    ShardedRouter router_b(control_b);
    QueryContext context_a, context_b;
    size_t differs = 0;
    for (const QueryRequest& request : workload) {
      expect_a.push_back(router_a.Route(request, &context_a));
      expect_b.push_back(router_b.Route(request, &context_b));
      if (!Matches(expect_a.back(), expect_b.back())) ++differs;
    }
    // The hammer is only meaningful if the toggled door changes some
    // answers — otherwise "matches A or B" is vacuous.
    EXPECT_GT(differs, 0u) << "toggled door affects no workload answer";
  }
};

TEST(UpdateConcurrencyTest, CatalogReadersSeeCoherentEpochsUnderWriter) {
  HammerFixture fx;
  ShardedRouter router(fx.live);

  constexpr int kReaders = 8;
  constexpr int kWriterRounds = 50;
  std::atomic<bool> stop{false};
  std::atomic<size_t> incoherent{0};
  std::atomic<size_t> answered{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      QueryContext context;
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = i++ % fx.workload.size();
        const StatusOr<QueryResult> got =
            router.Route(fx.workload[q], &context);
        if (!Matches(got, fx.expect_a[q]) && !Matches(got, fx.expect_b[q])) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  size_t applied = 0;
  for (int round = 0; round < kWriterRounds; ++round) {
    // Pace the writer by the readers so reads overlap the whole stream:
    // a commit takes microseconds, and 50 of them can otherwise finish
    // before any reader thread is scheduled.
    while (answered.load(std::memory_order_relaxed) <=
           static_cast<size_t>(round)) {
      std::this_thread::yield();
    }
    AtiUpdate update;
    update.venue_id = 0;
    update.door_id = fx.door;
    update.intervals = (round % 2 == 0) ? kConfigB : kConfigA;
    ValueOrDie(fx.live.ApplyAtiUpdate(update), "ApplyAtiUpdate");
    ++applied;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(applied, static_cast<size_t>(kWriterRounds));
  EXPECT_EQ(fx.live.epoch(0), static_cast<uint64_t>(kWriterRounds));
  EXPECT_EQ(fx.live.Stats().total_updates_applied,
            static_cast<size_t>(kWriterRounds));
}

TEST(UpdateConcurrencyTest, ServiceServesThroughoutUpdateStream) {
  HammerFixture fx;

  ServiceOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  options.update_queue_capacity = 256;
  auto service = ValueOrDie(
      MakeQueryService(std::move(fx.live), options), "MakeQueryService");

  constexpr int kSubmitters = 8;
  constexpr int kQueriesPerSubmitter = 40;
  constexpr int kWriterRounds = 30;

  std::atomic<size_t> incoherent{0};
  std::atomic<size_t> served_ok{0};
  std::atomic<size_t> backpressured{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kQueriesPerSubmitter; ++i) {
        const size_t q = static_cast<size_t>(s * kQueriesPerSubmitter + i) %
                         fx.workload.size();
        StatusOr<QueryResult> got =
            service->Submit(fx.workload[q]).get();
        if (!got.ok() &&
            got.status().code() == StatusCode::kResourceExhausted) {
          // Admission backpressure is a valid serving outcome, not an
          // epoch-coherence violation.
          backpressured.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!Matches(got, fx.expect_a[q]) && !Matches(got, fx.expect_b[q])) {
          incoherent.fetch_add(1, std::memory_order_relaxed);
        } else {
          served_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer runs concurrently with the submitters: the service never
  // drains or pauses while the door toggles A <-> B.
  std::vector<std::future<Status>> commits;
  commits.reserve(kWriterRounds);
  std::thread writer([&] {
    for (int round = 0; round < kWriterRounds; ++round) {
      AtiUpdate update;
      update.venue_id = 0;
      update.door_id = fx.door;
      update.intervals = (round % 2 == 0) ? kConfigB : kConfigA;
      commits.push_back(service->SubmitUpdate(update));
    }
  });

  for (std::thread& t : submitters) t.join();
  writer.join();
  for (std::future<Status>& commit : commits) {
    const Status status = commit.get();
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kResourceExhausted)
        << status.ToString();
  }
  service->Shutdown();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(served_ok.load(), 0u);

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.updates_submitted, static_cast<size_t>(kWriterRounds));
  EXPECT_EQ(stats.updates_submitted,
            stats.updates_applied + stats.updates_rejected);
  EXPECT_GT(stats.updates_applied, 0u);
  EXPECT_EQ(stats.submitted,
            static_cast<size_t>(kSubmitters * kQueriesPerSubmitter));
}

Venue MakeMall(uint64_t seed) {
  MallConfig mall = MallConfig::Paper();
  mall.floors = 1;
  mall.seed = seed;
  Venue shell = ValueOrDie(GenerateMall(mall), "GenerateMall");
  AtiGenConfig ati;
  ati.seed = seed + 1;
  return ValueOrDie(AssignTemporalVariations(shell, ati),
                    "AssignTemporalVariations");
}

// Four writer threads flip four distinct doors through
// QueryService::SubmitUpdate — two doors on venue 0, one each on venues
// 1 and 2 — while eight readers query all three venues. Each read must
// match one combination of its venue's door configurations. The doors
// are disjoint, so the final worlds do not depend on the commit order
// between writers and must answer like a from-scratch rebuild.
TEST(UpdateConcurrencyTest, ConcurrentWritersOnDisjointDoorsMatchRebuild) {
  constexpr size_t kVenues = 3;
  std::vector<Venue> base;
  for (size_t v = 0; v < kVenues; ++v) base.push_back(MakeMall(13 + 10 * v));
  VenueCatalog plain;
  for (const Venue& venue : base) {
    ValueOrDie(plain.AddVenue(venue, "itg-a+"), "AddVenue");
  }
  MultiVenueWorkloadConfig config;
  config.num_requests = 200;
  config.seed = 57;
  config.pairs_per_venue = 8;
  const std::vector<QueryRequest> workload = ValueOrDie(
      GenerateMultiVenueWorkload(plain, config), "GenerateMultiVenueWorkload");

  // Writer w flips the door the workload crosses most on its venue
  // (venue 0's two writers take its two busiest).
  struct Writer {
    VenueId venue;
    DoorId door;
    int rounds;  // round r writes B when r is even, else A
  };
  std::vector<std::vector<size_t>> hits(kVenues);
  {
    ShardedRouter router(plain);
    QueryContext context;
    for (size_t v = 0; v < kVenues; ++v) hits[v].assign(base[v].NumDoors(), 0);
    for (const QueryRequest& request : workload) {
      const StatusOr<QueryResult> result = router.Route(request, &context);
      if (!result.ok() || !result->found) continue;
      for (const PathStep& step : result->path.steps()) {
        if (step.door != kInvalidDoor) ++hits[request.venue_id][step.door];
      }
    }
  }
  auto busiest = [&](size_t v, DoorId skip) {
    DoorId best = skip == 0 ? 1 : 0;
    for (size_t d = 0; d < hits[v].size(); ++d) {
      if (static_cast<DoorId>(d) != skip && hits[v][d] > hits[v][best]) {
        best = static_cast<DoorId>(d);
      }
    }
    return best;
  };
  const DoorId first = busiest(0, kInvalidDoor);
  // Final configurations differ per writer: B, A, B, A.
  const std::vector<Writer> writers = {{0, first, 25},
                                       {0, busiest(0, first), 24},
                                       {1, busiest(1, kInvalidDoor), 27},
                                       {2, busiest(2, kInvalidDoor), 26}};

  // The venue with each of its writers' doors set to `configs` (one bit
  // per writer on the venue: set = B).
  auto venue_with = [&](size_t v, unsigned configs) {
    Venue venue = base[v];
    unsigned bit = 0;
    for (const Writer& w : writers) {
      if (static_cast<size_t>(w.venue) != v) continue;
      venue = WithDoorConfig(venue, w.door,
                             (configs >> bit++) & 1 ? kConfigB : kConfigA);
    }
    return venue;
  };
  // Every answer each venue's door combinations give; the request is
  // re-addressed to venue 0 to route on a one-venue world.
  std::vector<std::vector<StatusOr<QueryResult>>> allowed(workload.size());
  size_t differs = 0;
  for (size_t v = 0; v < kVenues; ++v) {
    const unsigned combos = v == 0 ? 4 : 2;
    for (unsigned c = 0; c < combos; ++c) {
      const auto world = ValueOrDie(
          VersionedGraph::Build(venue_with(v, c), "itg-a+"), "Build");
      QueryContext context;
      for (size_t q = 0; q < workload.size(); ++q) {
        if (static_cast<size_t>(workload[q].venue_id) != v) continue;
        QueryRequest request = workload[q];
        request.venue_id = 0;
        allowed[q].push_back(world->router().Route(request, &context));
        if (!Matches(allowed[q].back(), allowed[q].front())) ++differs;
      }
    }
  }
  EXPECT_GT(differs, 0u) << "toggled doors affect no workload answer";

  VenueCatalog live;
  for (size_t v = 0; v < kVenues; ++v) {
    ValueOrDie(live.AddVenue(venue_with(v, 0), "itg-a+"), "AddVenue");
  }
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 4096;
  options.update_queue_capacity = writers.size();
  auto service = ValueOrDie(MakeQueryService(std::move(live), options),
                            "MakeQueryService");

  constexpr int kReaders = 8;
  std::atomic<int> writers_left{static_cast<int>(writers.size())};
  std::atomic<size_t> answered{0}, incoherent{0}, failed_writes{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (writers_left.load(std::memory_order_relaxed) > 0) {
        const size_t q = i++ % workload.size();
        const StatusOr<QueryResult> got = service->Submit(workload[q]).get();
        bool coherent = false;
        for (const StatusOr<QueryResult>& expect : allowed[q]) {
          coherent |= Matches(got, expect);
        }
        if (!coherent) incoherent.fetch_add(1, std::memory_order_relaxed);
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const Writer& w : writers) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < w.rounds; ++round) {
        // Paced by the readers so reads overlap every writer's stream.
        while (answered.load(std::memory_order_relaxed) <
               static_cast<size_t>(round)) {
          std::this_thread::yield();
        }
        AtiUpdate update;
        update.venue_id = w.venue;
        update.door_id = w.door;
        update.intervals = round % 2 == 0 ? kConfigB : kConfigA;
        if (!service->SubmitUpdate(update).get().ok()) {
          failed_writes.fetch_add(1, std::memory_order_relaxed);
        }
      }
      writers_left.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  service->Shutdown();

  EXPECT_EQ(incoherent.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(failed_writes.load(), 0u);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.updates_applied, stats.updates_submitted);
  EXPECT_EQ(service->catalog().epoch(0), 49u);
  EXPECT_EQ(service->catalog().epoch(1), 27u);
  EXPECT_EQ(service->catalog().epoch(2), 26u);

  // From-scratch control: each venue rebuilt with its writers' final
  // configurations (the last round's: B after an odd count, else A).
  VenueCatalog rebuilt;
  for (size_t v = 0; v < kVenues; ++v) {
    unsigned finals = 0, bit = 0;
    for (const Writer& w : writers) {
      if (static_cast<size_t>(w.venue) != v) continue;
      finals |= static_cast<unsigned>(w.rounds % 2) << bit++;
    }
    ValueOrDie(rebuilt.AddVenue(venue_with(v, finals), "itg-a+"), "AddVenue");
  }
  ShardedRouter rebuilt_router(rebuilt);
  QueryContext live_context, rebuilt_context;
  for (size_t q = 0; q < workload.size(); ++q) {
    EXPECT_TRUE(
        Matches(service->router().Route(workload[q], &live_context),
                rebuilt_router.Route(workload[q], &rebuilt_context)))
        << "request " << q;
  }
}

}  // namespace
}  // namespace itspq
