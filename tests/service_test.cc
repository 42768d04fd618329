// The serving frontend: MakeQueryService validation, the end-to-end
// replay proof (500 Zipf queries served through QueryService are
// bit-identical to direct Router::Route calls), an 8-thread submit
// hammer the tsan CI preset race-checks, and the admission edge cases —
// backpressure, pre-expired and in-queue-expired deadlines, graceful
// drain, and late-submit rejection. start_paused makes the admission
// tests deterministic: requests queue up while dispatch is held, and
// Shutdown() performs the drain under test. The run-to-completion tests
// hold routes open on a gated test strategy to pin down the shared cap
// on concurrent routes and the Shutdown-waits-for-inline rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "gen/query_gen.h"
#include "gen/workload_gen.h"
#include "query/registry.h"
#include "query/router.h"
#include "query/venue_catalog.h"
#include "server/query_service.h"
#include "update/ati_update.h"

namespace itspq {
namespace {

const char* const kShardStrategies[] = {"itg-s", "itg-a+", "snap"};

template <typename T>
T ValueOrDie(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    ADD_FAILURE() << what << ": " << value.status().ToString();
    std::abort();
  }
  return *std::move(value);
}

// Three heterogeneous venues behind three different strategies — the
// same fleet shape the sharding suite pins down.
VenueCatalog MakeCatalog(uint64_t seed = 7) {
  FleetConfig config;
  config.num_venues = 3;
  config.seed = seed;
  config.min_floors = 1;
  config.max_floors = 2;
  config.min_shop_rows = 2;
  config.max_shop_rows = 3;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  VenueCatalog catalog;
  for (size_t i = 0; i < fleet.size(); ++i) {
    (void)ValueOrDie(catalog.AddVenue(std::move(fleet[i]), kShardStrategies[i]),
                     kShardStrategies[i]);
  }
  return catalog;
}

std::vector<QueryRequest> MakeWorkload(const VenueCatalog& catalog,
                                       int num_requests, uint64_t seed = 99) {
  MultiVenueWorkloadConfig config;
  config.num_requests = num_requests;
  config.seed = seed;
  config.pairs_per_venue = 4;
  return ValueOrDie(GenerateMultiVenueWorkload(catalog, config),
                    "GenerateMultiVenueWorkload");
}

std::unique_ptr<QueryService> MakeService(ServiceOptions options,
                                          uint64_t seed = 7) {
  return ValueOrDie(MakeQueryService(MakeCatalog(seed), options),
                    "MakeQueryService");
}

// Bit-identical: same found flag and, when found, the exact same doubles
// in the exact same steps. Routing is deterministic, so the served
// answer must be indistinguishable from a direct call — EQ on doubles,
// not NEAR.
void ExpectBitIdentical(const QueryResult& served, const QueryResult& direct,
                        size_t index) {
  EXPECT_EQ(served.found, direct.found) << "request " << index;
  if (!served.found || !direct.found) return;
  EXPECT_EQ(served.path.length_m(), direct.path.length_m())
      << "request " << index;
  EXPECT_EQ(served.path.departure_seconds(), direct.path.departure_seconds())
      << "request " << index;
  ASSERT_EQ(served.path.steps().size(), direct.path.steps().size())
      << "request " << index;
  for (size_t s = 0; s < served.path.steps().size(); ++s) {
    EXPECT_EQ(served.path.steps()[s].door, direct.path.steps()[s].door)
        << "request " << index << " step " << s;
    EXPECT_EQ(served.path.steps()[s].cumulative_m,
              direct.path.steps()[s].cumulative_m)
        << "request " << index << " step " << s;
    EXPECT_EQ(served.path.steps()[s].arrival_seconds,
              direct.path.steps()[s].arrival_seconds)
        << "request " << index << " step " << s;
  }
}

AtiUpdate MakeUpdate(VenueId venue, DoorId door,
                     std::vector<TimeInterval> intervals) {
  AtiUpdate update;
  update.venue_id = venue;
  update.door_id = door;
  update.intervals = std::move(intervals);
  return update;
}

bool IsReady(const std::future<Status>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void ExpectUpdateLedger(const ServiceStats& stats, size_t applied,
                        size_t rejected) {
  EXPECT_EQ(stats.updates_applied, applied);
  EXPECT_EQ(stats.updates_rejected, rejected);
  EXPECT_EQ(stats.updates_submitted,
            stats.updates_applied + stats.updates_rejected);
  EXPECT_EQ(stats.catalog.total_updates_applied, applied);
}

// Parks every route until the test opens it, and records how many
// routes were parked at once.
class RouteGate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    ++running_;
    max_running_ = std::max(max_running_, running_);
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// False if fewer than `n` routes are parked within 10 s.
  bool WaitForRunning(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return running_ >= n; });
  }
  int running() {
    std::lock_guard<std::mutex> lock(mu_);
    return running_;
  }
  int max_running() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_running_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int running_ = 0;
  int max_running_ = 0;
};

// The "itg-s" strategy behind a RouteGate.
class GatedRouter : public Router {
 public:
  GatedRouter(const ItGraph& graph, std::unique_ptr<Router> inner,
              RouteGate* gate)
      : Router("gated", graph), inner_(std::move(inner)), gate_(gate) {}

  StatusOr<QueryResult> Route(const QueryRequest& request,
                              QueryContext* context) const override {
    gate_->Enter();
    StatusOr<QueryResult> result = inner_->Route(request, context);
    gate_->Exit();
    return result;
  }

 private:
  std::unique_ptr<Router> inner_;
  RouteGate* gate_;
};

// A one-venue service whose only shard builds its routers with
// `factory`, registered as "gated". The registry must outlive the
// service (the catalog keeps it for rebuilds).
std::unique_ptr<QueryService> MakeOneVenueService(
    ServiceOptions options, RouterRegistry* registry,
    RouterRegistry::Factory factory) {
  EXPECT_TRUE(registry->Register("gated", std::move(factory)).ok());
  FleetConfig config;
  config.num_venues = 1;
  config.seed = 7;
  config.min_floors = 1;
  config.max_floors = 1;
  std::vector<Venue> fleet =
      ValueOrDie(GenerateVenueFleet(config), "GenerateVenueFleet");
  VenueCatalog catalog;
  (void)ValueOrDie(catalog.AddVenue(std::move(fleet[0]), "gated", "gated",
                                    RouterBuildOptions(), registry),
                   "AddVenue");
  return ValueOrDie(MakeQueryService(std::move(catalog), options),
                    "MakeQueryService");
}

// A one-venue service whose only shard routes through `gate`.
std::unique_ptr<QueryService> MakeGatedService(ServiceOptions options,
                                               RouteGate* gate,
                                               RouterRegistry* registry) {
  return MakeOneVenueService(
      options, registry,
      [gate](const ItGraph& graph, const RouterBuildOptions& build) {
        std::unique_ptr<Router> inner = ValueOrDie(
            RouterRegistry::Global().Create("itg-s", graph, build), "itg-s");
        return std::unique_ptr<Router>(
            std::make_unique<GatedRouter>(graph, std::move(inner), gate));
      });
}

// A one-venue service whose epoch transitions park in `gate`: every
// router build after AddVenue's first one waits there, so an apply
// holds open on its caller's thread until the gate opens.
std::unique_ptr<QueryService> MakeGatedApplyService(ServiceOptions options,
                                                    RouteGate* gate,
                                                    RouterRegistry* registry) {
  auto builds = std::make_shared<std::atomic<int>>(0);
  return MakeOneVenueService(
      options, registry,
      [gate, builds](const ItGraph& graph, const RouterBuildOptions& build) {
        if (builds->fetch_add(1) > 0) {
          gate->Enter();
          gate->Exit();
        }
        return ValueOrDie(
            RouterRegistry::Global().Create("itg-s", graph, build), "itg-s");
      });
}

TEST(MakeQueryServiceTest, ValidatesCatalogAndOptions) {
  VenueCatalog empty;
  auto no_venues = MakeQueryService(std::move(empty));
  ASSERT_FALSE(no_venues.ok());
  EXPECT_EQ(no_venues.status().code(), StatusCode::kFailedPrecondition);

  struct BadCase {
    const char* label;
    ServiceOptions options;
  };
  std::vector<BadCase> bad;
  bad.push_back({"zero capacity", {}});
  bad.back().options.queue_capacity = 0;
  bad.push_back({"zero workers", {}});
  bad.back().options.num_workers = 0;
  bad.push_back({"zero batch", {}});
  bad.back().options.max_batch = 0;
  bad.push_back({"negative deadline", {}});
  bad.back().options.default_deadline_micros = -1;
  for (BadCase& c : bad) {
    auto service = MakeQueryService(MakeCatalog(), c.options);
    ASSERT_FALSE(service.ok()) << c.label;
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument)
        << c.label;
  }

  auto service = MakeQueryService(MakeCatalog());
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->catalog().NumVenues(), 3u);
  (*service)->Shutdown();
}

// The end-to-end replay proof: record a 500-query Zipf workload, serve
// it through the full frontend, and check every served answer against
// Router::Route called directly on the owned catalog's shard routers.
// The replay runs twice. Submitted to a paused service and then
// resumed, it takes the queued path (queue, workers, micro-batching).
// Submitted one by one to a running service from one thread, every
// request finds the queue empty and runs to completion on the caller.
void ReplayAgainstDirectRoute(bool queued_path) {
  SCOPED_TRACE(queued_path ? "queued path" : "inline path");
  ServiceOptions options;
  options.queue_capacity = 600;  // admit the whole replay, no rejections
  options.num_workers = 3;
  options.max_batch = 16;
  options.start_paused = queued_path;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 500);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  futures.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }
  if (queued_path) service->Resume();

  QueryContext direct_context;
  size_t found = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<QueryResult> served = futures[i].get();
    StatusOr<QueryResult> direct =
        service->catalog()
            .router(requests[i].venue_id)
            .Route(requests[i], &direct_context);
    ASSERT_TRUE(served.ok()) << "request " << i << ": "
                             << served.status().ToString();
    ASSERT_TRUE(direct.ok()) << "request " << i;
    ExpectBitIdentical(*served, *direct, i);
    if (served->found) ++found;
  }
  EXPECT_GT(found, 0u);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, requests.size());
  EXPECT_EQ(stats.admitted, requests.size());
  EXPECT_EQ(stats.served, requests.size());
  EXPECT_EQ(stats.served_found, found);
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.timed_out_in_queue + stats.timed_out_in_flight, 0u);
  EXPECT_EQ(stats.latency.total, stats.served);
  if (queued_path) {
    EXPECT_GT(stats.queue_high_water, 0u);
    EXPECT_EQ(stats.dispatched_inline, 0u);
  } else {
    EXPECT_EQ(stats.queue_high_water, 0u);
    EXPECT_EQ(stats.dispatched_inline, stats.served);
  }
  EXPECT_EQ(stats.queue_depth, 0u);
  // Every dispatched batch lands in the histogram, none above
  // max_batch, and the sizes sum back to the served count. The direct
  // comparison calls above hit the shard routers, not the composite
  // ShardedRouter, so the catalog traffic counters saw each request
  // exactly once — through the service.
  size_t dispatched = 0;
  ASSERT_EQ(stats.batch_size_counts.size(), options.max_batch + 1);
  for (size_t b = 1; b < stats.batch_size_counts.size(); ++b) {
    dispatched += b * stats.batch_size_counts[b];
  }
  EXPECT_EQ(dispatched, stats.served);
  EXPECT_EQ(stats.catalog.total_queries, stats.served);
}

TEST(QueryServiceReplayTest, ServedAnswersBitIdenticalToDirectRoute) {
  ReplayAgainstDirectRoute(/*queued_path=*/true);
  ReplayAgainstDirectRoute(/*queued_path=*/false);
}

// The submit-side concurrency contract: 8 threads hammer Submit on one
// shared service while the workers drain. Runs green under the TSan
// preset; every answer must match the single-threaded reference.
TEST(QueryServiceConcurrencyTest, EightThreadSubmitHammer) {
  ServiceOptions options;
  options.queue_capacity = 2048;  // 8 x 64 x 2 admitted even if workers lag
  options.num_workers = 3;
  options.max_batch = 8;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 64);

  // Single-threaded reference, straight off the shard routers.
  QueryContext context;
  std::vector<StatusOr<QueryResult>> reference;
  for (const QueryRequest& request : requests) {
    reference.push_back(
        service->catalog().router(request.venue_id).Route(request, &context));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  auto worker = [&](int thread_index) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::future<StatusOr<QueryResult>>> futures;
      futures.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        QueryRequest request = requests[i];
        // Alternate the shared-cache path so the shard stores see
        // concurrent first-build races through the service too.
        request.options.use_snapshot_cache =
            ((thread_index + round) % 2) == 0;
        futures.push_back(service->Submit(request));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        StatusOr<QueryResult> served = futures[i].get();
        if (!served.ok() || !reference[i].ok() ||
            served->found != reference[i]->found ||
            (served->found &&
             served->path.length_m() != reference[i]->path.length_m())) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  const size_t total = requests.size() * kThreads * kRounds;
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.served, total);  // capacity held: nothing rejected
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.latency.total, total);
}

TEST(QueryServiceAdmissionTest, QueueFullRejectsWithResourceExhausted) {
  ServiceOptions options;
  options.queue_capacity = 4;
  options.num_workers = 1;
  options.start_paused = true;  // hold dispatch so the queue really fills
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 5);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }

  // The fifth future bounced immediately — no worker involvement.
  ASSERT_EQ(futures[4].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StatusOr<QueryResult> bounced = futures[4].get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.queue_depth, 4u);
  EXPECT_EQ(stats.queue_high_water, 4u);

  // Backpressure is a signal, not a failure: the drain serves the four
  // admitted requests.
  service->Shutdown();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(futures[i].get().ok()) << i;
  }
  stats = service->Stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(QueryServiceAdmissionTest, ExpiredDeadlineRejectedWithoutDispatch) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  // A non-positive deadline is dead on arrival — never enqueued, never
  // dispatched.
  std::future<StatusOr<QueryResult>> expired = service->Submit(request, 0);
  ASSERT_EQ(expired.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StatusOr<QueryResult> result = expired.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_expired, 1u);
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.batches, 0u);
  // The router never saw it.
  EXPECT_EQ(stats.catalog.total_queries, 0u);
}

TEST(QueryServiceAdmissionTest, DeadlineExpiringInQueueSkipsDispatch) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  // Admitted with a 2 ms deadline, then held paused well past it: the
  // drain must reject it at the pre-dispatch gate.
  std::future<StatusOr<QueryResult>> future = service->Submit(request, 2000);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service->Shutdown();

  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.timed_out_in_queue, 1u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.catalog.total_queries, 0u);
}

TEST(QueryServiceAdmissionTest, ShutdownDrainsThenRejectsLateSubmits) {
  ServiceOptions options;
  options.queue_capacity = 16;
  options.num_workers = 1;
  options.max_batch = 8;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 8);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }

  // Shutdown lifts the pause and drains: every admitted request is
  // served before Shutdown returns.
  service->Shutdown();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get().ok()) << i;
  }

  // Late submits bounce without touching the queue.
  std::future<StatusOr<QueryResult>> late = service->Submit(requests[0]);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const StatusOr<QueryResult> rejected = late.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Shutdown is idempotent.
  service->Shutdown();
}

// Micro-batching shape: with one worker, a paused queue of 8 and
// max_batch = 3, the drain must dispatch coalesced batches of 3, 3, 2.
TEST(QueryServiceBatchingTest, DrainCoalescesUpToMaxBatch) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 3;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 8);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }
  service->Shutdown();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.batches, 3u);
  ASSERT_EQ(stats.batch_size_counts.size(), 4u);
  EXPECT_EQ(stats.batch_size_counts[3], 2u);
  EXPECT_EQ(stats.batch_size_counts[2], 1u);
  EXPECT_EQ(stats.batch_size_counts[1], 0u);
}

// Dispatch never waits for stragglers: an idle worker serves a lone
// request as a batch of one. Each request is awaited before the next is
// submitted, so the queue holds exactly one request whenever the worker
// pops — N requests make exactly N singleton batches, and every answer
// matches a direct Route bit for bit.
TEST(QueryServiceBatchingTest, IdleServiceDispatchesEachRequestAlone) {
  ServiceOptions options;
  options.num_workers = 1;
  options.max_batch = 16;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 24);

  QueryContext direct_context;
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<QueryResult> served = service->Submit(requests[i]).get();
    StatusOr<QueryResult> direct =
        service->catalog()
            .router(requests[i].venue_id)
            .Route(requests[i], &direct_context);
    ASSERT_TRUE(served.ok()) << "request " << i << ": "
                             << served.status().ToString();
    ASSERT_TRUE(direct.ok()) << "request " << i;
    ExpectBitIdentical(*served, *direct, i);
  }
  // Batch counters are recorded after the promises resolve; Shutdown
  // joins the worker so the last one is in.
  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served, requests.size());
  EXPECT_EQ(stats.batches, requests.size());
  ASSERT_EQ(stats.batch_size_counts.size(), options.max_batch + 1);
  EXPECT_EQ(stats.batch_size_counts[1], requests.size());
}

// Run to completion: an interactive request submitted to an idle
// service is routed on the submitting thread, so Submit returns a future
// that is already ready, holding the same answer as a direct Route.
TEST(QueryServiceInlineTest, IdleServiceReturnsReadyInteractiveAnswer) {
  ServiceOptions options;
  options.num_workers = 2;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 24);

  QueryContext direct_context;
  for (size_t i = 0; i < requests.size(); ++i) {
    std::future<StatusOr<QueryResult>> future = service->Submit(requests[i]);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
    StatusOr<QueryResult> served = future.get();
    StatusOr<QueryResult> direct =
        service->catalog()
            .router(requests[i].venue_id)
            .Route(requests[i], &direct_context);
    ASSERT_TRUE(served.ok()) << "request " << i << ": "
                             << served.status().ToString();
    ASSERT_TRUE(direct.ok()) << "request " << i;
    ExpectBitIdentical(*served, *direct, i);
  }
  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served, requests.size());
  EXPECT_EQ(stats.dispatched_inline, requests.size());
  EXPECT_EQ(stats.batch_size_counts[1], requests.size());
  EXPECT_EQ(stats.latency.total, requests.size());
  EXPECT_EQ(stats.queue_high_water, 0u);
}

// Inline callers and workers share one cap of num_workers concurrent
// routes. Two callers park inline in the gate and take both slots; the
// next submits queue, and no worker routes them until a slot frees.
TEST(QueryServiceInlineTest, InlineCallersAndWorkersShareTheRouteCap) {
  RouteGate gate;
  RouterRegistry registry;
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  std::unique_ptr<QueryService> service =
      MakeGatedService(options, &gate, &registry);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 6);

  std::vector<std::future<StatusOr<QueryResult>>> inline_answers(2);
  std::vector<std::thread> callers;
  for (size_t i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] {
      inline_answers[i] = service->Submit(requests[i]);
    });
  }
  ASSERT_TRUE(gate.WaitForRunning(2));

  std::vector<std::future<StatusOr<QueryResult>>> queued;
  for (size_t i = 2; i < requests.size(); ++i) {
    queued.push_back(service->Submit(requests[i]));
    EXPECT_NE(queued.back().wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "request " << i;
  }
  // Workers are free but the slots are not: the queue holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.queue_depth, queued.size());
  EXPECT_EQ(gate.running(), 2);

  gate.Open();
  for (std::thread& caller : callers) caller.join();
  for (auto& answer : inline_answers) EXPECT_TRUE(answer.get().ok());
  for (auto& answer : queued) EXPECT_TRUE(answer.get().ok());
  service->Shutdown();

  stats = service->Stats();
  EXPECT_LE(gate.max_running(), options.num_workers);
  EXPECT_EQ(stats.served, requests.size());
  EXPECT_EQ(stats.dispatched_inline, 2u);
  EXPECT_EQ(stats.queue_high_water, queued.size());
}

// Only interactive requests run to completion, and only on a running
// service: batch and background queue for the workers even when idle,
// and a paused service queues interactive work too.
TEST(QueryServiceInlineTest, BatchBackgroundAndPausedNeverRunInline) {
  constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
  {
    ServiceOptions options;
    options.num_workers = 2;
    std::unique_ptr<QueryService> service = MakeService(options);
    const std::vector<QueryRequest> requests =
        MakeWorkload(service->catalog(), 8);
    for (size_t i = 0; i < requests.size(); ++i) {
      const QosClass qos = i % 2 == 0 ? QosClass::kBatch : QosClass::kBackground;
      EXPECT_TRUE(service->Submit(requests[i], kNoDeadline, qos).get().ok());
    }
    service->Shutdown();
    const ServiceStats stats = service->Stats();
    EXPECT_EQ(stats.served, requests.size());
    EXPECT_EQ(stats.dispatched_inline, 0u);
  }
  {
    ServiceOptions options;
    options.start_paused = true;
    std::unique_ptr<QueryService> service = MakeService(options);
    const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];
    std::future<StatusOr<QueryResult>> future =
        service->Submit(request, kNoDeadline, QosClass::kInteractive);
    EXPECT_EQ(service->Stats().queue_depth, 1u);
    EXPECT_NE(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    service->Resume();
    EXPECT_TRUE(future.get().ok());
    service->Shutdown();
    const ServiceStats stats = service->Stats();
    EXPECT_EQ(stats.served, 1u);
    EXPECT_EQ(stats.dispatched_inline, 0u);
  }
}

// "Shutdown returned" still means quiesced: a Shutdown from another
// thread waits for a route already running on a Submit caller's thread.
TEST(QueryServiceInlineTest, ShutdownWaitsForInFlightInlineDispatch) {
  RouteGate gate;
  RouterRegistry registry;
  ServiceOptions options;
  options.num_workers = 2;
  std::unique_ptr<QueryService> service =
      MakeGatedService(options, &gate, &registry);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  std::future<StatusOr<QueryResult>> answer;
  std::thread caller([&] { answer = service->Submit(request); });
  ASSERT_TRUE(gate.WaitForRunning(1));

  std::atomic<bool> shutdown_returned{false};
  std::thread stopper([&] {
    service->Shutdown();
    shutdown_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shutdown_returned.load());

  gate.Open();
  stopper.join();
  caller.join();
  EXPECT_TRUE(shutdown_returned.load());
  EXPECT_TRUE(answer.get().ok());
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.dispatched_inline, 1u);
  EXPECT_EQ(stats.latency.total, 1u);
}

// Eight threads submit all three classes with mixed deadlines into a
// small queue, so inline routes, queued batches, displacement, backpressure
// and timeouts interleave; the ledger must still balance exactly.
TEST(QueryServiceInlineTest, MixedClassHammerKeepsLedger) {
  ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  options.max_batch = 4;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 48);
  const double deadlines[] = {std::numeric_limits<double>::infinity(), 50'000,
                              200};

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<StatusOr<QueryResult>>> futures;
      for (size_t i = 0; i < requests.size(); ++i) {
        const size_t mix = i + static_cast<size_t>(t);
        futures.push_back(service->Submit(requests[i], deadlines[mix % 3],
                                          static_cast<QosClass>(mix / 3 % 3)));
      }
      for (auto& future : futures) (void)future.get();
    });
  }
  for (std::thread& thread : threads) thread.join();
  service->Shutdown();

  const ServiceStats stats = service->Stats();
  const size_t shed = stats.shed_displaced + stats.shed_infeasible;
  const size_t rejected = stats.rejected_queue_full + stats.rejected_expired +
                          stats.rejected_invalid + stats.rejected_shutdown;
  const size_t timed_out = stats.timed_out_in_queue + stats.timed_out_in_flight;
  EXPECT_EQ(stats.submitted, requests.size() * kThreads);
  EXPECT_EQ(stats.submitted, stats.served + shed + rejected + timed_out);
  EXPECT_EQ(stats.latency.total, stats.served);
  size_t served_by_class = 0;
  for (size_t served : stats.served_by_class) served_by_class += served;
  EXPECT_EQ(served_by_class, stats.served);
  EXPECT_LE(stats.dispatched_inline,
            stats.served_by_class[static_cast<size_t>(QosClass::kInteractive)]);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Whatever is already queued goes out together: five requests held by
// a paused service dispatch as one batch on Resume(), however many
// workers race for them — the first worker to lock the queue takes all.
TEST(QueryServiceBatchingTest, ResumeDispatchesQueuedRequestsAsOneBatch) {
  ServiceOptions options;
  options.max_batch = 16;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 5);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }
  ASSERT_EQ(service->Stats().queue_depth, 5u);
  service->Resume();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batch_size_counts[5], 1u);
}

// Resume() lifts start_paused without shutting down: the same service
// keeps serving afterwards.
TEST(QueryServiceBatchingTest, ResumeLiftsPausedDispatch) {
  ServiceOptions options;
  options.num_workers = 2;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 4);

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }
  EXPECT_EQ(service->Stats().served, 0u);
  EXPECT_EQ(service->Stats().queue_depth, 4u);

  service->Resume();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());

  // Still accepting after the resume-drain.
  EXPECT_TRUE(service->Submit(requests[0]).get().ok());
  service->Shutdown();
  EXPECT_EQ(service->Stats().served, 5u);
}

// A NaN deadline used to slip through admission as "no deadline" —
// every Clock comparison against NaN reads false, so the request could
// neither expire nor be feasibility-checked. It is malformed input and
// must bounce as such, along with plain negative budgets.
TEST(QueryServiceAdmissionTest, NanAndNegativeDeadlinesRejectedAsInvalid) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  const double bad_deadlines[] = {std::nan(""), -1.0, -1e9,
                                  -std::numeric_limits<double>::infinity()};
  for (double deadline : bad_deadlines) {
    std::future<StatusOr<QueryResult>> future =
        service->Submit(request, deadline);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << deadline;
    const StatusOr<QueryResult> result = future.get();
    ASSERT_FALSE(result.ok()) << deadline;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << deadline;
  }

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_invalid, 4u);
  EXPECT_EQ(stats.rejected_expired, 0u);  // distinct from a 0 deadline
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.catalog.total_queries, 0u);
  // The accounting identity covers the new bucket.
  EXPECT_EQ(stats.submitted, stats.rejected_invalid);
}

TEST(QueryServiceAdmissionTest, UnknownQosClassRejectedAsInvalid) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];

  std::future<StatusOr<QueryResult>> future = service->Submit(
      request, 1000.0, static_cast<QosClass>(kNumQosClasses));
  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.admitted, 0u);
}

// Displacement at queue limit: higher-class arrivals evict the
// youngest queued request of the lowest class strictly below them, and
// never touch their own class or above.
TEST(QueryServiceQosTest, FullQueueDisplacesLowestClassFirst) {
  ServiceOptions options;
  options.queue_capacity = 4;
  options.num_workers = 1;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 8);
  constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

  // Fill with background...
  std::vector<std::future<StatusOr<QueryResult>>> background;
  for (int i = 0; i < 4; ++i) {
    background.push_back(
        service->Submit(requests[i], kNoDeadline, QosClass::kBackground));
  }
  // ...then two interactive arrivals displace two background requests.
  std::vector<std::future<StatusOr<QueryResult>>> interactive;
  for (int i = 4; i < 6; ++i) {
    interactive.push_back(
        service->Submit(requests[i], kNoDeadline, QosClass::kInteractive));
  }

  // The youngest background futures resolved immediately as shed.
  for (int i = 3; i >= 2; --i) {
    ASSERT_EQ(background[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << i;
    const StatusOr<QueryResult> shed = background[i].get();
    ASSERT_FALSE(shed.ok()) << i;
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted) << i;
  }

  // A batch arrival at the (still full) queue sheds background, not
  // interactive.
  std::future<StatusOr<QueryResult>> batch =
      service->Submit(requests[6], kNoDeadline, QosClass::kBatch);
  const StatusOr<QueryResult> shed_for_batch = background[1].get();
  ASSERT_FALSE(shed_for_batch.ok());
  EXPECT_EQ(shed_for_batch.status().code(), StatusCode::kResourceExhausted);

  // A background arrival at the limit has nothing below it to shed —
  // plain queue-full rejection, existing semantics preserved.
  std::future<StatusOr<QueryResult>> rejected =
      service->Submit(requests[7], kNoDeadline, QosClass::kBackground);
  const StatusOr<QueryResult> bounced = rejected.get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  service->Shutdown();
  EXPECT_TRUE(background[0].get().ok());
  for (auto& f : interactive) EXPECT_TRUE(f.get().ok());
  EXPECT_TRUE(batch.get().ok());

  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.shed_displaced, 3u);
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.shed_by_class[static_cast<size_t>(QosClass::kBackground)],
            3u);
  EXPECT_EQ(stats.served_by_class[static_cast<size_t>(QosClass::kInteractive)],
            2u);
  EXPECT_EQ(stats.served_by_class[static_cast<size_t>(QosClass::kBatch)], 1u);
  EXPECT_EQ(stats.submitted, stats.served + stats.shed_displaced +
                                 stats.rejected_queue_full);
}

// Feasibility shedding: once an EWMA of the per-request route time
// exists, a deadline the queue can provably not meet is shed at
// admission instead of timing out later.
TEST(QueryServiceQosTest, InfeasibleDeadlineShedAtAdmission) {
  ServiceOptions options;
  options.num_workers = 1;
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 4);

  // Serve a little traffic to establish the EWMA (real routes take
  // hundreds of microseconds here).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service->Submit(requests[static_cast<size_t>(i)]).get().ok());
  }
  ASSERT_GT(service->Stats().ewma_route_micros, 0.0);

  // A 1-nanosecond budget cannot survive even an empty queue at that
  // service rate — shed, not admitted-then-expired.
  std::future<StatusOr<QueryResult>> future =
      service->Submit(requests[3], 1e-3);
  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.shed_infeasible, 1u);
  EXPECT_EQ(stats.timed_out_in_queue, 0u);
  EXPECT_EQ(stats.served, 3u);
}

// The adaptive limit: a target queue delay shrinks the admission bound
// from the fixed capacity to roughly target/ewma once dispatches have
// taught the service its own speed.
TEST(QueryServiceQosTest, AdaptiveQueueLimitTracksObservedRouteTime) {
  ServiceOptions options;
  options.num_workers = 1;
  options.queue_capacity = 64;
  options.target_queue_delay_micros = 1.0;  // ~one microsecond of queue
  options.min_queue_limit = 2;
  options.feasibility_shedding = false;  // isolate the limit mechanism
  std::unique_ptr<QueryService> service = MakeService(options);
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 3);

  // Cold: no EWMA yet, the limit is the full capacity.
  EXPECT_EQ(service->Stats().queue_limit, 64u);

  for (const QueryRequest& request : requests) {
    ASSERT_TRUE(service->Submit(request).get().ok());
  }
  // Routes take far longer than the 1 us target, so the ideal depth
  // rounds to zero and the floor holds the limit up.
  const ServiceStats stats = service->Stats();
  ASSERT_GT(stats.ewma_route_micros, 1.0);
  EXPECT_EQ(stats.queue_limit, 2u);
  service->Shutdown();
}

TEST(MakeQueryServiceTest, ValidatesOverloadControlOptions) {
  ServiceOptions bad_target;
  bad_target.target_queue_delay_micros = std::nan("");
  EXPECT_EQ(MakeQueryService(MakeCatalog(), bad_target).status().code(),
            StatusCode::kInvalidArgument);

  ServiceOptions negative_target;
  negative_target.target_queue_delay_micros = -1;
  EXPECT_EQ(MakeQueryService(MakeCatalog(), negative_target).status().code(),
            StatusCode::kInvalidArgument);

  ServiceOptions zero_floor;
  zero_floor.target_queue_delay_micros = 100;
  zero_floor.min_queue_limit = 0;
  EXPECT_EQ(MakeQueryService(MakeCatalog(), zero_floor).status().code(),
            StatusCode::kInvalidArgument);

  ServiceOptions nan_deadline;
  nan_deadline.default_deadline_micros = std::nan("");
  EXPECT_EQ(MakeQueryService(MakeCatalog(), nan_deadline).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LatencyHistogramTest, RecordsBucketsAndQuantiles) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.Quantile(0.5), 0);  // empty

  // 90 one-microsecond samples and 10 at 1 ms: p50 reports the upper
  // edge of [1, 1.125), p99 that of [960, 1024).
  for (int i = 0; i < 90; ++i) histogram.Record(1.0);
  for (int i = 0; i < 10; ++i) histogram.Record(1000.0);
  EXPECT_EQ(histogram.total, 100u);
  EXPECT_EQ(histogram.P50(), 1.125);
  EXPECT_EQ(histogram.P99(), 1024.0);
  // Quantiles are monotone in q.
  EXPECT_LE(histogram.Quantile(0.1), histogram.Quantile(0.9));

  LatencyHistogram other;
  other.Record(1.0);
  histogram.Accumulate(other);
  EXPECT_EQ(histogram.total, 101u);

  // Out-of-range samples clamp to the last bucket instead of writing
  // out of bounds.
  LatencyHistogram huge;
  huge.Record(1e30);
  EXPECT_EQ(huge.total, 1u);
  EXPECT_EQ(huge.counts[LatencyHistogram::kNumBuckets - 1], 1u);
}

// The overflow bucket is a clamp, not a measurement: +inf lands there
// too (casting log2(inf) to an integer is UB — this is the regression
// guard), and a quantile resolving to it reports the saturated top
// edge rather than inventing a finite latency.
TEST(LatencyHistogramTest, OverflowBucketClampsInfinity) {
  LatencyHistogram histogram;
  histogram.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.total, 1u);
  EXPECT_EQ(histogram.counts[LatencyHistogram::kNumBuckets - 1], 1u);
  EXPECT_EQ(histogram.P99(), LatencyHistogram::kSaturatedMicros);
  EXPECT_EQ(LatencyHistogram::kSaturatedMicros, std::ldexp(1.0, 40));
}

// The log-linear layout: bucket edges rise strictly, every regular
// bucket's upper edge is the next bucket's first value, and no bucket
// is wider than 1/8 of its lower edge (1/8 µs below 1 µs).
TEST(LatencyHistogramTest, LogLinearEdgesTileTheRange) {
  double lower = 0;
  for (size_t b = 0; b + 1 < LatencyHistogram::kNumBuckets; ++b) {
    const double upper = LatencyHistogram::UpperEdge(b);
    ASSERT_GT(upper, lower) << "bucket " << b;
    EXPECT_LE(upper - lower, std::max(lower, 1.0) / 8) << "bucket " << b;
    EXPECT_EQ(LatencyHistogram::BucketOf(lower), b) << "bucket " << b;
    if (b + 2 < LatencyHistogram::kNumBuckets) {
      EXPECT_EQ(LatencyHistogram::BucketOf(upper), b + 1) << "bucket " << b;
    }
    lower = upper;
  }
  EXPECT_EQ(lower, std::ldexp(1.0, LatencyHistogram::kOctaves));
  EXPECT_EQ(LatencyHistogram::BucketOf(lower),
            LatencyHistogram::kNumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::BucketOf(-5.0), 0u);
}

// On random samples spread over seven decades, every quantile reports
// a value no lower than the exact order statistic and at most 1/8 above
// it.
TEST(LatencyHistogramTest, QuantilesWithinOneEighthOfExactOrderStatistic) {
  std::mt19937_64 rng(20200420);
  std::uniform_real_distribution<double> log10_micros(0.0, 7.0);
  std::vector<double> samples(20000);
  LatencyHistogram histogram;
  for (double& sample : samples) {
    sample = std::pow(10.0, log10_micros(rng));
    histogram.Record(sample);
  }
  std::sort(samples.begin(), samples.end());
  for (int step = 0; step <= 1000; ++step) {
    const double q = step / 1000.0;
    const size_t target = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * samples.size())));
    const double exact = samples[target - 1];
    const double reported = histogram.Quantile(q);
    EXPECT_GE(reported, exact) << "q " << q;
    EXPECT_LE(reported, exact * 1.125) << "q " << q;
  }
  // Below 1 µs the error bound is absolute: 1/8 µs.
  LatencyHistogram small;
  small.Record(0.3);
  EXPECT_EQ(small.P50(), 0.375);
}

// NaN durations are dropped and ledgered, never bucketed: a NaN would
// land in bucket 0 (every comparison reads false) and silently skew
// p50 downward — the exact class of stats corruption the NaN deadline
// fix keeps out of admission.
TEST(LatencyHistogramTest, NanSamplesAreDroppedAndCounted) {
  LatencyHistogram histogram;
  histogram.Record(100.0);
  histogram.Record(std::nan(""));
  EXPECT_EQ(histogram.total, 1u);
  EXPECT_EQ(histogram.nan_dropped, 1u);
  EXPECT_EQ(histogram.counts[0], 0u);

  LatencyHistogram other;
  other.Record(std::nan(""));
  histogram.Accumulate(other);
  EXPECT_EQ(histogram.total, 1u);
  EXPECT_EQ(histogram.nan_dropped, 2u);
}

// The per-kind accounting ledger: a mixed workload of all four query
// kinds served to completion must land every request in exactly one
// submitted_by_kind slot and every delivered answer in the matching
// served_by_kind slot, with sum(served_by_kind) == served.
TEST(QueryServiceFamilyTest, PerKindLedgerBalances) {
  ServiceOptions options;
  options.queue_capacity = 256;
  options.num_workers = 2;
  std::unique_ptr<QueryService> service = MakeService(options);

  // Venue 0's graph feeds the family generators; the requests carry
  // venue_id 0, which the sharded dispatch sends to shard 0 (ids are
  // dense from 0, so "unaddressed" and "venue 0" coincide by design).
  const ItGraph& graph = service->catalog().graph(0);
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 10);
  size_t expected[kNumQueryKinds] = {requests.size(), 0, 0, 0};
  for (QueryKind kind : {QueryKind::kReachability,
                         QueryKind::kNearestFacility, QueryKind::kMultiStop}) {
    FamilyGenConfig config;
    config.kind = kind;
    config.num_queries = 3 + static_cast<int>(kind);
    config.seed = 50 + static_cast<uint64_t>(kind);
    std::vector<QueryRequest> family =
        ValueOrDie(GenerateFamilyQueries(graph, config), "family gen");
    expected[static_cast<size_t>(kind)] = family.size();
    requests.insert(requests.end(), family.begin(), family.end());
  }

  std::vector<std::future<StatusOr<QueryResult>>> futures;
  for (const QueryRequest& request : requests) {
    futures.push_back(service->Submit(request));
  }
  for (auto& future : futures) {
    const StatusOr<QueryResult> served = future.get();
    EXPECT_TRUE(served.ok()) << served.status().ToString();
  }
  service->Shutdown();

  const ServiceStats stats = service->Stats();
  size_t submitted_sum = 0, served_sum = 0;
  for (size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    EXPECT_EQ(stats.submitted_by_kind[kind], expected[kind])
        << "kind " << kind;
    EXPECT_EQ(stats.served_by_kind[kind], expected[kind]) << "kind " << kind;
    submitted_sum += stats.submitted_by_kind[kind];
    served_sum += stats.served_by_kind[kind];
  }
  EXPECT_EQ(submitted_sum, stats.submitted);
  EXPECT_EQ(served_sum, stats.served);
}

// An out-of-range kind byte (a corrupt or hostile enum value) is
// rejected at admission with kInvalidArgument, ledgered under
// rejected_invalid, and appears in NEITHER per-kind array — the arrays
// only ever index known kinds.
TEST(QueryServiceFamilyTest, UnknownKindRejectedAtAdmission) {
  std::unique_ptr<QueryService> service = MakeService(ServiceOptions{});
  std::vector<QueryRequest> requests = MakeWorkload(service->catalog(), 1);
  QueryRequest bogus = requests[0];
  bogus.kind = static_cast<QueryKind>(7);

  auto future = service->Submit(bogus);
  const StatusOr<QueryResult> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.rejected_invalid, 1u);
  EXPECT_EQ(stats.served, 0u);
  for (size_t kind = 0; kind < kNumQueryKinds; ++kind) {
    EXPECT_EQ(stats.submitted_by_kind[kind], 0u) << "kind " << kind;
    EXPECT_EQ(stats.served_by_kind[kind], 0u) << "kind " << kind;
  }
}

// SubmitUpdate applies on the caller's thread: the future is ready when
// it returns, and a query submitted next routes on the new epoch.
TEST(QueryServiceUpdateTest, ReadyFutureAndLaterQueriesSeeTheNewEpoch) {
  std::unique_ptr<QueryService> service = MakeService(ServiceOptions());
  const std::vector<QueryRequest> requests =
      MakeWorkload(service->catalog(), 64);
  constexpr VenueId kVenue = 1;
  std::vector<StatusOr<QueryResult>> before;
  std::vector<size_t> hits(service->catalog().venue(kVenue).NumDoors(), 0);
  for (const QueryRequest& request : requests) {
    before.push_back(service->Submit(request).get());
    if (request.venue_id != kVenue || !before.back().ok() ||
        !before.back()->found) {
      continue;
    }
    for (const PathStep& step : before.back()->path.steps()) {
      if (step.door != kInvalidDoor) ++hits[step.door];
    }
  }
  const DoorId door = static_cast<DoorId>(
      std::max_element(hits.begin(), hits.end()) - hits.begin());
  ASSERT_GT(hits[door], 0u) << "workload crosses no door of the venue";

  // Open the busiest door only 02:00-02:30: answers through it reroute.
  std::future<Status> commit = service->SubmitUpdate(
      MakeUpdate(kVenue, door, {MakeInterval(2, 0, 2, 30)}));
  ASSERT_TRUE(IsReady(commit));
  EXPECT_TRUE(commit.get().ok());
  EXPECT_EQ(service->catalog().epoch(kVenue), 1u);

  // The door carried hits[door] answers before; none crosses it now.
  for (size_t i = 0; i < requests.size(); ++i) {
    const StatusOr<QueryResult> after = service->Submit(requests[i]).get();
    ASSERT_TRUE(after.ok() && before[i].ok()) << "request " << i;
    if (requests[i].venue_id != kVenue) {
      ExpectBitIdentical(*after, *before[i], i);
      continue;
    }
    bool crosses = false;
    for (const PathStep& step : after->path.steps()) {
      crosses |= step.door == door;
    }
    EXPECT_FALSE(after->found && crosses) << "request " << i;
  }
  service->Shutdown();
  ExpectUpdateLedger(service->Stats(), 1, 0);
}

// Unknown venue or door and malformed intervals come back ready, leave
// the catalog on its epoch, and count as rejected.
TEST(QueryServiceUpdateTest, RejectedUpdatesAreReadyAndCounted) {
  std::unique_ptr<QueryService> service = MakeService(ServiceOptions());
  const std::vector<TimeInterval> hours = {MakeInterval(9, 0, 17, 0)};
  struct Case {
    AtiUpdate update;
    StatusCode code;
  };
  const Case cases[] = {
      {MakeUpdate(99, 0, hours), StatusCode::kNotFound},
      {MakeUpdate(0, 1'000'000, hours), StatusCode::kNotFound},
      {MakeUpdate(0, 0, {TimeInterval{9 * 3600.0, 9 * 3600.0}}),
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    std::future<Status> commit = service->SubmitUpdate(c.update);
    ASSERT_TRUE(IsReady(commit));
    EXPECT_EQ(commit.get().code(), c.code);
  }
  EXPECT_EQ(service->catalog().epoch(0), 0u);
  service->Shutdown();
  ExpectUpdateLedger(service->Stats(), 0, 3);
}

TEST(QueryServiceUpdateTest, SubmitAfterShutdownFailsPrecondition) {
  std::unique_ptr<QueryService> service = MakeService(ServiceOptions());
  service->Shutdown();
  std::future<Status> commit =
      service->SubmitUpdate(MakeUpdate(0, 0, {MakeInterval(9, 0, 17, 0)}));
  ASSERT_TRUE(IsReady(commit));
  EXPECT_EQ(commit.get().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service->catalog().epoch(0), 0u);
  ExpectUpdateLedger(service->Stats(), 0, 1);
}

// update_queue_capacity caps applies in flight: with one apply held open
// in the gate, a second submit bounces at once; after it finishes, the
// cap admits again.
TEST(QueryServiceUpdateTest, InFlightCapBouncesWithResourceExhausted) {
  RouteGate gate;
  RouterRegistry registry;
  ServiceOptions options;
  options.update_queue_capacity = 1;
  std::unique_ptr<QueryService> service =
      MakeGatedApplyService(options, &gate, &registry);
  const std::vector<TimeInterval> hours = {MakeInterval(9, 0, 17, 0)};

  Status held;
  std::thread writer(
      [&] { held = service->SubmitUpdate(MakeUpdate(0, 3, hours)).get(); });
  ASSERT_TRUE(gate.WaitForRunning(1));
  std::future<Status> bounced = service->SubmitUpdate(MakeUpdate(0, 4, hours));
  ASSERT_TRUE(IsReady(bounced));
  EXPECT_EQ(bounced.get().code(), StatusCode::kResourceExhausted);

  gate.Open();
  writer.join();
  EXPECT_TRUE(held.ok()) << held.ToString();
  EXPECT_TRUE(service->SubmitUpdate(MakeUpdate(0, 4, hours)).get().ok());
  EXPECT_EQ(service->catalog().epoch(0), 2u);
  service->Shutdown();
  ExpectUpdateLedger(service->Stats(), 2, 1);
}

// "Shutdown returned" means quiesced for writes too: it waits for an
// apply running on a SubmitUpdate caller's thread.
TEST(QueryServiceUpdateTest, ShutdownWaitsForInFlightApply) {
  RouteGate gate;
  RouterRegistry registry;
  std::unique_ptr<QueryService> service =
      MakeGatedApplyService(ServiceOptions(), &gate, &registry);

  Status held;
  std::thread writer([&] {
    held = service->SubmitUpdate(MakeUpdate(0, 3, {MakeInterval(9, 0, 17, 0)}))
               .get();
  });
  ASSERT_TRUE(gate.WaitForRunning(1));

  std::atomic<bool> shutdown_returned{false};
  std::thread stopper([&] {
    service->Shutdown();
    shutdown_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shutdown_returned.load());

  gate.Open();
  stopper.join();
  writer.join();
  EXPECT_TRUE(shutdown_returned.load());
  EXPECT_TRUE(held.ok()) << held.ToString();
  EXPECT_EQ(service->catalog().epoch(0), 1u);
  ExpectUpdateLedger(service->Stats(), 1, 0);
}

// start_paused holds query dispatch only: a write applies at once.
TEST(QueryServiceUpdateTest, PausedServiceStillAppliesWrites) {
  ServiceOptions options;
  options.start_paused = true;
  std::unique_ptr<QueryService> service = MakeService(options);
  const QueryRequest request = MakeWorkload(service->catalog(), 1)[0];
  std::future<StatusOr<QueryResult>> answer = service->Submit(request);

  std::future<Status> commit =
      service->SubmitUpdate(MakeUpdate(0, 0, {MakeInterval(9, 0, 17, 0)}));
  ASSERT_TRUE(IsReady(commit));
  EXPECT_TRUE(commit.get().ok());
  EXPECT_EQ(service->catalog().epoch(0), 1u);
  EXPECT_NE(answer.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  service->Resume();
  EXPECT_TRUE(answer.get().ok());
  service->Shutdown();
  ExpectUpdateLedger(service->Stats(), 1, 0);
}

// Four writers on three venues mix valid and malformed updates against a
// cap of two: every outcome (applied, malformed, bounced) lands in the
// ledger exactly once.
TEST(QueryServiceUpdateTest, ConcurrentWritersKeepLedger) {
  ServiceOptions options;
  options.update_queue_capacity = 2;
  std::unique_ptr<QueryService> service = MakeService(options);
  constexpr int kWriters = 4;
  constexpr int kUpdatesPerWriter = 40;
  std::atomic<size_t> ok{0}, failed{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kUpdatesPerWriter; ++i) {
        const int hour = 6 + (i + w) % 12;
        AtiUpdate update = MakeUpdate(static_cast<VenueId>(w % 3), w,
                                      {MakeInterval(hour, 0, hour + 4, 0)});
        if (i % 5 == 4) update.intervals = {TimeInterval{3600.0, 3600.0}};
        (service->SubmitUpdate(update).get().ok() ? ok : failed)
            .fetch_add(1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  service->Shutdown();
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.updates_submitted,
            static_cast<size_t>(kWriters * kUpdatesPerWriter));
  ExpectUpdateLedger(stats, ok.load(), failed.load());
  EXPECT_GE(failed.load(),
            static_cast<size_t>(kWriters * kUpdatesPerWriter / 5));
  size_t epochs = 0;
  for (VenueId v = 0; v < 3; ++v) epochs += service->catalog().epoch(v);
  EXPECT_EQ(epochs, ok.load());
}

}  // namespace
}  // namespace itspq
