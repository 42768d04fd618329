#ifndef ITSPQ_SERVER_QUERY_SERVICE_H_
#define ITSPQ_SERVER_QUERY_SERVICE_H_

// The asynchronous serving frontend over the Router API.
//
// A QueryService owns a fully built VenueCatalog, fronts it with a
// ShardedRouter, and serves Submit()ed requests through a bounded
// admission queue drained by worker threads. A worker that pops a
// request also takes whatever is already queued behind it (in class
// order, up to `max_batch` in all) and dispatches the lot at once as
// one RouteBatch call — it never waits for stragglers, so batches form
// only under backlog. At most `num_workers` routes run at once: each
// dispatch holds one of that many route slots, and each slot owns the
// QueryContext its routes reuse.
//
// Run to completion: an admitted kInteractive request that finds every
// class queue empty, the service neither paused nor shutting down, and
// a route slot free does not queue at all. Submit() dispatches it on
// the calling thread, as a batch of one through the same deadline
// gates and accounting, and returns an already-ready future — an idle
// service answers without a worker wake-up or a thread handoff. Batch
// and background requests, and anything arriving at a backlog, queue
// as usual. Per-request deadlines are re-checked before and after
// dispatch. Admission control is explicit:
//
//   queue full            -> kResourceExhausted  (backpressure)
//   displaced while queued-> kResourceExhausted  (shed: a higher QoS
//                                                 class took the slot)
//   infeasible deadline   -> kResourceExhausted  (shed: cannot make the
//                                                 deadline at current
//                                                 queue depth)
//   NaN/negative deadline -> kInvalidArgument    (never enqueued)
//   deadline already past -> kDeadlineExceeded   (never enqueued)
//   expired while queued  -> kDeadlineExceeded   (never dispatched)
//   expired mid-dispatch  -> kDeadlineExceeded   (answer dropped)
//   submit after Shutdown -> kFailedPrecondition
//
// Overload control is QoS-aware. Every request carries a QosClass;
// workers drain strictly by class (interactive before batch before
// background), and when the queue is at its limit an arriving request
// of a higher class displaces the youngest queued request of the
// lowest class present — overload sheds the cheapest traffic first and
// never silently delays the most valuable. Two further mechanisms grow
// the fixed-capacity admission of the original frontend into real
// overload control:
//
//   * Deadline-feasibility shedding: a request whose deadline cannot be
//     met given the queue depth ahead of it and the observed per-
//     request route time (EWMA over dispatched batches) is shed at
//     admission instead of wasting a queue slot to time out later.
//   * Adaptive queue limits: when target_queue_delay_micros is set, the
//     admission limit tracks target_delay / observed_route_time instead
//     of the fixed queue_capacity (which remains the hard ceiling), so
//     the queue holds roughly target_delay worth of work no matter how
//     slow the backend currently is.
//
//   VenueCatalog catalog = BuildFleet();
//   ServiceOptions opts;
//   opts.num_workers = 4;
//   opts.max_batch = 16;                            // at most 16 per dispatch
//   opts.default_deadline_micros = 50'000;          // 50 ms SLO
//   auto service = MakeQueryService(std::move(catalog), opts);
//   std::future<StatusOr<QueryResult>> answer =
//       (*service)->Submit(request);
//   ...
//   ServiceStats report = (*service)->Stats();       // any time
//   (*service)->Shutdown();                          // drains in-flight
//
// Submit() is thread-safe and never waits for queued work: every call
// returns a future that is eventually fulfilled, rejections included.
// It blocks only while it routes its own request on the run-to-
// completion path above — one route, a few µs on this system's venues.
// The trade-off: a single caller pipelining interactive requests into
// an idle service (one NetServer connection, say) routes them one at a
// time on its own thread instead of spreading them over the workers;
// as soon as a backlog forms, arrivals queue and the workers share
// them. Shutdown() (also run by the destructor) stops admission, serves
// everything already admitted whose deadline still allows, waits for
// routes running on callers' threads, and joins the workers.
//
// The service is also the write plane's front door. SubmitUpdate()
// runs writes to completion too: it applies an online ATI mutation on
// the calling thread and returns an already-ready future. Queries keep
// flowing meanwhile — reads pin their epoch, writes publish the next
// one RCU-style (see query/venue_catalog.h). The catalog serialises
// writers per venue, so writes to different venues apply in parallel.
// Each caller's writes apply in its own submission order; concurrent
// callers have no defined order between them (arrival order at the
// venue's writer lock decides).

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "query/router.h"
#include "query/sharded_router.h"
#include "query/venue_catalog.h"
#include "update/ati_update.h"

namespace itspq {

/// Request priority class, carried on the wire by the network edge
/// (net/wire.h) and into admission by Submit(). Lower value = higher
/// priority; workers drain strictly in class order and overload sheds
/// the highest value (lowest class) first. The numeric values are part
/// of the wire contract — frozen, append only.
enum class QosClass : uint8_t {
  kInteractive = 0,  ///< A user is waiting on the answer.
  kBatch = 1,        ///< Throughput-sensitive offline work.
  kBackground = 2,   ///< Crawlers, prefetchers — first to shed.
};

inline constexpr size_t kNumQosClasses = 3;

inline const char* QosClassName(QosClass qos) {
  switch (qos) {
    case QosClass::kInteractive:
      return "interactive";
    case QosClass::kBatch:
      return "batch";
    case QosClass::kBackground:
      return "background";
  }
  return "unknown";
}

/// Construction-time serving knobs, validated by MakeQueryService.
struct ServiceOptions {
  /// Admission queue bound; submits beyond it bounce with
  /// kResourceExhausted instead of growing memory without limit.
  size_t queue_capacity = 1024;
  /// Worker threads draining the queue, and the number of routes that
  /// may run at once (workers plus Submit() callers routing their own
  /// interactive request). Each of the num_workers route slots owns one
  /// QueryContext for the service's lifetime.
  int num_workers = 2;
  /// Micro-batching bound: a worker dispatches the request it popped
  /// plus whatever is already queued, up to `max_batch` requests in one
  /// RouteBatch call. It never waits for more to arrive, so batches
  /// larger than one form only under backlog. max_batch = 1 disables
  /// coalescing.
  size_t max_batch = 16;
  /// Deadline applied by the one-argument Submit(); 0 = no deadline.
  double default_deadline_micros = 0;
  /// Adaptive queue limit: when > 0, the admission limit is
  ///   min(queue_capacity,
  ///       max(min_queue_limit,
  ///           target_queue_delay_micros * num_workers / ewma))
  /// where ewma is the observed per-request route time — the queue
  /// holds roughly this much wall-clock worth of work instead of a
  /// fixed request count. 0 keeps the fixed queue_capacity.
  /// queue_capacity stays the hard memory ceiling either way.
  double target_queue_delay_micros = 0;
  /// Floor under the adaptive limit so a latency spike cannot collapse
  /// admission to zero.
  size_t min_queue_limit = 4;
  /// Deadline-feasibility shedding: reject a finite-deadline request at
  /// admission (kResourceExhausted, counted in shed_infeasible) when
  /// (queued_ahead + 1) * ewma / num_workers already overruns its
  /// deadline. Engages only once an EWMA exists, so cold starts and
  /// paused tests admit everything.
  bool feasibility_shedding = true;
  /// Cap on SubmitUpdate calls applying at once, each on its caller's
  /// thread (writers to one venue wait their turn at its shard and
  /// count meanwhile); a submit beyond it bounces with
  /// kResourceExhausted. Updates are orders of magnitude rarer than
  /// queries, so the default is small.
  size_t update_queue_capacity = 64;
  /// Start with dispatch paused: requests are admitted (and rejected
  /// under backpressure) but nothing is served until Resume() or
  /// Shutdown(). Deterministic admission tests and coordinated warm-up
  /// starts use this; production services leave it off.
  bool start_paused = false;
};

/// Point-in-time serving counters. Every submitted request lands in
/// exactly one of {rejected_*, shed_*, timed_out_*, served} once the
/// service quiesces, so after Shutdown:
///   submitted == rejected_queue_full + rejected_expired +
///                rejected_invalid + rejected_shutdown +
///                shed_displaced + shed_infeasible +
///                timed_out_in_queue + timed_out_in_flight + served.
struct ServiceStats {
  size_t submitted = 0;
  /// Admitted to the queue (eventually dispatched, timed out, shed by a
  /// later displacement, or — for a snapshot taken while serving —
  /// still queued/in flight).
  size_t admitted = 0;
  size_t rejected_queue_full = 0;
  /// Deadline already expired at Submit(); never enqueued.
  size_t rejected_expired = 0;
  /// Malformed submission (NaN/negative deadline, unknown QoS class);
  /// never enqueued.
  size_t rejected_invalid = 0;
  size_t rejected_shutdown = 0;
  /// Overload shed: admitted, then evicted from the queue to make room
  /// for a higher-QoS arrival.
  size_t shed_displaced = 0;
  /// Overload shed: the deadline was infeasible at the observed service
  /// rate given the queue depth ahead; never enqueued.
  size_t shed_infeasible = 0;
  /// Deadline expired between admission and dispatch.
  size_t timed_out_in_queue = 0;
  /// Deadline expired while the batch was being routed; the computed
  /// answer was dropped in favour of kDeadlineExceeded.
  size_t timed_out_in_flight = 0;
  /// Delivered a router answer (OK-found, OK-not-found, or a
  /// per-request router error).
  size_t served = 0;
  /// Of `served`: routed on the submitting thread (the run-to-completion
  /// path for interactive requests arriving at an idle service).
  size_t dispatched_inline = 0;
  size_t served_found = 0;
  size_t route_errors = 0;

  /// Write path: SubmitUpdate calls, updates committed, and ones that
  /// failed anywhere (in-flight cap, shutdown, or ApplyAtiUpdate
  /// error). After Shutdown:
  ///   updates_submitted == updates_applied + updates_rejected.
  size_t updates_submitted = 0;
  size_t updates_applied = 0;
  size_t updates_rejected = 0;

  /// Per-class ledger, indexed by QosClass value. Sheds cover both
  /// displacement and infeasibility; under overload the shed mass
  /// should sit entirely in the lowest class present.
  std::array<size_t, kNumQosClasses> submitted_by_class = {};
  std::array<size_t, kNumQosClasses> served_by_class = {};
  std::array<size_t, kNumQosClasses> shed_by_class = {};

  /// Per-family ledger, indexed by QueryKind value: every Submit()
  /// with a known kind lands in submitted_by_kind, every delivered
  /// router answer in served_by_kind. An out-of-range kind is rejected
  /// at admission (kInvalidArgument, counted in rejected_invalid) and
  /// appears in neither array, so sum(submitted_by_kind) == submitted
  /// minus those rejections, and sum(served_by_kind) == served.
  std::array<size_t, kNumQueryKinds> submitted_by_kind = {};
  std::array<size_t, kNumQueryKinds> served_by_kind = {};

  /// Queue shape: current depth (all classes), the deepest it has ever
  /// been, the admission limit currently in force (== queue_capacity
  /// until the adaptive limit engages), and the observed per-request
  /// route-time EWMA driving it (0 until the first dispatch).
  size_t queue_depth = 0;
  size_t queue_high_water = 0;
  size_t queue_limit = 0;
  double ewma_route_micros = 0;

  /// Dispatch shape: batch_size_counts[b] = dispatched batches of size
  /// b (index 0 unused; sized max_batch + 1). Sum of b * count == the
  /// requests that reached RouteBatch.
  size_t batches = 0;
  std::vector<size_t> batch_size_counts;

  /// Submit-to-delivery latency of served requests.
  LatencyHistogram latency;

  /// Lazy-fleet serving: artifact loads triggered by queries on cold
  /// shards and their load latency, surfaced flat so dashboards don't
  /// dig through the catalog report (same data as catalog.total_loads /
  /// catalog.load_latency).
  size_t cold_loads = 0;
  LatencyHistogram cold_load_latency;

  /// The owned catalog's per-shard traffic / snapshot-cache report.
  CatalogStats catalog;
};

class QueryService {
 public:
  /// Shuts down (draining) if the caller has not already.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits under options().default_deadline_micros as kInteractive.
  std::future<StatusOr<QueryResult>> Submit(const QueryRequest& request);

  /// Submits with an explicit deadline, `deadline_micros` from now.
  /// A zero deadline is already expired (immediate kDeadlineExceeded,
  /// never enqueued); NaN or negative is malformed (immediate
  /// kInvalidArgument — NaN must never be admitted, since every
  /// comparison against it would read "no deadline"); +infinity
  /// disables the deadline regardless of the default. Thread-safe;
  /// rejections are delivered through the returned future, and an
  /// interactive request arriving at an idle service is routed before
  /// this returns (see the file comment).
  std::future<StatusOr<QueryResult>> Submit(const QueryRequest& request,
                                            double deadline_micros);

  /// Full-control submit: explicit deadline and QoS class. The class
  /// orders both service (workers drain interactive before batch
  /// before background) and shedding (overload displaces the lowest
  /// class first); see the file comment.
  std::future<StatusOr<QueryResult>> Submit(const QueryRequest& request,
                                            double deadline_micros,
                                            QosClass qos);

  /// Applies one online ATI mutation on the calling thread and returns
  /// an already-ready future holding the commit status. Reads never
  /// block on it; it waits only for an earlier write to the same venue.
  /// A caller's writes apply in the order it submits them; concurrent
  /// callers have no defined order between them. Status:
  ///   kOk                 — the new epoch is published; queries
  ///                         submitted after this returns see it.
  ///   kResourceExhausted  — update_queue_capacity applies already in
  ///                         flight (backpressure).
  ///   kFailedPrecondition — service already shut down.
  ///   kNotFound           — unknown venue_id or door_id.
  ///   kInvalidArgument    — replacement intervals fail normalisation.
  /// start_paused gates query dispatch only: writes apply under a
  /// paused service too. Thread-safe.
  std::future<Status> SubmitUpdate(const AtiUpdate& update);

  /// Lifts start_paused: workers begin draining. No-op when already
  /// running.
  void Resume();

  /// Stops admission, serves every already-admitted request whose
  /// deadline still allows (rejecting the rest with kDeadlineExceeded),
  /// waits for routes and updates already running on callers' threads,
  /// and joins the workers. Idempotent; concurrent callers block until
  /// the drain completes.
  void Shutdown();

  /// Point-in-time counters; safe to call while traffic is in flight.
  ServiceStats Stats() const;

  const ServiceOptions& options() const { return options_; }
  /// The owned serving state. The catalog's routers stay directly
  /// callable (Router::Route is const) — the replay test compares
  /// served answers against exactly that.
  const VenueCatalog& catalog() const { return catalog_; }
  const Router& router() const { return router_; }

 private:
  friend StatusOr<std::unique_ptr<QueryService>> MakeQueryService(
      VenueCatalog catalog, ServiceOptions options);

  using Clock = std::chrono::steady_clock;

  struct Pending {
    QueryRequest request;
    QosClass qos = QosClass::kInteractive;
    Clock::time_point submit;
    /// Clock::time_point::max() = no deadline.
    Clock::time_point deadline;
    std::promise<StatusOr<QueryResult>> promise;
  };

  QueryService(VenueCatalog catalog, ServiceOptions options);

  void WorkerLoop();
  /// One of the num_workers concurrent-route permits. Whoever holds it
  /// (a worker or an inline Submit caller) routes with its context.
  struct RouteSlot {
    QueryContext context;
    std::vector<Pending> batch;
  };

  /// Deadline-checks and dispatches `slot`'s coalesced batch, fulfilling
  /// every promise in it and leaving the batch empty. Returns how many
  /// requests were served.
  size_t Dispatch(RouteSlot* slot);
  /// Returns an inline caller's slot; wakes a worker when work queued
  /// up meanwhile, and Shutdown when it is waiting for inline routes.
  void ReleaseInlineSlot(RouteSlot* slot);

  size_t TotalQueuedLocked() const;
  /// The admission limit currently in force: queue_capacity, shrunk by
  /// the adaptive target-delay limit once an EWMA exists.
  size_t QueueLimitLocked() const;
  /// Pops the oldest request of the highest-priority non-empty class.
  /// Requires TotalQueuedLocked() > 0.
  Pending PopHighestLocked();

  // Construction order matters: router_ points at catalog_.
  VenueCatalog catalog_;
  ShardedRouter router_;
  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// One FIFO per QoS class, drained in class order. Guarded by mu_.
  std::array<std::deque<Pending>, kNumQosClasses> queues_;
  bool paused_;                 // guarded by mu_
  bool draining_ = false;       // guarded by mu_
  size_t queue_high_water_ = 0;  // guarded by mu_
  /// num_workers slots; free_slots_ (capacity num_workers, so push/pop
  /// never allocate) holds the ones no route is using. Guarded by mu_.
  std::vector<RouteSlot> slots_;
  std::vector<RouteSlot*> free_slots_;
  std::once_flag join_once_;
  std::vector<std::thread> workers_;

  // The write plane's admission: its own lock, so updates never contend
  // with query admission on mu_. update_cv_ wakes Shutdown when the
  // last in-flight apply finishes.
  mutable std::mutex update_mu_;
  std::condition_variable update_cv_;
  size_t updates_in_flight_ = 0;  // guarded by update_mu_
  bool update_draining_ = false;  // guarded by update_mu_

  std::atomic<size_t> submitted_{0};
  std::atomic<size_t> admitted_{0};
  std::atomic<size_t> rejected_queue_full_{0};
  std::atomic<size_t> rejected_expired_{0};
  std::atomic<size_t> rejected_invalid_{0};
  std::atomic<size_t> rejected_shutdown_{0};
  std::atomic<size_t> shed_displaced_{0};
  std::atomic<size_t> shed_infeasible_{0};
  std::atomic<size_t> timed_out_in_queue_{0};
  std::atomic<size_t> timed_out_in_flight_{0};
  std::atomic<size_t> served_{0};
  std::atomic<size_t> dispatched_inline_{0};
  std::atomic<size_t> served_found_{0};
  std::atomic<size_t> route_errors_{0};
  std::array<std::atomic<size_t>, kNumQosClasses> submitted_by_class_{};
  std::array<std::atomic<size_t>, kNumQosClasses> served_by_class_{};
  std::array<std::atomic<size_t>, kNumQosClasses> shed_by_class_{};
  std::array<std::atomic<size_t>, kNumQueryKinds> submitted_by_kind_{};
  std::array<std::atomic<size_t>, kNumQueryKinds> served_by_kind_{};
  /// Observed per-request route time (µs), smoothed over dispatched
  /// batches. Written by every dispatch, read by admission and Stats; a
  /// last-writer-wins race between dispatches is fine for a smoothed
  /// signal.
  std::atomic<double> ewma_route_micros_{0};
  std::atomic<size_t> updates_submitted_{0};
  std::atomic<size_t> updates_applied_{0};
  std::atomic<size_t> updates_rejected_{0};

  mutable std::mutex stats_mu_;
  size_t batches_ = 0;                       // guarded by stats_mu_
  std::vector<size_t> batch_size_counts_;    // guarded by stats_mu_
  LatencyHistogram latency_;                 // guarded by stats_mu_
};

/// Validates `options` (positive queue capacity, workers, and batch
/// size; non-negative deadlines — kInvalidArgument otherwise),
/// requires a non-empty catalog (kFailedPrecondition), and starts the
/// worker threads. The service owns the catalog from here on.
StatusOr<std::unique_ptr<QueryService>> MakeQueryService(
    VenueCatalog catalog, ServiceOptions options = ServiceOptions());

}  // namespace itspq

#endif  // ITSPQ_SERVER_QUERY_SERVICE_H_
