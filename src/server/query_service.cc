#include "server/query_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace itspq {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

std::chrono::steady_clock::duration DurationFromMicros(double micros) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::micro>(micros));
}

/// Absolute deadline `micros` from `now`; +infinity (or anything past
/// the clock's range) means no deadline.
std::chrono::steady_clock::time_point DeadlineFor(
    std::chrono::steady_clock::time_point now, double micros) {
  if (!(micros < 1e15)) return std::chrono::steady_clock::time_point::max();
  return now + DurationFromMicros(micros);
}

}  // namespace

QueryService::QueryService(VenueCatalog catalog, ServiceOptions options)
    : catalog_(std::move(catalog)),
      router_(catalog_),
      options_(options),
      paused_(options.start_paused),
      slots_(static_cast<size_t>(options.num_workers)),
      batch_size_counts_(options.max_batch + 1, 0) {
  free_slots_.reserve(slots_.size());
  for (RouteSlot& slot : slots_) free_slots_.push_back(&slot);
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

std::future<StatusOr<QueryResult>> QueryService::Submit(
    const QueryRequest& request) {
  return Submit(request,
                options_.default_deadline_micros == 0
                    ? std::numeric_limits<double>::infinity()
                    : options_.default_deadline_micros,
                QosClass::kInteractive);
}

std::future<StatusOr<QueryResult>> QueryService::Submit(
    const QueryRequest& request, double deadline_micros) {
  return Submit(request, deadline_micros, QosClass::kInteractive);
}

size_t QueryService::TotalQueuedLocked() const {
  size_t total = 0;
  for (const std::deque<Pending>& queue : queues_) total += queue.size();
  return total;
}

size_t QueryService::QueueLimitLocked() const {
  size_t limit = options_.queue_capacity;
  if (options_.target_queue_delay_micros > 0) {
    const double ewma = ewma_route_micros_.load(kRelaxed);
    if (ewma > 0) {
      const double ideal = options_.target_queue_delay_micros *
                           static_cast<double>(options_.num_workers) / ewma;
      size_t adaptive = options_.min_queue_limit;
      if (ideal > static_cast<double>(adaptive)) {
        adaptive = ideal >= static_cast<double>(options_.queue_capacity)
                       ? options_.queue_capacity
                       : static_cast<size_t>(ideal);
      }
      limit = std::min(limit, adaptive);
    }
  }
  return limit;
}

QueryService::Pending QueryService::PopHighestLocked() {
  for (std::deque<Pending>& queue : queues_) {
    if (queue.empty()) continue;
    Pending pending = std::move(queue.front());
    queue.pop_front();
    return pending;
  }
  // Unreachable per contract; keeps the compiler happy.
  return Pending();
}

std::future<StatusOr<QueryResult>> QueryService::Submit(
    const QueryRequest& request, double deadline_micros, QosClass qos) {
  submitted_.fetch_add(1, kRelaxed);
  const size_t class_index = static_cast<size_t>(qos);
  const bool known_class = class_index < kNumQosClasses;
  if (known_class) submitted_by_class_[class_index].fetch_add(1, kRelaxed);
  const size_t kind_index = static_cast<size_t>(request.kind);
  const bool known_kind = kind_index < kNumQueryKinds;
  if (known_kind) submitted_by_kind_[kind_index].fetch_add(1, kRelaxed);
  const Clock::time_point now = Clock::now();

  // Everything that allocates (the request copy, the promise's shared
  // state) happens outside mu_ — workers contend on that mutex, so the
  // admission critical section is just the queue push / displacement.
  Pending pending;
  pending.request = request;
  pending.qos = qos;
  pending.submit = now;
  std::future<StatusOr<QueryResult>> future = pending.promise.get_future();

  Status rejection;
  Pending victim;
  bool have_victim = false;
  RouteSlot* inline_slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      rejected_shutdown_.fetch_add(1, kRelaxed);
      rejection = FailedPreconditionError("query service is shut down");
    } else if (!known_class) {
      rejected_invalid_.fetch_add(1, kRelaxed);
      rejection = InvalidArgumentError(
          "unknown QoS class " + std::to_string(class_index));
    } else if (!known_kind) {
      // Rejecting here (not at the router) keeps a malformed kind from
      // wasting a queue slot just to fail the strategy's validation.
      rejected_invalid_.fetch_add(1, kRelaxed);
      rejection = InvalidArgumentError(
          "unknown query kind " + std::to_string(kind_index));
    } else if (std::isnan(deadline_micros) || deadline_micros < 0) {
      // NaN must never reach DeadlineFor: !(NaN < 1e15) reads as "no
      // deadline", silently admitting a malformed request as immortal.
      rejected_invalid_.fetch_add(1, kRelaxed);
      rejection =
          InvalidArgumentError("deadline_micros must be a non-negative "
                               "number, got NaN or a negative value");
    } else if (deadline_micros == 0) {
      rejected_expired_.fetch_add(1, kRelaxed);
      rejection = DeadlineExceededError("deadline expired before admission");
    } else {
      // Only now is deadline_micros known to be a positive number (or
      // +inf): a -inf must never reach DeadlineFor's duration cast.
      pending.deadline = DeadlineFor(now, deadline_micros);
      // Feasibility gate: with the observed per-request route time and
      // the queue depth this class would wait behind, can the deadline
      // still be met? Shedding now beats timing out in the queue later
      // — the client learns immediately and the slot serves someone
      // who can still win.
      const double ewma = ewma_route_micros_.load(kRelaxed);
      bool infeasible = false;
      if (options_.feasibility_shedding && ewma > 0 &&
          deadline_micros < 1e15) {
        size_t queued_ahead = 0;
        for (size_t c = 0; c <= class_index; ++c) {
          queued_ahead += queues_[c].size();
        }
        const double predicted_micros =
            static_cast<double>(queued_ahead + 1) * ewma /
            static_cast<double>(options_.num_workers);
        infeasible = predicted_micros > deadline_micros;
      }
      const size_t limit = QueueLimitLocked();
      if (infeasible) {
        shed_infeasible_.fetch_add(1, kRelaxed);
        shed_by_class_[class_index].fetch_add(1, kRelaxed);
        rejection = ResourceExhaustedError(
            "shed: deadline infeasible at current queue depth");
      } else if (TotalQueuedLocked() >= limit) {
        // At the limit: a higher-priority arrival displaces the
        // youngest queued request of the lowest class present; an
        // arrival with nothing below it bounces with plain
        // backpressure.
        size_t victim_class = kNumQosClasses;
        for (size_t c = kNumQosClasses; c-- > class_index + 1;) {
          if (!queues_[c].empty()) {
            victim_class = c;
            break;
          }
        }
        if (victim_class < kNumQosClasses) {
          victim = std::move(queues_[victim_class].back());
          queues_[victim_class].pop_back();
          have_victim = true;
          shed_displaced_.fetch_add(1, kRelaxed);
          shed_by_class_[victim_class].fetch_add(1, kRelaxed);
          queues_[class_index].push_back(std::move(pending));
          admitted_.fetch_add(1, kRelaxed);
        } else {
          rejected_queue_full_.fetch_add(1, kRelaxed);
          rejection = ResourceExhaustedError("submission queue is full");
        }
      } else if (qos == QosClass::kInteractive && !paused_ &&
                 TotalQueuedLocked() == 0 && !free_slots_.empty()) {
        // Run to completion: nothing is waiting ahead of this request
        // and a route slot is free, so routing it here costs the caller
        // one route and saves the worker wake-up and the handoff back.
        inline_slot = free_slots_.back();
        free_slots_.pop_back();
        admitted_.fetch_add(1, kRelaxed);
      } else {
        queues_[class_index].push_back(std::move(pending));
        queue_high_water_ = std::max(queue_high_water_, TotalQueuedLocked());
        admitted_.fetch_add(1, kRelaxed);
      }
    }
  }
  if (have_victim) {
    victim.promise.set_value(StatusOr<QueryResult>(ResourceExhaustedError(
        "shed: displaced by higher-priority traffic")));
  }
  if (inline_slot != nullptr) {
    // Returned even if routing throws: Shutdown waits for every slot.
    struct SlotReturn {
      QueryService* service;
      RouteSlot* slot;
      ~SlotReturn() { service->ReleaseInlineSlot(slot); }
    } slot_return{this, inline_slot};
    inline_slot->batch.push_back(std::move(pending));
    dispatched_inline_.fetch_add(Dispatch(inline_slot), kRelaxed);
  } else if (!rejection.ok()) {
    pending.promise.set_value(StatusOr<QueryResult>(std::move(rejection)));
  } else {
    cv_.notify_one();
  }
  return future;
}

void QueryService::ReleaseInlineSlot(RouteSlot* slot) {
  bool wake_worker = false;
  bool draining = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_slots_.push_back(slot);
    wake_worker = TotalQueuedLocked() > 0;
    draining = draining_;
  }
  // While draining, Shutdown may be waiting on cv_ beside the workers
  // for this very slot, so everyone re-checks.
  if (draining) {
    cv_.notify_all();
  } else if (wake_worker) {
    cv_.notify_one();
  }
}

std::future<Status> QueryService::SubmitUpdate(const AtiUpdate& update) {
  updates_submitted_.fetch_add(1, kRelaxed);
  Status status;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    if (update_draining_) {
      status = FailedPreconditionError("query service is shut down");
    } else if (updates_in_flight_ >= options_.update_queue_capacity) {
      status = ResourceExhaustedError("too many updates in flight");
    } else {
      ++updates_in_flight_;
    }
  }
  if (!status.ok()) {
    updates_rejected_.fetch_add(1, kRelaxed);
  } else {
    // Run to completion: the epoch transition runs here, on the caller's
    // thread. The catalog serialises writers per shard, so writes to
    // different venues apply in parallel. The in-flight count drops even
    // if the apply throws: Shutdown waits for it to reach zero.
    struct InFlight {
      QueryService* service;
      ~InFlight() {
        std::lock_guard<std::mutex> lock(service->update_mu_);
        if (--service->updates_in_flight_ == 0 && service->update_draining_) {
          service->update_cv_.notify_all();
        }
      }
    } in_flight{this};
    status = catalog_.ApplyAtiUpdate(update).status();
    (status.ok() ? updates_applied_ : updates_rejected_).fetch_add(1, kRelaxed);
  }
  std::promise<Status> promise;
  promise.set_value(std::move(status));
  return promise.get_future();
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  // Writes apply on their callers' threads: stop admitting them, then
  // wait for the ones already applying, so every SubmitUpdate future is
  // resolved (and counted) by the time Shutdown returns.
  {
    std::unique_lock<std::mutex> lock(update_mu_);
    update_draining_ = true;
    update_cv_.wait(lock, [this] { return updates_in_flight_ == 0; });
  }
  // Exactly one caller joins; concurrent Shutdowns block here until the
  // drain completes, so "Shutdown returned" always means "quiesced".
  // Workers exit once the queue is empty; routes still running on
  // Submit() callers' threads hold slots, so waiting for every slot to
  // come back covers them (draining_ lets no new one start).
  std::call_once(join_once_, [this] {
    for (std::thread& worker : workers_) worker.join();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return free_slots_.size() == slots_.size(); });
    }
  });
}

void QueryService::WorkerLoop() {
  // A worker holds a route slot only while it dispatches, so an idle
  // worker leaves its slot (and the slot's long-lived context) to inline
  // callers. It returns the slot under the same lock it waits on.
  RouteSlot* slot = nullptr;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (slot != nullptr) free_slots_.push_back(slot);
      cv_.wait(lock, [this] {
        const bool queued = TotalQueuedLocked() > 0;
        return (draining_ && !queued) ||
               (!paused_ && queued && !free_slots_.empty());
      });
      // The predicate only passes with empty queues when draining.
      if (TotalQueuedLocked() == 0) return;
      slot = free_slots_.back();
      free_slots_.pop_back();
      // Micro-batching: take whatever is already queued — strictly in
      // class order, so interactive work never waits behind background —
      // and dispatch at once. Never wait for stragglers: under backlog
      // batches form on their own while the slots are busy.
      do {
        slot->batch.push_back(PopHighestLocked());
      } while (slot->batch.size() < options_.max_batch &&
               TotalQueuedLocked() > 0);
    }
    Dispatch(slot);
  }
}

size_t QueryService::Dispatch(RouteSlot* slot) {
  // Deadline gate #1: requests that died waiting never reach the
  // router.
  const Clock::time_point start = Clock::now();
  std::vector<Pending> live;
  live.reserve(slot->batch.size());
  for (Pending& pending : slot->batch) {
    if (start >= pending.deadline) {
      timed_out_in_queue_.fetch_add(1, kRelaxed);
      pending.promise.set_value(StatusOr<QueryResult>(
          DeadlineExceededError("deadline expired in the submission queue")));
    } else {
      live.push_back(std::move(pending));
    }
  }
  slot->batch.clear();
  if (live.empty()) return 0;

  std::vector<QueryRequest> requests;
  requests.reserve(live.size());
  for (const Pending& pending : live) requests.push_back(pending.request);
  // The coalesced call, on the slot's long-lived context.
  BatchOptions batch_options;
  batch_options.context = &slot->context;
  std::vector<StatusOr<QueryResult>> results =
      router_.RouteBatch(requests, batch_options);

  // Feed the admission-side signals: per-request route time, smoothed.
  // The first sample seeds the EWMA; later ones decay at 0.9 so a load
  // shift shows up within a few dozen batches.
  const Clock::time_point completed = Clock::now();
  const double per_request_micros =
      std::chrono::duration<double, std::micro>(completed - start).count() /
      static_cast<double>(live.size());
  const double previous = ewma_route_micros_.load(kRelaxed);
  ewma_route_micros_.store(
      previous == 0 ? per_request_micros
                    : 0.9 * previous + 0.1 * per_request_micros,
      kRelaxed);

  // Deadline gate #2: a client whose deadline passed mid-dispatch has
  // given up — the computed answer is dropped, not delivered late.
  size_t served = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    Pending& pending = live[i];
    if (completed >= pending.deadline) {
      timed_out_in_flight_.fetch_add(1, kRelaxed);
      pending.promise.set_value(StatusOr<QueryResult>(
          DeadlineExceededError("deadline expired during dispatch")));
      continue;
    }
    ++served;
    served_.fetch_add(1, kRelaxed);
    served_by_class_[static_cast<size_t>(pending.qos)].fetch_add(1, kRelaxed);
    const size_t kind = static_cast<size_t>(pending.request.kind);
    if (kind < kNumQueryKinds) served_by_kind_[kind].fetch_add(1, kRelaxed);
    if (results[i].ok()) {
      if (results[i]->found) served_found_.fetch_add(1, kRelaxed);
    } else {
      route_errors_.fetch_add(1, kRelaxed);
    }
    pending.promise.set_value(std::move(results[i]));
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++batches_;
  ++batch_size_counts_[live.size()];
  for (const Pending& pending : live) {
    if (completed >= pending.deadline) continue;  // timed out in flight
    latency_.Record(
        std::chrono::duration<double, std::micro>(completed - pending.submit)
            .count());
  }
  return served;
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(kRelaxed);
  stats.admitted = admitted_.load(kRelaxed);
  stats.rejected_queue_full = rejected_queue_full_.load(kRelaxed);
  stats.rejected_expired = rejected_expired_.load(kRelaxed);
  stats.rejected_invalid = rejected_invalid_.load(kRelaxed);
  stats.rejected_shutdown = rejected_shutdown_.load(kRelaxed);
  stats.shed_displaced = shed_displaced_.load(kRelaxed);
  stats.shed_infeasible = shed_infeasible_.load(kRelaxed);
  stats.timed_out_in_queue = timed_out_in_queue_.load(kRelaxed);
  stats.timed_out_in_flight = timed_out_in_flight_.load(kRelaxed);
  stats.served = served_.load(kRelaxed);
  stats.dispatched_inline = dispatched_inline_.load(kRelaxed);
  stats.served_found = served_found_.load(kRelaxed);
  stats.route_errors = route_errors_.load(kRelaxed);
  for (size_t c = 0; c < kNumQosClasses; ++c) {
    stats.submitted_by_class[c] = submitted_by_class_[c].load(kRelaxed);
    stats.served_by_class[c] = served_by_class_[c].load(kRelaxed);
    stats.shed_by_class[c] = shed_by_class_[c].load(kRelaxed);
  }
  for (size_t k = 0; k < kNumQueryKinds; ++k) {
    stats.submitted_by_kind[k] = submitted_by_kind_[k].load(kRelaxed);
    stats.served_by_kind[k] = served_by_kind_[k].load(kRelaxed);
  }
  stats.ewma_route_micros = ewma_route_micros_.load(kRelaxed);
  stats.updates_submitted = updates_submitted_.load(kRelaxed);
  stats.updates_applied = updates_applied_.load(kRelaxed);
  stats.updates_rejected = updates_rejected_.load(kRelaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = TotalQueuedLocked();
    stats.queue_high_water = queue_high_water_;
    stats.queue_limit = QueueLimitLocked();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.batches = batches_;
    stats.batch_size_counts = batch_size_counts_;
    stats.latency = latency_;
  }
  stats.catalog = catalog_.Stats();
  stats.cold_loads = stats.catalog.total_loads;
  stats.cold_load_latency = stats.catalog.load_latency;
  return stats;
}

StatusOr<std::unique_ptr<QueryService>> MakeQueryService(
    VenueCatalog catalog, ServiceOptions options) {
  if (catalog.NumVenues() == 0) {
    return FailedPreconditionError(
        "query service needs a catalog with at least one venue");
  }
  if (options.queue_capacity == 0) {
    return InvalidArgumentError(
        "service options: queue_capacity must be positive");
  }
  if (options.num_workers < 1) {
    return InvalidArgumentError(
        "service options: num_workers must be positive");
  }
  if (options.max_batch == 0) {
    return InvalidArgumentError("service options: max_batch must be positive");
  }
  // !(x >= 0) also catches NaN: a NaN default would make every
  // defaulted Submit() bounce with kInvalidArgument at admission.
  if (!(options.default_deadline_micros >= 0)) {
    return InvalidArgumentError(
        "service options: default_deadline_micros must be a non-negative "
        "number (NaN rejected)");
  }
  if (!(options.target_queue_delay_micros >= 0) ||
      !(options.target_queue_delay_micros < 1e15)) {
    return InvalidArgumentError(
        "service options: target_queue_delay_micros must be in [0, 1e15)");
  }
  if (options.min_queue_limit == 0) {
    return InvalidArgumentError(
        "service options: min_queue_limit must be positive");
  }
  if (options.update_queue_capacity == 0) {
    return InvalidArgumentError(
        "service options: update_queue_capacity must be positive");
  }
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(catalog), options));
}

}  // namespace itspq
