// rpc_interactive and rpc_batch: the full serving stack (wire codec →
// NetServer reader → QueryService admission/queue/batching → ShardedRouter
// → NetServer writer) driven over two loopback connections.
//
// The driver speaks the wire protocol directly through net/socket.h and
// net/wire.h instead of NetClient: per-request round-trip times need a
// sender and a receiver running concurrently on each connection, and
// NetClient is a one-thread object. Each connection therefore has one
// sending thread and one receiving thread sharing only the socket (full
// duplex) and a publish counter.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "common.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "query/sharded_router.h"
#include "server/query_service.h"

namespace perfbench {

namespace {

namespace net = itspq::net;

// The itspq_server shape: 4 small venues behind itg-a+, 2 workers, a
// 64-deep admission queue.
constexpr int kVenues = 4;
constexpr int kMaxFloors = 2;
constexpr int kWorkers = 2;
constexpr size_t kQueueCapacity = 64;
constexpr int kConnections = 2;
constexpr int kPoolSize = 2048;
constexpr int kWarmPerConnection = 64;

// rpc_interactive: Poisson arrivals at a fixed offered rate.
constexpr double kInteractiveQps = 2000;
constexpr double kInteractiveDeadlineMicros = 50'000;
// rpc_batch: requests kept outstanding per connection. Both windows
// together stay under the queue bound, so admission never rejects.
constexpr size_t kBatchWindow = 16;
static_assert(kBatchWindow * kConnections < kQueueCapacity,
              "the batch window must fit the admission queue");

// Traced run: seconds of schedule replayed through the twin service.
constexpr double kTwinSeconds = 2.0;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

itspq::ServiceOptions ServingOptions() {
  itspq::ServiceOptions options;
  options.num_workers = kWorkers;
  options.queue_capacity = kQueueCapacity;
  return options;
}

/// One loopback connection and the client-side ledger for it.
struct Conn {
  net::ScopedFd fd;
  uint64_t next_id = 1;
  // Written by the sending thread only.
  uint64_t sent = 0;
  // Written by the receiving thread only.
  uint64_t replies = 0;
  uint64_t ok = 0;
};

/// The serving stack one set-up builds. Connections are declared after
/// the server so they close first.
struct Stack {
  std::unique_ptr<net::NetServer> server;
  std::vector<std::unique_ptr<Conn>> conns;
};

/// Read-only state every connection thread shares.
struct Traffic {
  const std::vector<QueryRequest>* pool = nullptr;
  const std::vector<net::WireReply>* expected = nullptr;
  itspq::QosClass qos = itspq::QosClass::kInteractive;
  double deadline_micros = 0;
  /// Pool position of the segment's first request.
  size_t pool_base = 0;
};

struct SendStamp {
  uint64_t id = 0;
  int64_t sent_ns = 0;
  int64_t encoded_ns = 0;
  int64_t written_ns = 0;
};

bool SendQuery(Conn* conn, const QueryRequest& request, const Traffic& t,
               SendStamp* stamp) {
  stamp->sent_ns = NowNs();
  stamp->id = conn->next_id++;
  const net::WireQuery wire =
      net::FromQueryRequest(request, stamp->id, t.qos, t.deadline_micros);
  const std::string frame = request.kind == itspq::QueryKind::kPointToPoint
                                ? net::EncodeQueryFrame(wire)
                                : net::EncodeTemporalQueryFrame(wire);
  stamp->encoded_ns = NowNs();
  const bool written = net::WriteFrame(conn->fd.get(), frame).ok();
  stamp->written_ns = NowNs();
  if (written) ++conn->sent;
  return written;
}

/// Reads and decodes the next reply frame; false on a transport or
/// protocol failure. `read_ns` is when the frame's last byte arrived.
bool ReadReply(Conn* conn, net::WireReply* reply, int64_t* read_ns) {
  std::string payload;
  Status error;
  if (net::ReadFrame(conn->fd.get(), net::kDefaultMaxFrameBytes, &payload,
                     &error) != net::FrameRead::kFrame) {
    return false;
  }
  *read_ns = NowNs();
  net::MsgType type;
  std::string_view body;
  if (!net::DecodeFrameHeader(payload, &type, &body).ok()) return false;
  Status decoded;
  if (type == net::MsgType::kQueryReply) {
    decoded = net::DecodeReplyBody(body, reply);
  } else if (type == net::MsgType::kTemporalReply) {
    decoded = net::DecodeTemporalReplyBody(body, reply);
  } else {
    return false;
  }
  if (!decoded.ok()) return false;
  ++conn->replies;
  if (reply->code == itspq::StatusCode::kOk) ++conn->ok;
  return true;
}

/// One request as the connection threads track it.
struct Slot {
  size_t sched = 0;  // position in the phase's send order
  size_t pool = 0;
  int64_t due_ns = 0;
  SendStamp stamp;
};

/// What one connection observed during a phase.
struct ConnLog {
  std::vector<double> latency_us;  // kOk answers, from due
  std::vector<double> lateness_us;
  std::vector<std::pair<size_t, double>> rtt_by_sched;  // NaN unless kOk
  /// Lateness and the RTT pairing exist for open-loop requests only.
  bool open_loop = false;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  int64_t last_done_ns = 0;
  SpanLog spans;
};

void OnReply(const Traffic& t, const Slot& slot,
             const net::WireReply& reply, int64_t read_ns, int64_t done_ns,
             bool trace, ConnLog* log) {
  log->last_done_ns = std::max(log->last_done_ns, done_ns);
  const Timeline timeline{slot.due_ns, slot.stamp.sent_ns, done_ns};
  if (log->open_loop) log->lateness_us.push_back(SendLatenessMicros(timeline));
  double rtt = kNaN;
  if (reply.request_id != slot.stamp.id) {
    if (log->mismatches++ == 0) {
      log->first_mismatch = "reply id " + std::to_string(reply.request_id) +
                            " answered request id " +
                            std::to_string(slot.stamp.id);
    }
  } else if (reply.code == itspq::StatusCode::kOk) {
    ++log->ok;
    rtt = LatencyFromDueMicros(timeline);
    log->latency_us.push_back(rtt);
    if (!SameReply(reply, (*t.expected)[slot.pool]) &&
        log->mismatches++ == 0) {
      log->first_mismatch = "pool request " + std::to_string(slot.pool) +
                            " answered differently over the wire";
    }
  }
  if (log->open_loop) log->rtt_by_sched.emplace_back(slot.sched, rtt);
  if (trace) {
    const uint64_t request = NextTraceRequest();
    const SendStamp& s = slot.stamp;
    log->spans.Root("driver.request", request, slot.due_ns, done_ns);
    log->spans.Child("net.encode", request, 1, s.sent_ns, s.encoded_ns);
    log->spans.Child("net.write", request, 2, s.encoded_ns, s.written_ns);
    log->spans.Child("server.reply_wait", request, 3,
                     std::min(s.written_ns, read_ns), read_ns);
    log->spans.Child("net.decode", request, 4, read_ns, done_ns);
  }
}

/// Open loop on one connection: a sender thread fires each request at
/// its due time regardless of replies; this thread receives.
void OpenLoopConnection(Conn* conn, const Traffic& t,
                        const std::vector<size_t>& sched,
                        const std::vector<int64_t>& due_ns, bool trace,
                        ConnLog* log) {
  const size_t n = sched.size();
  std::vector<Slot> slots(n);
  std::atomic<size_t> published{0};
  std::atomic<size_t> send_limit{n};
  log->open_loop = true;
  log->latency_us.reserve(n);
  log->lateness_us.reserve(n);
  log->rtt_by_sched.reserve(n);
  std::thread sender([&] {
    for (size_t j = 0; j < n; ++j) {
      Slot& slot = slots[j];
      slot.sched = sched[j];
      slot.pool = (t.pool_base + slot.sched) % t.pool->size();
      slot.due_ns = due_ns[slot.sched];
      SleepUntilNs(slot.due_ns);
      if (!SendQuery(conn, (*t.pool)[slot.pool], t, &slot.stamp)) {
        send_limit.store(j, std::memory_order_release);
        return;
      }
      published.store(j + 1, std::memory_order_release);
    }
  });
  log->attempted += n;
  for (size_t j = 0; j < send_limit.load(std::memory_order_acquire); ++j) {
    net::WireReply reply;
    int64_t read_ns = 0;
    if (!ReadReply(conn, &reply, &read_ns)) break;
    const int64_t done_ns = NowNs();
    // The reply cannot arrive before its frame was written, so this
    // wait is at most the gap between write() returning and the store.
    while (published.load(std::memory_order_acquire) <= j) {
      std::this_thread::yield();
    }
    OnReply(t, slots[j], reply, read_ns, done_ns, trace, log);
  }
  sender.join();
}

/// Closed loop on one connection: keep kBatchWindow requests
/// outstanding until `end_ns`, then drain. One thread sends and
/// receives, so the next send follows the reply that freed its slot.
void ClosedLoopConnection(Conn* conn, size_t conn_index, const Traffic& t,
                          int64_t end_ns, bool trace, ConnLog* log) {
  std::deque<Slot> inflight;
  log->latency_us.reserve(kSampleReserve);
  size_t cursor = t.pool_base + conn_index;
  size_t sched = 0;
  auto send_next = [&] {
    Slot slot;
    slot.sched = sched++;
    slot.pool = cursor % t.pool->size();
    cursor += kConnections;
    ++log->attempted;
    if (!SendQuery(conn, (*t.pool)[slot.pool], t, &slot.stamp)) return false;
    slot.due_ns = slot.stamp.sent_ns;
    inflight.push_back(slot);
    return true;
  };
  for (size_t w = 0; w < kBatchWindow; ++w) {
    if (!send_next()) return;
  }
  while (!inflight.empty()) {
    net::WireReply reply;
    int64_t read_ns = 0;
    if (!ReadReply(conn, &reply, &read_ns)) return;
    const int64_t done_ns = NowNs();
    OnReply(t, inflight.front(), reply, read_ns, done_ns, trace, log);
    inflight.pop_front();
    if (NowNs() < end_ns && !send_next()) return;
  }
}

/// One segment's connection logs, kept unmerged until the run's peak
/// RSS has been read, so merging the driver's own sample buffers does
/// not count as the system's memory.
struct SegmentLog {
  std::vector<ConnLog> conns;
  double elapsed_s = 0;
  double steal_share = 0;
  /// Open loop: the schedule length (the RTT pairing's index range).
  size_t scheduled = 0;
};

SegmentLog RunPhase(Stack* stack, const Traffic& t, bool batch,
                    const std::vector<double>& offsets, double seconds,
                    bool trace, Outcome* out) {
  const int64_t start_ns = NowNs() + 1'000'000;
  std::vector<int64_t> due_ns(offsets.size());
  for (size_t k = 0; k < offsets.size(); ++k) {
    due_ns[k] = start_ns + static_cast<int64_t>(offsets[k] * 1e9);
  }
  SegmentLog segment;
  segment.conns.resize(kConnections);
  segment.scheduled = offsets.size();
  const CpuTimes cpu_start = ReadCpuTimes();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Conn* conn = stack->conns[c].get();
      if (batch) {
        SleepUntilNs(start_ns);
        ClosedLoopConnection(conn, c, t,
                             start_ns + static_cast<int64_t>(seconds * 1e9),
                             trace, &segment.conns[c]);
      } else {
        std::vector<size_t> sched;
        for (size_t k = c; k < offsets.size(); k += kConnections) {
          sched.push_back(k);
        }
        OpenLoopConnection(conn, t, sched, due_ns, trace,
                           &segment.conns[c]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  segment.steal_share = StealShare(cpu_start, ReadCpuTimes());
  int64_t end_ns = start_ns;
  for (const ConnLog& log : segment.conns) {
    end_ns = std::max(end_ns, log.last_done_ns);
    for (uint64_t m = 0; m < log.mismatches; ++m) {
      out->Mismatch(log.first_mismatch);
    }
  }
  segment.elapsed_s = MicrosBetween(start_ns, end_ns) / 1e6;
  return segment;
}

/// Samples pooled over the segments of one kind (untraced or traced).
struct PhaseResult {
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  double elapsed_s = 0;
  std::vector<Span> spans;
  /// Open loop, first segment only: RTT by schedule position (NaN
  /// unless kOk), paired with the twin service's times.
  std::vector<double> rtt_by_sched;
  SegmentStats segments;
};

PhaseResult Pool(std::vector<SegmentLog> segments) {
  PhaseResult r;
  for (size_t s = 0; s < segments.size(); ++s) {
    if (s == 0) r.rtt_by_sched.assign(segments[s].scheduled, kNaN);
    std::vector<double> segment_latency_us;
    uint64_t segment_ok = 0;
    for (const ConnLog& log : segments[s].conns) {
      segment_latency_us.insert(segment_latency_us.end(),
                                log.latency_us.begin(), log.latency_us.end());
      segment_ok += log.ok;
    }
    r.segments.Add(segment_latency_us, segment_ok, segments[s].elapsed_s,
                   segments[s].steal_share);
    for (ConnLog& log : segments[s].conns) {
      r.latency_us.insert(r.latency_us.end(), log.latency_us.begin(),
                          log.latency_us.end());
      r.lateness_us.insert(r.lateness_us.end(), log.lateness_us.begin(),
                           log.lateness_us.end());
      if (s == 0) {
        for (const auto& [k, rtt] : log.rtt_by_sched) r.rtt_by_sched[k] = rtt;
      }
      r.attempted += log.attempted;
      r.ok += log.ok;
      r.spans.insert(r.spans.end(), log.spans.spans().begin(),
                     log.spans.spans().end());
    }
    r.elapsed_s += segments[s].elapsed_s;
  }
  return r;
}

std::unique_ptr<Stack> BuildStack(const Traffic& t,
                                  std::vector<double>* build_ms) {
  auto stack = std::make_unique<Stack>();
  auto service = Must(
      itspq::MakeQueryService(
          CatalogOf(MakeFleet(kWorldSeed, kVenues, 1, kMaxFloors), "itg-a+",
                    build_ms),
          ServingOptions()),
      "MakeQueryService");
  stack->server = Must(net::MakeNetServer(std::move(service)), "MakeNetServer");
  for (int c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->fd = Must(net::ConnectLoopback(stack->server->port()),
                    "ConnectLoopback");
    // A wedged server must fail the run, not hang it.
    MustOk(net::SetRecvTimeout(conn->fd.get(), 10.0), "SetRecvTimeout");
    // Warm the shards' snapshot caches and the connection threads.
    for (int w = 0; w < kWarmPerConnection; ++w) {
      const size_t i = static_cast<size_t>(w * kConnections + c);
      SendStamp stamp;
      net::WireReply reply;
      int64_t read_ns = 0;
      if (!SendQuery(conn.get(), (*t.pool)[i % t.pool->size()], t, &stamp) ||
          !ReadReply(conn.get(), &reply, &read_ns)) {
        Die("warm-up request failed");
      }
    }
    stack->conns.push_back(std::move(conn));
  }
  return stack;
}

/// The twin service: an independently built in-process QueryService fed
/// the first kTwinSeconds of the same schedule (open loop) or the same
/// window (closed loop). Returns Submit()→ready per request (µs), NaN
/// unless kOk, indexed like the schedule.
std::vector<double> TwinServiceTimes(const Traffic& t,
                                     bool batch,
                                     const std::vector<double>& offsets) {
  auto service = Must(
      itspq::MakeQueryService(
          CatalogOf(MakeFleet(kWorldSeed, kVenues, 1, kMaxFloors), "itg-a+"),
          ServingOptions()),
      "MakeQueryService(twin)");
  for (int w = 0; w < kWarmPerConnection * kConnections; ++w) {
    (void)service->Submit((*t.pool)[static_cast<size_t>(w) % t.pool->size()],
                          t.deadline_micros, t.qos)
        .get();
  }
  using Future = std::future<StatusOr<QueryResult>>;
  if (batch) {
    // The same total window, kept full for kTwinSeconds.
    std::vector<double> service_us;
    std::deque<std::pair<int64_t, Future>> inflight;
    const int64_t end_ns = NowNs() + static_cast<int64_t>(kTwinSeconds * 1e9);
    for (size_t next = 0; NowNs() < end_ns || !inflight.empty();) {
      while (NowNs() < end_ns &&
             inflight.size() < kBatchWindow * kConnections) {
        const int64_t submit_ns = NowNs();
        inflight.emplace_back(
            submit_ns, service->Submit((*t.pool)[next++ % t.pool->size()],
                                       t.deadline_micros, t.qos));
      }
      const bool ok = inflight.front().second.get().ok();
      service_us.push_back(
          ok ? MicrosBetween(inflight.front().first, NowNs()) : kNaN);
      inflight.pop_front();
    }
    return service_us;
  }
  size_t n = 0;
  while (n < offsets.size() && offsets[n] < kTwinSeconds) ++n;
  std::vector<double> service_us(n, kNaN);
  Handoff<std::pair<size_t, Future>> handoff;
  const int64_t start_ns = NowNs() + 1'000'000;
  std::thread waiter([&] {
    std::pair<size_t, Future> item;
    while (handoff.Pop(&item)) {
      const bool ok = item.second.get().ok();
      const int64_t ready_ns = NowNs();
      if (ok) {
        const int64_t due =
            start_ns + static_cast<int64_t>(offsets[item.first] * 1e9);
        service_us[item.first] = MicrosBetween(due, ready_ns);
      }
    }
  });
  for (size_t k = 0; k < n; ++k) {
    SleepUntilNs(start_ns + static_cast<int64_t>(offsets[k] * 1e9));
    handoff.Push({k, service->Submit((*t.pool)[k % t.pool->size()],
                                     t.deadline_micros, t.qos)});
  }
  handoff.Close();
  waiter.join();
  return service_us;
}

/// Server-side counters summed over a run's segments.
/// Stops the stack's server (draining) and checks what the clients
/// counted against what the edge and the service counted.
void CheckLedger(Stack* stack, ServiceTally* tally,
                 itspq::net::NetServerStats* edge, Outcome* out) {
  stack->server->Stop();
  const net::NetServerStats ns = stack->server->Stats();
  const itspq::ServiceStats ss = stack->server->service().Stats();
  uint64_t sent = 0, replies = 0, ok = 0;
  for (const auto& conn : stack->conns) {
    sent += conn->sent;
    replies += conn->replies;
    ok += conn->ok;
  }
  tally->Add(ss, out);
  out->Check(replies == sent, "client: replies != sent");
  out->Check(ss.submitted == sent, "service submitted != client sent");
  out->Check(ns.frames_received == sent,
             "edge frames_received != client sent");
  out->Check(ns.frames_sent == replies, "edge frames_sent != client replies");
  out->Check(ok == ss.served - ss.route_errors,
             "client kOk != service served - route_errors");
  out->Check(ns.decode_errors == 0 && ns.connections_dropped == 0,
             "edge dropped a connection or failed a decode");
  edge->decode_errors += ns.decode_errors;
  edge->connections_dropped += ns.connections_dropped;
}

std::vector<net::WireReply> ExpectedReplies(
    const std::vector<QueryResult>& expected) {
  std::vector<net::WireReply> replies;
  replies.reserve(expected.size());
  for (const QueryResult& r : expected) {
    replies.push_back(net::MakeReply(0, StatusOr<QueryResult>(r)));
  }
  return replies;
}

Outcome RunRpc(const Options& o, bool batch) {
  Outcome out;
  // Expected answers come from an independently built catalog routed
  // directly, before any serving stack exists.
  itspq::VenueCatalog reference =
      CatalogOf(MakeFleet(kWorldSeed, kVenues, 1, kMaxFloors), "itg-a+");
  std::vector<QueryRequest> pool =
      FleetPointToPoint(reference, o.seed + 1, kPoolSize);
  if (batch) pool = MixInFamilies(reference, std::move(pool), o.seed + 2);
  const itspq::ShardedRouter reference_router(reference);
  auto route_reference = [&](size_t i, itspq::QueryContext* ctx) {
    return reference_router.Route(pool[i], ctx);
  };
  std::vector<QueryResult> expected = ExpectedAnswers(pool, route_reference);
  if (o.corrupt_expected) CorruptOne(&expected);
  const std::vector<net::WireReply> expected_replies =
      ExpectedReplies(expected);

  Traffic t;
  t.pool = &pool;
  t.expected = &expected_replies;
  t.qos = batch ? itspq::QosClass::kBatch : itspq::QosClass::kInteractive;
  t.deadline_micros = batch ? std::numeric_limits<double>::infinity()
                            : kInteractiveDeadlineMicros;

  const double segment_s = o.seconds / kSegments;
  std::vector<SegmentLog> untraced_segments, traced_segments;
  ServiceTally tally;
  net::NetServerStats edge;
  std::vector<double> setup_s, build_ms, update_us;
  std::vector<UpdateSegment> update_segments;
  std::vector<itspq::TimedAtiUpdate> all_updates;
  std::vector<double> first_offsets;
  size_t probe_rejected = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool trace_segment = o.trace && seg % 2 == 1;
    const int64_t setup_start = NowNs();
    std::unique_ptr<Stack> stack = BuildStack(t, &build_ms);
    setup_s.push_back(MicrosBetween(setup_start, NowNs()) / 1e6);

    std::vector<double> offsets;
    if (!batch) {
      itspq::ArrivalScheduleConfig arrivals;
      arrivals.offered_qps = kInteractiveQps;
      arrivals.seed = SegmentSeed(o.seed, seg);
      offsets = Must(itspq::GenerateOpenLoopArrivals(
                         static_cast<int>(kInteractiveQps * segment_s),
                         arrivals),
                     "GenerateOpenLoopArrivals");
    }
    if (seg == 0) first_offsets = offsets;
    t.pool_base = static_cast<size_t>(seg) * kPoolStride;
    (trace_segment ? traced_segments : untraced_segments)
        .push_back(RunPhase(stack.get(), t, batch, offsets, segment_s,
                            trace_segment, &out));

    // Write probe: no writes overlap the read phase; the update metrics
    // time sequential commits through the service's write plane after it.
    itspq::QueryService& service = stack->server->service();
    const auto updates = UpdateStream(reference, SegmentSeed(o.seed, seg) + 1,
                                      kProbeUpdates / kSegments, 100);
    UpdateSegment committed = CommitSequentially(
        updates,
        [&](const itspq::AtiUpdate& u) {
          return service.SubmitUpdate(u).get();
        },
        &probe_rejected);
    update_us.insert(update_us.end(), committed.latency_us.begin(),
                     committed.latency_us.end());
    update_segments.push_back(std::move(committed));
    all_updates.insert(all_updates.end(), updates.begin(), updates.end());
    if (seg == kSegments - 1 && o.trace) {
      out.layers["itgraph.router_bytes"] = RouterBytes(service.catalog());
    }
    CheckLedger(stack.get(), &tally, &edge, &out);
  }

  const double peak_rss_mb = PeakRssMb();
  const PhaseResult untraced = Pool(std::move(untraced_segments));
  PhaseResult traced = Pool(std::move(traced_segments));
  const Summary lat = Summarize(untraced.latency_us);
  const double update_p50_us = Quantile(update_us, 0.5);
  out.attempted = untraced.attempted + traced.attempted + all_updates.size();
  out.failed = (untraced.attempted - untraced.ok) +
               (traced.attempted - traced.ok) + probe_rejected;
  out.e2e.setup_s = Quantile(setup_s, 0.5);
  out.e2e.peak_rss_mb = peak_rss_mb;
  out.e2e.ok_frac = Frac(untraced.ok, untraced.attempted);
  out.notes.push_back("latency samples " + std::to_string(lat.count) + " in " +
                      std::to_string(untraced.segments.p50_us.size()) +
                      " segments");
  untraced.segments.Report(&out);
  ReportUpdates(update_segments, &out);
  if (!o.trace) return out;

  auto& L = out.layers;
  L["driver.send_late_p99_us"] =
      batch ? 0 : Summarize(untraced.lateness_us).p99;
  L["driver.trace_overhead_frac"] =
      (Quantile(traced.latency_us, 0.5) - lat.p50) / lat.p50;
  L["driver.fail_frac"] =
      Frac(untraced.attempted - untraced.ok, untraced.attempted);
  out.spans = std::move(traced.spans);

  CodecReplay(pool, expected, &L);
  RouteReplay(pool, route_reference, &L);

  t.pool_base = 0;
  const std::vector<double> twin = TwinServiceTimes(t, batch, first_offsets);
  std::vector<double> twin_ok;
  for (double v : twin) {
    if (!std::isnan(v)) twin_ok.push_back(v);
  }
  const Summary svc = Summarize(twin_ok);
  L["server.service_p50_us"] = svc.p50;
  L["server.service_p99_us"] = svc.p99;
  L["server.queue_wait_p50_us"] = svc.p50 - L["query.route_p50_us"];
  if (batch) {
    // Closed-loop requests do not pair one to one with the twin's, so
    // the residual is the difference of the quantiles.
    L["net.residual_p50_us"] = lat.p50 - svc.p50;
    L["net.residual_p99_us"] = lat.p99 - svc.p99;
  } else {
    std::vector<double> residual, paired_rtt;
    for (size_t k = 0; k < twin.size() && k < untraced.rtt_by_sched.size();
         ++k) {
      if (!std::isnan(twin[k]) && !std::isnan(untraced.rtt_by_sched[k])) {
        residual.push_back(untraced.rtt_by_sched[k] - twin[k]);
        paired_rtt.push_back(untraced.rtt_by_sched[k]);
      }
    }
    const Summary res = Summarize(residual);
    L["net.residual_p50_us"] = res.p50;
    L["net.residual_p99_us"] = res.p99;
    // The waterfall check README.md states a tolerance for.
    const double rtt_p50 = Quantile(paired_rtt, 0.5);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "waterfall over %zu paired requests: service p50 %.0f + "
                  "residual p50 %.0f = %.0f us vs RTT p50 %.0f us (%+.1f%%)",
                  paired_rtt.size(), svc.p50, res.p50, svc.p50 + res.p50,
                  rtt_p50, 100 * (svc.p50 + res.p50 - rtt_p50) / rtt_p50);
    out.notes.push_back(line);
  }
  L["net.decode_errors"] = static_cast<double>(edge.decode_errors);
  L["net.connections_dropped"] = static_cast<double>(edge.connections_dropped);
  tally.Report(&L);
  L["itgraph.build_world_ms"] = Quantile(build_ms, 0.5);

  itspq::VenueCatalog twin_catalog =
      CatalogOf(MakeFleet(kWorldSeed, kVenues, 1, kMaxFloors), "itg-a+");
  size_t twin_rejected = 0;
  const Summary apply = Summarize(CommitSequentially(
      all_updates,
      [&](const itspq::AtiUpdate& u) {
        return twin_catalog.ApplyAtiUpdate(u).status();
      },
      &twin_rejected).latency_us);
  L["update.apply_p50_us"] = apply.p50;
  L["update.apply_p99_us"] = apply.p99;
  L["update.queue_wait_p50_us"] = update_p50_us - apply.p50;
  return out;
}

}  // namespace

Outcome RunRpcInteractive(const Options& options) {
  return RunRpc(options, false);
}

Outcome RunRpcBatch(const Options& options) { return RunRpc(options, true); }

LoopbackReplay ReplayOverLoopback(const std::vector<QueryRequest>& pool,
                                  const std::vector<QueryResult>& expected,
                                  const std::vector<double>& offsets,
                                  Outcome* out) {
  const std::vector<net::WireReply> expected_replies =
      ExpectedReplies(expected);
  Traffic t;
  t.pool = &pool;
  t.expected = &expected_replies;
  t.qos = itspq::QosClass::kInteractive;
  t.deadline_micros = kInteractiveDeadlineMicros;
  std::vector<double> build_ms;
  std::unique_ptr<Stack> stack = BuildStack(t, &build_ms);
  std::vector<SegmentLog> segments;
  segments.push_back(RunPhase(stack.get(), t, false, offsets, 0, false, out));
  ServiceTally tally;
  LoopbackReplay replay;
  CheckLedger(stack.get(), &tally, &replay.edge, out);
  replay.rtt_us = Pool(std::move(segments)).latency_us;
  return replay;
}

}  // namespace perfbench
