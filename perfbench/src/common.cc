#include "common.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "gen/query_gen.h"
#include "update/versioned_graph.h"

namespace perfbench {

namespace {

// With the timer slack cut to 1 µs a sleep wakes within a few µs of its
// target, so the spin that follows stays short.
constexpr int64_t kSpinNs = 30'000;

bool SamePath(const itspq::Path& a, const itspq::Path& b) {
  if (a.length_m() != b.length_m() ||
      a.departure_seconds() != b.departure_seconds() ||
      a.steps().size() != b.steps().size()) {
    return false;
  }
  for (size_t i = 0; i < a.steps().size(); ++i) {
    const itspq::PathStep& x = a.steps()[i];
    const itspq::PathStep& y = b.steps()[i];
    if (x.door != y.door || x.cumulative_m != y.cumulative_m ||
        x.arrival_seconds != y.arrival_seconds) {
      return false;
    }
  }
  return true;
}

bool SameSteps(const std::vector<itspq::PathStep>& a,
               const std::vector<itspq::PathStep>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].door != b[i].door || a[i].cumulative_m != b[i].cumulative_m ||
        a[i].arrival_seconds != b[i].arrival_seconds) {
      return false;
    }
  }
  return true;
}

bool SameReachable(const std::vector<itspq::ReachableDoor>& a,
                   const std::vector<itspq::ReachableDoor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].door != b[i].door || a[i].distance_m != b[i].distance_m ||
        a[i].arrival_seconds != b[i].arrival_seconds) {
      return false;
    }
  }
  return true;
}

}  // namespace

void UsePreciseTimers() {
  static thread_local bool precise = [] {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    return true;
  }();
  (void)precise;
}

void SleepUntilNs(int64_t due_ns) {
  UsePreciseTimers();
  const int64_t ahead = due_ns - NowNs();
  if (ahead > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  CpuTimes times;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) return CpuTimes();
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

void SegmentStats::Add(const std::vector<double>& latency_us, uint64_t ok,
                       double elapsed_s, double steal_share) {
  const Summary s = Summarize(latency_us);
  p50_us.push_back(s.p50);
  p95_us.push_back(s.p95);
  p99_us.push_back(s.p99);
  qps.push_back(static_cast<double>(ok) / elapsed_s);
  steal.push_back(steal_share);
}

void SegmentStats::Report(Outcome* out) const {
  const std::vector<size_t> quiet = QuietSegments(p50_us);
  auto median_of_quiet = [&](const std::vector<double>& values) {
    std::vector<double> picked;
    for (size_t i : quiet) picked.push_back(values[i]);
    return Quantile(picked, 0.5);
  };
  // The least disturbed segment is the best estimate of the program's
  // own speed: a busy host only ever makes a segment slower.
  out->e2e.lat_p50_us = quiet.empty() ? 0 : p50_us[quiet.front()];
  out->e2e.throughput_qps =
      qps.empty() ? 0 : *std::max_element(qps.begin(), qps.end());
  out->layers["driver.lat_p95_us"] = median_of_quiet(p95_us);
  out->layers["driver.lat_p99_us"] = median_of_quiet(p99_us);
  char line[96];
  std::string text = "per segment p50/p95/p99 us, q/s, steal %:";
  for (size_t i = 0; i < p50_us.size(); ++i) {
    std::snprintf(line, sizeof(line), " %.0f/%.0f/%.0f,%.0f,%.1f", p50_us[i],
                  p95_us[i], p99_us[i], qps[i], steal[i] * 100);
    text += line;
  }
  out->notes.push_back(text);
}

void ReportUpdates(const std::vector<UpdateSegment>& segments, Outcome* out) {
  std::vector<double> p50_us;
  for (const UpdateSegment& segment : segments) {
    p50_us.push_back(segment.latency_us.empty()
                         ? std::numeric_limits<double>::infinity()
                         : Summarize(segment.latency_us).p50);
  }
  std::vector<double> pooled;
  for (size_t i : QuietSegments(p50_us)) {
    pooled.insert(pooled.end(), segments[i].latency_us.begin(),
                  segments[i].latency_us.end());
  }
  const Summary s = Summarize(pooled);
  out->e2e.update_p50_us = s.p50;
  out->layers["driver.update_p95_us"] = s.p95;
  out->layers["driver.update_p99_us"] = s.p99;
  out->notes.push_back("update samples " + std::to_string(s.count) +
                       " from the quiet segments (" +
                       std::to_string(s.beyond_p99) + " beyond p99)");
}

void ServiceTally::Add(const itspq::ServiceStats& stats, Outcome* out) {
  const size_t seg_shed = stats.shed_displaced + stats.shed_infeasible;
  const size_t seg_rejected = stats.rejected_queue_full +
                              stats.rejected_expired + stats.rejected_invalid +
                              stats.rejected_shutdown;
  const size_t seg_timed_out =
      stats.timed_out_in_queue + stats.timed_out_in_flight;
  out->Check(
      stats.submitted == stats.served + seg_shed + seg_rejected + seg_timed_out,
      "service: submitted != served + shed + rejected + timed_out");
  out->Check(stats.updates_submitted ==
                 stats.updates_applied + stats.updates_rejected,
             "service: updates_submitted != applied + rejected");
  submitted += stats.submitted;
  shed += seg_shed;
  rejected += seg_rejected;
  timed_out += seg_timed_out;
  batches += stats.batches;
  for (size_t b = 0; b < stats.batch_size_counts.size(); ++b) {
    dispatched += b * stats.batch_size_counts[b];
  }
  queue_high_water = std::max(queue_high_water, stats.queue_high_water);
  updates_rejected += stats.updates_rejected;
}

void ServiceTally::Report(std::map<std::string, double>* layers) const {
  (*layers)["server.batch_size_mean"] = Frac(dispatched, batches);
  (*layers)["server.shed_frac"] = Frac(shed, submitted);
  (*layers)["server.rejected_frac"] = Frac(rejected, submitted);
  (*layers)["server.timed_out_frac"] = Frac(timed_out, submitted);
  (*layers)["server.queue_high_water"] = static_cast<double>(queue_high_water);
  (*layers)["update.rejected"] = static_cast<double>(updates_rejected);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

std::vector<itspq::Venue> MakeFleet(uint64_t seed, int venues, int min_floors,
                                    int max_floors) {
  itspq::FleetConfig config;
  config.num_venues = venues;
  config.seed = seed;
  config.min_floors = min_floors;
  config.max_floors = max_floors;
  return Must(itspq::GenerateVenueFleet(config), "GenerateVenueFleet");
}

itspq::VenueCatalog CatalogOf(std::vector<itspq::Venue> venues,
                              const std::string& strategy,
                              std::vector<double>* build_ms) {
  itspq::VenueCatalog catalog;
  for (itspq::Venue& venue : venues) {
    const int64_t start = NowNs();
    Must(catalog.AddVenue(std::move(venue), strategy), "AddVenue");
    if (build_ms != nullptr) {
      build_ms->push_back(MicrosBetween(start, NowNs()) / 1e3);
    }
  }
  return catalog;
}

std::vector<QueryRequest> FleetPointToPoint(const itspq::VenueCatalog& catalog,
                                            uint64_t seed, int count) {
  itspq::MultiVenueWorkloadConfig config;
  config.num_requests = count;
  config.seed = seed;
  config.zipf_exponent = 1.0;
  config.pairs_per_venue = 16;
  config.options.use_snapshot_cache = true;
  return Must(itspq::GenerateMultiVenueWorkload(catalog, config),
              "GenerateMultiVenueWorkload");
}

itspq::QueryKind MixedKind(size_t i) {
  switch (i % 10) {
    case 4:
    case 5:
      return itspq::QueryKind::kReachability;
    case 6:
    case 7:
      return itspq::QueryKind::kNearestFacility;
    case 8:
    case 9:
      return itspq::QueryKind::kMultiStop;
    default:
      return itspq::QueryKind::kPointToPoint;
  }
}

std::vector<QueryRequest> MixInFamilies(const itspq::VenueCatalog& catalog,
                                        std::vector<QueryRequest> p2p,
                                        uint64_t seed) {
  constexpr int kPerVenueKind = 64;
  // families[venue][kind] — a pool per venue and family.
  std::vector<std::vector<std::vector<QueryRequest>>> families(
      catalog.NumVenues());
  for (size_t v = 0; v < catalog.NumVenues(); ++v) {
    families[v].resize(itspq::kNumQueryKinds);
    for (uint8_t k = 1; k < itspq::kNumQueryKinds; ++k) {
      itspq::FamilyGenConfig config;
      config.kind = static_cast<itspq::QueryKind>(k);
      config.num_queries = kPerVenueKind;
      config.seed = seed * 131 + v * 7 + k;
      config.min_departure_seconds = 6 * 3600.0;
      config.max_departure_seconds = 23 * 3600.0;
      config.max_budget_seconds = 900;
      auto generated = Must(
          itspq::GenerateFamilyQueries(
              catalog.graph(static_cast<itspq::VenueId>(v)), config),
          "GenerateFamilyQueries");
      for (QueryRequest& r : generated) {
        r.venue_id = static_cast<itspq::VenueId>(v);
        r.options.use_snapshot_cache = true;
      }
      families[v][k] = std::move(generated);
    }
  }
  std::vector<size_t> next(catalog.NumVenues() * itspq::kNumQueryKinds, 0);
  for (size_t i = 0; i < p2p.size(); ++i) {
    const itspq::QueryKind kind = MixedKind(i);
    if (kind == itspq::QueryKind::kPointToPoint) continue;
    const size_t v = static_cast<size_t>(p2p[i].venue_id);
    const size_t k = static_cast<size_t>(kind);
    size_t& n = next[v * itspq::kNumQueryKinds + k];
    p2p[i] = families[v][k][n++ % kPerVenueKind];
  }
  return p2p;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.found != b.found || !SamePath(a.path, b.path) ||
      !SameReachable(a.reachable, b.reachable) ||
      a.legs.size() != b.legs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.legs.size(); ++i) {
    if (!SamePath(a.legs[i], b.legs[i])) return false;
  }
  return true;
}

bool SameReply(const itspq::net::WireReply& a,
               const itspq::net::WireReply& b) {
  if (a.code != b.code || a.found != b.found || a.length_m != b.length_m ||
      a.departure_seconds != b.departure_seconds ||
      !SameSteps(a.steps, b.steps) || !SameReachable(a.reachable, b.reachable) ||
      a.legs.size() != b.legs.size()) {
    return false;
  }
  for (size_t i = 0; i < a.legs.size(); ++i) {
    if (a.legs[i].length_m != b.legs[i].length_m ||
        a.legs[i].departure_seconds != b.legs[i].departure_seconds ||
        !SameSteps(a.legs[i].steps, b.legs[i].steps)) {
      return false;
    }
  }
  return true;
}

std::vector<QueryResult> ExpectedAnswers(
    const std::vector<QueryRequest>& pool,
    const std::function<StatusOr<QueryResult>(size_t, itspq::QueryContext*)>&
        route) {
  std::vector<QueryResult> expected;
  expected.reserve(pool.size());
  itspq::QueryContext context;
  for (size_t i = 0; i < pool.size(); ++i) {
    expected.push_back(Must(route(i, &context), "reference Route"));
  }
  return expected;
}

void CorruptOne(std::vector<QueryResult>* expected) {
  for (QueryResult& r : *expected) {
    if (!r.found) continue;
    r.path = itspq::Path(r.path.departure_seconds(), r.path.length_m() + 1.0,
                         r.path.steps());
    r.reachable.clear();
    r.legs.clear();
    return;
  }
}

const char* KindLabel(itspq::QueryKind kind) {
  switch (kind) {
    case itspq::QueryKind::kPointToPoint:
      return "p2p";
    case itspq::QueryKind::kReachability:
      return "reach";
    case itspq::QueryKind::kNearestFacility:
      return "knn";
    case itspq::QueryKind::kMultiStop:
      return "multistop";
  }
  return "unknown";
}

std::vector<itspq::TimedAtiUpdate> UpdateStream(
    const itspq::VenueCatalog& catalog, uint64_t seed, int count,
    double offered_ups) {
  itspq::UpdateStreamConfig config;
  config.num_updates = count;
  config.seed = seed;
  config.offered_ups = offered_ups;
  config.zipf_exponent = 1.0;
  return Must(itspq::GenerateUpdateStream(catalog, config),
              "GenerateUpdateStream");
}

UpdateSegment CommitSequentially(
    const std::vector<itspq::TimedAtiUpdate>& updates,
    const std::function<Status(const itspq::AtiUpdate&)>& commit,
    size_t* rejected) {
  UpdateSegment segment;
  segment.latency_us.reserve(updates.size());
  for (const itspq::TimedAtiUpdate& u : updates) {
    const int64_t start = NowNs();
    const Status status = commit(u.update);
    const int64_t end = NowNs();
    if (status.ok()) {
      segment.latency_us.push_back(MicrosBetween(start, end));
    } else {
      ++*rejected;
    }
  }
  return segment;
}

void CodecReplay(const std::vector<QueryRequest>& pool,
                 const std::vector<QueryResult>& expected,
                 std::map<std::string, double>* layers) {
  namespace net = itspq::net;
  // Each operation runs kReps times back to back per request so one
  // clock read pair is spread over several calls.
  constexpr int kReps = 8;
  std::vector<double> encode_q, decode_q, encode_r, decode_r;
  double query_bytes = 0, reply_bytes = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const QueryRequest& request = pool[i];
    const bool p2p = request.kind == itspq::QueryKind::kPointToPoint;
    const StatusOr<QueryResult> result(expected[i]);
    std::string qframe, rframe;

    int64_t t0 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      const net::WireQuery wire = net::FromQueryRequest(
          request, i + 1, itspq::QosClass::kInteractive, 50'000);
      qframe = p2p ? net::EncodeQueryFrame(wire)
                   : net::EncodeTemporalQueryFrame(wire);
    }
    int64_t t1 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      net::MsgType type;
      std::string_view body;
      net::WireQuery decoded;
      MustOk(net::DecodeFrameHeader(std::string_view(qframe).substr(4), &type,
                                    &body),
             "DecodeFrameHeader(query)");
      MustOk(p2p ? net::DecodeQueryBody(body, &decoded)
                 : net::DecodeTemporalQueryBody(body, &decoded),
             "decode query");
    }
    int64_t t2 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      rframe = net::EncodeReplyFrame(
          net::MakeReply(i + 1, result),
          p2p ? net::MsgType::kQueryReply : net::MsgType::kTemporalReply);
    }
    int64_t t3 = NowNs();
    for (int r = 0; r < kReps; ++r) {
      net::MsgType type;
      std::string_view body;
      net::WireReply decoded;
      MustOk(net::DecodeFrameHeader(std::string_view(rframe).substr(4), &type,
                                    &body),
             "DecodeFrameHeader(reply)");
      MustOk(p2p ? net::DecodeReplyBody(body, &decoded)
                 : net::DecodeTemporalReplyBody(body, &decoded),
             "decode reply");
    }
    int64_t t4 = NowNs();
    encode_q.push_back(static_cast<double>(t1 - t0) / kReps);
    decode_q.push_back(static_cast<double>(t2 - t1) / kReps);
    encode_r.push_back(static_cast<double>(t3 - t2) / kReps);
    decode_r.push_back(static_cast<double>(t4 - t3) / kReps);
    query_bytes += static_cast<double>(qframe.size());
    reply_bytes += static_cast<double>(rframe.size());
  }
  const double n = static_cast<double>(std::max<size_t>(pool.size(), 1));
  (*layers)["net.encode_query_ns"] = Quantile(encode_q, 0.5);
  (*layers)["net.decode_query_ns"] = Quantile(decode_q, 0.5);
  (*layers)["net.encode_reply_ns"] = Quantile(encode_r, 0.5);
  (*layers)["net.decode_reply_ns"] = Quantile(decode_r, 0.5);
  (*layers)["net.query_bytes"] = query_bytes / n;
  (*layers)["net.reply_bytes"] = reply_bytes / n;
}

std::vector<double> RouteReplay(
    const std::vector<QueryRequest>& pool,
    const std::function<StatusOr<QueryResult>(size_t, itspq::QueryContext*)>&
        route,
    std::map<std::string, double>* layers) {
  itspq::QueryContext context;
  for (size_t i = 0; i < pool.size(); ++i) {
    Must(route(i, &context), "warm Route");
  }
  std::vector<double> all(pool.size());
  std::vector<std::vector<double>> by_kind(itspq::kNumQueryKinds);
  double popped = 0, updates = 0, found = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const int64_t start = NowNs();
    const QueryResult r = Must(route(i, &context), "replay Route");
    all[i] = MicrosBetween(start, NowNs());
    by_kind[static_cast<size_t>(pool[i].kind)].push_back(all[i]);
    popped += static_cast<double>(r.stats.doors_popped);
    updates += static_cast<double>(r.stats.graph_updates);
    found += r.found ? 1 : 0;
  }
  const double n = static_cast<double>(std::max<size_t>(pool.size(), 1));
  const Summary s = Summarize(all);
  (*layers)["query.route_p50_us"] = s.p50;
  (*layers)["query.route_p99_us"] = s.p99;
  for (uint8_t k = 0; k < itspq::kNumQueryKinds; ++k) {
    (*layers)[std::string("query.route_us.") +
              KindLabel(static_cast<itspq::QueryKind>(k))] =
        Quantile(by_kind[k], 0.5);
  }
  (*layers)["query.doors_popped_mean"] = popped / n;
  (*layers)["query.found_frac"] = found / n;
  (*layers)["itgraph.graph_updates_per_query"] = updates / n;
  return all;
}

double RouterBytes(const itspq::VenueCatalog& catalog) {
  double bytes = 0;
  for (size_t i = 0; i < catalog.NumVenues(); ++i) {
    auto world = catalog.world(static_cast<itspq::VenueId>(i));
    if (world != nullptr) bytes += static_cast<double>(world->router().MemoryUsage());
  }
  return bytes;
}

}  // namespace perfbench
