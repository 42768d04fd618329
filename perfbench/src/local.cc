// The in-process workloads: search_families (routers only),
// live_updates (QueryService reads beside a write stream) and
// cold_fleet (lazily loaded artifact shards under a residency budget).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <thread>

#include "artifact/artifact.h"
#include "common.h"
#include "common/rng.h"
#include "gen/ati_gen.h"
#include "gen/query_gen.h"
#include "gen/venue_gen.h"
#include "itgraph/itgraph.h"
#include "query/registry.h"
#include "query/sharded_router.h"
#include "query/verifier.h"
#include "server/query_service.h"
#include "update/versioned_graph.h"

namespace perfbench {

namespace {

/// Latency, throughput and success share of a phase: one segment's, or
/// pooled over segments by Append.
struct LoopResult {
  std::vector<double> latency_us;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  double elapsed_s = 0;
  std::vector<Span> spans;
  /// One segment: the share of host CPU time stolen while it ran.
  double steal_share = 0;
  SegmentStats segments;
};

void FillReadEndToEnd(const LoopResult& phase, double setup_s,
                      double peak_rss_mb, Outcome* out) {
  out->e2e.setup_s = setup_s;
  out->e2e.peak_rss_mb = peak_rss_mb;
  out->e2e.ok_frac = Frac(phase.ok, phase.attempted);
  out->notes.push_back("latency samples " +
                       std::to_string(phase.latency_us.size()) + " in " +
                       std::to_string(phase.segments.p50_us.size()) +
                       " segments");
  phase.segments.Report(out);
}

void FillDriverLayers(const LoopResult& untraced, const LoopResult& traced,
                      Outcome* out) {
  const double p50 = Quantile(untraced.latency_us, 0.5);
  out->layers["driver.trace_overhead_frac"] =
      (Quantile(traced.latency_us, 0.5) - p50) / p50;
  out->layers["driver.fail_frac"] =
      Frac(untraced.attempted - untraced.ok, untraced.attempted);
}

// =================================================== search_families

// The paper's default world: the 5-floor mall with |T| = 8.
constexpr int kPaperCheckpoints = 8;
constexpr int kCallers = 2;
// Large pools keep a run's figures from hinging on which few queries
// the seed happened to draw.
constexpr int kMallPairs = 512;
constexpr int kMallFamilyQueries = 1024;
constexpr size_t kMallPoolSize = 16384;
constexpr size_t kMallWarm = 256;
constexpr double kMallS2t = 1500;
// Shard order in the search_families catalog.
constexpr itspq::VenueId kCachedShard = 0;    // itg-a+, snapshot cache on
constexpr itspq::VenueId kPerQueryShard = 1;  // itg-a, Graph_Update per query
const char* const kMallStrategies[2] = {"itg-a+", "itg-a"};

itspq::Venue PaperMall(uint64_t seed) {
  itspq::MallConfig mall = itspq::MallConfig::Paper();
  mall.seed = seed;
  itspq::AtiGenConfig atis;
  atis.checkpoint_count = kPaperCheckpoints;
  atis.seed = seed + 1;
  return Must(itspq::AssignTemporalVariations(
                  Must(itspq::GenerateMall(mall), "GenerateMall"), atis),
              "AssignTemporalVariations");
}

/// Blocks of ten requests alternate between the two strategies, and
/// within a block MixedKind picks the family.
itspq::VenueId MallShardOf(size_t i) {
  return (i / 10) % 2 == 0 ? kCachedShard : kPerQueryShard;
}

std::vector<QueryRequest> MallPool(const itspq::ItGraph& graph,
                                   uint64_t seed) {
  itspq::QueryGenConfig pairs_config;
  pairs_config.s2t_distance = kMallS2t;
  pairs_config.tolerance = kMallS2t * 0.1;
  pairs_config.num_pairs = kMallPairs;
  pairs_config.seed = seed;
  const auto pairs =
      Must(itspq::GenerateQueries(graph, pairs_config), "GenerateQueries");
  std::vector<std::vector<QueryRequest>> families(itspq::kNumQueryKinds);
  for (uint8_t k = 1; k < itspq::kNumQueryKinds; ++k) {
    itspq::FamilyGenConfig config;
    config.kind = static_cast<itspq::QueryKind>(k);
    config.num_queries = kMallFamilyQueries;
    config.seed = seed * 131 + k;
    config.min_departure_seconds = 6 * 3600.0;
    config.max_departure_seconds = 23 * 3600.0;
    config.max_budget_seconds = 900;
    families[k] = Must(itspq::GenerateFamilyQueries(graph, config),
                       "GenerateFamilyQueries");
  }
  itspq::Rng rng(seed + 7);
  std::vector<QueryRequest> pool;
  std::vector<size_t> next(itspq::kNumQueryKinds, 0);
  for (size_t i = 0; i < kMallPoolSize; ++i) {
    const itspq::QueryKind kind = MixedKind(i);
    QueryRequest request;
    if (kind == itspq::QueryKind::kPointToPoint) {
      const itspq::QueryInstance& pair = pairs[i % pairs.size()];
      request.source = pair.ps;
      request.target = pair.pt;
      // Departures across the day: shut, opening, plateau and closing.
      request.departure =
          itspq::Instant(rng.UniformDouble(6 * 3600.0, 23 * 3600.0));
    } else {
      const auto& bucket = families[static_cast<size_t>(kind)];
      request = bucket[next[static_cast<size_t>(kind)]++ % bucket.size()];
    }
    // Unaddressed, so the independently built reference routers accept
    // it as well as the catalog shard it is sent to.
    request.venue_id = 0;
    request.options.use_snapshot_cache = MallShardOf(i) == kCachedShard;
    pool.push_back(std::move(request));
  }
  return pool;
}

struct MallStack {
  itspq::VenueCatalog catalog;
};

std::unique_ptr<MallStack> BuildMallStack(const std::vector<QueryRequest>& pool,
                                          std::vector<double>* build_ms) {
  auto stack = std::make_unique<MallStack>();
  itspq::Venue venue = PaperMall(kWorldSeed);
  itspq::Venue copies[2] = {venue, std::move(venue)};
  for (int s = 0; s < 2; ++s) {
    const int64_t start = NowNs();
    Must(stack->catalog.AddVenue(std::move(copies[s]), kMallStrategies[s]),
         "AddVenue");
    build_ms->push_back(MicrosBetween(start, NowNs()) / 1e3);
  }
  // Warm: fills the itg-a+ shard's snapshot cache.
  itspq::QueryContext context;
  for (size_t i = 0; i < kMallWarm; ++i) {
    Must(stack->catalog.router(MallShardOf(i)).Route(pool[i], &context),
         "warm Route");
  }
  return stack;
}

LoopResult MallPhase(const MallStack& stack,
                     const std::vector<QueryRequest>& pool,
                     const std::vector<QueryResult>& expected,
                     size_t pool_base, double seconds, bool trace,
                     Outcome* out) {
  const auto worlds = std::make_pair(stack.catalog.world(kCachedShard),
                                     stack.catalog.world(kPerQueryShard));
  const itspq::Router* routers[2] = {&worlds.first->router(),
                                     &worlds.second->router()};
  struct CallerLog {
    std::vector<double> latency_us;
    uint64_t attempted = 0, ok = 0, mismatches = 0;
    size_t first_mismatch = 0;
    SpanLog spans;
  };
  std::vector<CallerLog> logs(kCallers);
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      CallerLog& log = logs[static_cast<size_t>(c)];
      log.latency_us.reserve(kSampleReserve);
      itspq::QueryContext context;
      for (size_t i = static_cast<size_t>(c); NowNs() < end_ns;
           i += kCallers) {
        const size_t p = (pool_base + i) % pool.size();
        const int64_t t0 = NowNs();
        auto result = routers[MallShardOf(p)]->Route(pool[p], &context);
        const int64_t t1 = NowNs();
        ++log.attempted;
        if (result.ok()) {
          ++log.ok;
          log.latency_us.push_back(MicrosBetween(t0, t1));
          if (!SameResult(*result, expected[p]) && log.mismatches++ == 0) {
            log.first_mismatch = p;
          }
        }
        if (trace) {
          const uint64_t request = NextTraceRequest();
          log.spans.Root("driver.request", request, t0, NowNs());
          log.spans.Child("query.route", request, 1, t0, t1);
        }
      }
    });
  }
  for (std::thread& th : callers) th.join();
  LoopResult r;
  r.elapsed_s = MicrosBetween(start_ns, NowNs()) / 1e6;
  for (CallerLog& log : logs) {
    r.latency_us.insert(r.latency_us.end(), log.latency_us.begin(),
                        log.latency_us.end());
    r.attempted += log.attempted;
    r.ok += log.ok;
    for (uint64_t m = 0; m < log.mismatches; ++m) {
      out->Mismatch("pool request " + std::to_string(log.first_mismatch) +
                    " routed differently from the reference router");
    }
    r.spans.insert(r.spans.end(), log.spans.spans().begin(),
                   log.spans.spans().end());
  }
  return r;
}

// ======================================================= live_updates

constexpr int kFleetVenues = 4;
constexpr int kFleetMaxFloors = 2;
constexpr int kFleetPoolSize = 2048;
constexpr double kReadQps = 2000;
constexpr double kUpdateUps = 100;
// Reads carry no deadline and both queues hold a whole segment, so a
// CPU stall on the host delays reads and updates instead of shedding,
// rejecting or timing them out: every operation is answered, and the
// count of answered operations does not depend on the host's load.
constexpr double kReadDeadlineMicros = std::numeric_limits<double>::infinity();
constexpr size_t kLiveQueueCapacity = 8192;
constexpr size_t kLiveUpdateQueueCapacity = 1024;
constexpr int kWarmReads = 128;
// How often the read waiter rescans for reads that finished out of
// order: the timing error such a read can carry.
constexpr int64_t kHarvestPollNs = 50'000;
// Final answers are checked on this many pool requests.
constexpr size_t kFinalChecks = 512;

itspq::ServiceOptions LiveServiceOptions() {
  itspq::ServiceOptions options;
  options.num_workers = 2;
  options.queue_capacity = kLiveQueueCapacity;
  options.update_queue_capacity = kLiveUpdateQueueCapacity;
  return options;
}

struct LiveStack {
  std::unique_ptr<itspq::QueryService> service;
  uint64_t reads_submitted = 0;
  uint64_t reads_ok = 0;
  uint64_t updates_submitted = 0;
};

struct LivePhase {
  LoopResult reads;
  std::vector<double> lateness_us;
  std::vector<double> update_us;
  uint64_t updates_attempted = 0;
  uint64_t updates_ok = 0;
  /// Indices into the update stream, in commit order.
  std::vector<size_t> committed;
  /// Traced: direct route time of the first read on a venue after each
  /// commit.
  std::vector<double> first_read_after_us;
};

LivePhase RunLivePhase(LiveStack* stack, const std::vector<QueryRequest>& pool,
                       const std::vector<double>& read_offsets,
                       const std::vector<itspq::TimedAtiUpdate>& updates,
                       const std::vector<size_t>& first_pool_of_venue,
                       size_t pool_base, bool trace) {
  using ReadFuture = std::future<StatusOr<QueryResult>>;
  struct PendingRead {
    size_t k = 0;
    int64_t due_ns = 0, sub_start = 0, sub_end = 0;
    ReadFuture future;
  };
  struct PendingUpdate {
    size_t k = 0;
    int64_t due_ns = 0, sub_start = 0, sub_end = 0;
    std::future<Status> future;
  };
  itspq::QueryService& service = *stack->service;
  const int64_t start_ns = NowNs() + 1'000'000;
  auto due = [start_ns](double offset) {
    return start_ns + static_cast<int64_t>(offset * 1e9);
  };
  LivePhase phase;
  phase.reads.latency_us.reserve(read_offsets.size());
  phase.lateness_us.reserve(read_offsets.size());
  phase.update_us.reserve(updates.size());
  SpanLog read_spans, update_spans;
  Handoff<PendingRead> reads;
  Handoff<PendingUpdate> writes;
  int64_t last_done = start_ns;

  // Two workers can finish reads out of submission order, so the waiter
  // harvests every ready future instead of blocking on the oldest: a
  // read that finished early is not charged for an older one's delay.
  std::thread read_waiter([&] {
    std::deque<PendingRead> pending;
    auto harvest = [&](PendingRead& p) {
      const int64_t ready = NowNs();
      const bool ok = p.future.get().ok();
      const Timeline timeline{p.due_ns, p.sub_start, ready};
      last_done = std::max(last_done, ready);
      ++phase.reads.attempted;
      if (ok) {
        ++phase.reads.ok;
        phase.reads.latency_us.push_back(LatencyFromDueMicros(timeline));
      }
      if (trace) {
        const uint64_t request = NextTraceRequest();
        read_spans.Root("driver.request", request, p.due_ns, ready);
        read_spans.Child("server.submit", request, 1, p.sub_start, p.sub_end);
        read_spans.Child("server.wait", request, 2, p.sub_end, ready);
      }
    };
    UsePreciseTimers();
    PendingRead p;
    while (true) {
      if (pending.empty()) {
        if (!reads.Pop(&p)) break;
        pending.push_back(std::move(p));
      }
      while (reads.TryPop(&p)) pending.push_back(std::move(p));
      // Returns as soon as the oldest read is ready; otherwise rescans
      // after kHarvestPollNs for younger reads that finished first.
      pending.front().future.wait_for(std::chrono::nanoseconds(kHarvestPollNs));
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          harvest(*it);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
  });
  std::thread update_waiter([&] {
    PendingUpdate p;
    itspq::QueryContext context;
    while (writes.Pop(&p)) {
      const int64_t wait_start = NowNs();
      const bool ok = p.future.get().ok();
      const int64_t resolved = NowNs();
      ++phase.updates_attempted;
      if (ok) {
        ++phase.updates_ok;
        phase.update_us.push_back(MicrosBetween(p.due_ns, resolved));
        phase.committed.push_back(p.k);
      }
      if (trace) {
        const uint64_t request = NextTraceRequest();
        update_spans.Root("driver.update", request, p.due_ns, resolved);
        update_spans.Child("update.submit", request, 1, p.sub_start, p.sub_end);
        update_spans.Child("update.wait", request, 2,
                           std::max(wait_start, p.sub_end), resolved);
        if (ok) {
          const size_t v = static_cast<size_t>(updates[p.k].update.venue_id);
          const int64_t t0 = NowNs();
          (void)service.router().Route(pool[first_pool_of_venue[v]], &context);
          phase.first_read_after_us.push_back(MicrosBetween(t0, NowNs()));
        }
      }
    }
  });
  std::thread update_submitter([&] {
    for (size_t k = 0; k < updates.size(); ++k) {
      PendingUpdate p;
      p.k = k;
      p.due_ns = due(updates[k].offset_seconds);
      SleepUntilNs(p.due_ns);
      p.sub_start = NowNs();
      p.future = service.SubmitUpdate(updates[k].update);
      p.sub_end = NowNs();
      ++stack->updates_submitted;
      writes.Push(std::move(p));
    }
    writes.Close();
  });
  for (size_t k = 0; k < read_offsets.size(); ++k) {
    PendingRead p;
    p.k = k;
    p.due_ns = due(read_offsets[k]);
    SleepUntilNs(p.due_ns);
    p.sub_start = NowNs();
    p.future = service.Submit(pool[(pool_base + k) % pool.size()],
                              kReadDeadlineMicros,
                              itspq::QosClass::kInteractive);
    p.sub_end = NowNs();
    phase.lateness_us.push_back(
        SendLatenessMicros(Timeline{p.due_ns, p.sub_start, p.sub_end}));
    ++stack->reads_submitted;
    reads.Push(std::move(p));
  }
  reads.Close();
  update_submitter.join();
  read_waiter.join();
  update_waiter.join();
  stack->reads_ok += phase.reads.ok;
  phase.reads.elapsed_s = MicrosBetween(start_ns, last_done) / 1e6;
  phase.reads.spans = std::move(read_spans.spans());
  phase.reads.spans.insert(phase.reads.spans.end(),
                           update_spans.spans().begin(),
                           update_spans.spans().end());
  return phase;
}

/// The from-scratch world: every venue regenerated, each committed
/// update's intervals written straight into the venue (last write
/// wins), then compiled as a fresh catalog.
itspq::VenueCatalog RebuildWithUpdates(
    const std::vector<itspq::TimedAtiUpdate>& updates,
    const std::vector<size_t>& committed) {
  std::vector<itspq::Venue> fleet =
      MakeFleet(kWorldSeed, kFleetVenues, 1, kFleetMaxFloors);
  std::vector<itspq::Venue> rebuilt;
  for (size_t v = 0; v < fleet.size(); ++v) {
    itspq::Venue::Builder builder = itspq::Venue::Builder::FromVenue(fleet[v]);
    for (size_t k : committed) {
      const itspq::AtiUpdate& u = updates[k].update;
      if (static_cast<size_t>(u.venue_id) != v) continue;
      MustOk(builder.SetDoorAti(u.door_id, u.intervals), "SetDoorAti");
    }
    rebuilt.push_back(Must(std::move(builder).Build(), "Venue::Build"));
  }
  return CatalogOf(std::move(rebuilt), "itg-a+");
}

// ========================================================= cold_fleet

constexpr int kColdVenues = 64;
constexpr int kColdMaxFloors = 3;
constexpr size_t kColdPoolSize = 16384;
constexpr size_t kColdWarm = 256;
// A fixed residency budget: about a quarter of what the 64-venue fleet
// occupies fully resident with the code this benchmark was written
// against (23.5 MB), so a change that shrinks venues shows up as fewer
// cold loads instead of a proportionally smaller budget.
constexpr size_t kColdBudgetBytes = 6656 * 1024;
constexpr int kLoadReplayPasses = 3;

/// The lazy serving stack plus the artifact files backing it; the files
/// are removed when the stack is destroyed.
struct ColdStack {
  std::filesystem::path dir;
  std::vector<std::string> paths;
  itspq::VenueCatalog catalog;
  std::unique_ptr<itspq::ShardedRouter> router;
  double pack_ms_per_venue = 0;
  double register_ms = 0;

  ColdStack() = default;
  ColdStack(const ColdStack&) = delete;
  ColdStack& operator=(const ColdStack&) = delete;
  ~ColdStack() {
    router.reset();
    catalog = itspq::VenueCatalog();
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<ColdStack> BuildColdStack(const Options& o, int segment,
                                          const std::vector<QueryRequest>& pool,
                                          size_t pool_base) {
  auto stack = std::make_unique<ColdStack>();
  stack->dir = std::filesystem::path(o.work_dir) /
               ("cold_fleet-" + std::to_string(::getpid()) + "-" +
                std::to_string(segment));
  std::filesystem::create_directories(stack->dir);
  const int64_t pack_start = NowNs();
  std::vector<itspq::Venue> fleet =
      MakeFleet(kWorldSeed, kColdVenues, 1, kColdMaxFloors);
  for (size_t i = 0; i < fleet.size(); ++i) {
    stack->paths.push_back(
        (stack->dir / ("venue_" + std::to_string(i) + ".itspq")).string());
    MustOk(itspq::WriteVenueArtifact(stack->paths.back(), fleet[i]),
           "WriteVenueArtifact");
  }
  stack->pack_ms_per_venue =
      MicrosBetween(pack_start, NowNs()) / 1e3 / kColdVenues;
  const int64_t register_start = NowNs();
  for (const std::string& path : stack->paths) {
    Must(stack->catalog.AddArtifactShard(path, "itg-a+"), "AddArtifactShard");
  }
  MustOk(stack->catalog.SetResidencyBudget(kColdBudgetBytes, "lru"),
         "SetResidencyBudget");
  stack->register_ms = MicrosBetween(register_start, NowNs()) / 1e3;
  stack->router = std::make_unique<itspq::ShardedRouter>(stack->catalog);
  itspq::QueryContext context;
  for (size_t i = 0; i < kColdWarm; ++i) {
    Must(stack->router->Route(pool[(pool_base + i) % pool.size()], &context),
         "warm Route");
  }
  return stack;
}

// ====================================================== entry points

/// Folds one segment's samples into the run's pool.
void Append(LoopResult* into, LoopResult segment) {
  into->segments.Add(segment.latency_us, segment.ok, segment.elapsed_s,
                     segment.steal_share);
  into->latency_us.insert(into->latency_us.end(), segment.latency_us.begin(),
                          segment.latency_us.end());
  into->attempted += segment.attempted;
  into->ok += segment.ok;
  into->elapsed_s += segment.elapsed_s;
  into->spans.insert(into->spans.end(), segment.spans.begin(),
                     segment.spans.end());
}

}  // namespace

Outcome RunSearchFamilies(const Options& o) {
  Outcome out;
  // Reference: a second, independently built world and router pair.
  const itspq::Venue reference_venue = PaperMall(kWorldSeed);
  const itspq::ItGraph reference_graph =
      Must(itspq::ItGraph::Build(reference_venue), "ItGraph::Build");
  const std::unique_ptr<itspq::Router> reference[2] = {
      Must(itspq::MakeRouter(kMallStrategies[0], reference_graph),
           "MakeRouter"),
      Must(itspq::MakeRouter(kMallStrategies[1], reference_graph),
           "MakeRouter")};
  const std::vector<QueryRequest> pool = MallPool(reference_graph, o.seed + 1);
  auto route_reference = [&](size_t i, itspq::QueryContext* ctx) {
    return reference[MallShardOf(i)]->Route(pool[i], ctx);
  };
  std::vector<QueryResult> expected = ExpectedAnswers(pool, route_reference);
  // Rule-1 validity holds for the exact strategy only: the paper's ITG/A
  // reads a stale frontier snapshot and may return an invalid path
  // (tests/property_test.cc pins that envelope), so its answers are
  // checked against the second router instance alone.
  for (size_t i = 0; i < expected.size(); ++i) {
    if (MallShardOf(i) != kCachedShard) continue;
    bool valid = !expected[i].found ||
                 pool[i].kind != itspq::QueryKind::kPointToPoint ||
                 itspq::VerifyPath(reference_graph, expected[i].path).ok();
    for (const itspq::Path& leg : expected[i].legs) {
      valid = valid && itspq::VerifyPath(reference_graph, leg).ok();
    }
    out.Check(valid, "VerifyPath rejected itg-a+ answer " + std::to_string(i));
  }
  if (o.corrupt_expected) CorruptOne(&expected);

  const double segment_s = o.seconds / kSegments;
  std::vector<std::pair<bool, LoopResult>> segments;  // (traced, samples)
  std::vector<double> setup_s, build_ms, update_us;
  std::vector<UpdateSegment> update_segments;
  size_t probe_rejected = 0, probe_attempted = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool trace_segment = o.trace && seg % 2 == 1;
    const int64_t setup_start = NowNs();
    std::unique_ptr<MallStack> stack = BuildMallStack(pool, &build_ms);
    setup_s.push_back(MicrosBetween(setup_start, NowNs()) / 1e6);
    const CpuTimes cpu_start = ReadCpuTimes();
    LoopResult phase = MallPhase(*stack, pool, expected, seg * kPoolStride,
                                 segment_s, trace_segment, &out);
    phase.steal_share = StealShare(cpu_start, ReadCpuTimes());
    segments.emplace_back(trace_segment, std::move(phase));

    const auto updates = UpdateStream(stack->catalog, SegmentSeed(o.seed, seg) + 1,
                                      kProbeUpdates / kSegments, 100);
    probe_attempted += updates.size();
    UpdateSegment committed = CommitSequentially(
        updates,
        [&](const itspq::AtiUpdate& u) {
          return stack->catalog.ApplyAtiUpdate(u).status();
        },
        &probe_rejected);
    update_us.insert(update_us.end(), committed.latency_us.begin(),
                     committed.latency_us.end());
    update_segments.push_back(std::move(committed));
    if (seg == kSegments - 1 && o.trace) {
      out.layers["itgraph.router_bytes"] = RouterBytes(stack->catalog);
    }
  }

  const double peak_rss_mb = PeakRssMb();
  LoopResult untraced, traced;
  for (auto& [traced_segment, samples] : segments) {
    Append(traced_segment ? &traced : &untraced, std::move(samples));
  }
  FillReadEndToEnd(untraced, Quantile(setup_s, 0.5), peak_rss_mb, &out);
  ReportUpdates(update_segments, &out);
  out.attempted = untraced.attempted + traced.attempted + probe_attempted;
  out.failed = (untraced.attempted - untraced.ok) +
               (traced.attempted - traced.ok) + probe_rejected;
  if (!o.trace) return out;

  auto& L = out.layers;
  FillDriverLayers(untraced, traced, &out);
  out.spans = std::move(traced.spans);
  CodecReplay(pool, expected, &L);
  RouteReplay(pool, route_reference, &L);
  L["itgraph.build_world_ms"] = Quantile(build_ms, 0.5);
  // The probe already commits straight into the catalog.
  const Summary apply = Summarize(update_us);
  L["update.apply_p50_us"] = apply.p50;
  L["update.apply_p99_us"] = apply.p99;
  L["update.rejected"] = static_cast<double>(probe_rejected);
  return out;
}

Outcome RunLiveUpdates(const Options& o) {
  Outcome out;
  const itspq::VenueCatalog reference = CatalogOf(
      MakeFleet(kWorldSeed, kFleetVenues, 1, kFleetMaxFloors), "itg-a+");
  const std::vector<QueryRequest> pool =
      FleetPointToPoint(reference, o.seed + 1, kFleetPoolSize);
  std::vector<size_t> first_pool_of_venue(reference.NumVenues(), 0);
  for (size_t i = pool.size(); i-- > 0;) {
    first_pool_of_venue[static_cast<size_t>(pool[i].venue_id)] = i;
  }

  const double segment_s = o.seconds / kSegments;
  std::vector<std::pair<bool, LoopResult>> segments;  // (traced, reads)
  std::vector<double> setup_s, build_ms, lateness_us, update_us;
  std::vector<UpdateSegment> update_segments;
  std::vector<double> first_read_after_us, first_read_offsets;
  std::vector<itspq::TimedAtiUpdate> all_updates;
  uint64_t updates_attempted = 0, updates_ok = 0;
  ServiceTally tally;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool trace_segment = o.trace && seg % 2 == 1;
    const int64_t setup_start = NowNs();
    LiveStack stack;
    stack.service = Must(
        itspq::MakeQueryService(
            CatalogOf(MakeFleet(kWorldSeed, kFleetVenues, 1, kFleetMaxFloors),
                      "itg-a+", &build_ms),
            LiveServiceOptions()),
        "MakeQueryService");
    for (int w = 0; w < kWarmReads; ++w) {
      ++stack.reads_submitted;
      if (stack.service->Submit(pool[static_cast<size_t>(w)], kReadDeadlineMicros)
              .get()
              .ok()) {
        ++stack.reads_ok;
      }
    }
    setup_s.push_back(MicrosBetween(setup_start, NowNs()) / 1e6);

    itspq::ArrivalScheduleConfig arrivals;
    arrivals.offered_qps = kReadQps;
    arrivals.seed = SegmentSeed(o.seed, seg);
    const std::vector<double> read_offsets =
        Must(itspq::GenerateOpenLoopArrivals(
                 static_cast<int>(kReadQps * segment_s), arrivals),
             "GenerateOpenLoopArrivals");
    if (seg == 0) first_read_offsets = read_offsets;
    const auto updates = UpdateStream(
        reference, SegmentSeed(o.seed, seg) + 1,
        static_cast<int>(std::ceil(kUpdateUps * segment_s)), kUpdateUps);
    const CpuTimes cpu_start = ReadCpuTimes();
    LivePhase phase =
        RunLivePhase(&stack, pool, read_offsets, updates, first_pool_of_venue,
                     seg * kPoolStride, trace_segment);
    phase.reads.steal_share = StealShare(cpu_start, ReadCpuTimes());
    updates_attempted += phase.updates_attempted;
    updates_ok += phase.updates_ok;
    if (!trace_segment) {
      lateness_us.insert(lateness_us.end(), phase.lateness_us.begin(),
                         phase.lateness_us.end());
      update_us.insert(update_us.end(), phase.update_us.begin(),
                       phase.update_us.end());
      update_segments.push_back(
          UpdateSegment{phase.update_us});
      all_updates.insert(all_updates.end(), updates.begin(), updates.end());
    }
    first_read_after_us.insert(first_read_after_us.end(),
                               phase.first_read_after_us.begin(),
                               phase.first_read_after_us.end());

    // Final answers against a from-scratch rebuild with every committed
    // update applied, in commit order.
    const itspq::VenueCatalog rebuilt =
        RebuildWithUpdates(updates, phase.committed);
    const itspq::ShardedRouter rebuilt_router(rebuilt);
    std::vector<QueryResult> expected;
    itspq::QueryContext a, b;
    for (size_t i = 0; i < kFinalChecks; ++i) {
      expected.push_back(
          Must(rebuilt_router.Route(pool[i], &a), "rebuilt Route"));
    }
    if (o.corrupt_expected) CorruptOne(&expected);
    for (size_t i = 0; i < kFinalChecks; ++i) {
      const QueryResult served =
          Must(stack.service->router().Route(pool[i], &b), "served Route");
      if (!SameResult(served, expected[i])) {
        out.Mismatch("pool request " + std::to_string(i) +
                     " differs from the rebuilt world after the updates");
      }
    }
    if (seg == kSegments - 1 && o.trace) {
      out.layers["itgraph.router_bytes"] =
          RouterBytes(stack.service->catalog());
    }

    stack.service->Shutdown();
    const itspq::ServiceStats ss = stack.service->Stats();
    tally.Add(ss, &out);
    out.Check(ss.submitted == stack.reads_submitted,
              "service submitted != reads the driver submitted");
    out.Check(stack.reads_ok == ss.served - ss.route_errors,
              "driver kOk reads != service served - route_errors");
    out.Check(ss.updates_submitted == stack.updates_submitted,
              "service updates_submitted != updates the driver submitted");
    out.Check(ss.updates_applied == phase.committed.size(),
              "service updates_applied != updates the driver saw commit");
    segments.emplace_back(trace_segment, std::move(phase.reads));
  }

  const double peak_rss_mb = PeakRssMb();
  LoopResult untraced, traced;
  for (auto& [traced_segment, reads] : segments) {
    Append(traced_segment ? &traced : &untraced, std::move(reads));
  }
  FillReadEndToEnd(untraced, Quantile(setup_s, 0.5), peak_rss_mb, &out);
  ReportUpdates(update_segments, &out);
  out.attempted = untraced.attempted + traced.attempted + updates_attempted;
  out.failed = (untraced.attempted - untraced.ok) +
               (traced.attempted - traced.ok) +
               (updates_attempted - updates_ok);
  if (!o.trace) return out;

  auto& L = out.layers;
  FillDriverLayers(untraced, traced, &out);
  L["driver.send_late_p99_us"] = Summarize(lateness_us).p99;
  out.spans = std::move(traced.spans);
  const itspq::ShardedRouter reference_router(reference);
  auto route_reference = [&](size_t i, itspq::QueryContext* ctx) {
    return reference_router.Route(pool[i], ctx);
  };
  const std::vector<QueryResult> expected =
      ExpectedAnswers(pool, route_reference);
  CodecReplay(pool, expected, &L);
  RouteReplay(pool, route_reference, &L);
  const Summary svc = Summarize(untraced.latency_us);
  L["server.service_p50_us"] = svc.p50;
  L["server.service_p99_us"] = svc.p99;
  L["server.queue_wait_p50_us"] = svc.p50 - L["query.route_p50_us"];
  tally.Report(&L);
  // The net layer: the first segment's read schedule replayed over
  // loopback to a NetServer on the same fleet. Its residual is the
  // difference of the quantiles, since the two runs do not pair up.
  const LoopbackReplay wire =
      ReplayOverLoopback(pool, expected, first_read_offsets, &out);
  const Summary rtt = Summarize(wire.rtt_us);
  L["net.residual_p50_us"] = rtt.p50 - svc.p50;
  L["net.residual_p99_us"] = rtt.p99 - svc.p99;
  L["net.decode_errors"] = static_cast<double>(wire.edge.decode_errors);
  L["net.connections_dropped"] =
      static_cast<double>(wire.edge.connections_dropped);
  L["itgraph.build_world_ms"] = Quantile(build_ms, 0.5);

  itspq::VenueCatalog twin = CatalogOf(
      MakeFleet(kWorldSeed, kFleetVenues, 1, kFleetMaxFloors), "itg-a+");
  size_t twin_rejected = 0;
  const Summary apply = Summarize(CommitSequentially(
      all_updates,
      [&](const itspq::AtiUpdate& u) { return twin.ApplyAtiUpdate(u).status(); },
      &twin_rejected).latency_us);
  L["update.apply_p50_us"] = apply.p50;
  L["update.apply_p99_us"] = apply.p99;
  L["update.queue_wait_p50_us"] = Quantile(update_us, 0.5) - apply.p50;
  L["update.first_read_after_us"] = Quantile(first_read_after_us, 0.5);
  return out;
}

Outcome RunColdFleet(const Options& o) {
  Outcome out;
  std::vector<double> build_ms;
  itspq::VenueCatalog reference =
      CatalogOf(MakeFleet(kWorldSeed, kColdVenues, 1, kColdMaxFloors),
                "itg-a+", &build_ms);
  out.notes.push_back(
      "fully resident fleet " +
      std::to_string(reference.Stats().total_memory_bytes / 1048576.0) +
      " MB, budget " + std::to_string(kColdBudgetBytes / 1048576.0) + " MB");
  const std::vector<QueryRequest> pool =
      FleetPointToPoint(reference, o.seed + 1, kColdPoolSize);
  const itspq::ShardedRouter reference_router(reference);
  auto route_reference = [&](size_t i, itspq::QueryContext* ctx) {
    return reference_router.Route(pool[i], ctx);
  };
  std::vector<QueryResult> expected = ExpectedAnswers(pool, route_reference);
  if (o.corrupt_expected) CorruptOne(&expected);

  // One thread, closed loop, through the lazy catalog's ShardedRouter.
  auto serve = [&](const ColdStack& stack, size_t pool_base, double seconds,
                   bool trace) {
    LoopResult r;
    r.latency_us.reserve(kSampleReserve);
    SpanLog spans;
    itspq::QueryContext context;
    const int64_t start_ns = NowNs();
    const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
    for (size_t i = 0; NowNs() < end_ns; ++i) {
      const size_t p = (pool_base + i) % pool.size();
      const int64_t t0 = NowNs();
      auto result = stack.router->Route(pool[p], &context);
      const int64_t t1 = NowNs();
      ++r.attempted;
      if (result.ok()) {
        ++r.ok;
        r.latency_us.push_back(MicrosBetween(t0, t1));
        if (!SameResult(*result, expected[p])) {
          out.Mismatch("pool request " + std::to_string(p) +
                       " differs between the lazy and the eager catalog");
        }
      }
      if (trace) {
        const uint64_t request = NextTraceRequest();
        spans.Root("driver.request", request, t0, NowNs());
        spans.Child("query.route", request, 1, t0, t1);
      }
    }
    r.elapsed_s = MicrosBetween(start_ns, NowNs()) / 1e6;
    r.spans = std::move(spans.spans());
    return r;
  };

  const double segment_s = o.seconds / kSegments;
  std::vector<std::pair<bool, LoopResult>> segments;  // (traced, samples)
  std::vector<double> setup_s, update_us, pack_ms, register_ms;
  std::vector<UpdateSegment> update_segments;
  size_t untraced_loads = 0, probe_rejected = 0, probe_attempted = 0;
  std::unique_ptr<ColdStack> stack;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool trace_segment = o.trace && seg % 2 == 1;
    stack.reset();
    const int64_t setup_start = NowNs();
    // The warm-up starts where the segment's traffic starts.
    const size_t pool_base = seg * kPoolStride;
    stack = BuildColdStack(o, seg, pool, pool_base);
    setup_s.push_back(MicrosBetween(setup_start, NowNs()) / 1e6);
    pack_ms.push_back(stack->pack_ms_per_venue);
    register_ms.push_back(stack->register_ms);

    const size_t loads_before = stack->catalog.Stats().total_loads;
    const CpuTimes cpu_start = ReadCpuTimes();
    LoopResult phase =
        serve(*stack, pool_base + kColdWarm, segment_s, trace_segment);
    phase.steal_share = StealShare(cpu_start, ReadCpuTimes());
    if (!trace_segment) {
      untraced_loads += stack->catalog.Stats().total_loads - loads_before;
    }
    segments.emplace_back(trace_segment, std::move(phase));

    const auto updates = UpdateStream(reference, SegmentSeed(o.seed, seg) + 1,
                                      kProbeUpdates / kSegments, 100);
    probe_attempted += updates.size();
    UpdateSegment committed = CommitSequentially(
        updates,
        [&](const itspq::AtiUpdate& u) {
          return stack->catalog.ApplyAtiUpdate(u).status();
        },
        &probe_rejected);
    update_us.insert(update_us.end(), committed.latency_us.begin(),
                     committed.latency_us.end());
    update_segments.push_back(std::move(committed));
  }

  const double peak_rss_mb = PeakRssMb();
  LoopResult untraced, traced;
  for (auto& [traced_segment, samples] : segments) {
    Append(traced_segment ? &traced : &untraced, std::move(samples));
  }
  FillReadEndToEnd(untraced, Quantile(setup_s, 0.5), peak_rss_mb, &out);
  ReportUpdates(update_segments, &out);
  out.notes.push_back("artifact loads per request " +
                      std::to_string(Frac(untraced_loads, untraced.attempted)));
  out.attempted = untraced.attempted + traced.attempted + probe_attempted;
  out.failed = (untraced.attempted - untraced.ok) +
               (traced.attempted - traced.ok) + probe_rejected;
  if (!o.trace) return out;

  auto& L = out.layers;
  FillDriverLayers(untraced, traced, &out);
  out.spans = std::move(traced.spans);
  CodecReplay(pool, expected, &L);
  RouteReplay(pool, route_reference, &L);
  L["itgraph.build_world_ms"] = Quantile(build_ms, 0.5);
  L["itgraph.router_bytes"] = RouterBytes(reference);

  std::vector<double> load_us;
  double artifact_bytes = 0;
  for (int pass = 0; pass < kLoadReplayPasses; ++pass) {
    for (const std::string& path : stack->paths) {
      const int64_t t0 = NowNs();
      auto world = Must(
          itspq::BuildWorldFromArtifact(
              Must(itspq::LoadVenueArtifact(path), "LoadVenueArtifact"),
              "itg-a+"),
          "BuildWorldFromArtifact");
      load_us.push_back(MicrosBetween(t0, NowNs()));
      if (pass == 0) {
        artifact_bytes += static_cast<double>(std::filesystem::file_size(path));
      }
    }
  }
  const Summary load = Summarize(load_us);
  L["artifact.pack_ms_per_venue"] = Quantile(pack_ms, 0.5);
  L["artifact.register_ms"] = Quantile(register_ms, 0.5);
  L["artifact.load_p50_us"] = load.p50;
  L["artifact.load_p99_us"] = load.p99;
  L["artifact.loads_per_request"] = Frac(untraced_loads, untraced.attempted);
  L["artifact.bytes_per_venue"] = artifact_bytes / kColdVenues;

  size_t apply_rejected = 0;
  const Summary apply = Summarize(CommitSequentially(
      UpdateStream(reference, SegmentSeed(o.seed, 0) + 1, kProbeUpdates, 100),
      [&](const itspq::AtiUpdate& u) {
        return reference.ApplyAtiUpdate(u).status();
      },
      &apply_rejected).latency_us);
  L["update.apply_p50_us"] = apply.p50;
  L["update.apply_p99_us"] = apply.p99;
  L["update.queue_wait_p50_us"] = Quantile(update_us, 0.5) - apply.p50;
  L["update.rejected"] = static_cast<double>(probe_rejected);
  return out;
}

}  // namespace perfbench
