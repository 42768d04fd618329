#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the five workloads: run options, the result each
// workload hands back, clocks, fleet/catalog construction, request
// pools, answer comparison, and the measurement replays the traced run
// performs after its timed phase.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "gen/workload_gen.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/path.h"
#include "query/router.h"
#include "query/venue_catalog.h"
#include "samples.h"
#include "trace.h"
#include "update/ati_update.h"
#include "venue/venue.h"

namespace perfbench {

using itspq::QueryRequest;
using itspq::QueryResult;
using itspq::Status;
using itspq::StatusOr;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: the odd segments record spans, then the per-layer
  /// replays run; reports per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_out;
  /// Scratch directory for files a workload writes (artifacts).
  std::string work_dir = ".";
  /// Corrupts one precomputed expected answer, so the run must fail
  /// its answer check — proves the check is live.
  bool corrupt_expected = false;
};

/// The caller-visible numbers of one untraced run.
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double ok_frac = 0;
  double lat_p50_us = 0;
  double throughput_qps = 0;
  double update_p50_us = 0;
};

/// What one workload run hands back to main.
struct Outcome {
  EndToEnd e2e;
  /// Per-layer metrics by name (traced run only); names missing here
  /// are layers this workload does not exercise and print as 0.
  std::map<std::string, double> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Answers that differed from the independently computed expected
  /// answer; any makes the run incorrect.
  uint64_t mismatches = 0;
  std::string first_mismatch;
  /// Broken ledger identities; any makes the run incorrect.
  std::vector<std::string> violations;
  std::vector<Span> spans;
  /// Human-readable sample counts, printed to stderr.
  std::vector<std::string> notes;

  void Mismatch(const std::string& what) {
    if (mismatches++ == 0) first_mismatch = what;
  }
  void Check(bool holds, const std::string& what) {
    if (!holds) violations.push_back(what);
  }
};

// ------------------------------------------------------------- clocks

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MicrosBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

/// Cuts the calling thread's timer slack to 1 µs (the default 50 µs
/// would blur every timed wait the driver makes).
void UsePreciseTimers();

/// Sleeps until `due_ns`, then spins the last stretch: a plain sleep
/// overshoots by tens of µs, which would read as generator lateness.
void SleepUntilNs(int64_t due_ns);

/// Peak resident set of this process so far (VmHWM), MB.
double PeakRssMb();

/// Host CPU time stolen from this machine by the hypervisor, and all
/// CPU time, summed over CPUs (jiffies, from /proc/stat). The report
/// quotes the stolen share so a noisy run can be told apart.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Share of host CPU time stolen between two readings (0 when the
/// counters are unavailable).
inline double StealShare(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

// ------------------------------------------------------------- errors

[[noreturn]] void Die(const std::string& what);

inline void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(*value);
}

// ---------------------------------------------------- worlds and pools

/// The venues are a fixed deployment: every run of a workload serves
/// the same worlds, and --seed varies only the traffic (request pools,
/// departures, arrival schedules, update streams). Run-to-run spread
/// then measures the system rather than which venues the generator
/// happened to draw.
inline constexpr uint64_t kWorldSeed = 7;

/// A heterogeneous fleet from the shared generator; the same
/// (seed, shape) always yields the same venues.
std::vector<itspq::Venue> MakeFleet(uint64_t seed, int venues, int min_floors,
                                    int max_floors);

/// Adds every venue to a fresh catalog under `strategy`, appending each
/// AddVenue's wall time (ms) to `build_ms` when non-null.
itspq::VenueCatalog CatalogOf(std::vector<itspq::Venue> venues,
                              const std::string& strategy,
                              std::vector<double>* build_ms = nullptr);

/// Point-to-point requests over the catalog's venues, Zipf-skewed
/// towards low venue ids, snapshot cache on (the serving shape).
std::vector<QueryRequest> FleetPointToPoint(const itspq::VenueCatalog& catalog,
                                            uint64_t seed, int count);

/// Replaces every 10-request block's slots 4..9 of `p2p` with family
/// requests on the same venue: 40% point-to-point, 20% each of
/// reachability, k-nearest-facility and multi-stop.
std::vector<QueryRequest> MixInFamilies(const itspq::VenueCatalog& catalog,
                                        std::vector<QueryRequest> p2p,
                                        uint64_t seed);

/// The QueryKind that replaces slot `i % 10` in MixInFamilies.
itspq::QueryKind MixedKind(size_t i);

// ------------------------------------------------------- answer checks

/// Bit-identical answers: found, lengths, departures, door sequences
/// with their distances and arrivals, reachable sets and itinerary legs.
bool SameResult(const QueryResult& a, const QueryResult& b);
/// The same comparison on wire replies (code included).
bool SameReply(const itspq::net::WireReply& a,
               const itspq::net::WireReply& b);

/// Routes every pool request through `route` (the expected answers).
/// Dies on a request that errors: the pools contain only valid ones.
std::vector<QueryResult> ExpectedAnswers(
    const std::vector<QueryRequest>& pool,
    const std::function<StatusOr<QueryResult>(size_t, itspq::QueryContext*)>&
        route);

/// Makes the first found expected answer wrong (Options::corrupt_expected).
void CorruptOne(std::vector<QueryResult>* expected);

/// Short label of a request's family: p2p, reach, knn, multistop.
const char* KindLabel(itspq::QueryKind kind);

// -------------------------------------------------- update write probe

/// A Zipf-skewed update stream over `catalog` (the live_updates stream
/// shape: daytime windows plus midnight-wrap and always-open slices).
std::vector<itspq::TimedAtiUpdate> UpdateStream(
    const itspq::VenueCatalog& catalog, uint64_t seed, int count,
    double offered_ups);

struct UpdateSegment;

/// Commits `updates` one after another through `commit`: each commit's
/// latency (µs) and the stolen CPU share while they ran. Failed commits
/// are counted in *rejected and left out of the samples.
UpdateSegment CommitSequentially(
    const std::vector<itspq::TimedAtiUpdate>& updates,
    const std::function<Status(const itspq::AtiUpdate&)>& commit,
    size_t* rejected);

/// Workloads without a concurrent write stream measure the update
/// metrics with this many sequential commits after their read phase.
inline constexpr int kProbeUpdates = 2400;

// --------------------------------------------------- traced-run replays

/// net.*: each pool request (and its expected answer) through the wire
/// codec, timed per operation; exact mean frame sizes.
void CodecReplay(const std::vector<QueryRequest>& pool,
                 const std::vector<QueryResult>& expected,
                 std::map<std::string, double>* layers);

/// query.* and itgraph.graph_updates_per_query: one untimed pass to
/// warm caches, then one timed direct Route per pool request.
/// Returns the per-request route times (µs), pool-aligned.
std::vector<double> RouteReplay(
    const std::vector<QueryRequest>& pool,
    const std::function<StatusOr<QueryResult>(size_t, itspq::QueryContext*)>&
        route,
    std::map<std::string, double>* layers);

/// itgraph.router_bytes: Router::MemoryUsage summed over the resident
/// shards of `catalog`.
double RouterBytes(const itspq::VenueCatalog& catalog);

// ------------------------------------------------------------ handoff

/// A blocking FIFO between a producer and a consumer thread.
template <typename T>
class Handoff {
 public:
  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False when nothing is queued right now.
  bool TryPop(T* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }
  /// False once closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;  // guarded by mu_
  bool closed_ = false;  // guarded by mu_
};

/// A run is kSegments independent segments, each building its serving
/// stack from scratch (timed: setup_s is the median) and then serving
/// seconds / kSegments of traffic. Separate stacks keep one stack's
/// thread placement from setting a whole run's figures. The traced run
/// traces the odd segments only, so the untraced even ones give the
/// baseline for the tracing overhead.
inline constexpr int kSegments = 24;

/// Latency quantiles, goodput and stolen CPU share of each segment.
struct SegmentStats {
  std::vector<double> p50_us;
  std::vector<double> p95_us;
  std::vector<double> p99_us;
  std::vector<double> qps;
  std::vector<double> steal;

  void Add(const std::vector<double>& latency_us, uint64_t ok,
           double elapsed_s, double steal_share);

  /// Fills lat_p50_us (the lowest segment p50), throughput_qps (the
  /// highest segment goodput) and the per-layer tails (medians over the
  /// quiet segments), which are too unsteady for a bound (see
  /// README.md).
  void Report(Outcome* out) const;
};

/// Commit latencies of one segment's updates.
struct UpdateSegment {
  std::vector<double> latency_us;
};

/// Fills update_p50_us from the pooled commits of the quiet segments
/// (those whose commits have the lowest median), and the per-layer
/// update tails.
void ReportUpdates(const std::vector<UpdateSegment>& segments, Outcome* out);

/// A QueryService's ledger summed over a run's segments.
struct ServiceTally {
  size_t submitted = 0, shed = 0, rejected = 0, timed_out = 0;
  size_t batches = 0, dispatched = 0, queue_high_water = 0;
  size_t updates_rejected = 0;

  /// Adds one quiesced service's counters and checks its identities:
  /// submitted == served + shed + rejected + timed_out, and
  /// updates_submitted == updates_applied + updates_rejected.
  void Add(const itspq::ServiceStats& stats, Outcome* out);

  /// Fills the server.* ledger metrics and update.rejected.
  void Report(std::map<std::string, double>* layers) const;
};

inline double Frac(uint64_t part, uint64_t whole) {
  return static_cast<double>(part) /
         static_cast<double>(std::max<uint64_t>(whole, 1));
}

/// Traffic seed of segment `seg` of a run with seed `seed`.
inline uint64_t SegmentSeed(uint64_t seed, int seg) {
  return seed * 1000 + static_cast<uint64_t>(seg) * 10;
}

/// Pool positions between the first requests of successive segments.
inline constexpr size_t kPoolStride = 509;

/// Latency samples a closed-loop thread reserves per segment: 100k
/// requests per second over a 2.5 s segment without a reallocation,
/// whose copy would otherwise show up in peak_rss_mb.
inline constexpr size_t kSampleReserve = 1 << 18;

// ---------------------------------------------------------- workloads

/// `offsets` (an open-loop schedule) of `pool` requests sent over
/// loopback to a freshly built rpc_interactive stack: the kOk round-trip
/// times and the edge's counters. Answers and ledgers are checked into
/// `out`. Lets a workload without a network edge measure the net layer
/// in its traced run.
struct LoopbackReplay {
  std::vector<double> rtt_us;
  itspq::net::NetServerStats edge;
};
LoopbackReplay ReplayOverLoopback(const std::vector<QueryRequest>& pool,
                                  const std::vector<QueryResult>& expected,
                                  const std::vector<double>& offsets,
                                  Outcome* out);

Outcome RunRpcInteractive(const Options& options);
Outcome RunRpcBatch(const Options& options);
Outcome RunSearchFamilies(const Options& options);
Outcome RunLiveUpdates(const Options& options);
Outcome RunColdFleet(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
