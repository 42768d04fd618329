#ifndef ITSPQ_QUERY_ROUTER_H_
#define ITSPQ_QUERY_ROUTER_H_

// The unified, concurrency-ready query API.
//
// A Router is the immutable, shareable side of a query strategy: the
// IT-Graph, its derived CheckpointSet, and (for strategies that need
// one) a thread-safe SnapshotStore, all constructed once. Everything
// mutable during a search — distance/parent/visited arrays, the
// priority queue, per-query snapshot scratch — lives in a QueryContext
// owned by the caller. Route() is const and safe to call concurrently
// from any number of threads, each with its own context:
//
//   auto router = MakeRouter("itg-s", graph);      // or RouterRegistry
//   QueryContext ctx;                               // one per thread
//   StatusOr<QueryResult> r =
//       (*router)->Route({ps, pt, Instant::FromHMS(12)}, &ctx);
//
// RouteBatch answers many requests in one call, sequentially on the
// calling thread; parallelism comes from callers running one context
// per thread (QueryService owns a worker pool for exactly this).
//
// Strategies are resolved by name through RouterRegistry (registry.h):
// "itg-s", "itg-a", "itg-a+", "snap", "ntv".

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "itgraph/snapshot_store.h"
#include "query/path.h"
#include "venue/geometry.h"

namespace itspq {

namespace internal {
struct SearchScratch;
}  // namespace internal

/// Which question a QueryRequest asks. Every concrete strategy answers
/// all four, so the families inherit sharding, batching, snapshot
/// budgets, QoS admission, and the wire protocol from the point-to-point
/// machinery for free. The numeric values double as the network edge's
/// wire encoding (net/wire.h) — frozen, append only.
enum class QueryKind : uint8_t {
  /// Shortest temporally valid path source -> target (the paper's
  /// δs2t query). The default; family fields below are ignored.
  kPointToPoint = 0,
  /// Every door reachable from `source` within `budget_seconds` of
  /// walking, each temporally valid at its projected arrival.
  kReachability = 1,
  /// The `k` nearest of the `facilities` doors by temporal walking
  /// distance from `source`, each open at its projected arrival.
  kNearestFacility = 2,
  /// An ordered itinerary source -> waypoints... -> target, each leg
  /// departing at the previous leg's arrival, rule-1 valid end to end.
  kMultiStop = 3,
};

/// One past the last valid wire value; bytes at or above it fail the
/// temporal-frame decode.
inline constexpr uint8_t kNumQueryKinds = 4;

const char* QueryKindName(QueryKind kind);

/// Per-request knobs. Strategies ignore options that don't apply to
/// them (SNAP/NTV have no pruning or snapshot-cache choice).
struct QueryOptions {
  /// Alg. 1 lines 18-19: expand each partition through exactly one
  /// entry door. Off = conventional door-graph Dijkstra.
  bool partition_visited_pruning = true;
  /// ITG/A, ITG/A+: read reduced graphs from the router's shared
  /// per-interval SnapshotStore instead of rebuilding from G0 per
  /// query (extension measured in ablation_snapshot_cache). The
  /// store's budget/policy are construction-time config
  /// (RouterBuildOptions below).
  bool use_snapshot_cache = false;
};

/// Construction-time config for a query strategy — how the shared
/// snapshot cache behaves (byte budget, eviction policy name, delta
/// builds). Threaded through RouterRegistry::Create / MakeRouter and
/// the concrete strategy constructors; strategies without a snapshot
/// store ("ntv") ignore it.
struct RouterBuildOptions {
  SnapshotStoreOptions snapshot_cache;
  /// Non-null only on the update plane's epoch-transition path
  /// (update/update_applier.h): the router adopts the precomputed
  /// checkpoint set and flip index instead of re-deriving them from the
  /// graph, and its snapshot store carries resident snapshots from the
  /// previous version. The struct itself is read during construction
  /// only; the router keeps pointing at its checkpoint set and the store
  /// at its flip index (see SnapshotWarmStart).
  const SnapshotWarmStart* warm_start = nullptr;
  /// The VenueId this router answers for. Route() accepts requests
  /// whose venue_id is 0 (unaddressed) or equals the bound id, and
  /// rejects every other id with kInvalidArgument — before this check
  /// a mismatched id was silently answered by the wrong venue whenever
  /// callers bypassed ShardedRouter. VenueCatalog stamps each shard's
  /// id here at AddVenue / AddArtifactShard, so epoch rebuilds and
  /// lazy artifact loads inherit the binding.
  VenueId bound_venue_id = 0;
};

/// One temporal query: where from, where to, departing when, and which
/// question (`kind`) to answer. `departure` must be finite — NaN/±inf
/// is rejected with kInvalidArgument by every strategy (and at the wire
/// decode) instead of silently surfacing as found == false.
struct QueryRequest {
  IndoorPoint source;
  /// kPointToPoint / kMultiStop: the (final) destination. Ignored by
  /// kReachability and kNearestFacility.
  IndoorPoint target;
  Instant departure;
  QueryOptions options;
  /// Which venue shard answers this request. The composite
  /// ShardedRouter (sharded_router.h) dispatches on it; single-venue
  /// routers accept 0 or their bound id and reject the rest
  /// (RouterBuildOptions::bound_venue_id).
  VenueId venue_id = 0;
  /// The query family; family fields below apply per the kind's doc.
  QueryKind kind = QueryKind::kPointToPoint;
  /// kReachability: walking-time budget from departure, seconds.
  /// Must be finite and >= 0.
  double budget_seconds = 0;
  /// kNearestFacility: how many facilities to return. Must be >= 1.
  uint32_t k = 0;
  /// kNearestFacility: candidate facility doors (e.g. every café door
  /// in the venue). Ids must be in range; duplicates collapse.
  std::vector<DoorId> facilities = {};
  /// kMultiStop: ordered intermediate stops between source and target.
  /// Must be non-empty (otherwise ask kPointToPoint).
  std::vector<IndoorPoint> waypoints = {};
};

/// Caller-owned mutable scratch for Route(). Reusing one context across
/// sequential queries amortises allocations; concurrent callers must
/// use one context per thread. Contents are implementation scratch —
/// opaque to API consumers.
class QueryContext {
 public:
  QueryContext();
  ~QueryContext();

  QueryContext(QueryContext&&) noexcept;
  QueryContext& operator=(QueryContext&&) noexcept;
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Strategy-internal accessor (complete type in src/query/scratch.h).
  internal::SearchScratch& scratch() { return *scratch_; }

 private:
  std::unique_ptr<internal::SearchScratch> scratch_;
};

/// Options for Router::RouteBatch.
struct BatchOptions {
  /// Scratch reuse: when non-null, the batch routes with the caller's
  /// context instead of a per-call throwaway — this is how
  /// QueryService's workers amortise allocations across coalesced
  /// batches. An empty batch returns immediately and touches no
  /// context at all.
  QueryContext* context = nullptr;
};

/// A query strategy bound to one IT-Graph. Immutable after
/// construction; see the file comment for the concurrency contract.
/// The graph must outlive the router.
class Router {
 public:
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Shortest temporally-valid path for `request`. Errors when either
  /// endpoint lies outside the venue; an unreachable target yields
  /// ok() with `found == false`. `context` may be null for one-off
  /// calls (a throwaway context is created); pass one per thread to
  /// reuse scratch.
  virtual StatusOr<QueryResult> Route(const QueryRequest& request,
                                      QueryContext* context) const = 0;

  /// Answers every request, in order, on the calling thread.
  /// Per-request failures (e.g. an endpoint outside the venue) land in
  /// that slot's Status without affecting the rest of the batch.
  std::vector<StatusOr<QueryResult>> RouteBatch(
      const std::vector<QueryRequest>& requests,
      const BatchOptions& options = BatchOptions()) const;

  /// Registry name of the strategy ("itg-s", "snap", ...).
  const std::string& name() const { return name_; }

  /// The venue id this router answers for
  /// (RouterBuildOptions::bound_venue_id); requests carrying any other
  /// non-zero venue_id are rejected with kInvalidArgument. Always 0 for
  /// composites (ShardedRouter dispatches instead of validating).
  VenueId bound_venue_id() const { return bound_venue_id_; }

  /// False only for composite routers (ShardedRouter) that span several
  /// graphs; graph() and checkpoints() require has_graph().
  bool has_graph() const { return graph_ != nullptr; }
  const ItGraph& graph() const { return *graph_; }
  /// Checkpoints derived from the graph's ATI boundaries at
  /// construction, or the warm start's set.
  const CheckpointSet& checkpoints() const { return *checkpoints_; }

  /// Point-in-time counters of the router's shared snapshot store —
  /// hits, misses, evictions, full-vs-delta builds, resident bytes.
  /// Default-constructed (empty policy name) for strategies without a
  /// store; composite routers aggregate over their shards. Thread-safe.
  virtual CacheStatsSnapshot CacheStats() const {
    return CacheStatsSnapshot();
  }

  /// Cumulative Graph_Update derivations (full + delta) performed by
  /// this router's shared snapshot store; 0 without one. Thread-safe.
  size_t SnapshotBuildCount() const { return CacheStats().builds(); }

  /// Re-targets the snapshot store's byte budget (0 = unlimited),
  /// evicting immediately when over — under an evicting policy; the
  /// default "keep-all" records the budget but never evicts. No-op for
  /// strategies without a store. This is the hook VenueCatalog uses to
  /// apportion a catalog-wide budget across shards. Thread-safe (const:
  /// the store synchronises internally, and the update plane publishes
  /// routers behind shared_ptr<const VersionedGraph>).
  virtual void SetSnapshotBudget(size_t budget_bytes) const {
    (void)budget_bytes;
  }

  /// Bytes of shared cross-query state owned by the router itself
  /// (checkpoints unless borrowed, snapshot store). The graph and venue
  /// are accounted separately by whoever owns them.
  virtual size_t MemoryUsage() const;

  /// The router's shared snapshot store, or null for strategies without
  /// one ("ntv") and composites. The update plane reads it to carry
  /// resident snapshots (and the live budget) into the next epoch.
  virtual const SnapshotStore* snapshot_store() const { return nullptr; }

 protected:
  /// A non-null `precomputed` checkpoint set is borrowed (it must
  /// outlive the router) instead of derived via CheckpointSet::FromGraph
  /// — the update plane passes the set its VersionedGraph owns through
  /// RouterBuildOptions::warm_start.
  Router(std::string name, const ItGraph& graph,
         const CheckpointSet* precomputed = nullptr);
  /// Composite routers: no single backing graph, empty checkpoints.
  explicit Router(std::string name);

  /// Concrete strategies call this from their constructor with
  /// RouterBuildOptions::bound_venue_id.
  void BindVenueId(VenueId id) { bound_venue_id_ = id; }

 private:
  std::string name_;
  const ItGraph* graph_;
  /// Derived at construction unless a precomputed set was borrowed;
  /// checkpoints_ points at one or the other.
  CheckpointSet own_checkpoints_;
  const CheckpointSet* checkpoints_;
  VenueId bound_venue_id_ = 0;
};

}  // namespace itspq

#endif  // ITSPQ_QUERY_ROUTER_H_
