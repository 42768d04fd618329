#ifndef ITSPQ_ITGRAPH_SNAPSHOT_STORE_H_
#define ITSPQ_ITGRAPH_SNAPSHOT_STORE_H_

// The budgeted, policy-pluggable memoisation layer over Graph_Update.
//
// SnapshotStore replaces the grow-forever SnapshotCache: it owns a byte
// budget and an EvictionPolicy, hands snapshots out as
// shared_ptr<const GraphSnapshot> so concurrent Route() readers keep a
// pinned mask alive across an eviction, and fills misses with the cheap
// delta builder (BuildSnapshotDelta from a resident adjacent interval)
// whenever it can, falling back to the from-G0 Alg. 3 build.
//
//   SnapshotStoreOptions opts;
//   opts.budget_bytes = 64 << 10;   // 0 = unlimited
//   opts.policy = "lru";            // "keep-all" (default) | "lru" | "clock"
//   SnapshotStore store(graph, cps, opts);
//   std::shared_ptr<const GraphSnapshot> snap = store.Get(interval);
//
// All methods are thread-safe. Get() serialises on one mutex; callers
// on the query hot path pin the returned shared_ptr per interval in
// their QueryContext so the lock is taken once per (query, interval),
// not per relaxation.

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "itgraph/checkpoints.h"
#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

/// Which resident interval to evict next. Implementations are NOT
/// thread-safe on their own — SnapshotStore calls them under its mutex.
/// Built-ins: "keep-all" (never evicts — the pre-store behaviour),
/// "lru" (least recently Get), "clock" (second-chance ref bits).
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual const std::string& name() const = 0;

  /// Interval `interval` became resident.
  virtual void OnInsert(size_t interval) = 0;
  /// A Get() hit interval `interval`.
  virtual void OnAccess(size_t interval) = 0;
  /// The store evicted interval `interval`.
  virtual void OnEvict(size_t interval) = 0;

  /// Picks the next victim among resident intervals, skipping
  /// `protect` (the interval the current Get() is about to return).
  /// False when nothing is evictable.
  virtual bool ChooseVictim(size_t protect, size_t* victim) = 0;
};

/// Resolves a policy by name for stores over `num_intervals` intervals.
/// kNotFound on an unknown name.
StatusOr<std::unique_ptr<EvictionPolicy>> MakeEvictionPolicy(
    const std::string& name, size_t num_intervals);

class SnapshotStore;

/// Marks a new interval with no carry source in SnapshotWarmStart's plan.
inline constexpr ptrdiff_t kNoCarrySource = -1;

/// Warm-start state for rebuilding a store (and its router) after an
/// online ATI update — produced by UpdateApplier (update/update_applier.h)
/// from the venue's previous VersionedGraph. checkpoints and flip_index
/// are borrowed for the router's lifetime; carry_from only during
/// construction.
struct SnapshotWarmStart {
  /// The new graph's checkpoint set, derived incrementally by the update
  /// plane. Router borrows it (its owner, the VersionedGraph, outlives
  /// the router) instead of re-deriving FromGraph.
  const CheckpointSet* checkpoints = nullptr;
  /// Flip index of (new graph, checkpoints), patched incrementally. The
  /// store borrows it for its lifetime (its owner, the VersionedGraph,
  /// outlives the router), so no delta build pays the O(intervals x
  /// doors) probe and the index is never copied.
  const BoundaryFlipIndex* flip_index = nullptr;
  /// The previous version's store; resident snapshots carry across.
  const SnapshotStore* carry_from = nullptr;
  /// Per new interval: the old interval covering the identical time
  /// span, or kNoCarrySource when the span itself changed. Size must be
  /// checkpoints->NumIntervals().
  std::vector<ptrdiff_t> carry_plan;
  /// New interval indices whose open-door set changed across the update
  /// (the changed door's applicability differs there). Their carry-plan
  /// entries are not carried; a resident old snapshot counts as
  /// invalidated instead.
  std::vector<size_t> invalidate;
};

/// Construction knobs; the cache config QueryOptions/router construction
/// carry (query/router.h threads these through RouterBuildOptions).
struct SnapshotStoreOptions {
  /// Resident-snapshot byte ceiling; 0 = unlimited. One snapshot always
  /// stays resident even when it alone exceeds the budget (the caller
  /// needs the mask it just asked for). Only binding under an evicting
  /// policy: "keep-all" never evicts, so a budget combined with it is
  /// advisory (Stats() still reports both numbers) — pick "lru" or
  /// "clock" for an enforced ceiling.
  size_t budget_bytes = 0;
  /// EvictionPolicy name: "keep-all" | "lru" | "clock".
  std::string policy = "keep-all";
  /// Fill misses from a resident adjacent interval via the boundary
  /// flip list instead of rebuilding from G0 when possible.
  bool delta_builds = true;
};

/// Point-in-time counters of one store — also the payload of
/// Router::CacheStats(), which is how ShardStats/CatalogStats surface
/// per-shard cache behaviour.
struct CacheStatsSnapshot {
  /// Empty when the router has no snapshot store at all (e.g. "ntv").
  std::string policy;
  size_t budget_bytes = 0;
  size_t resident_snapshots = 0;
  size_t resident_bytes = 0;
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  /// Miss fills, split by builder.
  size_t full_builds = 0;
  size_t delta_builds = 0;
  /// Door bits applied across all delta builds (each delta touches
  /// exactly its boundary's flip-list size).
  size_t delta_door_touches = 0;
  /// Epoch-transition accounting (zero outside the update plane):
  /// resident snapshots whose shared_ptr slot moved verbatim from the
  /// previous version's store, ones re-issued under a shifted interval
  /// index (mask shared logically, never re-derived), and intervals
  /// whose resident snapshot was dropped because its open-door set
  /// changed (ctor warm start or InvalidateIntervals).
  size_t snapshots_carried = 0;
  size_t snapshots_rebased = 0;
  size_t intervals_invalidated = 0;

  size_t builds() const { return full_builds + delta_builds; }

  /// Shard/catalog aggregation (policy strings keep the first non-empty
  /// value, or "mixed" when shards disagree).
  void Accumulate(const CacheStatsSnapshot& other);
};

class SnapshotStore {
 public:
  /// Resolves `options.policy` by name; an unknown name falls back to
  /// "keep-all" (Construct via MakeEvictionPolicy + the policy overload
  /// to surface the error instead). `graph` and `cps` must outlive the
  /// store. A non-null `warm` seeds the store from a previous version:
  /// the flip index is adopted and resident snapshots are carried per
  /// warm->carry_plan (skipping warm->invalidate) — see SnapshotWarmStart.
  SnapshotStore(const ItGraph& graph, const CheckpointSet& cps,
                SnapshotStoreOptions options = SnapshotStoreOptions(),
                const SnapshotWarmStart* warm = nullptr);

  /// Full control: non-null `policy` built for cps.NumIntervals().
  SnapshotStore(const ItGraph& graph, const CheckpointSet& cps,
                SnapshotStoreOptions options,
                std::unique_ptr<EvictionPolicy> policy,
                const SnapshotWarmStart* warm = nullptr);

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The snapshot for `interval_index`, built on miss (delta from a
  /// resident neighbour when allowed, else from G0). The returned
  /// shared_ptr pins the snapshot: it stays valid after the store
  /// evicts that interval. When `built_now` is non-null it is set to
  /// whether this call performed a Graph_Update derivation.
  std::shared_ptr<const GraphSnapshot> Get(size_t interval_index,
                                           bool* built_now = nullptr) const;

  /// Re-targets the byte budget (0 = unlimited), evicting immediately
  /// if the resident set now overflows. Thread-safe — this is how
  /// VenueCatalog apportions a catalog-wide budget across shards after
  /// the shard routers exist.
  void SetBudget(size_t budget_bytes) const;

  CacheStatsSnapshot Stats() const;

  /// Drops the resident snapshots of exactly `intervals` (indices out of
  /// range or already non-resident are ignored) and returns how many
  /// were actually dropped. Pinned shared_ptrs held by in-flight queries
  /// stay valid — only the store's slots are released. Thread-safe; the
  /// update plane calls this when an ATI change flips a door inside an
  /// interval whose span survived the checkpoint re-derivation.
  size_t InvalidateIntervals(const std::vector<size_t>& intervals) const;

  size_t NumIntervals() const { return slots_.size(); }

  /// Process-unique store identity. Query contexts that retain pins
  /// across a batch record this id so pins are reused only against the
  /// store that issued them — a recycled heap address (epoch swap,
  /// another shard's router) can never alias a previous store.
  uint64_t id() const { return id_; }

  /// Store overhead + resident snapshots + a flip index the store built
  /// itself (a borrowed one is its owner's to count).
  size_t MemoryUsage() const;

  /// The per-boundary flip lists delta builds apply. Built at most
  /// once, on the first delta-enabled Get (or this call), so stores
  /// that are never read pay nothing.
  const BoundaryFlipIndex& flip_index() const { return EnsureFlips(); }

 private:
  /// Evicts under `mu_` until the resident set fits `budget`, never
  /// evicting `protect`.
  void EvictToFitLocked(size_t budget, size_t protect) const;

  /// The borrowed warm-start index, else own_flips_, built at most
  /// once OUTSIDE mu_ — the O(intervals x doors) build must never stall
  /// concurrent readers of resident snapshots.
  const BoundaryFlipIndex& EnsureFlips() const;

  const ItGraph* graph_;
  const CheckpointSet* cps_;
  const uint64_t id_;
  /// mutable: SetBudget is const (stores live behind const routers once
  /// published) and re-targets budget_bytes under mu_.
  mutable SnapshotStoreOptions options_;
  /// The warm start's flip index; null when the store builds its own.
  const BoundaryFlipIndex* borrowed_flips_ = nullptr;
  mutable std::once_flag flips_once_;
  /// Set (release) after own_flips_ is built; lets MemoryUsage read the
  /// index size without forcing a build.
  mutable std::atomic<bool> flips_built_{false};
  mutable BoundaryFlipIndex own_flips_;

  mutable std::mutex mu_;
  /// One slot per interval; null when not resident. Guarded by mu_.
  mutable std::vector<std::shared_ptr<const GraphSnapshot>> slots_;
  mutable std::unique_ptr<EvictionPolicy> policy_;
  mutable size_t resident_bytes_ = 0;
  mutable size_t resident_count_ = 0;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
  mutable size_t evictions_ = 0;
  mutable size_t full_builds_ = 0;
  mutable size_t delta_builds_ = 0;
  mutable size_t delta_door_touches_ = 0;
  mutable size_t carried_ = 0;
  mutable size_t rebased_ = 0;
  mutable size_t invalidated_ = 0;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_SNAPSHOT_STORE_H_
