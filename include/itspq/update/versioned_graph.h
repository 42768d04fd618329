#ifndef ITSPQ_UPDATE_VERSIONED_GRAPH_H_
#define ITSPQ_UPDATE_VERSIONED_GRAPH_H_

// One immutable epoch of a venue's serving state.
//
// A VersionedGraph bundles everything a shard needs to answer queries —
// the venue, its compiled ItGraph, the checkpoint set, the per-boundary
// flip index, and the strategy Router (whose SnapshotStore memoises
// reduced graphs) — under a single epoch number. It is immutable after
// Build: the update plane (update_applier.h) never mutates a published
// version, it derives the NEXT version incrementally and VenueCatalog
// swaps the shard's shared_ptr<const VersionedGraph> RCU-style. Readers
// that pinned the old epoch finish on it bit-identically; the old
// version is destroyed when the last pin drops.
//
// Internally the checkpoint structure is kept as a "boundary ledger":
// per checkpoint time, the sorted list of doors contributing that time
// as an interior ATI boundary. For normalised ATIs every interior
// boundary is a genuine applicability flip, so the ledger IS the flip
// index: the CheckpointSet holds the times and the CSR
// BoundaryFlipIndex the door lists, with no second copy. A single-door
// update patches that door's entries in one merge pass over the CSR
// instead of re-probing every (interval, door) pair.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "itgraph/checkpoints.h"
#include "itgraph/itgraph.h"
#include "query/registry.h"
#include "query/router.h"
#include "venue/venue.h"

namespace itspq {

class UpdateApplier;

class VersionedGraph {
 public:
  /// Builds epoch 0 for `venue` under `strategy` (resolved through
  /// `registry`, the global one when null). The ledger and flip index
  /// are derived from the compiled graph; the router adopts them via a
  /// warm start so nothing is computed twice. `options.warm_start` is
  /// ignored (the version builds its own).
  static StatusOr<std::shared_ptr<const VersionedGraph>> Build(
      Venue venue, const std::string& strategy,
      const RouterBuildOptions& options = RouterBuildOptions(),
      const RouterRegistry* registry = nullptr);

  VersionedGraph(const VersionedGraph&) = delete;
  VersionedGraph& operator=(const VersionedGraph&) = delete;

  uint64_t epoch() const { return epoch_; }
  const std::string& strategy() const { return strategy_; }
  const Venue& venue() const { return *venue_; }
  const ItGraph& graph() const { return *graph_; }
  const Router& router() const { return *router_; }
  const CheckpointSet& checkpoints() const { return checkpoints_; }
  const BoundaryFlipIndex& flip_index() const { return flips_; }

  /// Venue + graph + router shared state + flip index, bytes.
  size_t MemoryUsage() const;

 private:
  friend class UpdateApplier;
  /// The artifact loader (artifact/artifact.h) assembles epoch 0 from a
  /// decoded file: it adopts the ledger directly and calls FinishBuild,
  /// skipping the ATI normalisation Build() performs.
  friend class ArtifactCodec;

  VersionedGraph() = default;

  /// Builds router_ over graph_ with a warm start from the ledger
  /// (checkpoints_ + flips_), which every construction path fills
  /// first: Build derives it, the update path patches the previous
  /// version's, the artifact loader adopts the file's.
  Status FinishBuild(const SnapshotStore* carry_from,
                     std::vector<ptrdiff_t> carry_plan,
                     std::vector<size_t> invalidate);

  uint64_t epoch_ = 0;
  std::string strategy_;
  /// Router construction config, retained so the next epoch rebuilds
  /// under the same policy/budget (the applier refreshes budget_bytes
  /// from the live store first). warm_start is always null here.
  RouterBuildOptions options_;
  const RouterRegistry* registry_ = nullptr;

  // Destruction order (reverse of declaration) matters: graph_ points
  // into venue_, router_ into graph_ and checkpoints.
  std::unique_ptr<Venue> venue_;
  std::unique_ptr<ItGraph> graph_;
  /// The boundary ledger: checkpoint time i is contributed by exactly
  /// the (ascending) doors flips_ lists for boundary i.
  CheckpointSet checkpoints_;
  BoundaryFlipIndex flips_;
  std::unique_ptr<Router> router_;
};

}  // namespace itspq

#endif  // ITSPQ_UPDATE_VERSIONED_GRAPH_H_
