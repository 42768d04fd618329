#ifndef ITSPQ_UPDATE_UPDATE_APPLIER_H_
#define ITSPQ_UPDATE_UPDATE_APPLIER_H_

// The incremental epoch transition (the tentpole of the update plane).
//
// Given a shard's current VersionedGraph and one AtiUpdate,
// UpdateApplier::Apply derives the NEXT version without rebuilding the
// world from scratch:
//
//   venue        — Venue::Builder::FromVenue + SetDoorAti: the
//                  geometry block (partitions, doors, door lists,
//                  point-location grid) is shared by pointer; only the
//                  flat ATI table (offsets + interval pool) is copied,
//                  with the door's row replaced.
//   graph        — ItGraph::BuildFrom: the adjacency is shared; the
//                  flat ATI rows are copied with the door's row spliced.
//   ledger       — one merge pass over the checkpoint times and the CSR
//                  flip index moves the door's entries from its old
//                  boundaries to its new ones (dropping times no other
//                  door contributes); no (interval x door) re-probe.
//   snapshots    — a carry plan (one forward walk over both checkpoint
//                  lists) maps each new interval to the old interval
//                  spanning the identical time range; resident
//                  snapshots carry their shared_ptr slots across unless
//                  the changed door's applicability differs there
//                  (SnapshotStore warm start / InvalidateIntervals).
//
// Apply never touches `current` beyond const reads of its store (one
// mutex hold to lift resident slots): published versions are immutable.
// It allocates O(|T|) blocks, none per door or partition; the only
// door-count term is copying a handful of flat arrays (memcpy-speed),
// so the paper's Graph_Update economics extend to writes.

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "itgraph/ati.h"
#include "update/ati_update.h"
#include "update/versioned_graph.h"

namespace itspq {

/// The snapshot carry plan (SnapshotWarmStart::carry_plan, and the
/// carried intervals to `invalidate`) for one door's ATI changing from
/// `old_door_ati` to `new_door_ati`, moving the sorted checkpoint times
/// from `old_times` to `new_times`. O(|T|).
std::vector<ptrdiff_t> PlanSnapshotCarry(const std::vector<double>& old_times,
                                         const std::vector<double>& new_times,
                                         AtiView old_door_ati,
                                         AtiView new_door_ati,
                                         std::vector<size_t>* invalidate);

class UpdateApplier {
 public:
  /// Derives the next version of `current` under `update`. Errors:
  ///   kNotFound          — update.door_id is not a door of the venue.
  ///   kInvalidArgument   — the replacement intervals fail AtiSet
  ///                        normalisation (e.g. zero-length interval).
  /// On error `current` is untouched and nothing is published. On
  /// success the returned version has epoch() == current.epoch() + 1
  /// and `outcome` (when non-null) holds the transition receipt.
  static StatusOr<std::shared_ptr<const VersionedGraph>> Apply(
      const VersionedGraph& current, const AtiUpdate& update,
      UpdateOutcome* outcome = nullptr);
};

}  // namespace itspq

#endif  // ITSPQ_UPDATE_UPDATE_APPLIER_H_
