#ifndef ITSPQ_UPDATE_ATI_UPDATE_H_
#define ITSPQ_UPDATE_ATI_UPDATE_H_

// The wire format of the live-world write path: one ATI mutation.
//
// An AtiUpdate replaces one door's applicable time intervals wholesale
// (shops opening late, incident closures, seasonal hours). Replacement
// rather than patching keeps the operation idempotent and the
// normalisation story identical to construction: the intervals pass
// through AtiSet::Create exactly as a venue generator's would, so
// midnight wraps, overlaps, and full-day covers are legal inputs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "venue/geometry.h"

namespace itspq {

/// One online ATI mutation: replace `door_id`'s applicable time
/// intervals in venue `venue_id`. An empty `intervals` means the door
/// is always open (the AtiSet convention).
struct AtiUpdate {
  VenueId venue_id = 0;
  DoorId door_id = kInvalidDoor;
  std::vector<TimeInterval> intervals;
};

/// What one successful ApplyAtiUpdate did — the receipt surfaced
/// through VenueCatalog::ApplyAtiUpdate and folded into ShardStats.
struct UpdateOutcome {
  /// The epoch the shard now serves (previous epoch + 1).
  uint64_t epoch = 0;
  /// Constant-graph interval counts before and after.
  size_t intervals_before = 0;
  size_t intervals_after = 0;
  /// Snapshot economics of the epoch transition: resident snapshots
  /// whose shared_ptr slots moved verbatim, ones re-issued under a
  /// shifted interval index, and spans whose resident snapshot was
  /// dropped because the door's applicability there changed.
  size_t snapshots_carried = 0;
  size_t snapshots_rebased = 0;
  size_t intervals_invalidated = 0;
};

}  // namespace itspq

#endif  // ITSPQ_UPDATE_ATI_UPDATE_H_
