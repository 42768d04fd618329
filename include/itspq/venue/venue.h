#ifndef ITSPQ_VENUE_VENUE_H_
#define ITSPQ_VENUE_VENUE_H_

// The indoor space model (paper §II): a multi-floor set of partitions
// (axis-aligned rooms/corridors) connected by doors. Each door lies on
// the boundary of exactly two partitions; vertical doors (staircases)
// connect partitions on adjacent floors. Temporal variation is attached
// per door as a set of applicable time intervals (empty = always open);
// the IT-Graph layer normalises those into its flat ATI rows.
//
// A venue is two parts. Its geometry (partitions, doors, door lists,
// point-location grid) sits behind one shared_ptr<const>, because no
// ATI edit can change it: copying a Venue, or re-deriving one through
// Builder::FromVenue + SetDoorAti, shares the geometry and copies only
// the flat per-door ATI table (row offsets + one interval pool).
//
// Venues are immutable once built. Construct through Venue::Builder:
//
//   Venue::Builder b;
//   PartitionId room = b.AddPartition({0, 0, 10, 10}, /*floor=*/0);
//   PartitionId hall = b.AddPartition({0, 10, 10, 20}, 0);
//   b.AddDoor({5, 10}, 0, room, hall);
//   StatusOr<Venue> venue = std::move(b).Build();

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/time.h"
#include "venue/geometry.h"

namespace itspq {

struct Partition {
  Rect rect;
  int floor = 0;
};

struct Door {
  Point2d pos;
  /// Floor the door is drawn on. A vertical (staircase) door connecting
  /// floors f and f+1 records the lower floor.
  int floor = 0;
  /// The two partitions the door connects.
  std::array<PartitionId, 2> partitions = {kInvalidPartition,
                                           kInvalidPartition};
};

class Venue {
 private:
  struct Geometry;

 public:
  class Builder;

  Venue(Venue&&) = default;
  Venue& operator=(Venue&&) = default;
  Venue(const Venue&) = default;
  Venue& operator=(const Venue&) = default;

  size_t NumPartitions() const { return geometry_->partitions.size(); }
  size_t NumDoors() const { return geometry_->doors.size(); }

  const Partition& partition(PartitionId p) const {
    return geometry_->partitions[static_cast<size_t>(p)];
  }
  const Door& door(DoorId d) const {
    return geometry_->doors[static_cast<size_t>(d)];
  }

  /// Doors on the boundary of partition `p`.
  const std::vector<DoorId>& DoorsOf(PartitionId p) const {
    return geometry_->doors_of[static_cast<size_t>(p)];
  }

  /// Door `d`'s applicable time intervals as given to the builder (not
  /// normalised); empty means always open.
  Span<TimeInterval> DoorAti(DoorId d) const {
    const uint32_t begin = ati_offsets_[static_cast<size_t>(d)];
    const uint32_t end = ati_offsets_[static_cast<size_t>(d) + 1];
    return Span<TimeInterval>(ati_pool_.data() + begin, end - begin);
  }

  /// All partitions containing `point` (several when the point lies on a
  /// shared boundary; empty when it is outside every partition).
  std::vector<PartitionId> LocateAll(const IndoorPoint& point) const;

  /// The shared geometry block. Venues derived through FromVenue +
  /// SetDoorAti alias their source's, which tests assert by pointer.
  const std::shared_ptr<const Geometry>& geometry_handle() const {
    return geometry_;
  }

  /// Geometry (counted in full, though it may be shared) + ATI table.
  size_t MemoryUsage() const;

 private:
  friend class Builder;
  /// The artifact serializer (artifact/artifact.h) reads and re-adopts
  /// the private representation verbatim, skipping geometry recompute.
  friend class ArtifactCodec;
  Venue() = default;

  // Uniform per-floor grid accelerating LocateAll.
  struct FloorIndex {
    double origin_x = 0, origin_y = 0;
    double cell = 1;
    int cols = 0, rows = 0;
    std::vector<std::vector<PartitionId>> cells;
  };

  // Everything an ATI edit cannot change. Door lists and the grid are
  // pure functions of partitions + doors.
  struct Geometry {
    std::vector<Partition> partitions;
    std::vector<Door> doors;
    std::vector<std::vector<DoorId>> doors_of;
    int min_floor = 0;
    std::vector<FloorIndex> floor_index;  // indexed by floor - min_floor

    void BuildDoorLists();
    void BuildLocationIndex();
  };

  std::shared_ptr<const Geometry> geometry_;
  // Door d's source intervals are ati_pool_[ati_offsets_[d],
  // ati_offsets_[d + 1]).
  std::vector<uint32_t> ati_offsets_;  // NumDoors() + 1
  std::vector<TimeInterval> ati_pool_;
};

/// Accumulates partitions and doors, then validates and freezes them
/// into a Venue (computing door lists and the point-location index).
class Venue::Builder {
 public:
  PartitionId AddPartition(const Rect& rect, int floor);

  /// Adds a door at `pos` on `floor` connecting partitions `a` and `b`.
  /// For a vertical door, `floor` is the lower of the two floors.
  DoorId AddDoor(const Point2d& pos, int floor, PartitionId a, PartitionId b);

  /// Replaces door `d`'s applicable time intervals (doors start always
  /// open). Venues are immutable once built — ATIs can only be set
  /// here, so an ItGraph can never silently desynchronise from its
  /// venue. Errors on an unknown door.
  Status SetDoorAti(DoorId d, std::vector<TimeInterval> intervals);

  /// Seeds the builder with an existing venue's geometry and ATIs — how
  /// the temporal-variation generator and the update plane re-derive a
  /// varied venue from a frozen one. As long as no partition or door is
  /// added afterwards, Build() shares the source's geometry block (ATI
  /// edits via SetDoorAti don't change geometry) and only assembles a
  /// new flat ATI table.
  static Builder FromVenue(const Venue& venue);

  /// Validates the accumulated venue. Errors: a door referencing an
  /// unknown partition or connecting a partition to itself, or a
  /// degenerate partition rectangle.
  StatusOr<Venue> Build() &&;

 private:
  /// Copies the shared source geometry into partitions_/doors_ before
  /// the first AddPartition/AddDoor; Build() then recomputes it.
  void DetachGeometry();
  size_t NumDoors() const;

  /// FromVenue's geometry while no partition or door has been added.
  std::shared_ptr<const Geometry> shared_;
  std::vector<Partition> partitions_;
  std::vector<Door> doors_;
  /// FromVenue's ATI table (empty for a fresh builder: doors start
  /// always open) plus the rows SetDoorAti replaced, sorted by door.
  /// Build() merges them in one pass.
  std::vector<uint32_t> ati_offsets_;
  std::vector<TimeInterval> ati_pool_;
  std::vector<std::pair<DoorId, std::vector<TimeInterval>>> ati_edits_;
};

}  // namespace itspq

#endif  // ITSPQ_VENUE_VENUE_H_
