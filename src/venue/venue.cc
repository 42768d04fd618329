#include "venue/venue.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace itspq {

namespace {

// Location-grid cell edge in metres. Partitions in the synthetic malls
// are tens to hundreds of metres; 64 m keeps cell lists short without
// bloating small venues.
constexpr double kLocateCellMetres = 64.0;

}  // namespace

void Venue::Builder::DetachGeometry() {
  if (shared_ == nullptr) return;
  partitions_ = shared_->partitions;
  doors_ = shared_->doors;
  shared_.reset();
}

size_t Venue::Builder::NumDoors() const {
  return shared_ != nullptr ? shared_->doors.size() : doors_.size();
}

PartitionId Venue::Builder::AddPartition(const Rect& rect, int floor) {
  DetachGeometry();
  partitions_.push_back(Partition{rect, floor});
  return static_cast<PartitionId>(partitions_.size() - 1);
}

DoorId Venue::Builder::AddDoor(const Point2d& pos, int floor, PartitionId a,
                               PartitionId b) {
  DetachGeometry();
  Door door;
  door.pos = pos;
  door.floor = floor;
  door.partitions = {a, b};
  doors_.push_back(door);
  return static_cast<DoorId>(doors_.size() - 1);
}

Status Venue::Builder::SetDoorAti(DoorId d,
                                  std::vector<TimeInterval> intervals) {
  if (d < 0 || static_cast<size_t>(d) >= NumDoors()) {
    return InvalidArgumentError("SetDoorAti: unknown door " +
                                std::to_string(d));
  }
  // Generators set doors in ascending order, so this is an append.
  const auto it = std::lower_bound(
      ati_edits_.begin(), ati_edits_.end(), d,
      [](const auto& edit, DoorId door) { return edit.first < door; });
  if (it != ati_edits_.end() && it->first == d) {
    it->second = std::move(intervals);
  } else {
    ati_edits_.emplace(it, d, std::move(intervals));
  }
  return Status::Ok();
}

Venue::Builder Venue::Builder::FromVenue(const Venue& venue) {
  Builder builder;
  builder.shared_ = venue.geometry_;
  builder.ati_offsets_ = venue.ati_offsets_;
  builder.ati_pool_ = venue.ati_pool_;
  return builder;
}

StatusOr<Venue> Venue::Builder::Build() && {
  Venue venue;
  if (shared_ != nullptr) {
    // Geometry untouched since FromVenue: it was validated when the
    // source venue was built, and every derived structure is a pure
    // function of it.
    venue.geometry_ = std::move(shared_);
  } else {
    const auto num_partitions = static_cast<PartitionId>(partitions_.size());
    for (size_t i = 0; i < partitions_.size(); ++i) {
      const Rect& r = partitions_[i].rect;
      if (r.width() <= 0 || r.height() <= 0) {
        return InvalidArgumentError("partition " + std::to_string(i) +
                                    " has a degenerate rectangle");
      }
    }
    for (size_t i = 0; i < doors_.size(); ++i) {
      const Door& d = doors_[i];
      for (PartitionId p : d.partitions) {
        if (p < 0 || p >= num_partitions) {
          return InvalidArgumentError("door " + std::to_string(i) +
                                      " references unknown partition " +
                                      std::to_string(p));
        }
      }
      if (d.partitions[0] == d.partitions[1]) {
        return InvalidArgumentError("door " + std::to_string(i) +
                                    " connects a partition to itself");
      }
    }
    auto geometry = std::make_shared<Geometry>();
    geometry->partitions = std::move(partitions_);
    geometry->doors = std::move(doors_);
    geometry->BuildDoorLists();
    geometry->BuildLocationIndex();
    venue.geometry_ = std::move(geometry);
  }

  // One merge pass: each door takes its edited row when SetDoorAti
  // replaced it, else the source row (doors past the source's count
  // start always open). Source rows between two edits move as one
  // block.
  const size_t n = venue.NumDoors();
  if (ati_edits_.empty() && ati_offsets_.size() == n + 1) {
    venue.ati_offsets_ = std::move(ati_offsets_);
    venue.ati_pool_ = std::move(ati_pool_);
    return venue;
  }
  const size_t source_doors =
      ati_offsets_.empty() ? 0 : ati_offsets_.size() - 1;
  std::vector<uint32_t>& offsets = venue.ati_offsets_;
  std::vector<TimeInterval>& pool = venue.ati_pool_;
  size_t total = ati_pool_.size();
  for (const auto& [d, row] : ati_edits_) {
    if (static_cast<size_t>(d) < source_doors) {
      total -= ati_offsets_[static_cast<size_t>(d) + 1] -
               ati_offsets_[static_cast<size_t>(d)];
    }
    total += row.size();
  }
  offsets.resize(n + 1);
  pool.reserve(total);
  size_t next = 0;  // first door whose row is not yet placed
  auto keep_source_rows = [&](size_t end) {
    const size_t last = std::min(end, source_doors);
    if (next < last) {
      const uint32_t from = ati_offsets_[next];
      const auto base = static_cast<uint32_t>(pool.size());
      pool.insert(pool.end(), ati_pool_.begin() + from,
                  ati_pool_.begin() + ati_offsets_[last]);
      for (; next < last; ++next) {
        offsets[next] = ati_offsets_[next] - from + base;
      }
    }
    for (; next < end; ++next) {
      offsets[next] = static_cast<uint32_t>(pool.size());
    }
  };
  for (const auto& [d, row] : ati_edits_) {
    keep_source_rows(static_cast<size_t>(d));
    offsets[next++] = static_cast<uint32_t>(pool.size());
    pool.insert(pool.end(), row.begin(), row.end());
  }
  keep_source_rows(n);
  offsets[n] = static_cast<uint32_t>(pool.size());
  return venue;
}

void Venue::Geometry::BuildDoorLists() {
  doors_of.assign(partitions.size(), {});
  for (size_t d = 0; d < doors.size(); ++d) {
    for (PartitionId p : doors[d].partitions) {
      doors_of[static_cast<size_t>(p)].push_back(static_cast<DoorId>(d));
    }
  }
}

void Venue::Geometry::BuildLocationIndex() {
  if (partitions.empty()) return;
  min_floor = partitions[0].floor;
  int max_floor = partitions[0].floor;
  for (const Partition& p : partitions) {
    min_floor = std::min(min_floor, p.floor);
    max_floor = std::max(max_floor, p.floor);
  }
  floor_index.assign(static_cast<size_t>(max_floor - min_floor) + 1, {});

  // Per-floor bounding box.
  for (size_t f = 0; f < floor_index.size(); ++f) {
    const int floor = min_floor + static_cast<int>(f);
    double min_x = 0, min_y = 0, max_x = 0, max_y = 0;
    bool any = false;
    for (const Partition& p : partitions) {
      if (p.floor != floor) continue;
      if (!any) {
        min_x = p.rect.min_x;
        min_y = p.rect.min_y;
        max_x = p.rect.max_x;
        max_y = p.rect.max_y;
        any = true;
      } else {
        min_x = std::min(min_x, p.rect.min_x);
        min_y = std::min(min_y, p.rect.min_y);
        max_x = std::max(max_x, p.rect.max_x);
        max_y = std::max(max_y, p.rect.max_y);
      }
    }
    FloorIndex& index = floor_index[f];
    index.origin_x = min_x;
    index.origin_y = min_y;
    index.cell = kLocateCellMetres;
    index.cols =
        any ? std::max(1, static_cast<int>(
                              std::ceil((max_x - min_x) / index.cell)))
            : 0;
    index.rows =
        any ? std::max(1, static_cast<int>(
                              std::ceil((max_y - min_y) / index.cell)))
            : 0;
    index.cells.assign(static_cast<size_t>(index.cols) * index.rows, {});
  }

  for (size_t pid = 0; pid < partitions.size(); ++pid) {
    const Partition& p = partitions[pid];
    FloorIndex& index = floor_index[static_cast<size_t>(p.floor - min_floor)];
    const int c0 = std::clamp(
        static_cast<int>((p.rect.min_x - index.origin_x) / index.cell), 0,
        index.cols - 1);
    const int c1 = std::clamp(
        static_cast<int>((p.rect.max_x - index.origin_x) / index.cell), 0,
        index.cols - 1);
    const int r0 = std::clamp(
        static_cast<int>((p.rect.min_y - index.origin_y) / index.cell), 0,
        index.rows - 1);
    const int r1 = std::clamp(
        static_cast<int>((p.rect.max_y - index.origin_y) / index.cell), 0,
        index.rows - 1);
    for (int r = r0; r <= r1; ++r) {
      for (int c = c0; c <= c1; ++c) {
        index.cells[static_cast<size_t>(r) * index.cols + c].push_back(
            static_cast<PartitionId>(pid));
      }
    }
  }
}

std::vector<PartitionId> Venue::LocateAll(const IndoorPoint& point) const {
  std::vector<PartitionId> out;
  const Geometry& g = *geometry_;
  const size_t f = static_cast<size_t>(point.floor - g.min_floor);
  if (point.floor < g.min_floor || f >= g.floor_index.size()) return out;
  const FloorIndex& index = g.floor_index[f];
  if (index.cols == 0 || index.rows == 0) return out;
  const int c = std::clamp(
      static_cast<int>((point.p.x - index.origin_x) / index.cell), 0,
      index.cols - 1);
  const int r = std::clamp(
      static_cast<int>((point.p.y - index.origin_y) / index.cell), 0,
      index.rows - 1);
  for (PartitionId pid :
       index.cells[static_cast<size_t>(r) * index.cols + c]) {
    if (g.partitions[static_cast<size_t>(pid)].rect.Contains(point.p)) {
      out.push_back(pid);
    }
  }
  return out;
}

size_t Venue::MemoryUsage() const {
  const Geometry& g = *geometry_;
  size_t total = g.partitions.capacity() * sizeof(Partition) +
                 g.doors.capacity() * sizeof(Door) +
                 ati_offsets_.capacity() * sizeof(uint32_t) +
                 ati_pool_.capacity() * sizeof(TimeInterval);
  for (const auto& list : g.doors_of) {
    total += list.capacity() * sizeof(DoorId);
  }
  for (const FloorIndex& index : g.floor_index) {
    total += index.cells.capacity() * sizeof(std::vector<PartitionId>);
    for (const auto& cell : index.cells) {
      total += cell.capacity() * sizeof(PartitionId);
    }
  }
  return total;
}

}  // namespace itspq
