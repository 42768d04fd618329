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

// Cells per grid axis are capped: 4096 x 64 m is 262 km, past any
// indoor venue, and a wider floor (a 1e300 m rectangle, say) must not
// overflow the int cast. Points past the last cell clamp into it, so a
// capped grid is slower, never wrong.
constexpr double kMaxGridCells = 4096;

int GridDim(double extent) {
  return static_cast<int>(
      std::clamp(std::ceil(extent / kLocateCellMetres), 1.0, kMaxGridCells));
}

// Grid coordinate of a point `offset` cells past the origin on an axis
// of `n` cells. Clamps in double first: casting a NaN, an infinity or
// a value past INT_MAX to int is undefined behaviour.
int GridCoord(double offset, int n) {
  if (!(offset > 0)) return 0;  // negative or NaN
  if (offset >= n - 1) return n - 1;
  return static_cast<int>(offset);
}

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
      // Also rejects NaN and infinite extents, which the location grid
      // cannot size.
      if (!(r.width() > 0 && r.height() > 0 && std::isfinite(r.width()) &&
            std::isfinite(r.height()))) {
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
  // Count, prefix-sum, fill: doors are visited in id order, so every
  // list comes out ascending.
  doors_of_offsets.assign(partitions.size() + 1, 0);
  for (const Door& door : doors) {
    for (PartitionId p : door.partitions) {
      ++doors_of_offsets[static_cast<size_t>(p) + 1];
    }
  }
  for (size_t p = 0; p < partitions.size(); ++p) {
    doors_of_offsets[p + 1] += doors_of_offsets[p];
  }
  doors_of_pool.resize(doors_of_offsets.back());
  std::vector<uint32_t> next(doors_of_offsets.begin(),
                             doors_of_offsets.end() - 1);
  for (size_t d = 0; d < doors.size(); ++d) {
    for (PartitionId p : doors[d].partitions) {
      doors_of_pool[next[static_cast<size_t>(p)]++] = static_cast<DoorId>(d);
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

  for (size_t f = 0; f < floor_index.size(); ++f) {
    const int floor = min_floor + static_cast<int>(f);
    // Per-floor bounding box.
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
    index.cols = any ? GridDim(max_x - min_x) : 0;
    index.rows = any ? GridDim(max_y - min_y) : 0;

    // Count, prefix-sum, fill: each partition on the floor lands in
    // every cell its rectangle overlaps; partitions are visited in id
    // order, so every cell comes out ascending.
    auto for_each_cell = [&](const Partition& p, auto&& visit) {
      const int c0 = index.Col(p.rect.min_x);
      const int c1 = index.Col(p.rect.max_x);
      const int r0 = index.Row(p.rect.min_y);
      const int r1 = index.Row(p.rect.max_y);
      for (int r = r0; r <= r1; ++r) {
        for (int c = c0; c <= c1; ++c) {
          visit(static_cast<size_t>(r) * index.cols + c);
        }
      }
    };
    std::vector<uint32_t>& offsets = index.cell_offsets;
    offsets.assign(static_cast<size_t>(index.cols) * index.rows + 1, 0);
    for (const Partition& p : partitions) {
      if (p.floor != floor) continue;
      for_each_cell(p, [&](size_t cell) { ++offsets[cell + 1]; });
    }
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      offsets[i + 1] += offsets[i];
    }
    index.cell_pool.resize(offsets.back());
    std::vector<uint32_t> next(offsets.begin(), offsets.end() - 1);
    for (size_t pid = 0; pid < partitions.size(); ++pid) {
      if (partitions[pid].floor != floor) continue;
      for_each_cell(partitions[pid], [&](size_t cell) {
        index.cell_pool[next[cell]++] = static_cast<PartitionId>(pid);
      });
    }
  }
}

int Venue::FloorIndex::Col(double x) const {
  return GridCoord((x - origin_x) / cell, cols);
}

int Venue::FloorIndex::Row(double y) const {
  return GridCoord((y - origin_y) / cell, rows);
}

std::vector<PartitionId> Venue::LocateAll(const IndoorPoint& point) const {
  std::vector<PartitionId> out;
  const Geometry& g = *geometry_;
  if (point.floor < g.min_floor) return out;
  const auto f = static_cast<size_t>(static_cast<int64_t>(point.floor) -
                                     g.min_floor);
  if (f >= g.floor_index.size()) return out;
  const FloorIndex& index = g.floor_index[f];
  if (index.cols == 0 || index.rows == 0) return out;
  const size_t cell = static_cast<size_t>(index.Row(point.p.y)) * index.cols +
                      index.Col(point.p.x);
  for (uint32_t i = index.cell_offsets[cell]; i < index.cell_offsets[cell + 1];
       ++i) {
    const PartitionId pid = index.cell_pool[i];
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
                 ati_pool_.capacity() * sizeof(TimeInterval) +
                 g.doors_of_offsets.capacity() * sizeof(uint32_t) +
                 g.doors_of_pool.capacity() * sizeof(DoorId) +
                 g.floor_index.capacity() * sizeof(FloorIndex);
  for (const FloorIndex& index : g.floor_index) {
    total += index.cell_offsets.capacity() * sizeof(uint32_t) +
             index.cell_pool.capacity() * sizeof(PartitionId);
  }
  return total;
}

}  // namespace itspq
