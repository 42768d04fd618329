#include "itgraph/csr_adjacency.h"

#include "venue/venue.h"

namespace itspq {

CsrAdjacency CsrAdjacency::Compile(const Venue& venue) {
  CsrAdjacency adj;
  const size_t n = venue.NumDoors();
  adj.num_doors = n;
  adj.seg_offsets.reserve(2 * n + 1);
  adj.seg_partition.reserve(2 * n);

  size_t total = 0;
  for (size_t d = 0; d < n; ++d) {
    for (PartitionId p : venue.door(static_cast<DoorId>(d)).partitions) {
      total += venue.DoorsOf(p).size() - 1;  // every partition door but d
    }
  }
  adj.neighbor_ids.reserve(total);
  adj.neighbor_weights.reserve(total);

  adj.seg_offsets.push_back(0);
  for (size_t d = 0; d < n; ++d) {
    const DoorId door = static_cast<DoorId>(d);
    const Point2d& from = venue.door(door).pos;
    for (PartitionId p : venue.door(door).partitions) {
      for (DoorId v : venue.DoorsOf(p)) {
        if (v == door) continue;
        const double w = EuclideanDistance(from, venue.door(v).pos);
        adj.neighbor_ids.push_back(static_cast<uint32_t>(v));
        adj.neighbor_weights.push_back(w);
        if (w < adj.min_edge_weight) adj.min_edge_weight = w;
        if (w > adj.max_edge_weight) adj.max_edge_weight = w;
      }
      adj.seg_partition.push_back(p);
      adj.seg_offsets.push_back(
          static_cast<uint32_t>(adj.neighbor_ids.size()));
    }
  }
  return adj;
}

}  // namespace itspq
