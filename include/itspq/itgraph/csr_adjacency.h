#ifndef ITSPQ_ITGRAPH_CSR_ADJACENCY_H_
#define ITSPQ_ITGRAPH_CSR_ADJACENCY_H_

// Flat CSR adjacency over the implicit door graph.
//
// The paper's IT-Graph has doors as vertices and intra-partition
// door-to-door distances as edge weights. Partitions are convex
// rectangles, so such a distance is the straight line between the two
// door positions: the door positions and DoorsOf lists are the only
// source of weights. CsrAdjacency compiles that walk once, at graph
// build (or artifact load) time, into index-aligned contiguous arrays
// so the Dijkstra inner loop streams neighbour ids and weights from
// adjacent cache lines.
//
// Layout: door d owns two segments, 2d and 2d+1, one per entry of
// DoorPartitions(d) in order (a door always records two partitions;
// the segments preserve the exact legacy relaxation order, including
// the duplicate scan when both entries name the same partition and
// partition-visited pruning is off):
//
//   seg_offsets  : 2n+1 offsets into the neighbour pool
//   seg_partition: the partition segment s expands (pruning key)
//   neighbor_ids : the other doors of that partition, ascending
//   neighbor_weights: EuclideanDistance(pos(d), pos(neighbour)),
//                 index-aligned
//
// min/max edge weight ride along for the frontier selection rule: the
// bucket queue (frontier_queue.h) is exact only when every edge weight
// is at least the bucket width, so BucketEligible() demands a strictly
// positive minimum and a bounded max/min ratio (the ring would
// otherwise grow with the ratio).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "venue/geometry.h"

namespace itspq {

class Venue;

struct CsrAdjacency {
  std::vector<uint32_t> seg_offsets;       // size 2 * num_doors + 1
  std::vector<PartitionId> seg_partition;  // size 2 * num_doors
  std::vector<uint32_t> neighbor_ids;
  std::vector<double> neighbor_weights;  // aligned with neighbor_ids

  /// Extremes over every edge weight (duplicates included); min is
  /// +inf and max 0 on an edgeless graph. A zero min (two doors at the
  /// same position) is what disqualifies the bucket queue.
  double min_edge_weight = std::numeric_limits<double>::infinity();
  double max_edge_weight = 0;
  size_t num_doors = 0;

  /// Compiles the venue's implicit adjacency. Geometry-only: ATIs play
  /// no part, which is why one compiled adjacency is shared across all
  /// update-plane epochs of a venue.
  static CsrAdjacency Compile(const Venue& venue);

  /// Max bucket-ring span the frontier selection rule tolerates before
  /// falling back to the 4-ary heap.
  static constexpr double kMaxBucketSpan = 4096.0;

  /// True when Dial's bucket queue with width = min_edge_weight is
  /// exact and affordable for this graph.
  bool BucketEligible() const {
    return min_edge_weight > 0 &&
           min_edge_weight < std::numeric_limits<double>::infinity() &&
           max_edge_weight <= min_edge_weight * kMaxBucketSpan;
  }

  size_t MemoryUsage() const {
    return seg_offsets.capacity() * sizeof(uint32_t) +
           seg_partition.capacity() * sizeof(PartitionId) +
           neighbor_ids.capacity() * sizeof(uint32_t) +
           neighbor_weights.capacity() * sizeof(double);
  }
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_CSR_ADJACENCY_H_
