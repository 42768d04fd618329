#include "itgraph/checkpoints.h"

#include <algorithm>
#include <string>
#include <utility>

#include "itgraph/graph_update.h"
#include "itgraph/itgraph.h"

namespace itspq {

StatusOr<CheckpointSet> CheckpointSet::FromTimes(std::vector<double> times) {
  for (double t : times) {
    if (t <= 0 || t >= kSecondsPerDay) {
      return InvalidArgumentError("checkpoint outside (0, 86400): " +
                                  std::to_string(t));
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  CheckpointSet set;
  set.times_ = std::move(times);
  return set;
}

CheckpointSet CheckpointSet::FromGraph(const ItGraph& graph) {
  std::vector<double> times;
  const size_t n = graph.NumDoors();
  for (size_t d = 0; d < n; ++d) {
    const std::vector<double> boundaries =
        graph.Ati(static_cast<DoorId>(d)).InteriorBoundaries();
    times.insert(times.end(), boundaries.begin(), boundaries.end());
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  CheckpointSet set;
  set.times_ = std::move(times);
  return set;
}

BoundaryFlipIndex BoundaryFlipIndex::Build(const ItGraph& graph,
                                           const CheckpointSet& cps) {
  BoundaryFlipIndex index;
  const size_t boundaries = cps.NumCheckpoints();
  index.offsets_.assign(boundaries + 1, 0);

  // One from-G0 mask per interval — a single ATI probe per (door,
  // interval) — then each boundary's flip list is the XOR diff of its
  // two masks, emitted in ascending door order. Paid once per router
  // instead of per query.
  GraphSnapshot prev = BuildSnapshot(graph, cps, 0);
  for (size_t b = 0; b < boundaries; ++b) {
    GraphSnapshot next = BuildSnapshot(graph, cps, b + 1);
    prev.open.ForEachDifference(
        next.open, [&index](DoorId door) { index.doors_.push_back(door); });
    index.offsets_[b + 1] = index.doors_.size();
    prev = std::move(next);
  }
  return index;
}

BoundaryFlipIndex BoundaryFlipIndex::FromAtiBoundaries(
    const ItGraph& graph, std::vector<double>* times) {
  // Collect (time, door) contributions, then group by time. Sorting on
  // the pair key leaves each per-boundary door list ascending —
  // matching Build()'s ascending-door emission order.
  std::vector<std::pair<double, DoorId>> contributions;
  const size_t n = graph.NumDoors();
  for (size_t d = 0; d < n; ++d) {
    for (double t : graph.Ati(static_cast<DoorId>(d)).InteriorBoundaries()) {
      contributions.emplace_back(t, static_cast<DoorId>(d));
    }
  }
  std::sort(contributions.begin(), contributions.end());
  BoundaryFlipIndex index;
  times->clear();
  index.offsets_.push_back(0);
  index.doors_.reserve(contributions.size());
  for (const auto& [t, d] : contributions) {
    if (times->empty() || times->back() != t) {
      times->push_back(t);
      index.offsets_.push_back(index.offsets_.back());
    }
    index.doors_.push_back(d);
    ++index.offsets_.back();
  }
  return index;
}

BoundaryFlipIndex BoundaryFlipIndex::FromCsr(std::vector<size_t> offsets,
                                             std::vector<DoorId> doors) {
  BoundaryFlipIndex index;
  index.offsets_ = std::move(offsets);
  index.doors_ = std::move(doors);
  return index;
}

}  // namespace itspq
