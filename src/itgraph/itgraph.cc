#include "itgraph/itgraph.h"

#include <string>
#include <utility>

namespace itspq {

namespace {

/// Normalises door `d`'s source intervals, naming the door on error.
StatusOr<AtiSet> NormaliseDoorAti(const Venue& venue, DoorId d) {
  auto ati = AtiSet::Create(venue.DoorAti(d).ToVector());
  if (!ati.ok()) {
    return Status(ati.status().code(),
                  "door " + std::to_string(d) + ": " + ati.status().message());
  }
  return ati;
}

/// `pool` with its [begin, end) slice replaced by `row`.
std::vector<double> SpliceRow(const std::vector<double>& pool, uint32_t begin,
                              uint32_t end, const std::vector<double>& row) {
  std::vector<double> out;
  out.reserve(pool.size() - (end - begin) + row.size());
  out.insert(out.end(), pool.begin(), pool.begin() + begin);
  out.insert(out.end(), row.begin(), row.end());
  out.insert(out.end(), pool.begin() + end, pool.end());
  return out;
}

}  // namespace

StatusOr<ItGraph> ItGraph::Build(const Venue& venue) {
  ItGraph graph(venue);
  graph.ati_offsets_.reserve(venue.NumDoors() + 1);
  graph.ati_offsets_.push_back(0);
  for (size_t d = 0; d < venue.NumDoors(); ++d) {
    auto ati = NormaliseDoorAti(venue, static_cast<DoorId>(d));
    if (!ati.ok()) return ati.status();
    graph.ati_starts_.insert(graph.ati_starts_.end(), ati->starts().begin(),
                             ati->starts().end());
    graph.ati_ends_.insert(graph.ati_ends_.end(), ati->ends().begin(),
                           ati->ends().end());
    graph.ati_offsets_.push_back(
        static_cast<uint32_t>(graph.ati_starts_.size()));
  }
  graph.adj_ = std::make_shared<const CsrAdjacency>(CsrAdjacency::Compile(venue));
  return graph;
}

StatusOr<ItGraph> ItGraph::BuildFrom(const ItGraph& prev, const Venue& venue,
                                     DoorId changed_door) {
  if (venue.NumDoors() != prev.NumDoors()) {
    return InvalidArgumentError(
        "BuildFrom: door count changed (" + std::to_string(prev.NumDoors()) +
        " -> " + std::to_string(venue.NumDoors()) +
        "); online updates only edit ATIs");
  }
  if (changed_door < 0 ||
      static_cast<size_t>(changed_door) >= venue.NumDoors()) {
    return InvalidArgumentError("BuildFrom: unknown door " +
                                std::to_string(changed_door));
  }
  auto ati = NormaliseDoorAti(venue, changed_door);
  if (!ati.ok()) return ati.status();

  ItGraph graph(venue);
  // ATI edits never touch geometry (door-count guard above), so the
  // compiled adjacency is shared across epochs; the three flat ATI
  // arrays are copied with one row spliced.
  graph.adj_ = prev.adj_;
  const size_t d = static_cast<size_t>(changed_door);
  const uint32_t begin = prev.ati_offsets_[d];
  const uint32_t end = prev.ati_offsets_[d + 1];
  graph.ati_starts_ = SpliceRow(prev.ati_starts_, begin, end, ati->starts());
  graph.ati_ends_ = SpliceRow(prev.ati_ends_, begin, end, ati->ends());
  graph.ati_offsets_ = prev.ati_offsets_;
  const uint32_t new_end = begin + static_cast<uint32_t>(ati->starts().size());
  for (size_t i = d + 1; i < graph.ati_offsets_.size(); ++i) {
    graph.ati_offsets_[i] = graph.ati_offsets_[i] - end + new_end;
  }
  return graph;
}

size_t ItGraph::MemoryUsage() const {
  size_t total =
      ati_offsets_.capacity() * sizeof(uint32_t) +
      (ati_starts_.capacity() + ati_ends_.capacity()) * sizeof(double);
  if (adj_ != nullptr) total += adj_->MemoryUsage();
  return total;
}

}  // namespace itspq
