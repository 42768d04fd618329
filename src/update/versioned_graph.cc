#include "update/versioned_graph.h"

#include <utility>

namespace itspq {

StatusOr<std::shared_ptr<const VersionedGraph>> VersionedGraph::Build(
    Venue venue, const std::string& strategy,
    const RouterBuildOptions& options, const RouterRegistry* registry) {
  // shared_ptr<VersionedGraph> first so FinishBuild can run on a
  // non-const object; published as const.
  std::shared_ptr<VersionedGraph> version(new VersionedGraph());
  version->strategy_ = strategy;
  version->options_ = options;
  version->options_.warm_start = nullptr;
  version->registry_ = registry;
  version->venue_ = std::make_unique<Venue>(std::move(venue));

  auto graph = ItGraph::Build(*version->venue_);
  if (!graph.ok()) return graph.status();
  version->graph_ = std::make_unique<ItGraph>(*std::move(graph));

  std::vector<double> times;
  version->flips_ =
      BoundaryFlipIndex::FromAtiBoundaries(*version->graph_, &times);
  auto cps = CheckpointSet::FromTimes(std::move(times));
  if (!cps.ok()) return cps.status();
  version->checkpoints_ = *std::move(cps);

  Status status = version->FinishBuild(/*carry_from=*/nullptr, {}, {});
  if (!status.ok()) return status;
  return std::shared_ptr<const VersionedGraph>(std::move(version));
}

Status VersionedGraph::FinishBuild(const SnapshotStore* carry_from,
                                   std::vector<ptrdiff_t> carry_plan,
                                   std::vector<size_t> invalidate) {
  // The router borrows checkpoints_ and the store borrows flips_; both
  // live as long as router_.
  SnapshotWarmStart warm;
  warm.checkpoints = &checkpoints_;
  warm.flip_index = &flips_;
  warm.carry_from = carry_from;
  warm.carry_plan = std::move(carry_plan);
  warm.invalidate = std::move(invalidate);

  RouterBuildOptions build = options_;
  build.warm_start = &warm;
  const RouterRegistry& reg =
      registry_ != nullptr ? *registry_ : RouterRegistry::Global();
  auto router = reg.Create(strategy_, *graph_, build);
  if (!router.ok()) return router.status();
  router_ = *std::move(router);
  return Status::Ok();
}

size_t VersionedGraph::MemoryUsage() const {
  return venue_->MemoryUsage() + graph_->MemoryUsage() +
         checkpoints_.NumCheckpoints() * sizeof(double) +
         flips_.MemoryUsage() + router_->MemoryUsage();
}

}  // namespace itspq
