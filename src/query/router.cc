#include "query/router.h"

#include <utility>

#include "query/scratch.h"

namespace itspq {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPointToPoint:
      return "point-to-point";
    case QueryKind::kReachability:
      return "reachability";
    case QueryKind::kNearestFacility:
      return "nearest-facility";
    case QueryKind::kMultiStop:
      return "multi-stop";
  }
  return "unknown";
}

QueryContext::QueryContext()
    : scratch_(std::make_unique<internal::SearchScratch>()) {}
QueryContext::~QueryContext() = default;
QueryContext::QueryContext(QueryContext&&) noexcept = default;
QueryContext& QueryContext::operator=(QueryContext&&) noexcept = default;

Router::Router(std::string name, const ItGraph& graph,
               const CheckpointSet* precomputed)
    : name_(std::move(name)),
      graph_(&graph),
      own_checkpoints_(precomputed != nullptr
                           ? CheckpointSet()
                           : CheckpointSet::FromGraph(graph)),
      checkpoints_(precomputed != nullptr ? precomputed : &own_checkpoints_) {}

Router::Router(std::string name)
    : name_(std::move(name)), graph_(nullptr), checkpoints_(&own_checkpoints_) {}

size_t Router::MemoryUsage() const {
  return own_checkpoints_.times().capacity() * sizeof(double);
}

std::vector<StatusOr<QueryResult>> Router::RouteBatch(
    const std::vector<QueryRequest>& requests,
    const BatchOptions& options) const {
  // Empty batch: nothing to route, no context (caller's or throwaway)
  // is touched.
  if (requests.empty()) return {};

  std::vector<StatusOr<QueryResult>> results;
  results.reserve(requests.size());
  QueryContext local;
  QueryContext* context = options.context ? options.context : &local;
  // A coalesced batch lands on one shard with clustered departures:
  // retain snapshot pins across the loop so consecutive queries skip
  // the per-query store round-trip, then release before returning so
  // a long-lived context doesn't hold masks hostage between batches.
  internal::SearchScratch& scratch = context->scratch();
  scratch.retain_pins = true;
  for (const QueryRequest& request : requests) {
    results.push_back(Route(request, context));
  }
  scratch.retain_pins = false;
  scratch.ReleasePins();
  return results;
}

}  // namespace itspq
