#include "update/update_applier.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "itgraph/ati.h"
#include "itgraph/snapshot_store.h"

namespace itspq {

namespace {

/// Span of interval `index` under sorted boundary `times`:
/// [times[index-1], times[index]) with times[-1] = 0, times[n] = 86400.
struct IntervalSpan {
  double lo;
  double hi;
};

IntervalSpan SpanOf(const std::vector<double>& times, size_t index) {
  return IntervalSpan{index == 0 ? 0.0 : times[index - 1],
                      index == times.size() ? kSecondsPerDay : times[index]};
}

/// Moves `door`'s entries in the boundary ledger (checkpoint `times` +
/// CSR `flips`) to its `new_bounds` (strictly ascending): at every
/// time, the new flip list is the old one without `door`, plus `door`
/// when the time is one of its new boundaries; times left with no door
/// are dropped. One merge pass, O(|T| + flips), three allocations.
BoundaryFlipIndex PatchLedger(const std::vector<double>& times,
                              const BoundaryFlipIndex& flips, DoorId door,
                              const std::vector<double>& new_bounds,
                              std::vector<double>* new_times) {
  std::vector<size_t> offsets;
  std::vector<DoorId> doors;
  new_times->reserve(times.size() + new_bounds.size());
  offsets.reserve(times.size() + new_bounds.size() + 1);
  doors.reserve(flips.TotalFlips() + new_bounds.size());
  offsets.push_back(0);
  size_t i = 0, j = 0;
  while (i < times.size() || j < new_bounds.size()) {
    const bool in_old = i < times.size() && (j == new_bounds.size() ||
                                             times[i] <= new_bounds[j]);
    const bool in_new = j < new_bounds.size() &&
                        (i == times.size() || new_bounds[j] <= times[i]);
    const double t = in_old ? times[i] : new_bounds[j];
    if (in_old) {
      // The old list is ascending: copy it around `door`'s slot.
      const DoorId* begin = flips.FlipsBegin(i);
      const DoorId* end = flips.FlipsEnd(i);
      const DoorId* at = std::lower_bound(begin, end, door);
      doors.insert(doors.end(), begin, at);
      if (in_new) doors.push_back(door);
      doors.insert(doors.end(), at != end && *at == door ? at + 1 : at, end);
      ++i;
    } else {
      doors.push_back(door);
    }
    if (in_new) ++j;
    if (doors.size() > offsets.back()) {
      new_times->push_back(t);
      offsets.push_back(doors.size());
    }
  }
  return BoundaryFlipIndex::FromCsr(std::move(offsets), std::move(doors));
}

}  // namespace

std::vector<ptrdiff_t> PlanSnapshotCarry(const std::vector<double>& old_times,
                                         const std::vector<double>& new_times,
                                         AtiView old_door_ati,
                                         AtiView new_door_ati,
                                         std::vector<size_t>* invalidate) {
  // New interval j carries from old interval i iff their spans are the
  // SAME [lo, hi) — unchanged boundary times are identical doubles, so
  // exact equality is the right test. The only candidate is the old
  // interval holding span.lo, i = upper_bound(old_times, span.lo), and
  // span.lo ascends with j: one forward walk finds every candidate. A
  // matched span contains no checkpoint of either world, hence both
  // door ATIs are constant across it and one midpoint probe decides
  // whether the open-door set changed there (-> invalidate).
  std::vector<ptrdiff_t> plan(new_times.size() + 1, kNoCarrySource);
  size_t i = 0;
  for (size_t j = 0; j <= new_times.size(); ++j) {
    const IntervalSpan span = SpanOf(new_times, j);
    while (i < old_times.size() && old_times[i] <= span.lo) ++i;
    const IntervalSpan old_span = SpanOf(old_times, i);
    if (old_span.lo != span.lo || old_span.hi != span.hi) continue;
    plan[j] = static_cast<ptrdiff_t>(i);
    const double mid = (span.lo + span.hi) * 0.5;
    if (old_door_ati.ContainsTimeOfDay(mid) !=
        new_door_ati.ContainsTimeOfDay(mid)) {
      invalidate->push_back(j);
    }
  }
  return plan;
}

StatusOr<std::shared_ptr<const VersionedGraph>> UpdateApplier::Apply(
    const VersionedGraph& current, const AtiUpdate& update,
    UpdateOutcome* outcome) {
  const Venue& old_venue = current.venue();
  const DoorId door = update.door_id;
  if (door < 0 || static_cast<size_t>(door) >= old_venue.NumDoors()) {
    return NotFoundError("ApplyAtiUpdate: venue has no door " +
                         std::to_string(door));
  }
  // Normalise the replacement first: a malformed update must fail
  // before anything is derived, leaving `current` the published world.
  auto new_ati = AtiSet::Create(update.intervals);
  if (!new_ati.ok()) {
    return Status(new_ati.status().code(),
                  "ApplyAtiUpdate: door " + std::to_string(door) + ": " +
                      new_ati.status().message());
  }

  std::shared_ptr<VersionedGraph> next(new VersionedGraph());
  next->epoch_ = current.epoch_ + 1;
  next->strategy_ = current.strategy_;
  next->options_ = current.options_;
  next->registry_ = current.registry_;
  // Budget may have been re-targeted since construction
  // (SetSnapshotBudget / ApportionSnapshotBudget hit the live store,
  // not the stored options) — read it back so the next epoch keeps it.
  const SnapshotStore* old_store = current.router().snapshot_store();
  if (old_store != nullptr) {
    next->options_.snapshot_cache.budget_bytes =
        old_store->Stats().budget_bytes;
  }

  // Copy-on-write venue: geometry shared, one ATI row replaced.
  Venue::Builder builder = Venue::Builder::FromVenue(old_venue);
  Status set = builder.SetDoorAti(door, update.intervals);
  if (!set.ok()) return set;
  auto venue = std::move(builder).Build();
  if (!venue.ok()) return venue.status();
  next->venue_ = std::make_unique<Venue>(*std::move(venue));

  auto graph = ItGraph::BuildFrom(current.graph(), *next->venue_, door);
  if (!graph.ok()) return graph.status();
  next->graph_ = std::make_unique<ItGraph>(*std::move(graph));

  // Patch the boundary ledger: only this door's entries move.
  std::vector<double> patched_times;
  next->flips_ = PatchLedger(current.checkpoints_.times(), current.flips_,
                             door, new_ati->InteriorBoundaries(),
                             &patched_times);
  auto cps = CheckpointSet::FromTimes(std::move(patched_times));
  if (!cps.ok()) return cps.status();
  next->checkpoints_ = *std::move(cps);

  const std::vector<double>& old_times = current.checkpoints_.times();
  const std::vector<double>& new_times = next->checkpoints_.times();
  std::vector<size_t> invalidate;
  std::vector<ptrdiff_t> carry_plan =
      PlanSnapshotCarry(old_times, new_times, current.graph().Ati(door),
                        new_ati->view(), &invalidate);

  if (outcome != nullptr) {
    *outcome = UpdateOutcome();
    outcome->epoch = next->epoch_;
    outcome->intervals_before = old_times.size() + 1;
    outcome->intervals_after = new_times.size() + 1;
  }

  Status status = next->FinishBuild(old_store, std::move(carry_plan),
                                    std::move(invalidate));
  if (!status.ok()) return status;

  if (outcome != nullptr && next->router_->snapshot_store() != nullptr) {
    const CacheStatsSnapshot stats = next->router_->snapshot_store()->Stats();
    outcome->snapshots_carried = stats.snapshots_carried;
    outcome->snapshots_rebased = stats.snapshots_rebased;
    outcome->intervals_invalidated = stats.intervals_invalidated;
  }
  return std::shared_ptr<const VersionedGraph>(std::move(next));
}

}  // namespace itspq
