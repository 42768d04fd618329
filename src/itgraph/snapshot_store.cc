#include "itgraph/snapshot_store.h"

#include <algorithm>
#include <list>
#include <utility>

namespace itspq {

namespace {

/// Today's behaviour as a policy: everything stays resident, so a
/// budgeted store with "keep-all" simply stops evicting (the budget is
/// advisory) and an unbudgeted one is the old SnapshotCache.
class KeepAllPolicy : public EvictionPolicy {
 public:
  const std::string& name() const override {
    static const std::string kName = "keep-all";
    return kName;
  }
  void OnInsert(size_t) override {}
  void OnAccess(size_t) override {}
  void OnEvict(size_t) override {}
  bool ChooseVictim(size_t, size_t*) override { return false; }
};

/// Least-recently-used over Get() order (hits and inserts both count as
/// uses). Interval count is small (|T|+1), so a list + iterator table
/// is plenty.
class LruPolicy : public EvictionPolicy {
 public:
  explicit LruPolicy(size_t num_intervals)
      : where_(num_intervals, order_.end()) {}

  const std::string& name() const override {
    static const std::string kName = "lru";
    return kName;
  }

  void OnInsert(size_t interval) override { Touch(interval); }
  void OnAccess(size_t interval) override { Touch(interval); }

  void OnEvict(size_t interval) override {
    order_.erase(where_[interval]);
    where_[interval] = order_.end();
  }

  bool ChooseVictim(size_t protect, size_t* victim) override {
    // Oldest first; `protect` (at most one resident interval) is
    // skipped, so inspecting the back two suffices.
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (*it == protect) continue;
      *victim = *it;
      return true;
    }
    return false;
  }

 private:
  void Touch(size_t interval) {
    if (where_[interval] != order_.end()) order_.erase(where_[interval]);
    order_.push_front(interval);
    where_[interval] = order_.begin();
  }

  std::list<size_t> order_;  // front = most recent
  std::vector<std::list<size_t>::iterator> where_;
};

/// Second-chance clock: a hit sets the interval's reference bit; the
/// sweeping hand clears bits until it lands on an unreferenced resident
/// interval. Approximates LRU without per-access list surgery.
class ClockPolicy : public EvictionPolicy {
 public:
  explicit ClockPolicy(size_t num_intervals)
      : resident_(num_intervals, 0), referenced_(num_intervals, 0) {}

  const std::string& name() const override {
    static const std::string kName = "clock";
    return kName;
  }

  void OnInsert(size_t interval) override {
    resident_[interval] = 1;
    referenced_[interval] = 1;
  }
  void OnAccess(size_t interval) override { referenced_[interval] = 1; }
  void OnEvict(size_t interval) override {
    resident_[interval] = 0;
    referenced_[interval] = 0;
  }

  bool ChooseVictim(size_t protect, size_t* victim) override {
    const size_t n = resident_.size();
    // Two full sweeps bound the scan: the first may only be clearing
    // reference bits, the second must find an unreferenced interval.
    for (size_t step = 0; step < 2 * n; ++step) {
      const size_t at = hand_;
      hand_ = (hand_ + 1) % n;
      if (!resident_[at] || at == protect) continue;
      if (referenced_[at]) {
        referenced_[at] = 0;
        continue;
      }
      *victim = at;
      return true;
    }
    return false;
  }

 private:
  std::vector<uint8_t> resident_;
  std::vector<uint8_t> referenced_;
  size_t hand_ = 0;
};

/// Store ids start at 1 so 0 stays the "no pins held" sentinel in
/// SearchScratch::pinned_store_id.
std::atomic<uint64_t> g_next_store_id{1};

}  // namespace

StatusOr<std::unique_ptr<EvictionPolicy>> MakeEvictionPolicy(
    const std::string& name, size_t num_intervals) {
  if (name == "keep-all") {
    return std::unique_ptr<EvictionPolicy>(new KeepAllPolicy());
  }
  if (name == "lru") {
    return std::unique_ptr<EvictionPolicy>(new LruPolicy(num_intervals));
  }
  if (name == "clock") {
    return std::unique_ptr<EvictionPolicy>(new ClockPolicy(num_intervals));
  }
  return NotFoundError("unknown eviction policy '" + name +
                       "' (known: keep-all, lru, clock)");
}

void CacheStatsSnapshot::Accumulate(const CacheStatsSnapshot& other) {
  if (policy.empty()) {
    policy = other.policy;
  } else if (!other.policy.empty() && other.policy != policy) {
    policy = "mixed";
  }
  budget_bytes += other.budget_bytes;
  resident_snapshots += other.resident_snapshots;
  resident_bytes += other.resident_bytes;
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  full_builds += other.full_builds;
  delta_builds += other.delta_builds;
  delta_door_touches += other.delta_door_touches;
  snapshots_carried += other.snapshots_carried;
  snapshots_rebased += other.snapshots_rebased;
  intervals_invalidated += other.intervals_invalidated;
}

SnapshotStore::SnapshotStore(const ItGraph& graph, const CheckpointSet& cps,
                             SnapshotStoreOptions options,
                             const SnapshotWarmStart* warm)
    : SnapshotStore(graph, cps, options, nullptr, warm) {}

SnapshotStore::SnapshotStore(const ItGraph& graph, const CheckpointSet& cps,
                             SnapshotStoreOptions options,
                             std::unique_ptr<EvictionPolicy> policy,
                             const SnapshotWarmStart* warm)
    : graph_(&graph),
      cps_(&cps),
      id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)),
      options_(std::move(options)),
      slots_(cps.NumIntervals()),
      policy_(std::move(policy)) {
  if (policy_ == nullptr) {
    auto made = MakeEvictionPolicy(options_.policy, cps.NumIntervals());
    if (!made.ok()) made = MakeEvictionPolicy("keep-all", cps.NumIntervals());
    policy_ = *std::move(made);
  }
  options_.policy = policy_->name();
  if (warm == nullptr) return;

  borrowed_flips_ = warm->flip_index;

  if (warm->carry_from == nullptr || warm->carry_plan.empty()) return;
  const SnapshotStore& prev = *warm->carry_from;
  // The construction-time carry needs no lock on *this (no other thread
  // can see a half-built store), but resident slots of the previous
  // version are still being served to in-flight readers of the old
  // epoch, so its mutex is taken for the whole scan.
  std::lock_guard<std::mutex> prev_lock(prev.mu_);
  for (size_t j = 0; j < slots_.size() && j < warm->carry_plan.size(); ++j) {
    const ptrdiff_t src = warm->carry_plan[j];
    if (src < 0 || static_cast<size_t>(src) >= prev.slots_.size()) continue;
    const std::shared_ptr<const GraphSnapshot>& old_slot =
        prev.slots_[static_cast<size_t>(src)];
    if (old_slot == nullptr) continue;
    if (std::find(warm->invalidate.begin(), warm->invalidate.end(), j) !=
        warm->invalidate.end()) {
      // The span survived but its open-door set changed: the old mask is
      // stale for the new graph and must be rebuilt on demand.
      ++invalidated_;
      continue;
    }
    std::shared_ptr<const GraphSnapshot> snap;
    if (static_cast<size_t>(src) == j) {
      snap = old_slot;  // same index, same mask: share the slot verbatim
      ++carried_;
    } else {
      // Index shifted under the new checkpoint set; re-issue the mask
      // under the corrected interval_index without any Graph_Update
      // derivation.
      snap = std::make_shared<GraphSnapshot>(
          GraphSnapshot{j, old_slot->open, old_slot->open_door_count});
      ++rebased_;
    }
    slots_[j] = std::move(snap);
    resident_bytes_ += slots_[j]->TotalBytes();
    ++resident_count_;
    policy_->OnInsert(j);
  }
  if (options_.budget_bytes != 0) {
    // slots_.size() is not a valid interval: protect nothing.
    EvictToFitLocked(options_.budget_bytes, slots_.size());
  }
}

const BoundaryFlipIndex& SnapshotStore::EnsureFlips() const {
  if (borrowed_flips_ != nullptr) return *borrowed_flips_;
  std::call_once(flips_once_, [this] {
    own_flips_ = BoundaryFlipIndex::Build(*graph_, *cps_);
    flips_built_.store(true, std::memory_order_release);
  });
  return own_flips_;
}

std::shared_ptr<const GraphSnapshot> SnapshotStore::Get(
    size_t interval_index, bool* built_now) const {
  if (built_now != nullptr) *built_now = false;
  // Resolve the flip index before taking the mutex: the one-time
  // O(intervals x doors) build must not block concurrent readers.
  const BoundaryFlipIndex* flips =
      options_.delta_builds ? &EnsureFlips() : nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const GraphSnapshot>& slot = slots_[interval_index];
  if (slot != nullptr) {
    ++hits_;
    policy_->OnAccess(interval_index);
    return slot;
  }

  ++misses_;
  std::shared_ptr<const GraphSnapshot> snap;
  if (flips != nullptr) {
    // Either resident neighbour works; adjacency is symmetric.
    const GraphSnapshot* neighbour = nullptr;
    if (interval_index > 0 && slots_[interval_index - 1] != nullptr) {
      neighbour = slots_[interval_index - 1].get();
    } else if (interval_index + 1 < slots_.size() &&
               slots_[interval_index + 1] != nullptr) {
      neighbour = slots_[interval_index + 1].get();
    }
    if (neighbour != nullptr) {
      size_t touched = 0;
      snap = std::make_shared<GraphSnapshot>(BuildSnapshotDelta(
          *graph_, *cps_, *flips, *neighbour, interval_index, &touched));
      ++delta_builds_;
      delta_door_touches_ += touched;
    }
  }
  if (snap == nullptr) {
    snap = std::make_shared<GraphSnapshot>(
        BuildSnapshot(*graph_, *cps_, interval_index));
    ++full_builds_;
  }
  if (built_now != nullptr) *built_now = true;

  slot = snap;
  resident_bytes_ += snap->TotalBytes();
  ++resident_count_;
  policy_->OnInsert(interval_index);
  if (options_.budget_bytes != 0) {
    EvictToFitLocked(options_.budget_bytes, interval_index);
  }
  return snap;
}

void SnapshotStore::EvictToFitLocked(size_t budget, size_t protect) const {
  while (resident_bytes_ > budget) {
    size_t victim = 0;
    if (!policy_->ChooseVictim(protect, &victim)) break;
    std::shared_ptr<const GraphSnapshot>& slot = slots_[victim];
    resident_bytes_ -= slot->TotalBytes();
    // Readers holding the shared_ptr keep the mask alive; the store
    // just forgets it.
    slot.reset();
    --resident_count_;
    ++evictions_;
    policy_->OnEvict(victim);
  }
}

size_t SnapshotStore::InvalidateIntervals(
    const std::vector<size_t>& intervals) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (size_t interval : intervals) {
    if (interval >= slots_.size()) continue;
    std::shared_ptr<const GraphSnapshot>& slot = slots_[interval];
    if (slot == nullptr) continue;
    resident_bytes_ -= slot->TotalBytes();
    // Pinned readers keep the mask alive; the store just forgets it.
    slot.reset();
    --resident_count_;
    ++invalidated_;
    ++dropped;
    policy_->OnEvict(interval);
  }
  return dropped;
}

void SnapshotStore::SetBudget(size_t budget_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  options_.budget_bytes = budget_bytes;
  if (budget_bytes != 0) {
    // slots_.size() is not a valid interval: protect nothing.
    EvictToFitLocked(budget_bytes, slots_.size());
  }
}

CacheStatsSnapshot SnapshotStore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStatsSnapshot stats;
  stats.policy = policy_->name();
  stats.budget_bytes = options_.budget_bytes;
  stats.resident_snapshots = resident_count_;
  stats.resident_bytes = resident_bytes_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.full_builds = full_builds_;
  stats.delta_builds = delta_builds_;
  stats.delta_door_touches = delta_door_touches_;
  stats.snapshots_carried = carried_;
  stats.snapshots_rebased = rebased_;
  stats.intervals_invalidated = invalidated_;
  return stats;
}

size_t SnapshotStore::MemoryUsage() const {
  const size_t flips_bytes = flips_built_.load(std::memory_order_acquire)
                                 ? own_flips_.MemoryUsage()
                                 : 0;
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.capacity() * sizeof(slots_[0]) + resident_bytes_ +
         flips_bytes;
}

}  // namespace itspq
