#ifndef ITSPQ_ITGRAPH_ATI_H_
#define ITSPQ_ITGRAPH_ATI_H_

// Applicable Time Intervals (paper §II-B): the daily intervals during
// which a door can be passed. An empty/full set means always open.
//
// AtiSet::Create is the normaliser — wrapped past-midnight intervals
// are split, overlaps merged — so membership is a binary search over
// disjoint sorted [start, end) intervals. AtiSet owns one normalised
// row; AtiView reads one in place (ItGraph keeps every door's row in
// flat pools and hands out views).

#include <cstddef>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "common/time.h"

namespace itspq {

/// A read-only view of one normalised ATI row: parallel sorted,
/// disjoint [start, end) bounds, empty meaning always open. ItGraph
/// hands these out over its flat rows; an AtiSet owns one row.
class AtiView {
 public:
  /// An always-open row.
  AtiView() = default;
  AtiView(Span<double> starts, Span<double> ends)
      : starts_(starts), ends_(ends) {}

  /// True when the door is passable at time-of-day `tod` (any absolute
  /// time is accepted and wrapped into one day).
  bool ContainsTimeOfDay(double tod) const {
    if (starts_.empty()) return true;  // always open
    const double t = (tod >= 0 && tod < kSecondsPerDay) ? tod
                                                        : WrapTimeOfDay(tod);
    // Last interval starting at or before t.
    size_t lo = 0, hi = starts_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (starts_[mid] <= t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo > 0 && t < ends_[lo - 1];
  }

  bool IsAlwaysOpen() const { return starts_.empty(); }

  /// Interval boundaries strictly inside the day, i.e. excluding 0 and
  /// kSecondsPerDay — these are the temporal-variation checkpoints this
  /// door contributes, strictly ascending.
  std::vector<double> InteriorBoundaries() const;

  size_t NumIntervals() const { return starts_.empty() ? 1 : starts_.size(); }

  Span<double> starts() const { return starts_; }
  Span<double> ends() const { return ends_; }

 private:
  Span<double> starts_;
  Span<double> ends_;
};

class AtiSet {
 public:
  /// An always-open set (no temporal variation).
  AtiSet() = default;

  /// Normalises and validates `intervals`. Each interval must have
  /// start and end within [0, kSecondsPerDay]; `end < start` wraps past
  /// midnight and is split into two. Errors on out-of-range or
  /// zero-length intervals. An empty list yields an always-open set.
  static StatusOr<AtiSet> Create(std::vector<TimeInterval> intervals);

  AtiView view() const { return AtiView(starts_, ends_); }

  bool ContainsTimeOfDay(double tod) const {
    return view().ContainsTimeOfDay(tod);
  }
  bool IsAlwaysOpen() const { return starts_.empty(); }
  std::vector<double> InteriorBoundaries() const {
    return view().InteriorBoundaries();
  }
  size_t NumIntervals() const { return view().NumIntervals(); }

  /// The normalised parallel bounds (empty = always open) — what
  /// ItGraph splices into its flat ATI rows.
  const std::vector<double>& starts() const { return starts_; }
  const std::vector<double>& ends() const { return ends_; }

 private:
  // Parallel arrays of disjoint, sorted [start, end) intervals. Empty
  // arrays encode "always open". A set covering the whole day collapses
  // to empty during normalisation.
  std::vector<double> starts_;
  std::vector<double> ends_;
};

}  // namespace itspq

#endif  // ITSPQ_ITGRAPH_ATI_H_
