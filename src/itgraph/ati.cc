#include "itgraph/ati.h"

#include <algorithm>
#include <string>
#include <utility>

namespace itspq {

StatusOr<AtiSet> AtiSet::Create(std::vector<TimeInterval> intervals) {
  std::vector<TimeInterval> flat;
  flat.reserve(intervals.size() + 1);
  for (const TimeInterval& iv : intervals) {
    if (iv.start < 0 || iv.start > kSecondsPerDay || iv.end < 0 ||
        iv.end > kSecondsPerDay) {
      return InvalidArgumentError(
          "ATI interval outside [0, 86400]: [" + std::to_string(iv.start) +
          ", " + std::to_string(iv.end) + ")");
    }
    if (iv.start == iv.end) {
      return InvalidArgumentError("zero-length ATI interval at " +
                                  std::to_string(iv.start));
    }
    // A start at 24:00 is the same instant as 00:00; normalising it here
    // keeps the wrap branch from emitting a degenerate [86400, 86400)
    // piece whose boundary would leak into the checkpoint set. The
    // zero-length check must repeat on the normalised value: {86400, 0}
    // is the same empty instant as {0, 0}.
    const double start = iv.start == kSecondsPerDay ? 0.0 : iv.start;
    if (start == iv.end) {
      return InvalidArgumentError("zero-length ATI interval at " +
                                  std::to_string(start));
    }
    if (iv.end > start) {
      flat.push_back(TimeInterval{start, iv.end});
    } else {
      // Wraps past midnight: split into the evening and morning parts.
      flat.push_back(TimeInterval{start, kSecondsPerDay});
      if (iv.end > 0) flat.push_back(TimeInterval{0, iv.end});
    }
  }

  std::sort(flat.begin(), flat.end(),
            [](const TimeInterval& a, const TimeInterval& b) {
              return a.start < b.start;
            });

  AtiSet set;
  for (const TimeInterval& iv : flat) {
    if (!set.starts_.empty() && iv.start <= set.ends_.back()) {
      set.ends_.back() = std::max(set.ends_.back(), iv.end);
    } else {
      set.starts_.push_back(iv.start);
      set.ends_.push_back(iv.end);
    }
  }

  // A single interval covering the whole day is "always open".
  if (set.starts_.size() == 1 && set.starts_[0] == 0 &&
      set.ends_[0] == kSecondsPerDay) {
    set.starts_.clear();
    set.ends_.clear();
  }
  return set;
}

std::vector<double> AtiView::InteriorBoundaries() const {
  std::vector<double> out;
  out.reserve(starts_.size() * 2);
  for (size_t i = 0; i < starts_.size(); ++i) {
    if (starts_[i] > 0) out.push_back(starts_[i]);
    if (ends_[i] < kSecondsPerDay) out.push_back(ends_[i]);
  }
  return out;
}

}  // namespace itspq
