#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace itspq {

size_t LatencyHistogram::BucketOf(double micros) {
  if (!(micros >= 1.0)) {
    // Sub-µs linear range; negative samples (and NaN, which Record
    // drops first) fall into bucket 0.
    return micros > 0 ? static_cast<size_t>(micros * kSubBuckets) : 0;
  }
  if (micros >= std::ldexp(1.0, kOctaves)) {
    // Overflow bucket — also catches +infinity, which frexp cannot
    // place.
    return kNumBuckets - 1;
  }
  // micros = mantissa * 2^exponent with mantissa in [0.5, 1), so the
  // sample sits in octave exponent - 1 and 2 * mantissa - 1 in [0, 1)
  // is its linear position inside that octave. Exact: no log rounding.
  int exponent = 0;
  const double mantissa = std::frexp(micros, &exponent);
  const size_t sub = static_cast<size_t>((2 * mantissa - 1) * kSubBuckets);
  return kSubBuckets * static_cast<size_t>(exponent) + sub;
}

double LatencyHistogram::UpperEdge(size_t bucket) {
  if (bucket >= kNumBuckets - 1) return kSaturatedMicros;
  if (bucket < kSubBuckets) {
    return static_cast<double>(bucket + 1) / kSubBuckets;
  }
  const int octave = static_cast<int>(bucket / kSubBuckets) - 1;
  const size_t sub = bucket % kSubBuckets;
  return std::ldexp(static_cast<double>(kSubBuckets + sub + 1) / kSubBuckets,
                    octave);
}

void LatencyHistogram::Record(double micros) {
  // A NaN sample would otherwise compare false against every bucket
  // edge and land in bucket 0, skewing p50 downward forever.
  if (std::isnan(micros)) {
    ++nan_dropped;
    return;
  }
  ++counts[BucketOf(micros)];
  ++total;
}

void LatencyHistogram::Accumulate(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) counts[i] += other.counts[i];
  total += other.total;
  nan_dropped += other.nan_dropped;
}

double LatencyHistogram::Quantile(double q) const {
  if (total == 0) return 0;
  q = std::min(std::max(q, 0.0), 1.0);
  const size_t target =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(q * total)));
  size_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= target) return UpperEdge(i);
  }
  return kSaturatedMicros;
}

}  // namespace itspq
