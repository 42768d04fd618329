#ifndef ITSPQ_COMMON_STATS_H_
#define ITSPQ_COMMON_STATS_H_

// Wall-clock timing, the per-query search counters reported by the
// engines (and consumed by the figure benches), and the log-linear
// latency histogram shared by the serving frontend and the lazy
// catalog's cold-load accounting.

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace itspq {

/// Starts on construction; Elapsed* may be called repeatedly.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Counters for one shortest-path query (DESIGN in README.md: memory is
/// the peak of search state — heap + touched labels — plus, for the
/// asynchronous checkers, the resident reduced graph).
struct SearchStats {
  double search_micros = 0;
  size_t peak_memory_bytes = 0;
  size_t doors_popped = 0;
  /// Number of Graph_Update reduced-graph (re)builds this query.
  size_t graph_updates = 0;
};

/// Fixed-size log-linear latency histogram (HDR-style): every octave
/// [2^o, 2^(o+1)) µs, o = 0..38, is split into kSubBuckets equal-width
/// buckets, and [0, 1) µs gets kSubBuckets buckets of 1/kSubBuckets µs
/// (negative samples land in the first). A bucket is at most 1/8 of its
/// lower edge wide, so a quantile reported as the bucket's upper edge
/// overstates a sample of at least 1 µs by at most 1/8 of it (and a
/// sub-µs one by at most 1/8 µs). Recording is allocation-free.
///
/// The last bucket is an overflow bucket: samples at or above 2^39 µs
/// (including crazy out-of-range ones) clamp into it, and a quantile
/// that lands there reports kSaturatedMicros (2^40 µs) — a saturation
/// marker, not a measurement. NaN samples (a network RTT computed from
/// a poisoned clock, say) are dropped on the record path and tallied in
/// `nan_dropped` instead of silently polluting bucket 0.
struct LatencyHistogram {
  static constexpr size_t kSubBuckets = 8;
  /// Octaves above 1 µs before the overflow bucket.
  static constexpr int kOctaves = 39;
  static constexpr size_t kNumBuckets =
      kSubBuckets * (static_cast<size_t>(kOctaves) + 1) + 1;
  static constexpr double kSaturatedMicros =
      static_cast<double>(uint64_t{1} << (kOctaves + 1));
  size_t counts[kNumBuckets] = {};
  size_t total = 0;
  /// NaN samples rejected by Record (not part of `total`).
  size_t nan_dropped = 0;

  void Record(double micros);
  void Accumulate(const LatencyHistogram& other);

  /// Bucket a sample lands in, and the upper edge (µs) Quantile reports
  /// for a bucket.
  static size_t BucketOf(double micros);
  static double UpperEdge(size_t bucket);

  /// Upper-bound estimate (µs) of the q-quantile, q in [0, 1]: the
  /// upper edge of the first bucket whose cumulative count reaches
  /// q * total. 0 when the histogram is empty; kSaturatedMicros when
  /// the quantile saturates the overflow bucket (see above).
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P99() const { return Quantile(0.99); }
};

}  // namespace itspq

#endif  // ITSPQ_COMMON_STATS_H_
