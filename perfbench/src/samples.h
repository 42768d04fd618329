#ifndef PERFBENCH_SAMPLES_H_
#define PERFBENCH_SAMPLES_H_

// Raw-sample statistics, open-loop request timelines, and the choice of
// the segments a run's timing figures are taken from.
//
// Every timing the benchmark reports is an order statistic of the raw
// samples it recorded, quoted with the sample count, never a histogram
// bucket edge. Open-loop requests are timed from when they were DUE,
// not from when the generator got round to sending them, so a stalled
// generator charges its stall to every request it delayed instead of
// hiding it (coordinated omission); how late the generator ran is
// reported separately so a reader can tell a slow system from a slow
// driver.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile of `values` (q in [0, 1]): the smallest
/// sample with at least ceil(q * n) samples at or below it. Always a
/// value that was actually recorded. 0 for an empty set.
double Quantile(std::vector<double> values, double q);

/// Median, 95th and 99th percentile of one raw sample set, with its
/// size and how many samples lie strictly beyond the p99 rank. A p99 is
/// only trustworthy with at least ten samples beyond it (n >= 1000).
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  size_t beyond_p99 = 0;
};

Summary Summarize(const std::vector<double>& values);

/// One request's life as the caller sees it, in steady-clock ns.
/// Closed-loop requests are due when they are sent.
struct Timeline {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

/// Caller-visible latency: completion minus the DUE time (µs), so the
/// generator's lateness is part of it.
double LatencyFromDueMicros(const Timeline& t);

/// How late the generator sent the request (µs; negative = early).
double SendLatenessMicros(const Timeline& t);

/// Indices of the quarter of the segments (rounded up) with the lowest
/// median latency, lowest first, earliest first on ties.
///
/// On a shared host, other tenants slow a segment down and never speed
/// it up: stolen CPU time (a segment's p95 from 2.5 ms at 1% steal to
/// 10 ms at 12% on rpc_interactive) and, with no steal at all, contention
/// for caches and memory (cold_fleet segment p50s from 10 to 19 us
/// within one run at 0% steal). Timing figures are therefore taken over
/// the fastest quarter of a run's segments. The choice always keeps a
/// quarter; failures and answer checks count in every segment.
std::vector<size_t> QuietSegments(const std::vector<double>& p50_us);

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLES_H_
