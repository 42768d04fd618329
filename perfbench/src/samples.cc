#include "samples.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of quantile q among n samples.
size_t Rank(size_t n, double q) {
  const double exact = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(exact), 1, n);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = Rank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  s.p50 = sorted[Rank(n, 0.50) - 1];
  s.p95 = sorted[Rank(n, 0.95) - 1];
  const size_t p99_rank = Rank(n, 0.99);
  s.p99 = sorted[p99_rank - 1];
  s.beyond_p99 = n - p99_rank;
  return s;
}

double LatencyFromDueMicros(const Timeline& t) {
  return static_cast<double>(t.done_ns - t.due_ns) / 1e3;
}

double SendLatenessMicros(const Timeline& t) {
  return static_cast<double>(t.sent_ns - t.due_ns) / 1e3;
}

std::vector<size_t> QuietSegments(const std::vector<double>& p50_us) {
  std::vector<size_t> order(p50_us.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return p50_us[a] < p50_us[b];
  });
  order.resize((order.size() + 3) / 4);
  return order;
}

}  // namespace perfbench
