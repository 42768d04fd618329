#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t NextTraceRequest() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    auto it = index_of.find(spans[i].parent);
    if (it != index_of.end()) children[it->second].push_back(i);
  }

  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

std::map<std::string, double> MeanSelfMicrosByLayer(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> total_ns;
  size_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) ++roots;
    total_ns[LayerOf(spans[i].name)] += static_cast<double>(self[i]);
  }
  std::map<std::string, double> mean_us;
  for (const auto& [layer, ns] : total_ns) {
    mean_us[layer] = roots == 0 ? 0 : ns / 1e3 / static_cast<double>(roots);
  }
  return mean_us;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = spans.front().start_ns;
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  }
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // One row per request keeps each request's spans stacked together.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
