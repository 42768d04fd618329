#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory spans recorded by the benchmark around its calls into each
// layer of the system, and the self-time arithmetic over them.
//
// A span is (name, start, end, parent, request). Names are
// "<layer>.<what>"; the layer prefix is what per-layer self times are
// grouped by. Each recording thread owns a SpanLog, so recording takes
// no lock; logs are merged and written once, when the run ends.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Static string "<layer>.<what>".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Unique across the run; 0 is never a valid id.
  uint64_t id = 0;
  /// Id of the span that caused this one; 0 for a request's root span.
  uint64_t parent = 0;
  /// Every span of one request carries the same request id.
  uint64_t request = 0;
};

/// Span ids for request `request`: the root is slot 0, children 1..7.
inline uint64_t SpanId(uint64_t request, unsigned slot) {
  return request * 8 + slot + 1;
}

/// A request id no other traced request of this process has used.
uint64_t NextTraceRequest();

/// One thread's span buffer.
class SpanLog {
 public:
  void Root(const char* name, uint64_t request, int64_t start_ns,
            int64_t end_ns) {
    spans_.push_back(
        Span{name, start_ns, end_ns, SpanId(request, 0), 0, request});
  }
  void Child(const char* name, uint64_t request, unsigned slot,
             int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns, SpanId(request, slot),
                          SpanId(request, 0), request});
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span (ns), index-aligned with `spans`: its
/// duration minus the part of [start, end) covered by the union of its
/// children's intervals (children clipped to the parent; overlapping
/// children count once). A child whose parent id is not in `spans` is
/// treated as a root.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// "net" for "net.encode"; the whole name when it has no '.'.
std::string LayerOf(const char* name);

/// Mean self time per root span (µs) of each layer's spans.
std::map<std::string, double> MeanSelfMicrosByLayer(
    const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace-event JSON array (viewable in
/// chrome://tracing or Perfetto). False when the file cannot be
/// written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
