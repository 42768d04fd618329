#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The result line: named metrics with units, checked against the
// benchmark's naming rules as they are added, rendered as the one JSON
// object the run prints last.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A metric name starts with a letter or digit and has at most 64
/// letters, digits, '_', '.' and '-'.
bool IsValidMetricName(std::string_view name);

/// A unit has 1..16 letters, digits, '_', '/', '%', '.' and '-'.
bool IsValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  /// False (and nothing recorded) on an invalid name or unit, a
  /// duplicate name, or a non-finite value.
  [[nodiscard]] bool Add(std::string name, double value, std::string unit);

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics":
  /// {"<name>": {"value": v, "unit": "<unit>"}, ...}} on one line,
  /// values with full double precision.
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
