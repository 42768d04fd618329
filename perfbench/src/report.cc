#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

bool IsAlnum(char c) { return std::isalnum(static_cast<unsigned char>(c)); }

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) return false;
  for (char c : name) {
    if (!IsAlnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!IsAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

bool Report::Add(std::string name, double value, std::string unit) {
  if (!IsValidMetricName(name) || !IsValidUnit(unit) || !std::isfinite(value)) {
    return false;
  }
  for (const Metric& m : metrics_) {
    if (m.name == name) return false;
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  return true;
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    // Names and units are restricted to JSON-safe characters above.
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
