// bench_diff: compares two micro_core benchmark snapshots and reports
// the per-benchmark delta — the regression gate behind BENCH_*.json.
//
//   bench_diff old.json new.json            # report only
//   bench_diff --gate old.json new.json     # exit 1 on a regression
//   bench_diff --gate --threshold=0.15 ...  # custom gate (fraction)
//   bench_diff --gate b1.json,b2.json h1.json,h2.json
//
// Either side may name several runs, comma-separated; each benchmark
// then counts at its fastest time over that side's runs (noise on a
// shared host only ever adds time). Running base and head interleaved
// on one machine and diffing the lists is the like-for-like gate.
//
// Accepts either raw google-benchmark JSON ({"context", "benchmarks"})
// or a wrapped BENCH_prN.json ({"micro_core": {...}, ...}); the scan is
// a tolerant hand-rolled pass over the text (no JSON dependency): each
// "name" inside the benchmarks array is paired with the next
// "real_time"/"time_unit". Build types ("library_build_type" in the
// benchmark context) are printed prominently — a debug-vs-release diff
// is not a like-for-like comparison and is flagged as such.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchEntry {
  std::string name;
  double time_ns = 0;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Extracts the JSON string value following `key` at/after `from`;
/// npos-safe. Returns the empty string when absent.
std::string StringAfter(const std::string& text, const std::string& key,
                        size_t from = 0) {
  const size_t at = text.find("\"" + key + "\"", from);
  if (at == std::string::npos) return "";
  const size_t open = text.find('"', text.find(':', at) + 1);
  if (open == std::string::npos) return "";
  const size_t close = text.find('"', open + 1);
  if (close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

double NumberAfter(const std::string& text, const std::string& key,
                   size_t from, size_t limit, bool* ok) {
  *ok = false;
  const size_t at = text.find("\"" + key + "\"", from);
  if (at == std::string::npos || at >= limit) return 0;
  const size_t colon = text.find(':', at);
  if (colon == std::string::npos) return 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + colon + 1, &end);
  if (end == text.c_str() + colon + 1) return 0;
  *ok = true;
  return v;
}

double UnitToNs(const std::string& unit) {
  if (unit == "ns" || unit.empty()) return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

/// All (name, real_time in ns) pairs of the benchmarks array. When the
/// file wraps the run under "micro_core", the scan is narrowed to it so
/// sibling sections can never contribute phantom entries.
std::vector<BenchEntry> ExtractBenchmarks(const std::string& full_text) {
  std::string text = full_text;
  const size_t wrapped = full_text.find("\"micro_core\"");
  if (wrapped != std::string::npos) text = full_text.substr(wrapped);
  const size_t array = text.find("\"benchmarks\"");
  if (array == std::string::npos) return {};

  std::vector<BenchEntry> entries;
  size_t at = array;
  for (;;) {
    const size_t name_at = text.find("\"name\"", at);
    if (name_at == std::string::npos) break;
    const size_t next_name = text.find("\"name\"", name_at + 1);
    const size_t limit =
        next_name == std::string::npos ? text.size() : next_name;
    BenchEntry e;
    e.name = StringAfter(text, "name", name_at);
    bool ok = false;
    const double real_time =
        NumberAfter(text, "real_time", name_at, limit, &ok);
    if (ok && !e.name.empty()) {
      e.time_ns = real_time * UnitToNs(StringAfter(text, "time_unit",
                                                   name_at));
      entries.push_back(std::move(e));
    }
    at = limit;
  }
  return entries;
}

std::string BuildType(const std::string& text) {
  const std::string v = StringAfter(text, "library_build_type");
  return v.empty() ? "unknown" : v;
}

/// One side of the diff: the comma-separated run files in `paths`,
/// each benchmark at its fastest time across them, in first-seen order.
/// `text` receives the first file's text (for its build type). False
/// (with a message) when a file cannot be read.
bool ReadSide(const std::string& paths, std::vector<BenchEntry>* entries,
              std::string* text) {
  std::map<std::string, size_t> index;
  std::stringstream list(paths);
  std::string path;
  while (std::getline(list, path, ',')) {
    std::string file_text;
    if (!ReadFile(path, &file_text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
      return false;
    }
    for (BenchEntry& e : ExtractBenchmarks(file_text)) {
      const auto [it, inserted] = index.emplace(e.name, entries->size());
      if (inserted) {
        entries->push_back(std::move(e));
      } else {
        (*entries)[it->second].time_ns =
            std::min((*entries)[it->second].time_ns, e.time_ns);
      }
    }
    if (text->empty()) *text = std::move(file_text);
  }
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--gate] [--threshold=FRACTION] OLD.json NEW.json\n"
               "  OLD / NEW may list several runs, comma-separated; each\n"
               "  benchmark counts at its fastest time over them\n"
               "  --gate            exit 1 when any benchmark regresses by\n"
               "                    more than the threshold (default 0.10)\n"
               "  --threshold=0.10  regression gate as a fraction of the\n"
               "                    old time\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  double threshold = 0.10;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
      if (threshold <= 0) return Usage(argv[0]);
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return Usage(argv[0]);

  std::string old_text, new_text;
  std::vector<BenchEntry> old_entries, new_entries;
  if (!ReadSide(paths[0], &old_entries, &old_text) ||
      !ReadSide(paths[1], &new_entries, &new_text)) {
    return 2;
  }

  std::map<std::string, double> old_times;
  for (const BenchEntry& e : old_entries) old_times.emplace(e.name, e.time_ns);
  if (old_times.empty() || new_entries.empty()) {
    std::fprintf(stderr,
                 "bench_diff: no micro_core benchmarks found in %s\n",
                 old_times.empty() ? paths[0].c_str() : paths[1].c_str());
    return 2;
  }

  const std::string old_build = BuildType(old_text);
  const std::string new_build = BuildType(new_text);
  std::printf("old: %s (%s build)\nnew: %s (%s build)\n\n", paths[0].c_str(),
              old_build.c_str(), paths[1].c_str(), new_build.c_str());
  if (old_build != new_build) {
    std::printf(
        "WARNING: build types differ (%s vs %s) — deltas are NOT a\n"
        "like-for-like comparison.\n\n",
        old_build.c_str(), new_build.c_str());
  }

  std::printf("%-34s %14s %14s %9s\n", "benchmark", "old (ns)", "new (ns)",
              "delta");
  int regressions = 0;
  size_t matched = 0;
  for (const BenchEntry& e : new_entries) {
    const auto it = old_times.find(e.name);
    if (it == old_times.end()) {
      std::printf("%-34s %14s %14.1f %9s\n", e.name.c_str(), "-", e.time_ns,
                  "new");
      continue;
    }
    ++matched;
    const double delta = (e.time_ns - it->second) / it->second;
    const bool regressed = delta > threshold;
    std::printf("%-34s %14.1f %14.1f %+8.1f%%%s\n", e.name.c_str(),
                it->second, e.time_ns, delta * 100.0,
                regressed ? "  << REGRESSION" : "");
    if (regressed) ++regressions;
  }
  for (const auto& [name, time_ns] : old_times) {
    if (std::none_of(new_entries.begin(), new_entries.end(),
                     [&](const BenchEntry& e) { return e.name == name; })) {
      std::printf("%-34s %14.1f %14s %9s\n", name.c_str(), time_ns, "-",
                  "gone");
    }
  }

  std::printf("\n%zu benchmarks compared, %d over the %.0f%% threshold\n",
              matched, regressions, threshold * 100.0);
  if (gate && matched == 0) {
    std::fprintf(stderr, "bench_diff: --gate with no comparable benchmarks\n");
    return 2;
  }
  return gate && regressions > 0 ? 1 : 0;
}
