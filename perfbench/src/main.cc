// perfbench — the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out PATH] [--work-dir DIR] [--corrupt-expected]
//
// Runs one workload, checks every answer and ledger it can, prints a
// human-readable report to stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones from the traced run. Exit code
// 0 only when every check held; 1 on a wrong answer or a broken ledger
// (the result line is still printed, with "correct": false); 2 on a
// usage or set-up error (no result line).

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>

#include "common.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks they agree).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},    {"lat_p50_us", "us"},
    {"throughput_qps", "q/s"}, {"update_p50_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"driver.send_late_p99_us", "us"},
    {"driver.lat_p95_us", "us"},
    {"driver.lat_p99_us", "us"},
    {"driver.update_p95_us", "us"},
    {"driver.update_p99_us", "us"},
    {"driver.trace_overhead_frac", "ratio"},
    {"driver.fail_frac", "ratio"},
    {"trace.self_us.driver", "us"},
    {"trace.self_us.net", "us"},
    {"trace.self_us.server", "us"},
    {"trace.self_us.query", "us"},
    {"trace.self_us.update", "us"},
    {"net.encode_query_ns", "ns"},
    {"net.decode_query_ns", "ns"},
    {"net.encode_reply_ns", "ns"},
    {"net.decode_reply_ns", "ns"},
    {"net.query_bytes", "bytes"},
    {"net.reply_bytes", "bytes"},
    {"net.residual_p50_us", "us"},
    {"net.residual_p99_us", "us"},
    {"net.decode_errors", "count"},
    {"net.connections_dropped", "count"},
    {"server.service_p50_us", "us"},
    {"server.service_p99_us", "us"},
    {"server.queue_wait_p50_us", "us"},
    {"server.batch_size_mean", "count"},
    {"server.shed_frac", "ratio"},
    {"server.rejected_frac", "ratio"},
    {"server.timed_out_frac", "ratio"},
    {"server.queue_high_water", "count"},
    {"query.route_p50_us", "us"},
    {"query.route_p99_us", "us"},
    {"query.route_us.p2p", "us"},
    {"query.route_us.reach", "us"},
    {"query.route_us.knn", "us"},
    {"query.route_us.multistop", "us"},
    {"query.doors_popped_mean", "count"},
    {"query.found_frac", "ratio"},
    {"itgraph.graph_updates_per_query", "count"},
    {"itgraph.build_world_ms", "ms"},
    {"itgraph.router_bytes", "bytes"},
    {"update.apply_p50_us", "us"},
    {"update.apply_p99_us", "us"},
    {"update.queue_wait_p50_us", "us"},
    {"update.first_read_after_us", "us"},
    {"update.rejected", "count"},
    {"artifact.pack_ms_per_venue", "ms"},
    {"artifact.register_ms", "ms"},
    {"artifact.load_p50_us", "us"},
    {"artifact.load_p99_us", "us"},
    {"artifact.loads_per_request", "ratio"},
    {"artifact.bytes_per_venue", "bytes"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out PATH] "
               "[--work-dir DIR] [--corrupt-expected]\n",
               why.c_str());
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-expected") {
      o.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) Usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  return o;
}

Outcome Dispatch(const Options& o) {
  if (o.workload == "rpc_interactive") return RunRpcInteractive(o);
  if (o.workload == "rpc_batch") return RunRpcBatch(o);
  if (o.workload == "search_families") return RunSearchFamilies(o);
  if (o.workload == "live_updates") return RunLiveUpdates(o);
  if (o.workload == "cold_fleet") return RunColdFleet(o);
  Usage("unknown workload " + o.workload);
}

void AddOrDie(Report* report, const char* name, double value,
              const char* unit) {
  if (!report->Add(name, value, unit)) {
    Die(std::string("metric ") + name + " rejected (bad name/unit, duplicate "
        "or non-finite value " + std::to_string(value) + ")");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = Parse(argc, argv);
  const CpuTimes cpu_before = ReadCpuTimes();
  Outcome out = Dispatch(o);
  const CpuTimes cpu_after = ReadCpuTimes();
  if (cpu_after.total > cpu_before.total) {
    out.notes.push_back(
        "cpu steal " +
        std::to_string(100.0 *
                       static_cast<double>(cpu_after.steal - cpu_before.steal) /
                       static_cast<double>(cpu_after.total - cpu_before.total)) +
        "% of host cpu time during the run");
  }

  Report report;
  if (o.trace) {
    for (const auto& [layer, us] : MeanSelfMicrosByLayer(out.spans)) {
      out.layers["trace.self_us." + layer] = us;
    }
    for (const MetricSpec& m : kPerLayer) {
      const auto it = out.layers.find(m.name);
      AddOrDie(&report, m.name, it == out.layers.end() ? 0 : it->second,
               m.unit);
    }
    if (!o.trace_out.empty()) {
      if (WriteChromeTrace(o.trace_out, out.spans)) {
        std::fprintf(stderr, "wrote %zu spans to %s\n", out.spans.size(),
                     o.trace_out.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", o.trace_out.c_str());
      }
    }
  } else {
    const EndToEnd& e = out.e2e;
    const double values[] = {e.setup_s,    e.peak_rss_mb,    e.ok_frac,
                             e.lat_p50_us, e.throughput_qps, e.update_p50_us};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      AddOrDie(&report, kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
  }

  const bool correct = out.mismatches == 0 && out.violations.empty();
  std::fprintf(stderr, "== perfbench %s seed %llu, %.3g s, trace %d ==\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               o.seconds, o.trace ? 1 : 0);
  for (const Metric& m : report.metrics()) {
    std::fprintf(stderr, "  %-34s %14.3f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& note : out.notes) {
    std::fprintf(stderr, "  note: %s\n", note.c_str());
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu\n",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  if (out.mismatches > 0) {
    std::fprintf(stderr, "  ANSWER MISMATCHES: %llu (first: %s)\n",
                 static_cast<unsigned long long>(out.mismatches),
                 out.first_mismatch.c_str());
  }
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "  LEDGER VIOLATION: %s\n", v.c_str());
  }
  std::printf("%s\n", report.ToJson(correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
