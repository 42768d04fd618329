// Unit tests for the benchmark's own measurement machinery: raw-sample
// quantiles and their counts, due-time latency and generator lateness,
// the choice of quiet segments, span self times, and the metric naming
// rules.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "report.h"
#include "samples.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Quantile, NearestRankReturnsARecordedSample) {
  EXPECT_EQ(Quantile(OneTo(100), 0.5), 50);
  EXPECT_EQ(Quantile(OneTo(100), 0.99), 99);
  EXPECT_EQ(Quantile(OneTo(100), 1.0), 100);
  EXPECT_EQ(Quantile(OneTo(100), 0.0), 1);
  EXPECT_EQ(Quantile(OneTo(3), 0.5), 2);
  EXPECT_EQ(Quantile({7.5}, 0.99), 7.5);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

TEST(Summarize, ReportsCountsAndTheTailBeyondP99) {
  const Summary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p95, 950);
  EXPECT_EQ(s.p99, 990);
  // Ten samples (991..1000) lie beyond the p99 rank: the smallest set
  // for which a p99 is trustworthy.
  EXPECT_EQ(s.beyond_p99, 10u);

  const Summary small = Summarize(OneTo(100));
  EXPECT_EQ(small.beyond_p99, 1u);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(Summarize, IsNotABucketEdge) {
  // A power-of-two histogram would report 512 for both; raw samples
  // keep the difference.
  std::vector<double> a(100, 300.0), b(100, 500.0);
  EXPECT_EQ(Summarize(a).p50, 300);
  EXPECT_EQ(Summarize(b).p50, 500);
}

TEST(Timeline, LatencyCountsFromTheDueTime) {
  // Due at 1 ms, sent 3 ms late, answered 0.5 ms after sending.
  const Timeline t{1'000'000, 4'000'000, 4'500'000};
  EXPECT_DOUBLE_EQ(LatencyFromDueMicros(t), 3500);
  EXPECT_DOUBLE_EQ(SendLatenessMicros(t), 3000);
}

TEST(Timeline, AGeneratorStallIsChargedToEveryDelayedRequest) {
  // Requests due every 1 ms; the generator stalls 10 ms before the
  // third and then sends the backlog at once. Each answer takes 100 µs
  // after its send. Timed from the send, the stall would vanish.
  std::vector<Timeline> timeline;
  const int64_t ms = 1'000'000;
  for (int i = 0; i < 6; ++i) {
    const int64_t due = i * ms;
    const int64_t sent = i < 2 ? due : 12 * ms;
    timeline.push_back(Timeline{due, sent, sent + 100'000});
  }
  std::vector<double> from_due, late;
  for (const Timeline& t : timeline) {
    from_due.push_back(LatencyFromDueMicros(t));
    late.push_back(SendLatenessMicros(t));
  }
  EXPECT_DOUBLE_EQ(from_due[0], 100);
  EXPECT_DOUBLE_EQ(from_due[2], 10'100);
  EXPECT_DOUBLE_EQ(from_due[5], 7'100);
  EXPECT_DOUBLE_EQ(Summarize(late).p99, 10'000);
  EXPECT_DOUBLE_EQ(late[1], 0);
}

TEST(QuietSegments, KeepsTheFastestQuarterFastestFirst) {
  const std::vector<double> p50_us = {19, 11, 30, 10, 11, 40, 15, 12};
  EXPECT_EQ(QuietSegments(p50_us), (std::vector<size_t>{3, 1}));
  // Ties keep the earlier segment; a quarter rounds up; never empty.
  EXPECT_EQ(QuietSegments({5.0, 5.0, 5.0, 5.0, 5.0}),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(QuietSegments({0.4}), (std::vector<size_t>{0}));
  EXPECT_TRUE(QuietSegments({}).empty());
}

Span Make(const char* name, int64_t start, int64_t end, uint64_t id,
          uint64_t parent, uint64_t request = 1) {
  return Span{name, start, end, id, parent, request};
}

TEST(SelfTime, SubtractsChildrenFromTheParent) {
  const std::vector<Span> spans = {
      Make("driver.request", 0, 100, 1, 0),
      Make("net.encode", 10, 20, 2, 1),
      Make("server.wait", 30, 90, 3, 1),
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 10 - 60);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 60);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<Span> spans = {
      Make("driver.request", 100, 200, 1, 0),
      Make("a.x", 90, 130, 2, 1),   // clipped to [100, 130)
      Make("a.y", 120, 150, 3, 1),  // overlaps a.x: union [100, 150)
      Make("a.z", 180, 260, 4, 1),  // clipped to [180, 200)
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 50 - 20);
}

TEST(SelfTime, NestedSpansAndOrphans) {
  const std::vector<Span> spans = {
      Make("driver.request", 0, 100, 1, 0),
      Make("server.wait", 0, 80, 2, 1),
      Make("query.route", 10, 30, 3, 2),  // grandchild: counts against 2
      Make("net.decode", 0, 5, 9, 77),    // parent absent: its own root
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 60);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 5);
}

TEST(SelfTime, MeanPerLayerIsPerRootSpan) {
  std::vector<Span> spans;
  for (uint64_t r = 1; r <= 2; ++r) {
    spans.push_back(Make("driver.request", 0, 10'000, SpanId(r, 0), 0, r));
    spans.push_back(Make("net.write", 0, 4'000, SpanId(r, 1), SpanId(r, 0), r));
  }
  const auto by_layer = MeanSelfMicrosByLayer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("driver"), 6);
  EXPECT_DOUBLE_EQ(by_layer.at("net"), 4);
  EXPECT_EQ(LayerOf("server.reply_wait"), "server");
  EXPECT_EQ(LayerOf("bare"), "bare");
}

TEST(MetricNames, FollowTheCharset) {
  EXPECT_TRUE(IsValidMetricName("lat_p50_us"));
  EXPECT_TRUE(IsValidMetricName("query.route_us.p2p"));
  EXPECT_TRUE(IsValidMetricName("9lives-x"));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName(".hidden"));
  EXPECT_FALSE(IsValidMetricName("_x"));
  EXPECT_FALSE(IsValidMetricName("lat p50"));
  EXPECT_FALSE(IsValidMetricName("lat\"p50"));
  EXPECT_FALSE(IsValidMetricName("µs"));

  EXPECT_TRUE(IsValidUnit("us"));
  EXPECT_TRUE(IsValidUnit("q/s"));
  EXPECT_TRUE(IsValidUnit("%"));
  EXPECT_FALSE(IsValidUnit(""));
  EXPECT_FALSE(IsValidUnit("µs"));
  EXPECT_FALSE(IsValidUnit(std::string(17, 's')));
}

TEST(Report, RejectsBadAndDuplicateMetricsAndKeepsFullPrecision) {
  Report report;
  EXPECT_TRUE(report.Add("lat_p50_us", 1.0 / 3, "us"));
  EXPECT_FALSE(report.Add("lat_p50_us", 1, "us"));
  EXPECT_FALSE(report.Add("bad name", 1, "us"));
  EXPECT_FALSE(report.Add("nan_metric", std::nan(""), "us"));
  EXPECT_TRUE(report.Add("setup_s", 0.5, "s"));
  EXPECT_EQ(report.ToJson(true, 10, 1),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"lat_p50_us\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"us\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
            "\"s\"}}}");
}

}  // namespace
}  // namespace perfbench
