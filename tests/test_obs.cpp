/// Tests for the observability registry (src/obs): enable gating,
/// scoped spans, counters/gauges/histograms with their Prometheus text
/// exposition, thread lanes, and the per-rank trace merger's clock
/// alignment and normalization.
///
/// The registry is process-global, so every test that enables it cleans
/// up with clear() + set_enabled(false).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"
#include "support/error.hpp"

namespace bstc::obs {
namespace {

struct RegistryGuard {
  ~RegistryGuard() {
    Registry::instance().clear();
    Registry::instance().set_enabled(false);
  }
};

TEST(Obs, RecordIsANoOpWhileDisabled) {
  RegistryGuard guard;
  Registry& reg = Registry::instance();
  reg.clear();
  ASSERT_FALSE(reg.enabled());
  reg.record(Category::kTask, "ignored", 0, 0.0, 1.0);
  { ScopedSpan span(Category::kTask, "also ignored"); }
  EXPECT_TRUE(reg.spans().empty());
}

TEST(Obs, ScopedSpanRecordsIntervalOnTheThreadLane) {
  RegistryGuard guard;
  Registry& reg = Registry::instance();
  reg.clear();
  reg.set_enabled(true);
  {
    ScopedSpan span(Category::kCommTx, "tx(test)", 128);
  }
  const std::vector<Span> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "tx(test)");
  EXPECT_EQ(spans[0].category, Category::kCommTx);
  EXPECT_EQ(spans[0].bytes, 128u);
  EXPECT_EQ(spans[0].lane, thread_lane());
  EXPECT_GE(spans[0].end_s, spans[0].start_s);
}

TEST(Obs, RecordWithRunsTheCallbackEvenWhileDisabled) {
  RegistryGuard guard;
  Registry& reg = Registry::instance();
  reg.clear();
  ASSERT_FALSE(reg.enabled());
  // The counter side of a comm instrumentation point must never be
  // gated on tracing: counters are always on, spans are opt-in.
  bool ran = false;
  reg.record_with(Category::kCommTx, "tx", 0, 0.0, 1.0, 64,
                  [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(reg.spans().empty());
  reg.set_enabled(true);
  reg.record_with(Category::kCommTx, "tx", 0, 0.0, 1.0, 64, [] {});
  EXPECT_EQ(reg.spans().size(), 1u);
}

TEST(Obs, ThreadLanesAreStableAndDistinct) {
  const std::uint32_t mine = thread_lane();
  EXPECT_GE(mine, kThreadLaneBase);
  EXPECT_EQ(thread_lane(), mine);  // stable within a thread
  std::uint32_t other = 0;
  std::thread t([&] { other = thread_lane(); });
  t.join();
  EXPECT_NE(other, mine);
}

TEST(Obs, PrometheusTextExposesCountersGaugesAndHistograms) {
  RegistryGuard guard;
  Registry& reg = Registry::instance();
  reg.clear();
  reg.counter_add("bstc_test_events_total", 3);
  reg.gauge_set("bstc_test_depth", 7);
  // 2 bins over [0, 1): samples 0.1 (bin 0) and 0.9 (bin 1).
  reg.observe("bstc_test_latency_seconds", 0.1, 0.0, 1.0, 2);
  reg.observe("bstc_test_latency_seconds", 0.9, 0.0, 1.0, 2);

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("bstc_test_events_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("bstc_test_depth 7\n"), std::string::npos);
  EXPECT_NE(
      text.find("bstc_test_latency_seconds_bucket{le=\"0.5\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_sum 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_count 2\n"),
            std::string::npos);
  // Span volume appears only when tracing is on.
  EXPECT_EQ(text.find("bstc_obs_spans_total"), std::string::npos);
  reg.set_enabled(true);
  reg.record(Category::kTask, "t", 0, 0.0, 1.0);
  const std::string traced = prometheus_text(reg);
  EXPECT_NE(traced.find("bstc_obs_spans_total{category=\"task\"} 1\n"),
            std::string::npos);
}

TEST(Obs, HistogramSamplesAboveTheRangeCountOnlyInInf) {
  RegistryGuard guard;
  Registry& reg = Registry::instance();
  reg.clear();
  // 2 bins over [0, 1]: 3 s lies past the last finite edge, 1 s on it,
  // and -1 below the first (which every cumulative bucket holds).
  reg.observe("bstc_test_wait_seconds", 3.0, 0.0, 1.0, 2);
  reg.observe("bstc_test_wait_seconds", 1.0, 0.0, 1.0, 2);
  reg.observe("bstc_test_wait_seconds", -1.0, 0.0, 1.0, 2);

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("bstc_test_wait_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bstc_test_wait_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bstc_test_wait_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bstc_test_wait_seconds_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("bstc_test_wait_seconds_count 3\n"), std::string::npos);
}

TEST(Obs, LabelRankPutsTheRankFirstOnEverySeries) {
  // Plain series.
  EXPECT_EQ(label_rank("bstc_x_total 3\n", 3),
            "bstc_x_total{rank=\"3\"} 3\n");
  // An existing label set keeps its labels after the rank.
  EXPECT_EQ(
      label_rank("bstc_tune_active_buckets{kernel=\"avx2-8x6\"} 4\n", 3),
      "bstc_tune_active_buckets{rank=\"3\",kernel=\"avx2-8x6\"} 4\n");
  // Histogram buckets, including +Inf.
  EXPECT_EQ(label_rank("bstc_h_bucket{le=\"+Inf\"} 2\n", 0),
            "bstc_h_bucket{rank=\"0\",le=\"+Inf\"} 2\n");
  EXPECT_EQ(label_rank("bstc_obs_spans_total{category=\"task\"} 1\n", 12),
            "bstc_obs_spans_total{rank=\"12\",category=\"task\"} 1\n");
  // Several lines, comments and blanks kept, a bare series labelled too.
  EXPECT_EQ(label_rank("# c\na 1\n\nb 2", 1),
            "# c\na{rank=\"1\"} 1\n\nb{rank=\"1\"} 2");
  EXPECT_EQ(label_rank("bstc_x_total", 2), "bstc_x_total{rank=\"2\"}");
  EXPECT_EQ(label_rank("bstc_g{a=\"x\"}", 2),
            "bstc_g{rank=\"2\",a=\"x\"}");
}

TEST(Obs, SeriesValueReadsOneSeriesAndRejectsMalformedText) {
  const std::string text =
      "bstc_x_total 3\n"
      "bstc_h_bucket{le=\"+Inf\"} 7\n"
      "bstc_obs_spans_total{rank=\"3\",category=\"task\"} 41\n"
      "bstc_g 2.5e-3\n";
  EXPECT_EQ(series_value(text, "bstc_x_total"), 3.0);
  EXPECT_EQ(series_value(text, "bstc_h_bucket{le=\"+Inf\"}"), 7.0);
  EXPECT_EQ(
      series_value(text,
                   label_rank("bstc_obs_spans_total{category=\"task\"}", 3)),
      41.0);
  EXPECT_EQ(series_value(text, "bstc_g"), 2.5e-3);
  // Absent series — and a name that is only a prefix of one — read 0.
  EXPECT_EQ(series_value(text, "bstc_absent_total"), 0.0);
  EXPECT_EQ(series_value(text, "bstc_x"), 0.0);
  EXPECT_EQ(series_value(text, "bstc_h_bucket"), 0.0);
  // A malformed line anywhere in the text throws.
  EXPECT_THROW(series_value(text + "bstc_y_total 12abc\n", "bstc_x_total"),
               Error);
  EXPECT_THROW(series_value("bstc_y_total\n", "bstc_x_total"), Error);
  EXPECT_THROW(series_value("bstc_y_total \n", "bstc_x_total"), Error);
  EXPECT_THROW(series_value("bstc_y{a=\"x\" 1\n", "bstc_x_total"), Error);
}

TEST(Obs, MergeAlignsClocksSortsAndNormalizes) {
  // Rank 1's clock runs 10 s ahead of rank 0's: its span at local 10.5
  // happened at 0.5 on rank 0's timeline — *before* rank 0's span at
  // 1.0. After normalization the earliest event is at ts 0.
  RankTrace r0;
  r0.rank = 0;
  r0.spans.push_back(Span{"late", Category::kTask, 0, 1.0, 1.5, 0});
  r0.wire_bytes_sent = 111;
  RankTrace r1;
  r1.rank = 1;
  r1.clock_offset_s = 10.0;
  r1.spans.push_back(Span{"early", Category::kCommTx, 3, 10.5, 10.6, 42});
  r1.lane_names[3] = "net";

  const std::string json = merge_traces_json({r0, r1});
  // Sorted: the corrected-early event is emitted before the late one.
  const std::size_t early = json.find("\"name\":\"early\"");
  const std::size_t late = json.find("\"name\":\"late\"");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  // Normalized: earliest event at ts 0; the late one 0.5 s = 5e5 us in.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500000.000"), std::string::npos);
  // Per-rank process metadata, lanes and wire counters.
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"net\"}"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_sent\":111"), std::string::npos);
  // Span payloads ride along for the exact-accounting cross-check.
  EXPECT_NE(json.find("\"args\":{\"bytes\":42}"), std::string::npos);
  // The early span belongs to pid 1 on lane 3.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":3"), std::string::npos);
}

}  // namespace
}  // namespace bstc::obs
