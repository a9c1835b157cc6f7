// Prometheus text exposition: renderer + strict parser, with the round-trip
// guarantee the admin STATS verb relies on — parse(render(snap)) == snap.
#include "obs/prom.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "support/prom_parse.h"

namespace hds::obs {
namespace {

void populate(MetricsRegistry& reg) {
  reg.counter("requests_total").inc(41);
  reg.counter("requests_total", {{"verb", "STATS"}}).inc(7);
  reg.counter("requests_total", {{"verb", "STATUS"}}).inc(2);
  reg.gauge("qos_window_quorum_margin_min").set(-1);
  reg.gauge("uptime_ms", {{"node", "0"}}).set(12345);
  Histogram& h = reg.histogram("latency_ms", {1, 2, 4, 8});
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(100);  // overflow bucket
}

TEST(Prom, RoundTripsAFullRegistrySnapshot) {
  MetricsRegistry reg;
  populate(reg);
  const MetricsSnapshot snap = reg.snapshot();
  const std::string text = prometheus_text(snap);
  const MetricsSnapshot parsed = prometheus_parse(text);
  EXPECT_EQ(parsed, snap);
  // And the fixed point holds: rendering the parse reproduces the text.
  EXPECT_EQ(prometheus_text(parsed), text);
}

TEST(Prom, RendersCumulativeBucketsWithInfAndTypeLines) {
  MetricsRegistry reg;
  populate(reg);
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("requests_total{verb=\"STATS\"} 7"), std::string::npos);
  // Cumulative: le="4" covers the two 3s and the 1.
  EXPECT_NE(text.find("latency_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"4\"} 3"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 4"), std::string::npos);
  EXPECT_NE(text.find("qos_window_quorum_margin_min -1"), std::string::npos);
}

TEST(Prom, EscapedLabelValuesSurviveTheRoundTrip) {
  MetricsRegistry reg;
  reg.counter("odd_total", {{"path", "a\\b\"c\nd"}}).inc(3);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot parsed = prometheus_parse(prometheus_text(snap));
  EXPECT_EQ(parsed, snap);
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].labels.at("path"), "a\\b\"c\nd");
}

TEST(Prom, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  EXPECT_EQ(prometheus_parse(prometheus_text(empty)), empty);
}

TEST(Prom, ParserRejectsUntypedSeries) {
  EXPECT_THROW(prometheus_parse("foo_total 3\n"), PromParseError);
}

TEST(Prom, ParserRejectsNonIntegerValues) {
  // The dialect is integer-only by design: that is what makes the strict
  // round-trip equality possible.
  EXPECT_THROW(prometheus_parse("# TYPE x gauge\nx 1.5\n"), PromParseError);
  EXPECT_THROW(prometheus_parse("# TYPE x gauge\nx NaN\n"), PromParseError);
  EXPECT_THROW(prometheus_parse("# TYPE x gauge\nx 1e3\n"), PromParseError);
}

TEST(Prom, ParserRejectsDuplicateScalarSeries) {
  EXPECT_THROW(prometheus_parse("# TYPE x counter\nx 1\nx 2\n"), PromParseError);
}

TEST(Prom, ParserRejectsMalformedHistograms) {
  // No +Inf bucket.
  EXPECT_THROW(prometheus_parse("# TYPE h histogram\n"
                                "h_bucket{le=\"1\"} 1\n"
                                "h_sum 1\n"
                                "h_count 1\n"),
               PromParseError);
  // Cumulative counts must be monotone.
  EXPECT_THROW(prometheus_parse("# TYPE h histogram\n"
                                "h_bucket{le=\"1\"} 2\n"
                                "h_bucket{le=\"+Inf\"} 1\n"
                                "h_sum 1\n"
                                "h_count 1\n"),
               PromParseError);
  // _count must match the +Inf bucket.
  EXPECT_THROW(prometheus_parse("# TYPE h histogram\n"
                                "h_bucket{le=\"1\"} 1\n"
                                "h_bucket{le=\"+Inf\"} 2\n"
                                "h_sum 1\n"
                                "h_count 3\n"),
               PromParseError);
}

TEST(Prom, ParseErrorsCarryTheLineNumber) {
  try {
    (void)prometheus_parse("# TYPE a counter\na 1\nbogus line here\n");
    FAIL() << "expected PromParseError";
  } catch (const PromParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

}  // namespace
}  // namespace hds::obs
