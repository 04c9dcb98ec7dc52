// Metrics registry: metric kinds, label identity, histogram bucketing,
// and the JSON exporter (validated by re-parsing through obs::json).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "obs/json.h"

namespace fdet::obs {
namespace {

TEST(MetricsLabels, FormatIsOrderedKeyValueList) {
  EXPECT_EQ(format_labels({}), "");
  EXPECT_EQ(format_labels({{"mode", "serial"}}), "mode=serial");
  EXPECT_EQ(format_labels({{"b", "2"}, {"a", "1"}}), "b=2,a=1");
}

TEST(MetricsRegistry, CounterAccumulatesAndIsIdentityStable) {
  Registry registry;
  Counter& c = registry.counter("launches", {{"mode", "serial"}});
  c.add(3.0);
  c.increment();
  EXPECT_DOUBLE_EQ(c.value(), 4.0);
  // Same (name, labels) -> same instance; different labels -> distinct.
  EXPECT_EQ(&registry.counter("launches", {{"mode", "serial"}}), &c);
  Counter& other = registry.counter("launches", {{"mode", "concurrent"}});
  EXPECT_NE(&other, &c);
  EXPECT_DOUBLE_EQ(other.value(), 0.0);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, GaugeKeepsLastValue) {
  Registry registry;
  Gauge& g = registry.gauge("makespan_ms");
  g.set(4.2);
  g.set(3.1);
  EXPECT_DOUBLE_EQ(g.value(), 3.1);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), core::CheckError);
  EXPECT_THROW(registry.histogram("x", {1.0}), core::CheckError);
}

TEST(MetricsHistogram, BucketCountsAreCumulativeWithImplicitInf) {
  Registry registry;
  Histogram& h = registry.histogram("latency", {1.0, 5.0, 10.0});
  h.observe(0.5);
  h.observe(1.0);   // boundary value counts as <= bound
  h.observe(7.0);
  h.observe(100.0, 2.0);  // weighted observation into +inf
  EXPECT_DOUBLE_EQ(h.count(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 7.0 + 200.0);
  const std::vector<double> cumulative = h.bucket_counts();
  ASSERT_EQ(cumulative.size(), 4u);  // 3 bounds + inf
  EXPECT_DOUBLE_EQ(cumulative[0], 2.0);
  EXPECT_DOUBLE_EQ(cumulative[1], 2.0);
  EXPECT_DOUBLE_EQ(cumulative[2], 3.0);
  EXPECT_DOUBLE_EQ(cumulative[3], 5.0);
}

TEST(MetricsHistogram, LinearBuckets) {
  const std::vector<double> bounds = linear_buckets(0.0, 2.0, 3);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
}

TEST(MetricsRegistry, SamplesAreSortedAndComplete) {
  Registry registry;
  registry.gauge("zeta").set(1.0);
  registry.counter("alpha", {{"k", "2"}}).add(2.0);
  registry.counter("alpha", {{"k", "1"}}).add(1.0);
  const auto samples = registry.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(format_labels(samples[0].labels), "k=1");
  EXPECT_EQ(samples[1].name, "alpha");
  EXPECT_EQ(format_labels(samples[1].labels), "k=2");
  EXPECT_EQ(samples[2].name, "zeta");
  EXPECT_EQ(samples[2].kind, "gauge");
}

TEST(MetricsRegistry, JsonExportRoundTripsThroughParser) {
  Registry registry;
  registry.gauge("vgpu.sm_utilization", {{"mode", "serial"}}).set(0.75);
  registry.histogram("depth", {1.0, 2.0}).observe(1.5);
  const json::Value doc = json::parse(registry.to_json());
  const auto& metrics = doc.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 2u);
  // Sorted by name: depth < vgpu.sm_utilization.
  EXPECT_EQ(metrics[0].at("name").as_string(), "depth");
  EXPECT_EQ(metrics[0].at("kind").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(metrics[0].at("count").as_number(), 1.0);
  ASSERT_EQ(metrics[0].at("buckets").as_array().size(), 3u);
  EXPECT_EQ(metrics[1].at("name").as_string(), "vgpu.sm_utilization");
  EXPECT_DOUBLE_EQ(metrics[1].at("value").as_number(), 0.75);
  EXPECT_EQ(metrics[1].at("labels").at("mode").as_string(), "serial");
}

TEST(MetricsRegistry, JsonExportKeepsCommasInLabelValues) {
  Registry registry;
  registry.counter("n", {{"a", "x,y"}}).add(2.0);
  const json::Value doc = json::parse(registry.to_json());
  const json::Value& metric = doc.at("metrics").as_array()[0];
  EXPECT_EQ(metric.at("name").as_string(), "n");
  EXPECT_EQ(metric.at("kind").as_string(), "counter");
  EXPECT_EQ(metric.at("labels").at("a").as_string(), "x,y");
  EXPECT_DOUBLE_EQ(metric.at("value").as_number(), 2.0);
}

TEST(MetricsHistogram, ExportersEmitCumulativeBuckets) {
  // Regression test for the bucket-count convention (see metrics.h): all
  // exported surfaces are cumulative; only the internal accumulation
  // buffer is per-bucket. Hand-computed: observations 0.5, 3.0, 3.0, 7.0
  // against bounds {1, 5} land per-bucket {1, 2, 1(inf)}, so the
  // cumulative export must read {1, 3, 4}.
  Registry registry;
  Histogram& h = registry.histogram("lat", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0, 2.0);
  h.observe(7.0);

  const std::vector<double> expected = {1.0, 3.0, 4.0};
  EXPECT_EQ(h.bucket_counts(), expected);

  const auto samples = registry.samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].bucket_counts, expected);

  const json::Value doc = json::parse(registry.to_json());
  const auto& buckets = doc.at("metrics").as_array()[0].at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(buckets[2].at("count").as_number(), 4.0);
  EXPECT_EQ(buckets[2].at("le").as_string(), "inf");
  // The +inf bucket equals the total count in a cumulative scheme.
  EXPECT_DOUBLE_EQ(buckets[2].at("count").as_number(),
                   doc.at("metrics").as_array()[0].at("count").as_number());
}

TEST(MetricsRegistry, CardinalityCapThrowsTypedError) {
  Registry registry;
  registry.set_series_limit(2);
  EXPECT_EQ(registry.series_limit(), 2u);
  registry.counter("a").increment();
  registry.gauge("b").set(1.0);
  // A third *new* series blows the cap with the typed error...
  EXPECT_THROW(registry.counter("c"), MetricCardinalityError);
  // ...which is also a core::CheckError, so generic handlers still work.
  try {
    registry.counter("c", {{"leaky", "label"}});
    FAIL() << "expected MetricCardinalityError";
  } catch (const core::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("c{leaky=label}"), std::string::npos)
        << "error must name the offending series: " << what;
    EXPECT_NE(what.find("2"), std::string::npos);
  }
  // Existing series stay writable after the refusal.
  registry.counter("a").increment();
  EXPECT_DOUBLE_EQ(registry.counter("a").value(), 2.0);
  EXPECT_EQ(registry.size(), 2u);
  // Raising the limit unblocks creation.
  registry.set_series_limit(3);
  registry.counter("c").increment();
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, DefaultSeriesLimitIsGenerousButFinite) {
  Registry registry;
  EXPECT_EQ(registry.series_limit(), Registry::kDefaultSeriesLimit);
  EXPECT_THROW(registry.set_series_limit(0), core::CheckError);
}

TEST(MetricsRegistry, ConcurrentWritersLoseNoIncrements) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  Registry registry;
  Counter& shared = registry.counter("shared");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &shared, t] {
      // Each thread hammers the shared counter and its own series, so
      // both the per-metric add() path and the registry's series-creation
      // path run under contention.
      Counter& own =
          registry.counter("per_thread", {{"t", std::to_string(t)}});
      for (int i = 0; i < kIncrements; ++i) {
        shared.increment();
        own.increment();
        registry.gauge("last_writer").set(static_cast<double>(t));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_DOUBLE_EQ(shared.value(),
                   static_cast<double>(kThreads * kIncrements));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_DOUBLE_EQ(
        registry.counter("per_thread", {{"t", std::to_string(t)}}).value(),
        static_cast<double>(kIncrements));
  }
  // shared + last_writer + one series per thread.
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kThreads) + 2);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), core::CheckError);
  EXPECT_THROW(json::parse("[1, 2,]"), core::CheckError);
  EXPECT_THROW(json::parse("nulL"), core::CheckError);
  EXPECT_THROW(json::parse("{}extra"), core::CheckError);
}

TEST(ObsJson, EscapeAndNumberFormatting) {
  EXPECT_EQ(json::escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json::number(3.0), "3");
  EXPECT_EQ(json::number(-41.0), "-41");
  const json::Value v = json::parse(json::number(0.125));
  EXPECT_DOUBLE_EQ(v.as_number(), 0.125);
}

TEST(ObsJson, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
  // Value::dump goes through the same formatter.
  EXPECT_EQ(json::Value::make_number(std::nan("")).dump(), "null");
}

TEST(ObsJson, RegistryWithNonFiniteValuesStaysParseable) {
  // Degenerate ratios (0/0 utilization on an empty timeline, say) must
  // not produce an unparseable metrics file or run record.
  Registry registry;
  registry.gauge("ratio").set(std::nan(""));
  registry.gauge("rate").set(std::numeric_limits<double>::infinity());
  registry.gauge("ok").set(1.5);

  const json::Value doc = json::parse(registry.to_json());
  const auto& metrics = doc.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(metrics[0].at("value").as_number(), 1.5);   // "ok"
  EXPECT_TRUE(metrics[1].at("value").is_null());               // "rate"
  EXPECT_TRUE(metrics[2].at("value").is_null());               // "ratio"
}

}  // namespace
}  // namespace fdet::obs
