// Metrics registry: metric kinds, label identity, snapshots, the
// cardinality cap and concurrent writers; plus the obs::json parser and
// number formatting. What a registry persists is tested through its run
// record (obs_runrecord_test).
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

TEST(MetricsLabels, OrderIsTheFormattedOrderWhenNoValueHoldsASeparator) {
  // Keys and values around the separators' codes: '+' < ',' < '-' and
  // '0' < '=' < 'A'.
  const std::vector<std::string> texts = {"", "k", "k+", "k-", "k0", "kA"};
  std::vector<Labels> sets = {{}};
  for (const std::string& key : texts) {
    for (const std::string& value : texts) {
      sets.push_back({{key, value}});
      sets.push_back({{key, value}, {"k", "1"}});
    }
  }
  const auto sign = [](int v) { return (v > 0) - (v < 0); };
  for (const Labels& a : sets) {
    for (const Labels& b : sets) {
      EXPECT_EQ(sign(compare_labels(a, b)),
                sign(format_labels(a).compare(format_labels(b))))
          << format_labels(a) << " vs " << format_labels(b);
    }
  }
}

TEST(MetricsRegistry, LabelSetsThatFormatAlikeAreDistinctSeries) {
  // Both sets format as "a=x,b=y"; they are still two series.
  Registry registry;
  registry.counter("n", {{"a", "x,b=y"}}).add(1.0);
  registry.counter("n", {{"a", "x"}, {"b", "y"}}).add(2.0);
  const auto samples = registry.samples();
  ASSERT_EQ(samples.size(), 2u);
  // The inserted ',' sorts before the literal one.
  EXPECT_EQ(samples[0].labels, (Labels{{"a", "x"}, {"b", "y"}}));
  EXPECT_DOUBLE_EQ(samples[0].value, 2.0);
  EXPECT_EQ(samples[1].labels, (Labels{{"a", "x,b=y"}}));
  EXPECT_DOUBLE_EQ(samples[1].value, 1.0);
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
  EXPECT_EQ(registry.samples().size(), 2u);
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
  EXPECT_THROW(registry.histogram("x"), core::CheckError);
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

TEST(MetricsRegistry, CardinalityCapThrowsTypedError) {
  Registry registry;
  registry.counter("a").increment();
  registry.gauge("b").set(1.0);
  for (std::size_t i = 2; i < Registry::kDefaultSeriesLimit; ++i) {
    registry.counter("fill", {{"i", std::to_string(i)}});
  }
  ASSERT_EQ(registry.samples().size(), Registry::kDefaultSeriesLimit);
  // One more *new* series blows the cap with the typed error...
  EXPECT_THROW(registry.counter("c"), MetricCardinalityError);
  // ...which is also a core::CheckError, so generic handlers still work.
  try {
    registry.counter("c", {{"leaky", "label"}});
    FAIL() << "expected MetricCardinalityError";
  } catch (const core::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("c{leaky=label}"), std::string::npos)
        << "error must name the offending series: " << what;
    EXPECT_NE(what.find("4096"), std::string::npos);
  }
  // Existing series stay writable after the refusal.
  registry.counter("a").increment();
  registry.gauge("b").set(2.0);
  EXPECT_DOUBLE_EQ(registry.counter("a").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("b").value(), 2.0);
  EXPECT_EQ(registry.samples().size(), Registry::kDefaultSeriesLimit);
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
  EXPECT_EQ(registry.samples().size(),
            static_cast<std::size_t>(kThreads) + 2);
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

}  // namespace
}  // namespace fdet::obs
