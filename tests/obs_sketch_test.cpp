// Quantile sketches: bucket layout, the documented relative-error bound,
// merge associativity, sliding-window rotation boundaries, and agreement
// with exact percentiles on the committed BENCH_fig5.json values.
#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.h"
#include "obs/json.h"
#include "obs/runrecord.h"

namespace fdet::obs {
namespace {

/// Exact quantile matching the sketch's rank convention: the smallest
/// value whose rank covers q * n observations.
double exact_quantile(std::vector<double> values, double q) {
  FDET_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double target = q * static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(target));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

TEST(QuantileSketch, BucketLayoutIsGeometricAndMonotonic) {
  // Zero bucket: everything at or below the minimum, including garbage.
  EXPECT_EQ(QuantileSketch::bucket_index(0.0), 0);
  EXPECT_EQ(QuantileSketch::bucket_index(-3.0), 0);
  EXPECT_EQ(QuantileSketch::bucket_index(kSketchMinValue), 0);
  EXPECT_EQ(QuantileSketch::bucket_index(std::nan("")), 0);
  // Indices never decrease with the value and clamp at the last bucket.
  int last = 0;
  for (double v = kSketchMinValue; v < 1e9; v *= 1.7) {
    const int index = QuantileSketch::bucket_index(v);
    EXPECT_GE(index, last);
    EXPECT_LT(index, kSketchMaxBuckets);
    last = index;
  }
  EXPECT_EQ(QuantileSketch::bucket_index(1e300), kSketchMaxBuckets - 1);
  EXPECT_EQ(QuantileSketch().buckets().size(),
            static_cast<std::size_t>(kSketchMaxBuckets));
}

TEST(QuantileSketch, QuantilesHonorTheDocumentedErrorBound) {
  QuantileSketch sketch;
  std::vector<double> values;
  // Log-uniform latencies across five decades — the span the sketch is
  // built for (0.01 ms .. 1 s).
  for (int i = 0; i < 5000; ++i) {
    const double v = 0.01 * std::pow(10.0, 5.0 * i / 5000.0);
    values.push_back(v);
    sketch.observe(v);
  }
  const double bound = sketch.max_relative_error();
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double estimate = sketch.quantile(q);
    EXPECT_NEAR(estimate, exact, bound * exact + 1e-12)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
  EXPECT_DOUBLE_EQ(sketch.count(), 5000.0);
  EXPECT_DOUBLE_EQ(sketch.max_observed(), values.back());
}

TEST(QuantileSketch, MergeIsAssociativeAndMatchesBulkObserve) {
  const auto fill = [](QuantileSketch& sketch, int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      sketch.observe(0.5 + 0.01 * i);
    }
  };
  QuantileSketch a, b, c, bulk;
  fill(a, 0, 100);
  fill(b, 100, 350);
  fill(c, 350, 600);
  fill(bulk, 0, 600);

  // (a + b) + c
  QuantileSketch left = a;
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  QuantileSketch right = b;
  right.merge(c);
  QuantileSketch right_total = a;
  right_total.merge(right);

  EXPECT_EQ(left.buckets(), right_total.buckets());
  EXPECT_EQ(left.buckets(), bulk.buckets());
  EXPECT_DOUBLE_EQ(left.count(), bulk.count());
  EXPECT_DOUBLE_EQ(left.sum(), bulk.sum());
  EXPECT_DOUBLE_EQ(left.max_observed(), bulk.max_observed());
  for (const double q : {0.25, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), bulk.quantile(q));
    EXPECT_DOUBLE_EQ(right_total.quantile(q), bulk.quantile(q));
  }
}

TEST(QuantileSketch, EmptySketchThrowsOnQuantile) {
  const QuantileSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_THROW(sketch.quantile(0.5), core::CheckError);
}

TEST(QuantileSketch, WeightedObservationsCountFully) {
  QuantileSketch sketch;
  sketch.observe(10.0, 3.0);
  sketch.observe(20.0, 1.0);
  EXPECT_DOUBLE_EQ(sketch.count(), 4.0);
  EXPECT_DOUBLE_EQ(sketch.sum(), 50.0);
  // 3 of 4 observations are 10.0, so p50 lands in 10's bucket.
  EXPECT_NEAR(sketch.quantile(0.5), 10.0,
              sketch.max_relative_error() * 10.0 + 1e-12);
}

TEST(SlidingWindowSketch, RotationEvictsExactlyTheOldestSlot) {
  SlidingWindowSketch window(3);
  window.observe(1.0);  // slot A
  window.rotate();
  window.observe(2.0);  // slot B
  window.rotate();
  window.observe(3.0);  // slot C
  EXPECT_DOUBLE_EQ(window.count(), 3.0);

  // Boundary: slot A's value survives exactly slots-1 rotations.
  window.rotate();  // evicts slot A
  EXPECT_DOUBLE_EQ(window.count(), 2.0);
  EXPECT_GT(window.merged().quantile(0.0), 1.5);  // 1.0 is gone

  window.rotate();  // evicts slot B
  EXPECT_DOUBLE_EQ(window.count(), 1.0);
  window.rotate();  // evicts slot C: the window is now empty
  EXPECT_TRUE(window.empty());
  EXPECT_EQ(window.rotations(), 5u);
  EXPECT_THROW(window.merged().quantile(0.5), core::CheckError);
}

TEST(SlidingWindowSketch, MergedAgreesWithSingleSketchOverLiveSlots) {
  SlidingWindowSketch window(4);
  QuantileSketch reference;
  for (int i = 0; i < 200; ++i) {
    const double v = 1.0 + 0.05 * i;
    window.observe(v);
    reference.observe(v);
    if ((i + 1) % 60 == 0) {
      window.rotate();  // stays within 4 slots: nothing evicted yet
    }
  }
  ASSERT_DOUBLE_EQ(window.count(), reference.count());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(window.merged().quantile(q), reference.quantile(q));
  }
}

TEST(SlidingWindowSketch, SingleSlotWindowClearsOnEveryRotation) {
  SlidingWindowSketch window(1);
  window.observe(5.0);
  EXPECT_DOUBLE_EQ(window.count(), 1.0);
  window.rotate();
  EXPECT_TRUE(window.empty());
}

// The accuracy claim the SLO engine relies on, validated against real
// repo data: the sketch over every value of the committed fig5 run
// record inside a fixed range must reproduce their exact percentiles
// within max_relative_error().
TEST(QuantileSketch, AgreesWithExactPercentilesOnCommittedFig5Samples) {
  const std::string path = std::string(FDET_SOURCE_DIR) + "/BENCH_fig5.json";
  const RunRecord record = RunRecord::load_file(path);
  ASSERT_FALSE(record.metrics.empty());

  // The relative-error guarantee holds between the zero bucket and the
  // clamping last bucket (as documented on kSketchMaxBuckets), which the
  // layout puts at ~7.7e5 (13 virtual minutes in ms). The record mixes
  // milliseconds with launch/byte totals up to ~1e10; the range below is
  // fixed, so a narrower layout fails the clamp check instead of
  // dropping samples.
  constexpr double kLargestSample = 7e5;
  QuantileSketch sketch;
  std::vector<double> values;
  for (const MetricSeries& series : record.metrics) {
    if (std::isfinite(series.value) && series.value > kSketchMinValue &&
        series.value <= kLargestSample) {
      values.push_back(series.value);
      sketch.observe(series.value);
    }
  }
  ASSERT_GT(values.size(), 100u) << "fig5 record unexpectedly small";
  ASSERT_LT(QuantileSketch::bucket_index(sketch.max_observed()),
            kSketchMaxBuckets - 1)
      << "samples clamp into the last bucket: the layout covers less than "
      << kLargestSample;

  const double bound = sketch.max_relative_error();
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(values, q);
    const double estimate = sketch.quantile(q);
    EXPECT_LE(std::abs(estimate - exact), bound * exact + 1e-12)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate
        << " documented bound=" << bound;
  }
}

}  // namespace
}  // namespace fdet::obs
