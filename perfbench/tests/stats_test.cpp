// Hand-computed checks of the benchmark's helpers (src/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {  // unsorted on purpose
    v.push_back(i);
  }
  return v;
}

TEST(Median, LowerMiddleForEvenCounts) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Tail, KeepsTenSamplesBeyondTheRank) {
  // 1..40: rank 40-1-10 = 29 holds the value 30; 31..40 lie beyond it.
  const Tail t = tail(one_to(40));
  EXPECT_EQ(t.value, 30.0);
  EXPECT_DOUBLE_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.samples, 40u);
}

TEST(Tail, ElevenSamplesGiveTheMinimum) {
  const Tail t = tail(one_to(11));
  EXPECT_EQ(t.value, 1.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0 / 11.0);
}

TEST(Tail, TooFewSamplesFallBackToTheMedian) {
  const Tail t = tail(one_to(10));
  EXPECT_EQ(t.value, 5.0);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.samples, 10u);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Tail, HonoursACustomMinimum) {
  // 1..100 with 1 sample beyond: rank 98 (value 99), the 99th percentile.
  const Tail t = tail(one_to(100), 1);
  EXPECT_EQ(t.value, 99.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
}

TEST(Ratios, MissCountsLateFailedDroppedAndRejected) {
  Outcomes o;
  o.offered = 40;
  o.served = 30;
  o.late = 3;
  o.failed = 4;
  o.dropped = 2;
  o.rejected = 4;
  EXPECT_DOUBLE_EQ(miss_ratio(o), 13.0 / 40.0);
  EXPECT_DOUBLE_EQ(failed_ratio(o), 10.0 / 40.0);
}

TEST(Ratios, LateFramesAreNotFailures) {
  Outcomes o;
  o.offered = 8;
  o.served = 8;
  o.late = 2;
  EXPECT_DOUBLE_EQ(miss_ratio(o), 0.25);
  EXPECT_EQ(failed_ratio(o), 0.0);
}

TEST(Ratios, NothingOfferedIsZero) {
  EXPECT_EQ(miss_ratio(Outcomes{}), 0.0);
  EXPECT_EQ(failed_ratio(Outcomes{}), 0.0);
}

TEST(MemoHitRatio, CountsRequestsServedWithoutAPipelineRun) {
  EXPECT_DOUBLE_EQ(memo_hit_ratio(200, 4), 196.0 / 200.0);
  EXPECT_EQ(memo_hit_ratio(4, 4), 0.0);
  EXPECT_EQ(memo_hit_ratio(0, 0), 0.0);
  // More runs than requests (e.g. retried passes) clamps at zero.
  EXPECT_EQ(memo_hit_ratio(3, 5), 0.0);
}

}  // namespace
}  // namespace perfbench
