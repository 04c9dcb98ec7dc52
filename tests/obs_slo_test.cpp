// SLO engine: burn-rate arithmetic, window accounting, and the claim the
// serving layer rests on — the decision stream drives the
// DegradationLadder by the deadline rule exactly.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "serve/policy.h"

namespace fdet::obs {
namespace {

/// Published gauges whose name is `name`, as (labels, value) pairs.
std::vector<std::pair<Labels, double>> published(const Registry& registry,
                                                 const std::string& name) {
  std::vector<std::pair<Labels, double>> out;
  for (const Registry::Sample& sample : registry.samples()) {
    if (sample.name == name) {
      out.emplace_back(sample.labels, sample.value);
    }
  }
  return out;
}

TEST(SloEngine, SingleMissBurnsTheFastBudget) {
  SloEngine engine(40.0);
  const SloDecision good = engine.observe_frame(10.0);
  EXPECT_FALSE(good.miss);
  EXPECT_FALSE(good.degrade);
  EXPECT_DOUBLE_EQ(good.fast_burn, 0.0);

  const SloDecision miss = engine.observe_frame(41.0);
  EXPECT_TRUE(miss.miss);
  EXPECT_TRUE(miss.degrade);
  // fast window = 1 frame, miss ratio 1.0, budget 0.05 -> burn 20.
  EXPECT_DOUBLE_EQ(miss.fast_burn, 1.0 / kSloMissBudget);
  EXPECT_GT(miss.slow_burn, 0.0);
}

TEST(SloEngine, RecoverySignalNeedsAComfortableStreak) {
  // The rule's constants: 3 frames under 0.75 x deadline.
  ASSERT_EQ(kSloRecoverAfter, 3);
  ASSERT_DOUBLE_EQ(kSloRecoverFraction, 0.75);
  SloEngine engine(40.0);

  engine.observe_frame(50.0);  // miss resets everything
  // Two comfortable frames: no recover signal yet.
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
  // An in-budget but too-close frame (>= 0.75 * 40 = 30) resets the streak.
  EXPECT_FALSE(engine.observe_frame(35.0).recover);
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
  // Third consecutive comfortable frame fires the signal...
  EXPECT_TRUE(engine.observe_frame(10.0).recover);
  // ...and firing resets the streak: the next frame does not re-fire.
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
}

TEST(SloEngine, ResetRecoveryClearsTheStreakOnly) {
  SloEngine engine(40.0);
  engine.observe_frame(10.0);
  engine.observe_frame(10.0);
  engine.reset_recovery();  // breaker-forced serial fallback
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
  EXPECT_FALSE(engine.observe_frame(10.0).recover);
  EXPECT_TRUE(engine.observe_frame(10.0).recover);
  // Window statistics were untouched by the reset.
  EXPECT_EQ(engine.snapshot().frames, 5u);
}

// The rule the serving layer relies on (service.cpp and fleet.cpp drive
// the ladder from SloDecision): for any latency stream, the engine-driven
// ladder traces the deadline rule's level trajectory — a miss sheds one
// rung; a kSloRecoverAfter-long streak under kSloRecoverFraction *
// deadline climbs one, the streak resetting on a miss, on an in-budget
// frame near the edge, and when it fires.
TEST(SloEngine, DecisionsFollowTheDeadlineLadderRule) {
  const double deadline = 40.0;

  SloEngine engine(deadline);
  serve::DegradationLadder driven;
  int expected_level = 0;
  int streak = 0;

  core::Rng rng(0xabcdef);
  for (int i = 0; i < 500; ++i) {
    // Mix of comfortable, close-to-deadline and missing frames.
    const double u = rng.uniform(0.0, 1.0);
    const double latency = u < 0.6   ? rng.uniform(1.0, 25.0)
                           : u < 0.8 ? rng.uniform(30.0, 40.0)
                                     : rng.uniform(40.1, 120.0);
    if (latency > deadline) {
      streak = 0;
      expected_level =
          std::min(expected_level + 1, serve::DegradationLadder::max_level());
    } else if (latency < kSloRecoverFraction * deadline) {
      if (++streak >= kSloRecoverAfter) {
        streak = 0;
        expected_level = std::max(expected_level - 1, 0);
      }
    } else {
      streak = 0;
    }
    const SloDecision decision = engine.observe_frame(latency);
    driven.apply(decision.degrade, decision.recover);
    ASSERT_EQ(driven.level(), expected_level) << "frame " << i
                                              << " latency " << latency;
  }
}

TEST(SloEngine, WindowMissRatioDecaysLifetimeDoesNot) {
  SloEngine engine(40.0);
  const int misses = 8;
  for (int i = 0; i < misses; ++i) {
    engine.observe_frame(50.0);  // all misses
  }
  SloSnapshot hot = engine.snapshot();
  EXPECT_DOUBLE_EQ(hot.miss_ratio, 1.0);
  EXPECT_DOUBLE_EQ(hot.window_miss_ratio, 1.0);

  // The misses sit in the window's first slot. Good frames dilute them
  // until the window has rotated through every slot; the frame that
  // completes kSloWindowFrames evicts that slot, flushing the windowed
  // ratio to zero while the lifetime ratio remembers the bad start.
  for (int i = misses; i < kSloWindowFrames - 1; ++i) {
    engine.observe_frame(5.0);
  }
  EXPECT_NEAR(engine.snapshot().window_miss_ratio,
              misses / (kSloWindowFrames - 1.0), 1e-12);
  engine.observe_frame(5.0);
  SloSnapshot cooled = engine.snapshot();
  EXPECT_DOUBLE_EQ(cooled.window_miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(cooled.slow_burn, 0.0);
  EXPECT_NEAR(cooled.miss_ratio, misses / double{kSloWindowFrames}, 1e-12);
  EXPECT_EQ(cooled.misses, static_cast<std::uint64_t>(misses));
  EXPECT_EQ(cooled.frames, static_cast<std::uint64_t>(kSloWindowFrames));
}

TEST(SloEngine, SnapshotPercentilesTrackTheLatencyStream) {
  SloEngine engine(100.0);
  for (int i = 1; i <= 100; ++i) {
    engine.observe_frame(static_cast<double>(i));  // 1..100 ms
  }
  const SloSnapshot snap = engine.snapshot();
  const double bound = snap.max_relative_error;
  EXPECT_GT(bound, 0.0);
  EXPECT_NEAR(snap.p50_ms, 50.0, bound * 50.0 + 1e-9);
  EXPECT_NEAR(snap.p95_ms, 95.0, bound * 95.0 + 1e-9);
  EXPECT_NEAR(snap.p99_ms, 99.0, bound * 99.0 + 1e-9);
  EXPECT_NEAR(snap.p999_ms, 100.0, bound * 100.0 + 1e-9);
}

TEST(SloEngine, StageAndQueueDepthSketchesArePublished) {
  SloEngine engine(40.0);
  Registry before;
  engine.publish(before);
  EXPECT_TRUE(published(before, "slo.stage_p50_ms").empty());
  EXPECT_TRUE(published(before, "slo.queue_depth_max").empty());

  engine.observe_stage("decode", 2.0);
  engine.observe_stage("detect", 8.0);
  engine.observe_stage("detect", 12.0);
  engine.observe_queue_depth(0.0);
  engine.observe_queue_depth(3.0);
  Registry registry;
  engine.publish(registry);

  // One series per observed stage, in stage order.
  const auto stage_p50 = published(registry, "slo.stage_p50_ms");
  ASSERT_EQ(stage_p50.size(), 2u);
  EXPECT_EQ(stage_p50[0].first, (Labels{{"stage", "decode"}}));
  EXPECT_EQ(stage_p50[1].first, (Labels{{"stage", "detect"}}));
  EXPECT_NEAR(stage_p50[0].second, 2.0, 0.1);
  EXPECT_EQ(published(registry, "slo.stage_p99_ms").size(), 2u);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.queue_depth_max").value(), 3.0);
  EXPECT_GE(registry.gauge("slo.queue_depth_p99").value(), 2.9);
}

TEST(SloEngine, PublishExportsTheSloSeries) {
  SloEngine engine(40.0);
  engine.observe_frame(10.0);
  engine.observe_frame(50.0);
  engine.observe_stage("detect", 9.0);
  engine.observe_queue_depth(1.0);

  Registry registry;
  engine.publish(registry);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.frames").value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.misses").value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.deadline_miss_ratio").value(), 0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.deadline_ms").value(), 40.0);
  EXPECT_GT(registry.gauge("slo.latency_p99_ms").value(), 0.0);
  EXPECT_GT(
      registry.gauge("slo.burn_rate", {{"window", "fast"}}).value(), 0.0);
  EXPECT_GT(
      registry.gauge("slo.stage_p99_ms", {{"stage", "detect"}}).value(), 0.0);
  EXPECT_GE(registry.gauge("slo.queue_depth_p99").value(), 0.9);
}

TEST(SloEngine, RejectsANonPositiveDeadline) {
  EXPECT_THROW(SloEngine{0.0}, core::CheckError);
  EXPECT_THROW(SloEngine{-1.0}, core::CheckError);
}

}  // namespace
}  // namespace fdet::obs
