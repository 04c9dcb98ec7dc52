// SLO engine: burn-rate arithmetic, window accounting, and the claim the
// serving layer rests on — at default options the decision stream drives
// the DegradationLadder by the deadline rule exactly.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "serve/policy.h"

namespace fdet::obs {
namespace {

SloOptions options_with_deadline(double deadline_ms) {
  SloOptions options;
  options.deadline_ms = deadline_ms;
  return options;
}

TEST(SloEngine, SingleMissBurnsTheFastBudget) {
  SloEngine engine(options_with_deadline(40.0));
  const SloDecision good = engine.observe_frame(10.0);
  EXPECT_FALSE(good.miss);
  EXPECT_FALSE(good.degrade);
  EXPECT_DOUBLE_EQ(good.fast_burn, 0.0);

  const SloDecision miss = engine.observe_frame(41.0);
  EXPECT_TRUE(miss.miss);
  EXPECT_TRUE(miss.degrade);
  // fast window = 1 frame, miss ratio 1.0, budget 0.05 -> burn 20.
  EXPECT_DOUBLE_EQ(miss.fast_burn, 1.0 / engine.options().miss_budget);
  EXPECT_GT(miss.slow_burn, 0.0);
}

TEST(SloEngine, RecoverySignalNeedsAComfortableStreak) {
  SloOptions options = options_with_deadline(40.0);
  options.recover_fraction = 0.75;
  options.recover_after = 3;
  SloEngine engine(options);

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
  SloEngine engine(options_with_deadline(40.0));
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
// rung; a recover_after-long streak under recover_fraction * deadline
// climbs one, the streak resetting on a miss, on an in-budget frame near
// the edge, and when it fires.
TEST(SloEngine, DefaultDecisionsFollowTheDeadlineLadderRule) {
  const double deadline = 40.0;
  const SloOptions slo = options_with_deadline(deadline);

  SloEngine engine(slo);
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
    } else if (latency < slo.recover_fraction * deadline) {
      if (++streak >= slo.recover_after) {
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
  SloOptions options = options_with_deadline(40.0);
  options.window_frames = 16;
  options.window_slots = 4;
  SloEngine engine(options);

  for (int i = 0; i < 8; ++i) {
    engine.observe_frame(50.0);  // all misses
  }
  SloSnapshot hot = engine.snapshot();
  EXPECT_DOUBLE_EQ(hot.miss_ratio, 1.0);
  EXPECT_DOUBLE_EQ(hot.window_miss_ratio, 1.0);

  // A full window of good frames flushes the windowed ratio to zero while
  // the lifetime ratio remembers the bad start.
  for (int i = 0; i < 16; ++i) {
    engine.observe_frame(5.0);
  }
  SloSnapshot cooled = engine.snapshot();
  EXPECT_DOUBLE_EQ(cooled.window_miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(cooled.slow_burn, 0.0);
  EXPECT_NEAR(cooled.miss_ratio, 8.0 / 24.0, 1e-12);
  EXPECT_EQ(cooled.misses, 8u);
  EXPECT_EQ(cooled.frames, 24u);
}

TEST(SloEngine, SnapshotPercentilesTrackTheLatencyStream) {
  SloEngine engine(options_with_deadline(100.0));
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

TEST(SloEngine, StageAndQueueDepthSketches) {
  SloEngine engine(options_with_deadline(40.0));
  EXPECT_FALSE(engine.has_queue_depth());
  engine.observe_stage("decode", 2.0);
  engine.observe_stage("detect", 8.0);
  engine.observe_stage("detect", 12.0);
  engine.observe_queue_depth(0.0);
  engine.observe_queue_depth(3.0);

  const std::vector<std::string> expected = {"decode", "detect"};
  EXPECT_EQ(engine.stages(), expected);
  EXPECT_NEAR(engine.stage_quantile("decode", 0.5), 2.0, 0.1);
  EXPECT_TRUE(engine.has_queue_depth());
  EXPECT_GE(engine.queue_depth_quantile(1.0), 2.9);
  EXPECT_THROW(engine.stage_quantile("nonexistent", 0.5), core::CheckError);
}

TEST(SloEngine, PublishExportsTheSloSeries) {
  SloEngine engine(options_with_deadline(40.0));
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

TEST(SloEngine, RejectsUnusableOptions) {
  // A zero deadline is caught at the first observation (the service
  // overrides it from ServiceOptions before running).
  SloEngine unset(SloOptions{});
  EXPECT_THROW(unset.observe_frame(1.0), core::CheckError);
  SloOptions zero_budget = options_with_deadline(40.0);
  zero_budget.miss_budget = 0.0;
  EXPECT_THROW(SloEngine{zero_budget}, core::CheckError);
  SloOptions zero_window = options_with_deadline(40.0);
  zero_window.window_frames = 0;
  EXPECT_THROW(SloEngine{zero_window}, core::CheckError);
}

}  // namespace
}  // namespace fdet::obs
