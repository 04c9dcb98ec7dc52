#include "serve/policy.h"

#include <gtest/gtest.h>

#include "core/check.h"
#include "obs/slo.h"

namespace fdet::serve {
namespace {

TEST(RetryBackoff, GrowsExponentiallyAndCaps) {
  RetryOptions options;
  options.base_backoff_ms = 2.0;
  options.max_backoff_ms = 10.0;
  // A twin of the backoff's jitter stream reproduces each draw exactly.
  core::Rng rng(1);
  core::Rng twin(1);
  const auto jittered = [&twin](double ms) {
    return ms * (1.0 + twin.uniform(-kRetryJitter, kRetryJitter));
  };
  ASSERT_DOUBLE_EQ(kRetryMultiplier, 2.0);
  EXPECT_DOUBLE_EQ(retry_backoff_ms(options, 1, rng), jittered(2.0));
  EXPECT_DOUBLE_EQ(retry_backoff_ms(options, 2, rng), jittered(4.0));
  EXPECT_DOUBLE_EQ(retry_backoff_ms(options, 3, rng), jittered(8.0));
  EXPECT_DOUBLE_EQ(retry_backoff_ms(options, 4, rng),
                   jittered(10.0));  // capped
  EXPECT_THROW(retry_backoff_ms(options, 0, rng), core::CheckError);
}

TEST(RetryBackoff, JitterStaysWithinItsBand) {
  RetryOptions options;
  options.base_backoff_ms = 8.0;
  core::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double ms = retry_backoff_ms(options, 1, rng);
    EXPECT_GE(ms, 8.0 * (1.0 - kRetryJitter));
    EXPECT_LE(ms, 8.0 * (1.0 + kRetryJitter));
  }
  // Deterministic: an identically seeded stream reproduces the draws.
  core::Rng a(3);
  core::Rng b(3);
  EXPECT_DOUBLE_EQ(retry_backoff_ms(options, 2, a),
                   retry_backoff_ms(options, 2, b));
}

TEST(CircuitBreaker, TripsAtThresholdAndProbesAfterCooldown) {
  CircuitBreaker breaker;
  EXPECT_TRUE(breaker.allows());
  for (int i = 1; i < kBreakerFailureThreshold; ++i) {
    breaker.record_failure();
  }
  EXPECT_TRUE(breaker.allows());  // below threshold
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allows());
  EXPECT_EQ(breaker.trips(), 1);

  for (int i = 1; i < kBreakerCooldownFrames; ++i) {
    breaker.on_frame();
    EXPECT_FALSE(breaker.allows());  // still cooling down
  }
  breaker.on_frame();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allows());  // the probe frame

  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreaker, FailedProbeReopensImmediately) {
  CircuitBreaker breaker;
  for (int i = 0; i < kBreakerFailureThreshold; ++i) {
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  for (int i = 0; i < kBreakerCooldownFrames; ++i) {
    breaker.on_frame();
  }
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_failure();  // probe failed: one failure re-opens
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveFailureCount) {
  CircuitBreaker breaker;
  for (int i = 1; i < kBreakerFailureThreshold; ++i) {
    breaker.record_failure();
  }
  breaker.record_success();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // streak broken
}

/// The serving loops' ladder signal: each served frame's latency goes
/// through the SLO engine, whose decision drives the ladder.
struct SloDrivenLadder {
  explicit SloDrivenLadder(double deadline_ms) : engine(deadline_ms) {}

  void observe(double latency_ms) {
    const obs::SloDecision decision = engine.observe_frame(latency_ms);
    ladder.apply(decision.degrade, decision.recover);
  }

  obs::SloEngine engine;
  DegradationLadder ladder;
};

TEST(DegradationLadder, ShedsOneLevelPerDeadlineMiss) {
  SloDrivenLadder driven(/*deadline_ms=*/10.0);
  const DegradationLadder& ladder = driven.ladder;
  EXPECT_EQ(ladder.level(), 0);
  EXPECT_STREQ(ladder.step().name, "full");
  driven.observe(12.0);
  EXPECT_EQ(ladder.level(), 1);
  driven.observe(15.0);
  driven.observe(15.0);
  driven.observe(15.0);
  driven.observe(15.0);
  EXPECT_EQ(ladder.level(), DegradationLadder::max_level());  // clamped
  EXPECT_TRUE(ladder.step().shed_queued_frames);
}

TEST(DegradationLadder, ClimbsBackAfterARecoveryStreak) {
  // The recovery streak: 3 frames under 0.75 x deadline.
  SloDrivenLadder driven(/*deadline_ms=*/10.0);
  const DegradationLadder& ladder = driven.ladder;
  driven.observe(12.0);
  ASSERT_EQ(ladder.level(), 1);
  driven.observe(5.0);
  driven.observe(5.0);
  EXPECT_EQ(ladder.level(), 1);  // streak not complete
  driven.observe(5.0);
  EXPECT_EQ(ladder.level(), 0);
  EXPECT_EQ(ladder.shifts(), 2);
}

TEST(DegradationLadder, NearDeadlineFramesResetTheRecoveryStreak) {
  SloDrivenLadder driven(/*deadline_ms=*/10.0);
  const DegradationLadder& ladder = driven.ladder;
  driven.observe(12.0);
  ASSERT_EQ(ladder.level(), 1);
  driven.observe(4.0);
  driven.observe(4.0);
  driven.observe(8.0);  // in budget but above the recovery fraction
  driven.observe(4.0);
  driven.observe(4.0);
  EXPECT_EQ(ladder.level(), 1);  // 8.0 broke the streak
  driven.observe(4.0);
  EXPECT_EQ(ladder.level(), 0);
}

TEST(DegradationLadder, ForceSerialFallbackNeverClimbs) {
  DegradationLadder ladder;
  ladder.force_serial_fallback();
  const int serial_level = ladder.level();
  EXPECT_TRUE(DegradationLadder::step_at(serial_level).serial_exec);
  // Already deeper: the forced fallback must not *reduce* shedding.
  ladder.apply(true, false);
  const int deeper = ladder.level();
  ladder.force_serial_fallback();
  EXPECT_EQ(ladder.level(), deeper);
}

TEST(DegradationLadder, StepsShedMonotonically) {
  for (int level = 1; level <= DegradationLadder::max_level(); ++level) {
    const DegradationStep& prev = DegradationLadder::step_at(level - 1);
    const DegradationStep& step = DegradationLadder::step_at(level);
    EXPECT_GE(step.skip_finest_levels, prev.skip_finest_levels);
    EXPECT_GE(step.min_neighbors_boost, prev.min_neighbors_boost);
    EXPECT_GE(step.serial_exec, prev.serial_exec);
    EXPECT_GE(step.shed_queued_frames, prev.shed_queued_frames);
  }
  EXPECT_THROW(DegradationLadder::step_at(-1), core::CheckError);
  EXPECT_THROW(DegradationLadder::step_at(DegradationLadder::max_level() + 1),
               core::CheckError);
}

TEST(DegradationLadder, ExactThresholdLatenciesNeverFlap) {
  // The hysteresis edges are strict inequalities: a frame exactly at the
  // deadline is in budget (no shed), a frame exactly at the recovery
  // fraction is too close to the edge to climb (streak resets). A stream
  // oscillating between both edge values therefore never moves the
  // ladder in either direction.
  SloDrivenLadder driven(/*deadline_ms=*/10.0);
  const DegradationLadder& ladder = driven.ladder;
  driven.observe(12.0);
  ASSERT_EQ(ladder.level(), 1);
  const int shifts_before = ladder.shifts();
  for (int i = 0; i < 20; ++i) {
    driven.observe(10.0);  // exactly the deadline: not a miss
    driven.observe(7.5);   // exactly the fraction: streak resets
  }
  EXPECT_EQ(ladder.level(), 1);
  EXPECT_EQ(ladder.shifts(), shifts_before);
  // Just under the fraction on every frame does climb.
  driven.observe(7.4);
  driven.observe(7.4);
  driven.observe(7.4);
  EXPECT_EQ(ladder.level(), 0);
}

TEST(DegradationLadder, ClampsAtBothEndsWithoutCountingShifts) {
  DegradationLadder ladder;
  // Bottom clamp: recovery at full quality is a no-op, not a shift.
  ASSERT_EQ(ladder.level(), 0);
  ladder.apply(false, true);
  EXPECT_EQ(ladder.level(), 0);
  EXPECT_EQ(ladder.shifts(), 0);

  // Top clamp: sheds beyond the deepest rung change nothing.
  for (int i = 0; i < DegradationLadder::max_level(); ++i) {
    ladder.apply(true, false);
  }
  ASSERT_EQ(ladder.level(), DegradationLadder::max_level());
  const int shifts_at_max = ladder.shifts();
  ladder.apply(true, false);
  EXPECT_EQ(ladder.level(), DegradationLadder::max_level());
  EXPECT_EQ(ladder.shifts(), shifts_at_max);
}

TEST(DegradationLadder, ApplyPrefersDegrade) {
  DegradationLadder ladder;
  // degrade wins when both signals are set (shed before climb).
  ladder.apply(true, true);
  EXPECT_EQ(ladder.level(), 1);
  ladder.apply(false, true);
  EXPECT_EQ(ladder.level(), 0);
  EXPECT_EQ(ladder.shifts(), 2);
}

}  // namespace
}  // namespace fdet::serve
