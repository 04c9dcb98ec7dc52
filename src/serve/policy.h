// Recovery policies of the streaming serving layer: bounded retry with
// exponential backoff and deterministic jitter, a per-stage circuit
// breaker, and the deadline-driven degradation ladder.
//
// Error taxonomy (DESIGN.md "Serving & fault tolerance"):
//
//   transient  decode glitch, vgpu launch hiccup -> bounded retry with
//              exponential backoff + jitter; exhaustion escalates to the
//              breaker
//   resource   constant/shared-memory overflow -> no retry (it would fail
//              identically); the frame is quarantined with a FrameError
//   malformed  a validating container parser rejected the frame's bytes
//              (ingest::IngestError) -> no retry (the bytes won't heal);
//              quarantine and count toward the decode breaker so a
//              malformed burst sheds via the ladder
//   fatal      anything unexpected (core::CheckError from a stage) ->
//              quarantine, never crash the service
//
// The ladder sheds load stepwise once the virtual per-frame latency blows
// the deadline budget, and climbs back one level per recovery streak.
#pragma once

#include <cstdint>
#include <string>

#include "core/rng.h"
#include "vgpu/scheduler.h"

namespace fdet::serve {

enum class ErrorClass {
  kTransient,
  kResource,
  kMalformed,
  kFatal,
  kRejected,  ///< admission control turned the frame away (fleet layer)
};
const char* error_class_name(ErrorClass cls);

/// Structured record of a frame the service could not serve: emitted in
/// the ServedFrame instead of crashing or silently skipping.
struct FrameError {
  int frame = 0;
  std::string stage;  ///< "decode" | "detect" | "admission"
  ErrorClass cls = ErrorClass::kTransient;
  std::string message;
  int attempts = 1;  ///< attempts spent before giving up
};

/// Attempts per stage, the first included (2 retries).
inline constexpr int kRetryMaxAttempts = 3;
/// Exponential growth of the backoff per retry.
inline constexpr double kRetryMultiplier = 2.0;
/// Jitter band: +- this fraction of the computed backoff.
inline constexpr double kRetryJitter = 0.2;

/// The backoff scale, which a caller sets against its deadline budget.
struct RetryOptions {
  double base_backoff_ms = 1.0;
  /// Cap on the pre-jitter backoff. Inert at the fixed attempt count:
  /// retries 1 and 2 back off at most kRetryMultiplier * base, below the
  /// 16 x base default and the 4 x base every production caller sets.
  double max_backoff_ms = 16.0;
};

/// Backoff before retry number `retry` (1-based):
/// base * kRetryMultiplier^(retry-1), capped, with deterministic jitter
/// drawn from `rng`.
double retry_backoff_ms(const RetryOptions& options, int retry,
                        core::Rng& rng);

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Consecutive frame failures that trip a breaker.
inline constexpr int kBreakerFailureThreshold = 3;
/// Frames an open breaker rejects before its half-open probe.
inline constexpr int kBreakerCooldownFrames = 4;

/// Classic three-state circuit breaker, clocked in frames (the service's
/// only notion of time). Closed counts consecutive failures; at
/// kBreakerFailureThreshold it opens and rejects the stage for
/// kBreakerCooldownFrames; then a half-open probe lets one frame through
/// — success closes, failure re-opens.
class CircuitBreaker {
 public:
  /// Advances the frame clock; while open, counts down toward half-open.
  void on_frame();
  /// May the stage run this frame? (closed or half-open probe)
  bool allows() const { return state_ != BreakerState::kOpen; }
  void record_success();
  void record_failure();

  BreakerState state() const { return state_; }
  int trips() const { return trips_; }

 private:
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int open_frames_left_ = 0;
  int trips_ = 0;
};

/// One rung of the degradation ladder: the pipeline-level knobs the
/// service applies at this level (cumulative — higher levels shed more).
struct DegradationStep {
  const char* name = "full";
  int skip_finest_levels = 0;   ///< detect::PipelineOptions::skip_finest_levels
  int min_neighbors_boost = 0;  ///< added to the configured min_neighbors
  bool serial_exec = false;     ///< force vgpu::ExecMode::kSerial
  bool shed_queued_frames = false;  ///< drop frames whenever a backlog exists
};

/// The ladder: level 0 full quality, then stepwise load shedding —
/// drop the finest pyramid scale(s) first, raise min_neighbors, fall back
/// to serial execution, finally shed queued frames. apply() moves at most
/// one level per call in either direction.
class DegradationLadder {
 public:
  static int max_level();
  static const DegradationStep& step_at(int level);

  int level() const { return level_; }
  const DegradationStep& step() const { return step_at(level_); }
  int shifts() const { return shifts_; }

  /// The ladder's signal (obs::SloEngine's per-frame decision, or the
  /// fleet's class-wide shed/recover step): `degrade` sheds one level,
  /// else `recover` climbs one level.
  void apply(bool degrade, bool recover);

  /// Breaker-driven degradation: jumps straight to the serial-exec rung
  /// (or stays if already deeper) — the simplest failure domain while a
  /// stage is unhealthy.
  void force_serial_fallback();

 private:
  void move_to(int level);

  int level_ = 0;
  int shifts_ = 0;
};

}  // namespace fdet::serve
