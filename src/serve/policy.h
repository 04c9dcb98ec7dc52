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

struct RetryOptions {
  int max_attempts = 3;        ///< total attempts per stage (1 = no retry)
  double base_backoff_ms = 1.0;
  double multiplier = 2.0;     ///< exponential growth per retry
  double max_backoff_ms = 16.0;
  double jitter = 0.2;         ///< +- fraction of the computed backoff
};

/// Backoff before retry number `retry` (1-based): base * multiplier^(retry-1),
/// capped, with deterministic jitter drawn from `rng`.
double retry_backoff_ms(const RetryOptions& options, int retry,
                        core::Rng& rng);

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct BreakerOptions {
  int failure_threshold = 3;  ///< consecutive frame failures to trip
  int cooldown_frames = 4;    ///< frames rejected while open
};

/// Classic three-state circuit breaker, clocked in frames (the service's
/// only notion of time). Closed counts consecutive failures; at the
/// threshold it opens and rejects the stage for `cooldown_frames`; then a
/// half-open probe lets one frame through — success closes, failure
/// re-opens.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerOptions options) : options_(options) {}

  /// Advances the frame clock; while open, counts down toward half-open.
  void on_frame();
  /// May the stage run this frame? (closed or half-open probe)
  bool allows() const { return state_ != BreakerState::kOpen; }
  void record_success();
  void record_failure();

  BreakerState state() const { return state_; }
  int trips() const { return trips_; }

 private:
  BreakerOptions options_;
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
