// Streaming SLO engine for the serving path.
//
// Consumes one end-to-end virtual latency per *served* frame and keeps:
//
//   - sliding-window latency percentiles (p50/p95/p99/p99.9) over
//     mergeable QuantileSketch slots (obs/sketch.h);
//   - deadline-miss ratio, lifetime and windowed;
//   - burn rates in the SRE sense: miss ratio over a window divided by
//     the miss budget. The fast window is the current frame (so one miss
//     burns 1 / kSloMissBudget = 20x the budget); the slow window is the
//     sketch window (kSloWindowFrames) and tracks sustained burn. Both
//     are published, neither steers the ladder.
//
// observe_frame() returns an SloDecision the DegradationLadder consumes
// as its climb/recover signal (serve::DegradationLadder::apply). The
// rule is the deadline rule: degrade on every `latency > deadline`, and
// recover on a kSloRecoverAfter-long streak of frames under
// kSloRecoverFraction * deadline, the streak resetting on a miss, on an
// in-budget-but-close frame, and when recovery fires.
//
// Per-stage latency and queue depth feed lifetime sketches surfaced in
// publish() for the BENCH_serving_slo record, which the chaos soak
// (tools/fdet_chaos) writes from its faulted run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "obs/sketch.h"

namespace fdet::obs {

class Registry;

/// SLO miss budget: the tolerated deadline-miss ratio. Burn rate 1.0
/// means misses arrive exactly at budget.
inline constexpr double kSloMissBudget = 0.05;
/// Slow-window length in served frames.
inline constexpr int kSloWindowFrames = 240;
/// Sketch slots covering the slow window; the window rotates every
/// kSloWindowFrames / kSloWindowSlots frames.
inline constexpr int kSloWindowSlots = 8;
/// Recovery: "comfortably in budget" = latency < kSloRecoverFraction *
/// deadline ...
inline constexpr double kSloRecoverFraction = 0.75;
/// ... for this many consecutive frames per recover signal.
inline constexpr int kSloRecoverAfter = 3;

/// Climb/recover signal for one served frame, plus the burn rates that
/// produced it (recorded in flight-recorder events for causality).
struct SloDecision {
  bool miss = false;     ///< this frame blew the deadline
  bool degrade = false;  ///< ladder should shed one more level (= miss)
  bool recover = false;  ///< ladder may climb one level back
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

struct SloSnapshot {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double miss_ratio = 0.0;         ///< lifetime misses / frames
  double window_miss_ratio = 0.0;  ///< misses / frames over the slow window
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t misses = 0;
  double max_relative_error = 0.0;  ///< sketch quantile error bound
};

class SloEngine {
 public:
  /// Judges frames against `deadline_ms` (> 0, virtual ms).
  explicit SloEngine(double deadline_ms);

  /// One served frame's end-to-end virtual latency. Only served frames
  /// count toward the latency SLO (dropped/failed frames are accounted by
  /// their own serve.* counters).
  SloDecision observe_frame(double latency_ms);

  /// Per-stage virtual latency ("decode", "detect", "backoff", ...).
  void observe_stage(const std::string& stage, double latency_ms);
  /// Service queue depth sampled at frame arrival.
  void observe_queue_depth(double depth);

  /// Clears the recovery streak without touching the window statistics —
  /// called when a breaker forces a serial fallback, mirroring the
  /// pre-SLO `force_serial_fallback` streak reset.
  void reset_recovery();

  SloSnapshot snapshot() const;

  /// Publishes slo.* gauges into `registry` (see DESIGN.md §8 for the
  /// exported names).
  void publish(Registry& registry) const;

 private:
  double window_miss_ratio() const;
  double fast_burn() const;

  double deadline_ms_;
  SlidingWindowSketch latency_window_;
  std::map<std::string, QuantileSketch> stage_latency_;
  QuantileSketch queue_depth_;

  /// Per-slot (frames, misses) aligned with latency_window_ rotation.
  std::array<std::pair<std::uint64_t, std::uint64_t>, kSloWindowSlots>
      slot_counts_{};
  std::size_t slot_head_ = 0;
  int frames_in_slot_ = 0;

  /// The fast window: did the latest frame miss?
  bool last_miss_ = false;

  std::uint64_t frames_ = 0;
  std::uint64_t misses_ = 0;
  int good_streak_ = 0;
};

}  // namespace fdet::obs
