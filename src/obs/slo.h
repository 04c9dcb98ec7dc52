// Streaming SLO engine for the serving path.
//
// Consumes one end-to-end virtual latency per *served* frame and keeps:
//
//   - sliding-window latency percentiles (p50/p95/p99/p99.9) over
//     mergeable QuantileSketch slots (obs/sketch.h);
//   - deadline-miss ratio, lifetime and windowed;
//   - burn rates in the SRE sense: miss ratio over a window divided by
//     the miss budget. A fast window (default: 1 frame) reacts to the
//     current frame; a slow window (default: the full sketch window)
//     tracks sustained burn.
//
// observe_frame() returns an SloDecision the DegradationLadder consumes
// as its climb/recover signal (serve::DegradationLadder::apply). The
// default options give the deadline rule: fast_window_frames = 1 and
// degrade_burn such that a single miss burns the whole fast budget
// (degrade exactly on `latency > deadline`), and recovery fires on a
// recover_after-long streak of frames under recover_fraction * deadline,
// with the streak resetting on a miss, on an in-budget-but-close frame,
// and when recovery fires.
//
// Per-stage latency and queue depth feed lifetime sketches surfaced in
// SloSnapshot/publish() for the BENCH_serving_slo artifact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/sketch.h"

namespace fdet::obs {

class Registry;

struct SloOptions {
  /// Per-frame latency budget in virtual ms. Must be > 0 before the first
  /// observe_frame().
  double deadline_ms = 0.0;
  /// SLO miss budget: the tolerated deadline-miss ratio. Burn rate 1.0
  /// means misses arrive exactly at budget.
  double miss_budget = 0.05;
  /// Slow-window length in frames (sketch window = this many frames).
  int window_frames = 240;
  /// Sketch slots covering the slow window; rotation cadence is
  /// window_frames / window_slots frames.
  int window_slots = 8;
  /// Fast burn window in frames. 1 = the current frame alone, which makes
  /// `degrade` fire exactly on a deadline miss.
  int fast_window_frames = 1;
  /// Degrade when fast burn rate >= this. With fast_window_frames = 1 any
  /// single miss yields burn 1/miss_budget >= 1, so the default threshold
  /// keeps miss == degrade.
  double degrade_burn = 1.0;
  /// Recovery: "comfortably in budget" = latency < recover_fraction *
  /// deadline_ms. Both serving engines keep this default and the next, so
  /// the degradation ladder climbs back after 3 frames under 0.75x.
  double recover_fraction = 0.75;
  /// Consecutive comfortable frames per recover signal.
  int recover_after = 3;
  SketchOptions sketch;
};

/// Climb/recover signal for one served frame, plus the burn rates that
/// produced it (recorded in flight-recorder events for causality).
struct SloDecision {
  bool miss = false;     ///< this frame blew the deadline
  bool degrade = false;  ///< ladder should shed one more level
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
  explicit SloEngine(SloOptions options);

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
  /// Stage names with recorded latency, sorted.
  std::vector<std::string> stages() const;
  /// Lifetime quantile for one stage; throws if the stage is unknown.
  double stage_quantile(const std::string& stage, double q) const;
  double queue_depth_quantile(double q) const;
  bool has_queue_depth() const { return !queue_depth_.empty(); }

  /// Publishes slo.* gauges into `registry` (see DESIGN.md §8 for the
  /// exported names).
  void publish(Registry& registry) const;

  const SloOptions& options() const { return options_; }

 private:
  double window_miss_ratio() const;
  double fast_miss_ratio() const;

  SloOptions options_;
  SlidingWindowSketch latency_window_;
  std::map<std::string, QuantileSketch> stage_latency_;
  QuantileSketch queue_depth_;

  /// Per-slot (frames, misses) aligned with latency_window_ rotation.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slot_counts_;
  std::size_t slot_head_ = 0;
  int frames_in_slot_ = 0;
  int frames_per_slot_ = 1;

  /// Fast window: circular miss flags.
  std::vector<char> fast_ring_;
  std::size_t fast_head_ = 0;
  std::uint64_t fast_seen_ = 0;
  int fast_misses_ = 0;

  std::uint64_t frames_ = 0;
  std::uint64_t misses_ = 0;
  int good_streak_ = 0;
};

}  // namespace fdet::obs
