#include "obs/slo.h"

#include "core/check.h"
#include "obs/metrics.h"

namespace fdet::obs {

namespace {

/// Served frames per sketch slot: the slow window rotates this often.
constexpr int kFramesPerSlot = kSloWindowFrames / kSloWindowSlots;

}  // namespace

SloEngine::SloEngine(double deadline_ms)
    : deadline_ms_(deadline_ms), latency_window_(kSloWindowSlots) {
  FDET_CHECK(deadline_ms_ > 0.0)
      << "SloEngine needs a positive deadline_ms, got " << deadline_ms_;
}

SloDecision SloEngine::observe_frame(double latency_ms) {
  SloDecision decision;
  decision.miss = latency_ms > deadline_ms_;

  // Slow window: sketch + per-slot miss accounting, rotated in lockstep.
  latency_window_.observe(latency_ms);
  auto& [slot_frames, slot_misses] = slot_counts_[slot_head_];
  ++slot_frames;
  if (decision.miss) {
    ++slot_misses;
  }
  if (++frames_in_slot_ >= kFramesPerSlot) {
    frames_in_slot_ = 0;
    latency_window_.rotate();
    slot_head_ = (slot_head_ + 1) % slot_counts_.size();
    slot_counts_[slot_head_] = {0, 0};
  }

  last_miss_ = decision.miss;
  ++frames_;
  if (decision.miss) {
    ++misses_;
  }

  decision.fast_burn = fast_burn();
  decision.slow_burn = window_miss_ratio() / kSloMissBudget;
  decision.degrade = decision.miss;

  // Recovery state machine: the streak grows only on comfortably-in-budget
  // frames and resets on a miss, on a close-to-the-edge frame, and when
  // recovery fires.
  if (decision.miss) {
    good_streak_ = 0;
  } else if (latency_ms < kSloRecoverFraction * deadline_ms_) {
    if (++good_streak_ >= kSloRecoverAfter) {
      good_streak_ = 0;
      decision.recover = true;
    }
  } else {
    good_streak_ = 0;
  }
  return decision;
}

void SloEngine::observe_stage(const std::string& stage, double latency_ms) {
  auto it = stage_latency_.find(stage);
  if (it == stage_latency_.end()) {
    it = stage_latency_.emplace(stage, QuantileSketch()).first;
  }
  it->second.observe(latency_ms);
}

void SloEngine::observe_queue_depth(double depth) {
  queue_depth_.observe(depth);
}

void SloEngine::reset_recovery() { good_streak_ = 0; }

double SloEngine::window_miss_ratio() const {
  std::uint64_t frames = 0;
  std::uint64_t misses = 0;
  for (const auto& [slot_frames, slot_misses] : slot_counts_) {
    frames += slot_frames;
    misses += slot_misses;
  }
  if (frames == 0) {
    return 0.0;
  }
  return static_cast<double>(misses) / static_cast<double>(frames);
}

double SloEngine::fast_burn() const {
  return (last_miss_ ? 1.0 : 0.0) / kSloMissBudget;
}

SloSnapshot SloEngine::snapshot() const {
  SloSnapshot snap;
  snap.frames = frames_;
  snap.misses = misses_;
  snap.miss_ratio =
      frames_ == 0 ? 0.0
                   : static_cast<double>(misses_) / static_cast<double>(frames_);
  snap.window_miss_ratio = window_miss_ratio();
  snap.fast_burn = fast_burn();
  snap.slow_burn = snap.window_miss_ratio / kSloMissBudget;
  if (!latency_window_.empty()) {
    const QuantileSketch merged = latency_window_.merged();
    snap.p50_ms = merged.quantile(0.50);
    snap.p95_ms = merged.quantile(0.95);
    snap.p99_ms = merged.quantile(0.99);
    snap.p999_ms = merged.quantile(0.999);
    snap.max_relative_error = merged.max_relative_error();
  }
  return snap;
}

void SloEngine::publish(Registry& registry) const {
  const SloSnapshot snap = snapshot();
  registry.gauge("slo.frames").set(static_cast<double>(snap.frames));
  registry.gauge("slo.misses").set(static_cast<double>(snap.misses));
  registry.gauge("slo.deadline_miss_ratio").set(snap.miss_ratio);
  registry.gauge("slo.window_miss_ratio").set(snap.window_miss_ratio);
  registry.gauge("slo.burn_rate", {{"window", "fast"}}).set(snap.fast_burn);
  registry.gauge("slo.burn_rate", {{"window", "slow"}}).set(snap.slow_burn);
  registry.gauge("slo.deadline_ms").set(deadline_ms_);
  registry.gauge("slo.sketch_error_bound").set(snap.max_relative_error);
  if (snap.frames > 0) {
    registry.gauge("slo.latency_p50_ms").set(snap.p50_ms);
    registry.gauge("slo.latency_p95_ms").set(snap.p95_ms);
    registry.gauge("slo.latency_p99_ms").set(snap.p99_ms);
    registry.gauge("slo.latency_p999_ms").set(snap.p999_ms);
  }
  for (const auto& [stage, sketch] : stage_latency_) {
    if (sketch.empty()) {
      continue;
    }
    registry.gauge("slo.stage_p50_ms", {{"stage", stage}})
        .set(sketch.quantile(0.50));
    registry.gauge("slo.stage_p99_ms", {{"stage", stage}})
        .set(sketch.quantile(0.99));
  }
  if (!queue_depth_.empty()) {
    registry.gauge("slo.queue_depth_p50").set(queue_depth_.quantile(0.50));
    registry.gauge("slo.queue_depth_p99").set(queue_depth_.quantile(0.99));
    registry.gauge("slo.queue_depth_max").set(queue_depth_.max_observed());
  }
}

}  // namespace fdet::obs
