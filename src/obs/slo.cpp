#include "obs/slo.h"

#include <algorithm>

#include "core/check.h"
#include "obs/metrics.h"

namespace fdet::obs {

SloEngine::SloEngine(SloOptions options)
    : options_(options),
      latency_window_(std::max(1, options.window_slots), options.sketch),
      queue_depth_(options.sketch) {
  FDET_CHECK(options_.miss_budget > 0.0 && options_.miss_budget <= 1.0)
      << "miss_budget must be in (0, 1], got " << options_.miss_budget;
  FDET_CHECK(options_.window_frames >= 1)
      << "window_frames must be >= 1, got " << options_.window_frames;
  FDET_CHECK(options_.window_slots >= 1)
      << "window_slots must be >= 1, got " << options_.window_slots;
  FDET_CHECK(options_.fast_window_frames >= 1)
      << "fast_window_frames must be >= 1, got " << options_.fast_window_frames;
  FDET_CHECK(options_.recover_after >= 1)
      << "recover_after must be >= 1, got " << options_.recover_after;
  frames_per_slot_ =
      std::max(1, options_.window_frames / std::max(1, options_.window_slots));
  slot_counts_.assign(static_cast<std::size_t>(latency_window_.slots()),
                      {0, 0});
  fast_ring_.assign(static_cast<std::size_t>(options_.fast_window_frames), 0);
}

SloDecision SloEngine::observe_frame(double latency_ms) {
  FDET_CHECK(options_.deadline_ms > 0.0)
      << "SloEngine needs a positive deadline_ms before observing frames";
  SloDecision decision;
  decision.miss = latency_ms > options_.deadline_ms;

  // Slow window: sketch + per-slot miss accounting, rotated in lockstep.
  latency_window_.observe(latency_ms);
  auto& [slot_frames, slot_misses] = slot_counts_[slot_head_];
  ++slot_frames;
  if (decision.miss) {
    ++slot_misses;
  }
  if (++frames_in_slot_ >= frames_per_slot_) {
    frames_in_slot_ = 0;
    latency_window_.rotate();
    slot_head_ = (slot_head_ + 1) % slot_counts_.size();
    slot_counts_[slot_head_] = {0, 0};
  }

  // Fast window: circular miss flags.
  if (fast_seen_ >= fast_ring_.size()) {
    fast_misses_ -= fast_ring_[fast_head_];
  }
  fast_ring_[fast_head_] = decision.miss ? 1 : 0;
  fast_misses_ += fast_ring_[fast_head_];
  fast_head_ = (fast_head_ + 1) % fast_ring_.size();
  ++fast_seen_;

  ++frames_;
  if (decision.miss) {
    ++misses_;
  }

  decision.fast_burn = fast_miss_ratio() / options_.miss_budget;
  decision.slow_burn = window_miss_ratio() / options_.miss_budget;
  decision.degrade = decision.fast_burn >= options_.degrade_burn;

  // Recovery state machine: the streak grows only on comfortably-in-budget
  // frames and resets on a miss, on a close-to-the-edge frame, and when
  // recovery fires.
  if (decision.miss) {
    good_streak_ = 0;
  } else if (latency_ms < options_.recover_fraction * options_.deadline_ms) {
    if (++good_streak_ >= options_.recover_after) {
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
    it = stage_latency_.emplace(stage, QuantileSketch(options_.sketch)).first;
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

double SloEngine::fast_miss_ratio() const {
  const std::uint64_t live = std::min<std::uint64_t>(fast_seen_,
                                                     fast_ring_.size());
  if (live == 0) {
    return 0.0;
  }
  return static_cast<double>(fast_misses_) / static_cast<double>(live);
}

SloSnapshot SloEngine::snapshot() const {
  SloSnapshot snap;
  snap.frames = frames_;
  snap.misses = misses_;
  snap.miss_ratio =
      frames_ == 0 ? 0.0
                   : static_cast<double>(misses_) / static_cast<double>(frames_);
  snap.window_miss_ratio = window_miss_ratio();
  snap.fast_burn = fast_miss_ratio() / options_.miss_budget;
  snap.slow_burn = snap.window_miss_ratio / options_.miss_budget;
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

std::vector<std::string> SloEngine::stages() const {
  std::vector<std::string> names;
  names.reserve(stage_latency_.size());
  for (const auto& [name, sketch] : stage_latency_) {
    names.push_back(name);
  }
  return names;
}

double SloEngine::stage_quantile(const std::string& stage, double q) const {
  const auto it = stage_latency_.find(stage);
  FDET_CHECK(it != stage_latency_.end())
      << "no latency recorded for stage '" << stage << "'";
  return it->second.quantile(q);
}

double SloEngine::queue_depth_quantile(double q) const {
  return queue_depth_.quantile(q);
}

void SloEngine::publish(Registry& registry) const {
  const SloSnapshot snap = snapshot();
  registry.gauge("slo.frames").set(static_cast<double>(snap.frames));
  registry.gauge("slo.misses").set(static_cast<double>(snap.misses));
  registry.gauge("slo.deadline_miss_ratio").set(snap.miss_ratio);
  registry.gauge("slo.window_miss_ratio").set(snap.window_miss_ratio);
  registry.gauge("slo.burn_rate", {{"window", "fast"}}).set(snap.fast_burn);
  registry.gauge("slo.burn_rate", {{"window", "slow"}}).set(snap.slow_burn);
  registry.gauge("slo.deadline_ms").set(options_.deadline_ms);
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
