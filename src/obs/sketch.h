// Mergeable streaming quantile sketches for the serving SLO engine.
//
// QuantileSketch is a DDSketch-style log-bucketed histogram: values land
// in geometric buckets (kSketchMinValue * gamma^i), so any quantile
// estimate carries a bounded *relative* error regardless of the latency
// range — the property that makes p99.9 over a 0.1 ms..10 s span feasible
// in a few hundred counters. Every sketch has the one bucket layout the
// constants below fix, so sketches merge by bucket-wise addition, which
// is associative and commutative: the order in which per-slot or
// per-stream sketches are combined cannot change the result (tested in
// obs_sketch_test). This is the integral-histogram trick of arXiv
// 1711.01919 applied to the time axis: per-bin prefix sums over a fixed
// bucket layout.
//
// SlidingWindowSketch keeps a ring of per-slot sketches and answers
// quantiles over the merged live slots: rotate() retires the oldest slot
// wholesale, so eviction is O(buckets) and never touches individual
// samples. The SLO engine rotates once per kSloWindowFrames /
// kSloWindowSlots frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fdet::obs {

/// Target relative accuracy e: gamma = (1 + e) / (1 - e). The guaranteed
/// bound on any quantile estimate is sqrt(gamma) - 1 (~e for small e);
/// see QuantileSketch::max_relative_error().
inline constexpr double kSketchRelativeError = 0.01;
/// Values at or below this (1 µs of virtual latency) collapse into the
/// zero bucket and report as kSketchMinValue.
inline constexpr double kSketchMinValue = 1e-3;
/// Log buckets; values beyond the covered range clamp into the last
/// bucket (error grows only for those). 1024 buckets at e = 0.01 cover
/// kSketchMinValue * gamma^1024 ≈ 7.9e8 * kSketchMinValue: latencies from
/// 1 µs up to ~13 virtual minutes.
inline constexpr int kSketchMaxBuckets = 1024;

/// Log-bucketed quantile sketch with bounded relative error.
class QuantileSketch {
 public:
  QuantileSketch();

  /// Records `count` observations of `value` (count >= 0; negative values
  /// are clamped into the zero bucket — latencies are non-negative).
  void observe(double value, double count = 1.0);

  /// Bucket-wise addition.
  void merge(const QuantileSketch& other);

  /// Quantile estimate for q in [0, 1]; q=0 is the smallest bucket with
  /// mass, q=1 the largest. Throws core::CheckError on an empty sketch.
  double quantile(double q) const;

  double count() const { return count_; }
  double sum() const { return sum_; }
  /// Exact maximum of the observed values (not a bucket representative).
  double max_observed() const;
  bool empty() const { return count_ <= 0.0; }
  void clear();

  /// Guaranteed relative error bound of quantile(): sqrt(gamma) - 1.
  static double max_relative_error();

  /// Internal layout, exposed for tests: bucket 0 is the zero bucket
  /// (values <= kSketchMinValue), bucket i covers
  /// (kSketchMinValue * gamma^(i-1), kSketchMinValue * gamma^i].
  const std::vector<double>& buckets() const { return buckets_; }
  static int bucket_index(double value);

 private:
  static double representative(int bucket);

  std::vector<double> buckets_;
  double count_ = 0.0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Fixed number of sketch slots covering a sliding window; the caller
/// rotates on its own cadence (frames or seconds). Quantiles answer over
/// the merge of all live slots.
class SlidingWindowSketch {
 public:
  /// `slots` >= 1; each slot is one rotation period of history.
  explicit SlidingWindowSketch(int slots);

  void observe(double value, double count = 1.0);
  /// Advances the window one slot: the oldest slot's mass is evicted and
  /// its storage becomes the new current slot.
  void rotate();

  /// Merge of all live slots (freshly built; O(slots * buckets)).
  QuantileSketch merged() const;
  double count() const;
  bool empty() const { return count() <= 0.0; }

  std::uint64_t rotations() const { return rotations_; }

 private:
  std::vector<QuantileSketch> ring_;
  std::size_t head_ = 0;  ///< index of the current (newest) slot
  std::uint64_t rotations_ = 0;
};

}  // namespace fdet::obs
