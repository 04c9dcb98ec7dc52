#include "obs/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"

namespace fdet::obs {

namespace {

constexpr double kGamma =
    (1.0 + kSketchRelativeError) / (1.0 - kSketchRelativeError);
const double kLogGamma = std::log(kGamma);

}  // namespace

QuantileSketch::QuantileSketch()
    : buckets_(static_cast<std::size_t>(kSketchMaxBuckets), 0.0),
      max_(-std::numeric_limits<double>::infinity()) {}

int QuantileSketch::bucket_index(double value) {
  if (!(value > kSketchMinValue)) {
    return 0;  // zero bucket: non-positive, NaN, and tiny values
  }
  const double raw = std::ceil(std::log(value / kSketchMinValue) / kLogGamma);
  const int last = kSketchMaxBuckets - 1;
  if (raw >= static_cast<double>(last)) {
    return last;  // out of covered range: clamp (error grows only here)
  }
  return std::max(1, static_cast<int>(raw));
}

double QuantileSketch::representative(int bucket) {
  if (bucket <= 0) {
    return kSketchMinValue;
  }
  // Geometric midpoint of (min * gamma^(i-1), min * gamma^i]: at most a
  // factor sqrt(gamma) from any value in the bucket.
  return kSketchMinValue *
         std::exp((static_cast<double>(bucket) - 0.5) * kLogGamma);
}

double QuantileSketch::max_relative_error() {
  return std::sqrt(kGamma) - 1.0;
}

void QuantileSketch::observe(double value, double count) {
  FDET_CHECK(count >= 0.0) << "sketch counts must be non-negative";
  if (count == 0.0) {
    return;
  }
  buckets_[static_cast<std::size_t>(bucket_index(value))] += count;
  count_ += count;
  sum_ += value * count;
  max_ = std::max(max_, value);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double QuantileSketch::quantile(double q) const {
  FDET_CHECK(q >= 0.0 && q <= 1.0) << "quantile q must be in [0, 1], got " << q;
  FDET_CHECK(count_ > 0.0) << "quantile of an empty sketch";
  const double rank = q * count_;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] <= 0.0) {
      continue;
    }
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return representative(static_cast<int>(i));
    }
  }
  // Floating accumulation can land a hair short of count_ at q=1.
  for (std::size_t i = buckets_.size(); i-- > 0;) {
    if (buckets_[i] > 0.0) {
      return representative(static_cast<int>(i));
    }
  }
  return kSketchMinValue;
}

double QuantileSketch::max_observed() const {
  FDET_CHECK(count_ > 0.0) << "max of an empty sketch";
  return max_;
}

void QuantileSketch::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0.0);
  count_ = 0.0;
  sum_ = 0.0;
  max_ = -std::numeric_limits<double>::infinity();
}

SlidingWindowSketch::SlidingWindowSketch(int slots) {
  FDET_CHECK(slots >= 1) << "sliding window needs at least 1 slot, got "
                         << slots;
  ring_.resize(static_cast<std::size_t>(slots));
}

void SlidingWindowSketch::observe(double value, double count) {
  ring_[head_].observe(value, count);
}

void SlidingWindowSketch::rotate() {
  head_ = (head_ + 1) % ring_.size();
  ring_[head_].clear();  // the evicted oldest slot becomes the new current
  ++rotations_;
}

QuantileSketch SlidingWindowSketch::merged() const {
  QuantileSketch out;
  for (const QuantileSketch& slot : ring_) {
    out.merge(slot);
  }
  return out;
}

double SlidingWindowSketch::count() const {
  double total = 0.0;
  for (const QuantileSketch& slot : ring_) {
    total += slot.count();
  }
  return total;
}

}  // namespace fdet::obs
