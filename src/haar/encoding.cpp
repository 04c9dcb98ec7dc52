#include "haar/encoding.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace fdet::haar {
namespace {

int weight_index(std::int8_t weight) {
  for (std::size_t i = 0; i < kWeightTable.size(); ++i) {
    if (kWeightTable[i] == weight) {
      return static_cast<int>(i);
    }
  }
  FDET_CHECK(false) << "weight " << static_cast<int>(weight)
                    << " not in the weight table";
  return -1;
}

std::int16_t quantize(float value, float scale, const char* what) {
  const float scaled = std::round(value * scale);
  FDET_CHECK(scaled >= -32768.0f && scaled <= 32767.0f)
      << what << " " << value << " does not fit 16-bit fixed point";
  return static_cast<std::int16_t>(scaled);
}

/// Stage thresholds may legitimately sit outside the representable range
/// (e.g. the -inf pass-through of an uncalibrated stage); saturate them.
std::int16_t quantize_saturating(float value, float scale) {
  const float scaled = std::round(value * scale);
  return static_cast<std::int16_t>(std::clamp(scaled, -32768.0f, 32767.0f));
}

}  // namespace

EncodedRect encode_rect(const RectTerm& rect) {
  FDET_CHECK(rect.x >= 0 && rect.x < 32 && rect.y >= 0 && rect.y < 32 &&
             rect.w > 0 && rect.w < 32 && rect.h > 0 && rect.h < 32)
      << "rect fields out of 5-bit range";
  const std::uint32_t packed =
      (static_cast<std::uint32_t>(rect.x)) |
      (static_cast<std::uint32_t>(rect.y) << 5) |
      (static_cast<std::uint32_t>(rect.w) << 10) |
      (static_cast<std::uint32_t>(rect.h) << 15) |
      (static_cast<std::uint32_t>(weight_index(rect.weight)) << 20);
  return {static_cast<std::uint16_t>(packed & 0xffffu),
          static_cast<std::uint16_t>(packed >> 16)};
}

RectTerm decode_rect(const EncodedRect& encoded) {
  const std::uint32_t packed =
      static_cast<std::uint32_t>(encoded.lo) |
      (static_cast<std::uint32_t>(encoded.hi) << 16);
  RectTerm rect;
  rect.x = static_cast<std::int8_t>(packed & 31u);
  rect.y = static_cast<std::int8_t>((packed >> 5) & 31u);
  rect.w = static_cast<std::int8_t>((packed >> 10) & 31u);
  rect.h = static_cast<std::int8_t>((packed >> 15) & 31u);
  rect.weight = kWeightTable[(packed >> 20) & 7u];
  return rect;
}

EncodedClassifier encode_classifier(const WeakClassifier& wc) {
  EncodedClassifier out;
  const HaarFeature::Decomposition d = wc.feature.decompose();
  out.rect_count = static_cast<std::uint8_t>(d.count);
  for (int i = 0; i < d.count; ++i) {
    out.rects[static_cast<std::size_t>(i)] = encode_rect(d.rects[static_cast<std::size_t>(i)]);
  }
  out.threshold_q = quantize(wc.threshold, 1.0f / kThresholdScale, "threshold");
  out.left_q = quantize(wc.left_vote, kVoteScale, "left vote");
  out.right_q = quantize(wc.right_vote, kVoteScale, "right vote");
  return out;
}

ConstantBank ConstantBank::build(const Cascade& cascade) {
  ConstantBank bank;
  for (const Stage& stage : cascade.stages()) {
    EncodedStage entry;
    entry.first = static_cast<std::uint32_t>(bank.classifiers_.size());
    entry.count = static_cast<std::uint32_t>(stage.classifiers.size());
    entry.threshold_q = quantize_saturating(stage.threshold, kVoteScale);
    bank.stages_.push_back(entry);
    for (const WeakClassifier& wc : stage.classifiers) {
      bank.classifiers_.push_back(encode_classifier(wc));
    }
  }
  return bank;
}

std::size_t ConstantBank::bytes_compressed() const {
  std::size_t bytes = stages_.size() * (4 + 4 + 2);
  for (const EncodedClassifier& c : classifiers_) {
    // rect words + count byte + three 16-bit scalars
    bytes += static_cast<std::size_t>(c.rect_count) * 4 + 1 + 6;
  }
  return bytes;
}

std::size_t ConstantBank::bytes_raw() const {
  std::size_t bytes = stages_.size() * (4 + 4 + 4);
  for (const EncodedClassifier& c : classifiers_) {
    // five 32-bit fields per rectangle (x, y, w, h, weight) + three floats
    bytes += static_cast<std::size_t>(c.rect_count) * 5 * 4 + 3 * 4;
  }
  return bytes;
}

}  // namespace fdet::haar
