// Compressed feature encoding for constant memory (paper Sec. III-C).
//
// "Since all bits of the thresholds, coordinates, dimensions and weight
// values are not significant, we propose reencoding and combining them
// into two 16-bit words using simple bitwise operations and masks."
//
// Each rectangle record packs x,y,w,h (5 bits each, window is 24x24) and a
// 3-bit weight-table index into one 32-bit value = two 16-bit words.
// Stump thresholds are quantized to 16-bit fixed point (responses span
// about ±2^19, so a /16 scale keeps them exact to one part in ~2^15), and
// votes to 1/256 steps. The constant bank is the flat image the cascade
// evaluation kernel fetches from constant memory; bytes_raw() vs
// bytes_compressed() quantifies the footprint reduction the paper is
// after (64 KiB of constant memory must hold the whole cascade).
#pragma once

#include <cstdint>
#include <vector>

#include "haar/cascade.h"

namespace fdet::haar {

/// Weight values used by the four feature families.
inline constexpr std::array<std::int8_t, 8> kWeightTable = {1,  -1, 2, -2,
                                                            9,  -9, 3, -3};

/// Threshold fixed-point scale: stored = round(threshold / 16).
inline constexpr float kThresholdScale = 16.0f;
/// Vote fixed-point scale: stored = round(vote * 256).
inline constexpr float kVoteScale = 256.0f;

struct EncodedRect {
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;

  bool operator==(const EncodedRect&) const = default;
};

/// Packs a rectangle term; throws core::CheckError if any field does not
/// fit (coordinates > 31 or weight not in kWeightTable).
EncodedRect encode_rect(const RectTerm& rect);
RectTerm decode_rect(const EncodedRect& encoded);

/// One weak classifier in constant-memory form.
struct EncodedClassifier {
  std::array<EncodedRect, 4> rects;
  std::uint8_t rect_count = 0;
  std::int16_t threshold_q = 0;
  std::int16_t left_q = 0;
  std::int16_t right_q = 0;
};

EncodedClassifier encode_classifier(const WeakClassifier& wc);

/// Stage directory entry in the constant bank.
struct EncodedStage {
  std::uint32_t first = 0;   ///< index of the stage's first classifier
  std::uint32_t count = 0;
  std::int16_t threshold_q = 0;
};

/// The flat constant-memory image of a full cascade.
class ConstantBank {
 public:
  static ConstantBank build(const Cascade& cascade);

  const std::vector<EncodedStage>& stages() const { return stages_; }
  const std::vector<EncodedClassifier>& classifiers() const {
    return classifiers_;
  }

  /// Bytes in the compressed constant-memory layout.
  std::size_t bytes_compressed() const;

  /// Bytes if every rectangle kept 5 x 32-bit fields and every stump three
  /// 32-bit values (the uncompressed layout the paper improves on).
  std::size_t bytes_raw() const;

  /// True when the bank fits the device's 64 KiB constant memory.
  bool fits_constant_memory(std::size_t constant_bytes) const {
    return bytes_compressed() <= constant_bytes;
  }

 private:
  std::vector<EncodedStage> stages_;
  std::vector<EncodedClassifier> classifiers_;
};

}  // namespace fdet::haar
