#include "haar/encoding.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "haar/enumerate.h"
#include "haar/profile.h"

namespace fdet::haar {
namespace {

/// Inverse of encode_classifier for the quantized scalars: the stump
/// threshold and both votes (the feature is not reconstructed).
WeakClassifier decode_classifier(const EncodedClassifier& encoded) {
  WeakClassifier wc;
  wc.threshold = static_cast<float>(encoded.threshold_q) * kThresholdScale;
  wc.left_vote = static_cast<float>(encoded.left_q) / kVoteScale;
  wc.right_vote = static_cast<float>(encoded.right_q) / kVoteScale;
  return wc;
}

/// Reads a bank back into a Cascade through its stage directory
/// (quantized values: lossy by design).
Cascade decode_bank(const ConstantBank& bank) {
  Cascade cascade("decoded");
  for (const EncodedStage& entry : bank.stages()) {
    Stage stage;
    stage.threshold = static_cast<float>(entry.threshold_q) / kVoteScale;
    for (std::uint32_t i = 0; i < entry.count; ++i) {
      stage.classifiers.push_back(
          decode_classifier(bank.classifiers()[entry.first + i]));
    }
    cascade.add_stage(std::move(stage));
  }
  return cascade;
}

TEST(Encoding, RectRoundTripsEveryFeatureInTheEnumeration) {
  // Property: encode/decode is exact for every rectangle of every feature
  // of every family on a representative grid.
  for (const HaarType type :
       {HaarType::kEdge, HaarType::kLine, HaarType::kCenterSurround,
        HaarType::kDiagonal}) {
    for_each_feature(
        type, EnumerationGrid{.position_step = 2, .cell_step = 2},
        [](const HaarFeature& f) {
          const auto d = f.decompose();
          for (int i = 0; i < d.count; ++i) {
            const RectTerm& r = d.rects[static_cast<std::size_t>(i)];
            const RectTerm back = decode_rect(encode_rect(r));
            ASSERT_EQ(back.x, r.x);
            ASSERT_EQ(back.y, r.y);
            ASSERT_EQ(back.w, r.w);
            ASSERT_EQ(back.h, r.h);
            ASSERT_EQ(back.weight, r.weight);
          }
        });
  }
}

TEST(Encoding, RectUsesExactlyTwo16BitWords) {
  static_assert(sizeof(EncodedRect) == 4);
  const RectTerm r{23, 17, 8, 4, -9};
  const EncodedRect e = encode_rect(r);
  // Both halves carry payload for this rect.
  EXPECT_NE(e.lo, 0);
  EXPECT_NE(e.hi, 0);
}

TEST(Encoding, RejectsOutOfRangeRects) {
  EXPECT_THROW(encode_rect(RectTerm{32, 0, 1, 1, 1}), core::CheckError);
  EXPECT_THROW(encode_rect(RectTerm{0, 0, 0, 1, 1}), core::CheckError);
  EXPECT_THROW(encode_rect(RectTerm{0, 0, 1, 1, 5}), core::CheckError);
}

TEST(Encoding, ThresholdQuantizationErrorIsBounded) {
  core::Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    WeakClassifier wc;
    wc.feature = {HaarType::kEdge, false, 0, 0, 4, 4};
    wc.threshold = static_cast<float>(rng.uniform(-4e5, 4e5));
    wc.left_vote = static_cast<float>(rng.uniform(-2.0, 2.0));
    wc.right_vote = static_cast<float>(rng.uniform(-2.0, 2.0));
    const WeakClassifier back = decode_classifier(encode_classifier(wc));
    EXPECT_NEAR(back.threshold, wc.threshold, kThresholdScale / 2.0f + 1e-3f);
    EXPECT_NEAR(back.left_vote, wc.left_vote, 0.5f / kVoteScale + 1e-5f);
    EXPECT_NEAR(back.right_vote, wc.right_vote, 0.5f / kVoteScale + 1e-5f);
  }
}

TEST(Encoding, ConstantBankPreservesStructure) {
  const Cascade cascade =
      build_profile_cascade("bank", std::vector<int>{4, 7, 11}, 3);
  const ConstantBank bank = ConstantBank::build(cascade);
  ASSERT_EQ(bank.stages().size(), 3u);
  EXPECT_EQ(bank.stages()[0].first, 0u);
  EXPECT_EQ(bank.stages()[0].count, 4u);
  EXPECT_EQ(bank.stages()[1].first, 4u);
  EXPECT_EQ(bank.stages()[1].count, 7u);
  EXPECT_EQ(bank.stages()[2].first, 11u);
  EXPECT_EQ(bank.classifiers().size(), 22u);
}

TEST(Encoding, CompressionShrinksFootprintSubstantially) {
  const Cascade cascade =
      build_profile_cascade("size", opencv_frontal_profile(), 5);
  const ConstantBank bank = ConstantBank::build(cascade);
  EXPECT_LT(bank.bytes_compressed(), bank.bytes_raw() / 2);
}

TEST(Encoding, PaperCascadesFitConstantMemoryOnlyCompressed) {
  // The full OpenCV-profile cascade (2913 stumps) must fit the 64 KiB
  // constant memory in compressed form — the point of the re-encoding.
  const Cascade big =
      build_profile_cascade("opencv", opencv_frontal_profile(), 7);
  const ConstantBank bank = ConstantBank::build(big);
  EXPECT_TRUE(bank.fits_constant_memory(64 * 1024));
  EXPECT_FALSE(bank.bytes_raw() <= 64 * 1024);

  const Cascade compact =
      build_profile_cascade("ours", compact_profile(), 7);
  EXPECT_TRUE(
      ConstantBank::build(compact).fits_constant_memory(64 * 1024));
}

TEST(Encoding, DecodedCascadeKeepsStageGeometry) {
  const Cascade cascade =
      build_profile_cascade("geo", std::vector<int>{2, 3}, 9);
  const Cascade decoded = decode_bank(ConstantBank::build(cascade));
  ASSERT_EQ(decoded.stage_count(), 2);
  EXPECT_EQ(decoded.stages()[0].classifiers.size(), 2u);
  EXPECT_EQ(decoded.stages()[1].classifiers.size(), 3u);
}

}  // namespace
}  // namespace fdet::haar
