#include <gtest/gtest.h>

#include <cmath>

#include "detect/detection.h"
#include "detect/grouping.h"

namespace fdet::detect {
namespace {

TEST(Ssquare, IdenticalBoxesScoreOne) {
  const img::Rect r{10, 10, 20, 20};
  EXPECT_DOUBLE_EQ(s_square(r, r), 1.0);
}

TEST(Ssquare, DisjointBoxesScoreZero) {
  EXPECT_DOUBLE_EQ(s_square({0, 0, 5, 5}, {50, 50, 5, 5}), 0.0);
}

TEST(Ssquare, HalfOverlapIsOneThird) {
  // Two 10x10 boxes overlapping in a 5x10 strip: 50 / (200-50) = 1/3.
  EXPECT_NEAR(s_square({0, 0, 10, 10}, {5, 0, 10, 10}), 1.0 / 3.0, 1e-12);
}

TEST(Seyes, IdenticalEyesScoreZero) {
  const Detection d{{10, 10, 48, 48}, 0.0f, 1, 0};
  EXPECT_DOUBLE_EQ(s_eyes(d.predicted_eyes(), d.predicted_eyes()), 0.0);
}

TEST(Seyes, ScalesWithNormalizedDistance) {
  // Shift a detection by its inter-eye distance: both eyes move by d, so
  // the score is (d + d) / d = 2.
  const Detection a{{0, 0, 100, 100}, 0.0f, 1, 0};
  const EyePair ea = a.predicted_eyes();
  const double d = ea.inter_eye_distance();
  Detection b = a;
  b.box.x += static_cast<int>(d);
  EXPECT_NEAR(s_eyes(ea, b.predicted_eyes()), 2.0, 0.05);
}

TEST(Seyes, UsesSmallerEyeDistanceAsDenominator) {
  const Detection small{{0, 0, 50, 50}, 0.0f, 1, 0};
  const Detection large{{0, 0, 200, 200}, 0.0f, 1, 0};
  const double s = s_eyes(small.predicted_eyes(), large.predicted_eyes());
  // Denominator is the small face's eye distance (0.34*50 = 17).
  const double dle = std::hypot(
      small.predicted_eyes().left_x - large.predicted_eyes().left_x,
      small.predicted_eyes().left_y - large.predicted_eyes().left_y);
  const double dre = std::hypot(
      small.predicted_eyes().right_x - large.predicted_eyes().right_x,
      small.predicted_eyes().right_y - large.predicted_eyes().right_y);
  EXPECT_NEAR(s, (dle + dre) / (0.34 * 50), 1e-9);
}

TEST(PredictedEyes, FollowCanonicalGeometry) {
  const Detection d{{100, 200, 48, 48}, 0.0f, 1, 0};
  const EyePair eyes = d.predicted_eyes();
  EXPECT_NEAR(eyes.left_x, 100 + (0.5 - kCanonicalEyeDx) * 48, 1e-9);
  EXPECT_NEAR(eyes.right_x, 100 + (0.5 + kCanonicalEyeDx) * 48, 1e-9);
  EXPECT_NEAR(eyes.left_y, 200 + kCanonicalEyeY * 48, 1e-9);
}

TEST(Grouping, MergesNearbyWindowsIntoOne) {
  std::vector<Detection> raw;
  for (int d = 0; d < 5; ++d) {
    raw.push_back({{100 + d, 100 - d, 48, 48}, static_cast<float>(d), 1, 2});
  }
  const auto grouped = group_detections(raw);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].neighbors, 5);
  EXPECT_FLOAT_EQ(grouped[0].score, 4.0f);  // max member score
  EXPECT_NEAR(grouped[0].box.x, 102, 1);
  EXPECT_EQ(grouped[0].box.w, 48);
}

TEST(Grouping, KeepsDistantFacesSeparate) {
  std::vector<Detection> raw{{{0, 0, 48, 48}, 0.0f, 1, 0},
                             {{300, 300, 48, 48}, 0.0f, 1, 0}};
  EXPECT_EQ(group_detections(raw).size(), 2u);
}

TEST(Grouping, DifferentScalesOfSameFaceMerge) {
  // A 48 and a 60 px window centred on the same face.
  std::vector<Detection> raw{{{100, 100, 48, 48}, 1.0f, 1, 2},
                             {{94, 94, 60, 60}, 2.0f, 1, 3}};
  const auto grouped = group_detections(raw);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].neighbors, 2);
  EXPECT_EQ(grouped[0].scale_index, 3);
}

TEST(Grouping, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(group_detections({}).empty());
}

TEST(Grouping, SingleWindowPassesThroughUnchanged) {
  const std::vector<Detection> raw{{{100, 100, 48, 48}, 3.5f, 1, 2}};
  const auto grouped = group_detections(raw);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].box, raw[0].box);
  EXPECT_EQ(grouped[0].neighbors, 1);
  EXPECT_FLOAT_EQ(grouped[0].score, 3.5f);
  EXPECT_EQ(grouped[0].scale_index, 2);
}

TEST(Grouping, NeighborsNeverExceedTheRawWindowCount) {
  // min_neighbors filters compare against `neighbors`, so its ceiling is
  // the raw count: a min_neighbors above the number of raw windows must
  // be able to reject everything, never underflow or wrap.
  std::vector<Detection> raw;
  for (int d = 0; d < 3; ++d) {
    raw.push_back({{100 + d, 100, 48, 48}, 0.0f, 1, 0});
  }
  const auto grouped = group_detections(raw);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].neighbors, 3);

  const int min_neighbors = static_cast<int>(raw.size()) + 1;
  std::vector<Detection> filtered = grouped;
  std::erase_if(filtered, [&](const Detection& d) {
    return d.neighbors < min_neighbors;
  });
  EXPECT_TRUE(filtered.empty());
}

TEST(Grouping, ThresholdZeroKeepsEveryWindowSeparate) {
  // s_eyes >= 0 always, so nothing clusters at threshold 0 — each window
  // survives as its own single-member group.
  std::vector<Detection> raw{{{100, 100, 48, 48}, 0.0f, 1, 0},
                             {{101, 100, 48, 48}, 1.0f, 1, 0}};
  const auto grouped = group_detections(raw, 0.0);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].neighbors, 1);
  EXPECT_EQ(grouped[1].neighbors, 1);
}

TEST(Grouping, TransitiveChainsCollapse) {
  // a~b and b~c but a!~c directly (s_eyes(a, c) = 8/16.32 ≈ 0.98 > 0.5):
  // union-find must still merge all three.
  std::vector<Detection> raw{{{100, 100, 48, 48}, 0.0f, 1, 0},
                             {{104, 100, 48, 48}, 0.0f, 1, 0},
                             {{108, 100, 48, 48}, 0.0f, 1, 0}};
  const auto grouped = group_detections(raw);
  EXPECT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].neighbors, 3);
}

TEST(Grouping, EmitsClustersInRootOrder) {
  // 0~4 and 3~4 merge but 0!~3 (the chain above); 1~2 far away. Pair
  // (0,4) roots {0,4} at 0, then (3,4) re-roots it at 3, so cluster
  // {0,3,4} is emitted after {1,2} (root 1) despite holding index 0.
  const std::vector<Detection> raw{{{100, 100, 48, 48}, 0.0f, 1, 0},
                                   {{300, 100, 48, 48}, 1.0f, 1, 0},
                                   {{302, 100, 48, 48}, 2.0f, 1, 0},
                                   {{108, 100, 48, 48}, 3.0f, 1, 0},
                                   {{104, 100, 48, 48}, 4.0f, 1, 0}};
  const auto grouped = group_detections(raw);
  ASSERT_EQ(grouped.size(), 2u);
  EXPECT_EQ(grouped[0].neighbors, 2);
  EXPECT_EQ(grouped[0].box, (img::Rect{301, 100, 48, 48}));
  EXPECT_FLOAT_EQ(grouped[0].score, 2.0f);
  EXPECT_EQ(grouped[1].neighbors, 3);
  EXPECT_EQ(grouped[1].box, (img::Rect{104, 100, 48, 48}));
  EXPECT_FLOAT_EQ(grouped[1].score, 4.0f);
}

}  // namespace
}  // namespace fdet::detect
