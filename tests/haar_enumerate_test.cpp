#include "haar/enumerate.h"

#include <gtest/gtest.h>

#include <set>

namespace fdet::haar {
namespace {

TEST(Enumerate, FullGridCountsMatchClosedForms) {
  // Edge (2 cells): per orientation Σ_cw (25-2cw) * Σ_ch (25-ch)
  //   = 144 * 300 = 43200; both orientations = 86400.
  EXPECT_EQ(count_features(HaarType::kEdge), 2 * 144 * 300);
  // Line (3 cells): Σ_cw (25-3cw) = 92 -> 92 * 300 per orientation.
  EXPECT_EQ(count_features(HaarType::kLine), 2 * 92 * 300);
  // Center-surround (3x3 cells): 92 * 92.
  EXPECT_EQ(count_features(HaarType::kCenterSurround), 92 * 92);
  // Diagonal (2x2 cells): 144 * 144.
  EXPECT_EQ(count_features(HaarType::kDiagonal), 144 * 144);
}

TEST(Enumerate, EveryFeatureIsValidAndUnique) {
  for (const HaarType type :
       {HaarType::kEdge, HaarType::kLine, HaarType::kCenterSurround,
        HaarType::kDiagonal}) {
    std::set<std::tuple<bool, int, int, int, int>> seen;
    for_each_feature(type, EnumerationGrid{.position_step = 2, .cell_step = 2},
                     [&](const HaarFeature& f) {
                       ASSERT_TRUE(f.valid());
                       ASSERT_EQ(f.type, type);
                       ASSERT_TRUE(seen.insert({f.vertical, f.x, f.y, f.cw, f.ch}).second);
                     });
    EXPECT_FALSE(seen.empty());
  }
}

TEST(Enumerate, CoarserGridsShrinkTheCount) {
  const auto full = count_features(HaarType::kEdge, EnumerationGrid{});
  const auto strided =
      count_features(HaarType::kEdge, EnumerationGrid{.position_step = 2});
  const auto coarse_cells =
      count_features(HaarType::kEdge, EnumerationGrid{.cell_step = 2});
  EXPECT_LT(strided, full);
  EXPECT_LT(coarse_cells, full);
  EXPECT_GT(strided, full / 5);  // step 2 in two axes ~ /4
}

TEST(Enumerate, MinCellFiltersSmallFeatures) {
  for_each_feature(HaarType::kDiagonal, EnumerationGrid{.min_cell = 3},
                   [](const HaarFeature& f) {
                     ASSERT_GE(f.cw, 3);
                     ASSERT_GE(f.ch, 3);
                   });
}

TEST(Enumerate, SinkSeesEveryCountedFeature) {
  const EnumerationGrid grid{.position_step = 3, .cell_step = 3};
  std::int64_t seen = 0;
  const std::int64_t visited = for_each_feature(
      HaarType::kLine, grid, [&seen](const HaarFeature&) { ++seen; });
  EXPECT_EQ(seen, visited);
  EXPECT_EQ(seen, count_features(HaarType::kLine, grid));
}

TEST(Enumerate, SampleHitsRequestedOrderOfMagnitude) {
  const auto sample = sample_features(HaarType::kEdge, 500, 42);
  EXPECT_GT(sample.size(), 250u);
  EXPECT_LT(sample.size(), 4000u);
  for (const auto& f : sample) {
    EXPECT_TRUE(f.valid());
  }
}

TEST(Enumerate, SampleIsDeterministic) {
  const auto a = sample_features(HaarType::kLine, 300, 7);
  const auto b = sample_features(HaarType::kLine, 300, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
  const auto c = sample_features(HaarType::kLine, 300, 8);
  EXPECT_NE(a.size(), c.size());  // different seed, different subset (whp)
}

TEST(Enumerate, PaperTotalsAreRecorded) {
  EXPECT_EQ(kPaperCombinations.edge, 55660);
  EXPECT_EQ(kPaperCombinations.line, 31878);
  EXPECT_EQ(kPaperCombinations.center_surround, 3969);
  EXPECT_EQ(kPaperCombinations.diagonal, 12100);
  EXPECT_EQ(kPaperCombinations.total(), 103607);
}

}  // namespace
}  // namespace fdet::haar
