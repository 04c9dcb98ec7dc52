#include "train/dataset_matrix.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "facegen/face.h"
#include "integral/integral.h"

namespace fdet::train {
namespace {

img::ImageU8 random_window(std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(haar::kWindowSize, haar::kWindowSize);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

/// Column 0 of matrix row `r`, read through a one-term evaluation.
std::int32_t entry(const DatasetMatrix& m, int r) {
  const DatasetMatrix::Term term{r, 1};
  std::vector<std::int32_t> out(static_cast<std::size_t>(m.cols()));
  m.evaluate_terms({&term, 1}, out);
  return out[0];
}

TEST(DatasetMatrix, StoresPaddedIntegralColumns) {
  img::ImageU8 window(haar::kWindowSize, haar::kWindowSize);
  window.fill(1);
  DatasetMatrix m;
  m.add_window(window);
  ASSERT_EQ(m.cols(), 1);
  // Padded row/column are zero.
  EXPECT_EQ(entry(m, DatasetMatrix::row_index(0, 0)), 0);
  EXPECT_EQ(entry(m, DatasetMatrix::row_index(5, 0)), 0);
  EXPECT_EQ(entry(m, DatasetMatrix::row_index(0, 5)), 0);
  // Entry (gx, gy) = gx * gy for a constant-1 image.
  EXPECT_EQ(entry(m, DatasetMatrix::row_index(3, 4)), 12);
  EXPECT_EQ(entry(m, DatasetMatrix::row_index(24, 24)), 576);
}

TEST(DatasetMatrix, RejectsWrongWindowSize) {
  DatasetMatrix m;
  img::ImageU8 wrong(16, 16);
  EXPECT_THROW(m.add_window(wrong), core::CheckError);
}

TEST(DatasetMatrix, FeatureTermsReproduceResponses) {
  // Property: the row-arithmetic path (training) must agree with the
  // integral-image path (detection) on every family and random windows.
  DatasetMatrix m;
  std::vector<integral::IntegralImage> iis;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const img::ImageU8 window = random_window(seed);
    m.add_window(window);
    iis.push_back(integral::integral_cpu(window));
  }

  core::Rng rng(55);
  std::vector<std::int32_t> out(static_cast<std::size_t>(m.cols()));
  for (int trial = 0; trial < 200; ++trial) {
    haar::HaarFeature f;
    f.type = static_cast<haar::HaarType>(rng.uniform_int(0, 3));
    f.vertical = rng.bernoulli(0.5);
    f.cw = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
    f.ch = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
    if (f.extent_w() > haar::kWindowSize || f.extent_h() > haar::kWindowSize) {
      continue;
    }
    f.x = static_cast<std::uint8_t>(
        rng.uniform_int(0, haar::kWindowSize - f.extent_w()));
    f.y = static_cast<std::uint8_t>(
        rng.uniform_int(0, haar::kWindowSize - f.extent_h()));

    m.evaluate_terms(DatasetMatrix::feature_terms(f), out);
    for (int j = 0; j < m.cols(); ++j) {
      ASSERT_EQ(out[static_cast<std::size_t>(j)],
                f.response(iis[static_cast<std::size_t>(j)], 0, 0))
          << haar::to_string(f.type) << " window " << j;
    }
  }
}

TEST(DatasetMatrix, TermsMergeSharedCorners) {
  // Adjacent rects share corners: an edge feature (2 rects, 8 raw corners)
  // must compress below 8 terms.
  const haar::HaarFeature f{haar::HaarType::kEdge, false, 2, 3, 4, 5};
  const auto terms = DatasetMatrix::feature_terms(f);
  EXPECT_LT(terms.size(), 8u);
  EXPECT_GE(terms.size(), 4u);
  for (const auto& t : terms) {
    EXPECT_NE(t.coeff, 0);
    EXPECT_GE(t.row, 0);
    EXPECT_LT(t.row, DatasetMatrix::kRows);
  }
}

TEST(DatasetMatrix, GrowthPreservesEarlierColumns) {
  DatasetMatrix m(2);  // force several grows
  std::vector<img::ImageU8> windows;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    windows.push_back(random_window(seed + 1000));
    m.add_window(windows.back());
  }
  ASSERT_EQ(m.cols(), 40);
  const haar::HaarFeature f{haar::HaarType::kDiagonal, false, 1, 1, 6, 6};
  std::vector<std::int32_t> out(40);
  m.evaluate_terms(DatasetMatrix::feature_terms(f), out);
  for (int j = 0; j < 40; ++j) {
    const auto ii = integral::integral_cpu(windows[static_cast<std::size_t>(j)]);
    EXPECT_EQ(out[static_cast<std::size_t>(j)], f.response(ii, 0, 0));
  }
}

TEST(DatasetMatrix, EvaluateRejectsWrongOutputSize) {
  DatasetMatrix m;
  m.add_window(random_window(1));
  std::vector<std::int32_t> wrong(5);
  EXPECT_THROW(
      m.evaluate_terms(DatasetMatrix::feature_terms(
                           {haar::HaarType::kEdge, false, 0, 0, 2, 2}),
                       wrong),
      core::CheckError);
}

TEST(DatasetMatrix, SimdAndScalarTailsAgree) {
  // Column counts straddling the 4-wide SSE boundary.
  for (const int n : {1, 3, 4, 5, 7, 8, 9, 31}) {
    DatasetMatrix m;
    std::vector<integral::IntegralImage> iis;
    for (int j = 0; j < n; ++j) {
      const img::ImageU8 w = random_window(static_cast<std::uint64_t>(j) + 7);
      m.add_window(w);
      iis.push_back(integral::integral_cpu(w));
    }
    const haar::HaarFeature f{haar::HaarType::kLine, true, 3, 1, 5, 7};
    std::vector<std::int32_t> out(static_cast<std::size_t>(n));
    m.evaluate_terms(DatasetMatrix::feature_terms(f), out);
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(out[static_cast<std::size_t>(j)],
                f.response(iis[static_cast<std::size_t>(j)], 0, 0))
          << "n=" << n << " j=" << j;
    }
  }
}

}  // namespace
}  // namespace fdet::train
