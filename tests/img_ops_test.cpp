#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "img/draw.h"
#include "img/io.h"
#include "img/nv12.h"
#include "img/pyramid.h"
#include "img/texture.h"

namespace fdet::img {
namespace {

TEST(Sampler, ReproducesTexelCenters) {
  ImageF32 im(3, 3);
  im(1, 1) = 10.0f;
  const BilinearSampler<float> sampler(im);
  EXPECT_FLOAT_EQ(sampler.sample(1.5f, 1.5f), 10.0f);
  EXPECT_FLOAT_EQ(sampler.sample(0.5f, 0.5f), 0.0f);
}

TEST(Sampler, InterpolatesLinearly) {
  ImageF32 im(2, 1);
  im(0, 0) = 0.0f;
  im(1, 0) = 100.0f;
  const BilinearSampler<float> sampler(im);
  EXPECT_NEAR(sampler.sample(1.0f, 0.5f), 50.0f, 1e-4);
  EXPECT_NEAR(sampler.sample(0.75f, 0.5f), 25.0f, 1e-4);
}

TEST(Sampler, ClampsAtEdges) {
  ImageF32 im(2, 2);
  im(0, 0) = 4.0f;
  const BilinearSampler<float> sampler(im);
  EXPECT_FLOAT_EQ(sampler.sample(-5.0f, -5.0f), 4.0f);
}

TEST(Sampler, ReproducesExactLinearRamp) {
  // A bilinear sampler must reproduce an affine image exactly (interior).
  ImageF32 im(8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      im(x, y) = static_cast<float>(2 * x + 3 * y);
    }
  }
  const BilinearSampler<float> sampler(im);
  for (float y = 1.0f; y < 7.0f; y += 0.37f) {
    for (float x = 1.0f; x < 7.0f; x += 0.41f) {
      const float expected = 2.0f * (x - 0.5f) + 3.0f * (y - 0.5f);
      EXPECT_NEAR(sampler.sample(x, y), expected, 1e-3);
    }
  }
}

TEST(Pyramid, PlanStopsAtWindowSize) {
  const PyramidPlan plan = plan_pyramid(1920, 1080, 1.25, 24);
  ASSERT_FALSE(plan.levels.empty());
  EXPECT_EQ(plan.levels.front().width, 1920);
  EXPECT_EQ(plan.levels.front().height, 1080);
  for (const auto& level : plan.levels) {
    EXPECT_GE(level.width, 24);
    EXPECT_GE(level.height, 24);
  }
  // The next level after the last must violate the minimum.
  const auto& last = plan.levels.back();
  EXPECT_LT(std::min(last.width, last.height) / 1.25, 24.0 * 1.25);
}

TEST(Pyramid, FactorsFormGeometricSequence) {
  const PyramidPlan plan = plan_pyramid(1000, 1000, 1.5, 24);
  for (std::size_t i = 1; i < plan.levels.size(); ++i) {
    EXPECT_NEAR(plan.levels[i].factor / plan.levels[i - 1].factor, 1.5, 1e-9);
  }
}

TEST(Pyramid, Of1080pHasPaperLikeLevelCount) {
  // With a 1.25 step and 24px window, 1080p yields ~17 levels; the paper's
  // Fig. 7 shows rejection rates across a comparable number of scales.
  const PyramidPlan plan = plan_pyramid(1920, 1080, 1.25, 24);
  EXPECT_GE(plan.levels.size(), 12u);
  EXPECT_LE(plan.levels.size(), 20u);
}

TEST(Resize, IdentityWhenSameSize) {
  ImageF32 im(10, 10);
  im(3, 4) = 7.0f;
  const ImageF32 out = resize_bilinear(im, 10, 10);
  EXPECT_NEAR(out(3, 4), 7.0f, 1e-4);
}

TEST(Nv12, RoundTripsGray) {
  ImageU8 gray(16, 16);
  gray(3, 3) = 200;
  const Nv12Frame frame = Nv12Frame::from_gray(gray);
  EXPECT_EQ(frame.luma()(3, 3), 200);
  ImageU8 r, g, b;
  frame.to_rgb(r, g, b);
  // Neutral chroma: RGB equals luma.
  EXPECT_NEAR(r(3, 3), 200, 1);
  EXPECT_NEAR(g(3, 3), 200, 1);
  EXPECT_NEAR(b(3, 3), 200, 1);
}

TEST(Nv12, RejectsOddDimensions) {
  EXPECT_THROW(Nv12Frame(15, 16), core::CheckError);
  EXPECT_THROW(Nv12Frame(16, 15), core::CheckError);
}

TEST(Io, PpmWritesExpectedSize) {
  ImageU8 plane(8, 4);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fdet_io_test.ppm").string();
  write_ppm(path, plane, plane, plane);
  EXPECT_GT(std::filesystem::file_size(path), 8u * 4 * 3);
  std::remove(path.c_str());
}

TEST(Draw, OutlinesRectangleAndClips) {
  ImageU8 im(10, 10);
  draw_rect(im, Rect{-2, -2, 6, 6}, 255, 1);
  // Interior untouched, border drawn where inside the image.
  EXPECT_EQ(im(3, 0), 255);  // top edge (clipped row 0? rect row -2 clipped)
  EXPECT_EQ(im(3, 3), 255);  // bottom edge at y=3
  EXPECT_EQ(im(2, 2), 0);    // interior
}

TEST(Draw, ThicknessGrowsInward) {
  ImageU8 im(20, 20);
  draw_rect(im, Rect{2, 2, 10, 10}, 200, 2);
  EXPECT_EQ(im(2, 2), 200);
  EXPECT_EQ(im(3, 3), 200);
  EXPECT_EQ(im(4, 4), 0);
}

}  // namespace
}  // namespace fdet::img
