#include "detect/kernels.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "haar/profile.h"
#include "img/pyramid.h"

namespace fdet::detect {
namespace {

img::ImageU8 random_image(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

/// Host oracle of what the cascade kernel computes for the window at
/// (wx, wy): the quantized cascade read back from the constant bank and
/// evaluated against the plain integral image (deepest stage + the score
/// of the last stage walked).
haar::CascadeResult evaluate_bank(const haar::ConstantBank& bank,
                                  const integral::IntegralImage& ii, int wx,
                                  int wy) {
  haar::CascadeResult result;
  const auto& stages = bank.stages();
  for (std::size_t s = 0; s < stages.size(); ++s) {
    float score = 0.0f;
    for (std::uint32_t c = 0; c < stages[s].count; ++c) {
      const haar::EncodedClassifier& ec =
          bank.classifiers()[stages[s].first + c];
      std::int64_t response = 0;
      for (int r = 0; r < ec.rect_count; ++r) {
        const haar::RectTerm rect =
            haar::decode_rect(ec.rects[static_cast<std::size_t>(r)]);
        response += static_cast<std::int64_t>(rect.weight) *
                    ii.sum(wx + rect.x, wy + rect.y, wx + rect.x + rect.w,
                           wy + rect.y + rect.h);
      }
      const float threshold =
          static_cast<float>(ec.threshold_q) * haar::kThresholdScale;
      score += static_cast<float>(response) < threshold
                   ? static_cast<float>(ec.left_q) / haar::kVoteScale
                   : static_cast<float>(ec.right_q) / haar::kVoteScale;
    }
    result.score = score;
    if (score < static_cast<float>(stages[s].threshold_q) / haar::kVoteScale) {
      return result;
    }
    result.depth = static_cast<int>(s) + 1;
  }
  result.accepted = result.depth == static_cast<int>(stages.size());
  return result;
}

/// The filter stage as Pipeline runs it: filter_kernel along rows, then
/// along columns.
img::ImageU8 filter_both_axes(const vgpu::DeviceSpec& spec,
                              const img::ImageU8& source) {
  img::ImageU8 rows(source.width(), source.height());
  filter_kernel(spec, source, rows, /*horizontal=*/true, "filter_h");
  img::ImageU8 out(source.width(), source.height());
  filter_kernel(spec, rows, out, /*horizontal=*/false, "filter_v");
  return out;
}

double mean_of(const img::ImageU8& image) {
  double sum = 0.0;
  for (const std::uint8_t p : image.pixels()) {
    sum += p;
  }
  return sum / static_cast<double>(image.size());
}

haar::Cascade calibrated_cascade(const integral::IntegralImage& ii,
                                 std::uint64_t seed) {
  haar::Cascade cascade = haar::build_profile_cascade(
      "kernel-test", std::vector<int>{10, 10, 10}, seed);
  haar::calibrate_stage_thresholds(cascade, {&ii},
                                   std::vector<double>{0.4, 0.5, 0.5}, 2);
  return cascade;
}

TEST(ScaleKernel, MatchesHostBilinearResize) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 src = random_image(80, 60, 1);
  img::ImageU8 dst(40, 30);
  scale_kernel(spec, src, dst, "scale");
  const img::ImageF32 reference =
      img::resize_bilinear(src.cast<float>(), 40, 30);
  for (int y = 0; y < 30; ++y) {
    for (int x = 0; x < 40; ++x) {
      ASSERT_NEAR(static_cast<float>(dst(x, y)), reference(x, y), 1.0f);
    }
  }
}

TEST(FilterKernel, MatchesBinomialWeights) {
  const vgpu::DeviceSpec spec;
  img::ImageU8 src(8, 8);
  src.fill(0);
  src(4, 4) = 200;
  img::ImageU8 dst(8, 8);
  filter_kernel(spec, src, dst, /*horizontal=*/true, "fh");
  EXPECT_EQ(dst(4, 4), 100);  // 2/4 of 200
  EXPECT_EQ(dst(3, 4), 50);   // 1/4
  EXPECT_EQ(dst(5, 4), 50);
  EXPECT_EQ(dst(4, 3), 0);    // horizontal only

  filter_kernel(spec, src, dst, /*horizontal=*/false, "fv");
  EXPECT_EQ(dst(4, 3), 50);
  EXPECT_EQ(dst(4, 4), 100);
}

TEST(PyramidKernels, LevelsPreserveMeanBrightness) {
  // Each level exactly as Pipeline builds it: scale_kernel from the
  // native frame, then the filter stage.
  const vgpu::DeviceSpec spec;
  const img::ImageU8 frame = random_image(128, 128, 5);
  const img::PyramidPlan plan = img::plan_pyramid(128, 128, 2.0, 24);
  ASSERT_GT(plan.levels.size(), 1u);
  for (const img::PyramidLevel& level : plan.levels) {
    if (level.index == 0) {
      continue;  // the native frame: neither kernel runs
    }
    img::ImageU8 scaled(level.width, level.height);
    scale_kernel(spec, frame, scaled, "scale");
    EXPECT_NEAR(mean_of(filter_both_axes(spec, scaled)), mean_of(frame), 4.0)
        << "level " << level.index;
  }
}

TEST(PyramidKernels, FilterPreservesConstantImages) {
  const vgpu::DeviceSpec spec;
  img::ImageU8 image(6, 6);
  image.fill(77);
  EXPECT_EQ(filter_both_axes(spec, image), image);
}

TEST(PyramidKernels, FilterPreservesImpulseMass) {
  // Away from the borders the 3x3 kernel [1 2 1]^T [1 2 1] / 16 sums to
  // 1: an impulse of 160 spreads into 40 / 20 / 10 with no rounding loss.
  const vgpu::DeviceSpec spec;
  img::ImageU8 image(11, 11);
  image(5, 5) = 160;
  const img::ImageU8 out = filter_both_axes(spec, image);
  int total = 0;
  for (const std::uint8_t p : out.pixels()) {
    total += p;
  }
  EXPECT_EQ(total, 160);
  EXPECT_GT(out(5, 5), out(4, 5));  // the centre keeps the highest response
}

TEST(PyramidKernels, FilterReducesHighFrequencyEnergy) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(32, 32, 99);
  const img::ImageU8 out = filter_both_axes(spec, image);
  // Sum of squared horizontal neighbour differences must drop sharply.
  const auto roughness = [](const img::ImageU8& im) {
    double acc = 0.0;
    for (int y = 0; y < im.height(); ++y) {
      for (int x = 1; x < im.width(); ++x) {
        const double d = im(x, y) - im(x - 1, y);
        acc += d * d;
      }
    }
    return acc;
  };
  EXPECT_LT(roughness(out), roughness(image) * 0.3);
}

TEST(CascadeKernel, MatchesHostReferenceEverywhere) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(72, 56, 3);
  const auto ii = integral::integral_cpu(image);
  const haar::Cascade cascade = calibrated_cascade(ii, 17);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);

  CascadeKernelOutput out;
  cascade_kernel(spec, bank, ii, out, CascadeKernelOptions{}, "cascade");

  for (int y = 0; y + haar::kWindowSize <= 56; ++y) {
    for (int x = 0; x + haar::kWindowSize <= 72; ++x) {
      const haar::CascadeResult ref = evaluate_bank(bank, ii, x, y);
      ASSERT_EQ(out.depth(x, y), ref.depth) << "(" << x << "," << y << ")";
      ASSERT_NEAR(out.score(x, y), ref.score, 1e-4f);
    }
  }
}

TEST(CascadeKernel, BorderAnchorsAreNotEvaluated) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(64, 64, 4);
  const auto ii = integral::integral_cpu(image);
  // Pass-through cascade: every *valid* window reaches depth 1.
  haar::Cascade cascade =
      haar::build_profile_cascade("pass", std::vector<int>{2}, 5);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);
  CascadeKernelOutput out;
  cascade_kernel(spec, bank, ii, out, CascadeKernelOptions{}, "cascade");
  EXPECT_EQ(out.depth(64 - haar::kWindowSize, 0), 1);
  EXPECT_EQ(out.depth(64 - haar::kWindowSize + 1, 0), 0);  // window overflows
  EXPECT_EQ(out.depth(0, 64 - haar::kWindowSize + 1), 0);
}

TEST(CascadeKernel, Supports24PixelBlocks) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(60, 50, 6);
  const auto ii = integral::integral_cpu(image);
  const haar::Cascade cascade = calibrated_cascade(ii, 23);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);

  CascadeKernelOutput out32;
  CascadeKernelOutput out24;
  cascade_kernel(spec, bank, ii, out32, CascadeKernelOptions{.block_dim = 32},
                 "c32");
  cascade_kernel(spec, bank, ii, out24, CascadeKernelOptions{.block_dim = 24},
                 "c24");
  EXPECT_EQ(out32.depth, out24.depth);  // block size must not change results
}

TEST(CascadeKernel, RejectsBlocksSmallerThanWindow) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(48, 48, 7);
  const auto ii = integral::integral_cpu(image);
  const haar::ConstantBank bank = haar::ConstantBank::build(
      haar::build_profile_cascade("x", std::vector<int>{1}, 1));
  CascadeKernelOutput out;
  EXPECT_THROW(cascade_kernel(spec, bank, ii, out,
                              CascadeKernelOptions{.block_dim = 16}, "bad"),
               core::CheckError);
}

TEST(CascadeKernel, GlobalMemoryFeaturesCostMore) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(96, 64, 8);
  const auto ii = integral::integral_cpu(image);
  const haar::Cascade cascade = calibrated_cascade(ii, 31);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);

  CascadeKernelOutput out;
  const auto constant = cascade_kernel(
      spec, bank, ii, out, CascadeKernelOptions{.constant_memory = true}, "c");
  const auto global = cascade_kernel(
      spec, bank, ii, out, CascadeKernelOptions{.constant_memory = false},
      "g");
  EXPECT_GT(global.total_service_cycles, constant.total_service_cycles);
  EXPECT_EQ(out.depth.width(), 96);  // functional output unchanged
}

TEST(CascadeKernel, UncompressedRecordsCostMore) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(96, 64, 9);
  const auto ii = integral::integral_cpu(image);
  const haar::Cascade cascade = calibrated_cascade(ii, 37);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);

  CascadeKernelOutput out_a;
  CascadeKernelOutput out_b;
  const auto compressed = cascade_kernel(
      spec, bank, ii, out_a, CascadeKernelOptions{.compressed_records = true},
      "comp");
  const auto raw = cascade_kernel(
      spec, bank, ii, out_b, CascadeKernelOptions{.compressed_records = false},
      "raw");
  EXPECT_GT(raw.counters.constant_accesses, compressed.counters.constant_accesses);
  EXPECT_GT(raw.total_service_cycles, compressed.total_service_cycles);
  EXPECT_EQ(out_a.depth, out_b.depth);
}

TEST(CascadeKernel, BranchEfficiencyIsHighOnSmoothImages) {
  // Adjacent windows mostly exit at the same stage on real-ish content,
  // which is why the paper measures 98.9 % non-divergent branches.
  const vgpu::DeviceSpec spec;
  core::Rng rng(10);
  img::ImageU8 smooth(128, 96);
  for (int y = 0; y < 96; ++y) {
    for (int x = 0; x < 128; ++x) {
      smooth(x, y) = static_cast<std::uint8_t>(
          100 + 40 * std::sin(x * 0.05) + rng.uniform(-5.0, 5.0));
    }
  }
  const auto ii = integral::integral_cpu(smooth);
  // Calibrate to the paper's rejection profile: 94.5 % of windows die in
  // stage 1 (and, on smooth content, whole warps die together).
  haar::Cascade cascade = haar::build_profile_cascade(
      "smooth", std::vector<int>{10, 10, 10}, 41);
  haar::calibrate_stage_thresholds(
      cascade, {&ii}, std::vector<double>{0.055, 0.27, 0.69}, 1);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);
  CascadeKernelOutput out;
  const auto cost =
      cascade_kernel(spec, bank, ii, out, CascadeKernelOptions{}, "smooth");
  EXPECT_GT(cost.counters.branch_efficiency(), 0.85);
}

TEST(DisplayKernel, OutlinesAcceptedWindows) {
  const vgpu::DeviceSpec spec;
  img::ImageI32 depth(64, 64, 0);
  depth(10, 12) = 3;  // one accepted window at full depth 3
  img::ImageU8 overlay(64, 64);
  overlay.fill(7);
  display_kernel(spec, depth, 3, 1.0, overlay, "display");
  EXPECT_EQ(overlay(10, 12), 255);                          // top-left corner
  EXPECT_EQ(overlay(10 + haar::kWindowSize - 1, 12), 255);  // top-right
  EXPECT_EQ(overlay(20, 20), 7);                            // interior intact
}

}  // namespace
}  // namespace fdet::detect
