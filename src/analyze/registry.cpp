#include "analyze/registry.h"

#include "core/rng.h"
#include "detect/kernels.h"
#include "haar/encoding.h"
#include "haar/profile.h"
#include "img/image.h"
#include "integral/gpu.h"
#include "integral/integral.h"
#include "vgpu/device.h"

namespace fdet::analyze {
namespace {

img::ImageU8 random_image(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

/// Synthetic cascade-depth map: mostly shallow rejections with a sprinkle
/// of full-depth hits, so the display kernel's data-dependent outline
/// stores actually fire under capture.
img::ImageI32 random_depth(int w, int h, int full_depth, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageI32 depth(w, h, 0);
  for (auto& d : depth.pixels()) {
    const int r = rng.uniform_int(0, 99);
    d = r < 2 ? full_depth : rng.uniform_int(0, full_depth - 1);
  }
  return depth;
}

}  // namespace

std::vector<LintTarget> production_targets(int width, int height) {
  const std::uint64_t i32_bytes =
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height) * 4;
  const int lw = width / 2;
  const int lh = height / 2;
  const std::uint64_t level_bytes =
      static_cast<std::uint64_t>(lw) * static_cast<std::uint64_t>(lh);

  std::vector<LintTarget> targets;

  // Integral row pass (scan_rows) over the frame.
  targets.push_back(LintTarget{
      .name = "integral-rows",
      .allocations = {{"source/table", 0, i32_bytes}},
      .suppressions = {},
      .driver =
          [width, height](std::uint64_t seed) {
            const vgpu::DeviceSpec spec;
            const img::ImageI32 source =
                random_image(width, height, seed).cast<std::int32_t>();
            img::ImageI32 table(width, height);
            integral::scan_rows_gpu(spec, source, table);
          },
  });

  // Integral column pass (scan_cols), in place over a frame-sized table.
  targets.push_back(LintTarget{
      .name = "integral-cols",
      .allocations = {{"table", 0, i32_bytes}},
      .suppressions = {},
      .driver =
          [width, height](std::uint64_t seed) {
            const vgpu::DeviceSpec spec;
            img::ImageI32 table =
                random_image(width, height, seed).cast<std::int32_t>();
            integral::scan_cols_gpu(spec, table);
          },
  });

  // Pyramid downscale to one representative level.
  targets.push_back(LintTarget{
      .name = "pyramid-scale",
      .allocations = {{"scaled plane", 0, level_bytes}},
      .suppressions = {},
      .driver =
          [width, height, lw, lh](std::uint64_t seed) {
            const vgpu::DeviceSpec spec;
            const img::ImageU8 frame = random_image(width, height, seed);
            img::ImageU8 scaled(lw, lh);
            detect::scale_kernel(spec, frame, scaled, "scale");
          },
  });

  // Separable 1-2-1 smoothing at the same level.
  targets.push_back(LintTarget{
      .name = "pyramid-filter",
      .allocations = {{"level plane", 0, level_bytes}},
      .suppressions = {},
      .driver =
          [lw, lh](std::uint64_t seed) {
            const vgpu::DeviceSpec spec;
            const img::ImageU8 level = random_image(lw, lh, seed);
            img::ImageU8 filtered_h(lw, lh);
            img::ImageU8 filtered(lw, lh);
            detect::filter_kernel(spec, level, filtered_h, /*horizontal=*/true,
                                  "filter_h");
            detect::filter_kernel(spec, filtered_h, filtered,
                                  /*horizontal=*/false, "filter_v");
          },
  });

  // Cascade evaluation over a synthetic profile cascade. The cascade is
  // built from a FIXED seed — the program under analysis must not change
  // between capture runs; only the frame (and thus the integral data and
  // the cascade walk) varies with the seed.
  targets.push_back(LintTarget{
      .name = "cascade",
      .allocations = {{"integral/depth/score", 0, i32_bytes}},
      .suppressions = {},
      .driver =
          [width, height](std::uint64_t seed) {
            const vgpu::DeviceSpec spec;
            const img::ImageU8 frame = random_image(width, height, seed);
            const auto ii = integral::integral_cpu(frame);
            const haar::Cascade cascade = haar::build_profile_cascade(
                "fdet-lint", std::vector<int>{6, 8, 10}, /*seed=*/42);
            const haar::ConstantBank bank = haar::ConstantBank::build(cascade);
            detect::CascadeKernelOutput out;
            detect::cascade_kernel(spec, bank, ii, out,
                                   detect::CascadeKernelOptions{}, "cascade");
          },
  });

  // Display overlay over a synthetic depth map (the cascade output shape
  // without re-running the cascade inside this target's capture).
  targets.push_back(LintTarget{
      .name = "display",
      .allocations = {{"depth map", 0, i32_bytes},
                      {"overlay", 0, static_cast<std::uint64_t>(width) *
                                         static_cast<std::uint64_t>(height)}},
      .suppressions = {},
      .driver =
          [width, height](std::uint64_t seed) {
            const vgpu::DeviceSpec spec;
            constexpr int kFullDepth = 3;
            const img::ImageI32 depth =
                random_depth(width, height, kFullDepth, seed);
            img::ImageU8 overlay(width, height, 0);
            detect::display_kernel(spec, depth, kFullDepth, 2.0, overlay,
                                   "display");
          },
  });

  return targets;
}

}  // namespace fdet::analyze
