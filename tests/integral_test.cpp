#include "integral/integral.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/check.h"
#include "core/rng.h"
#include "integral/cpu_model.h"
#include "integral/gpu.h"

namespace fdet::integral {
namespace {

img::ImageU8 random_image(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

/// O(n*m) two-pass reference (row scan + column scan): the naive
/// baseline of the integral-image literature and the ground truth every
/// builder is tested against.
IntegralImage integral_naive(const img::ImageU8& input) {
  check_integral_range(input);
  const int w = input.width();
  const int h = input.height();

  img::ImageI32 rows(w, h);
  for (int y = 0; y < h; ++y) {
    std::int32_t acc = 0;
    for (int x = 0; x < w; ++x) {
      acc += input(x, y);
      rows(x, y) = acc;
    }
  }
  img::ImageI32 table(w, h);
  for (int x = 0; x < w; ++x) {
    std::int32_t acc = 0;
    for (int y = 0; y < h; ++y) {
      acc += rows(x, y);
      table(x, y) = acc;
    }
  }
  return IntegralImage(std::move(table));
}

std::int64_t brute_sum(const img::ImageU8& im, int x0, int y0, int x1, int y1) {
  std::int64_t acc = 0;
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      acc += im(x, y);
    }
  }
  return acc;
}

TEST(IntegralNaive, MatchesBruteForceRectangles) {
  const img::ImageU8 im = random_image(17, 13, 1);
  const IntegralImage ii = integral_naive(im);
  core::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const int x0 = rng.uniform_int(0, 16);
    const int x1 = rng.uniform_int(x0, 17);
    const int y0 = rng.uniform_int(0, 12);
    const int y1 = rng.uniform_int(y0, 13);
    EXPECT_EQ(ii.sum(x0, y0, x1, y1), brute_sum(im, x0, y0, x1, y1));
  }
}

TEST(IntegralNaive, FullImageSumAndEmptyRect) {
  const img::ImageU8 im = random_image(9, 9, 3);
  const IntegralImage ii = integral_naive(im);
  EXPECT_EQ(ii.sum(0, 0, 9, 9), brute_sum(im, 0, 0, 9, 9));
  EXPECT_EQ(ii.sum(4, 4, 4, 4), 0);
  EXPECT_EQ(ii.sum(0, 3, 9, 3), 0);
}

TEST(IntegralCpu, MatchesNaiveOnRandomImages) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const int w = 5 + static_cast<int>(seed) * 13;
    const int h = 7 + static_cast<int>(seed) * 9;
    const img::ImageU8 im = random_image(w, h, seed);
    EXPECT_EQ(integral_cpu(im).table(), integral_naive(im).table())
        << "seed " << seed;
  }
}

TEST(IntegralCpu, HandlesSinglePixelAndSingleRow) {
  img::ImageU8 one(1, 1);
  one(0, 0) = 77;
  EXPECT_EQ(integral_cpu(one).sum(0, 0, 1, 1), 77);

  img::ImageU8 row(5, 1);
  for (int x = 0; x < 5; ++x) {
    row(x, 0) = static_cast<std::uint8_t>(x + 1);
  }
  const IntegralImage ii = integral_cpu(row);
  EXPECT_EQ(ii.sum(0, 0, 5, 1), 15);
  EXPECT_EQ(ii.sum(2, 0, 4, 1), 3 + 4);
}

TEST(IntegralRange, RejectsOversizedImages) {
  // 4000 x 4000 x 255 overflows int32.
  img::ImageU8 big(4000, 4000);
  EXPECT_THROW(check_integral_range(big), core::CheckError);
  img::ImageU8 hd(1920, 1080);
  EXPECT_NO_THROW(check_integral_range(hd));
}

TEST(RectSumApi, MatchesCoordinateApi) {
  const img::ImageU8 im = random_image(12, 12, 4);
  const IntegralImage ii = integral_naive(im);
  const img::Rect r{2, 3, 5, 4};
  EXPECT_EQ(ii.sum(r), ii.sum(2, 3, 7, 7));
}

/// Serial row-wise inclusive prefix sum: the row pass's reference.
img::ImageI32 row_prefix_naive(const img::ImageI32& in) {
  img::ImageI32 out(in.width(), in.height());
  for (int y = 0; y < in.height(); ++y) {
    std::int32_t acc = 0;
    for (int x = 0; x < in.width(); ++x) {
      acc += in(x, y);
      out(x, y) = acc;
    }
  }
  return out;
}

class GpuIntegralParam
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Both passes and the pipeline against the serial references, at widths
// around the 32-column tile and the 256-column block and heights around
// the 32-row strip; every pass is conflict-free, moves 4·w·h bytes each
// way, and pays one transaction per warp slot when rows are 128-byte
// aligned.
TEST_P(GpuIntegralParam, PassesMatchNaive) {
  const auto [w, h] = GetParam();
  const vgpu::DeviceSpec spec;
  const img::ImageU8 im =
      random_image(w, h, static_cast<std::uint64_t>(w * 7919 + h));
  const img::ImageI32 source = im.cast<std::int32_t>();
  const std::uint64_t bytes = 4ull * static_cast<std::uint64_t>(w) *
                              static_cast<std::uint64_t>(h);

  const img::ImageI32 expected = integral_naive(im).table();

  img::ImageI32 table(w, h);
  const vgpu::LaunchCost rows = scan_rows_gpu(spec, source, table);
  ASSERT_EQ(table, row_prefix_naive(source));
  const vgpu::LaunchCost cols = scan_cols_gpu(spec, table);
  ASSERT_EQ(table, expected);

  const GpuIntegralResult gpu = integral_gpu(spec, im);
  ASSERT_EQ(gpu.integral.table(), expected);
  ASSERT_EQ(gpu.launches.size(), 2u);

  const int tiles = (w + 31) / 32;
  EXPECT_EQ(rows.block_count(), (h + 31) / 32);
  EXPECT_EQ(rows.counters.warps,
            static_cast<std::uint64_t>(rows.block_count()) * 8 *
                (2 * tiles + 1));
  for (const vgpu::LaunchCost* pass : {&rows, &cols}) {
    EXPECT_EQ(pass->counters.bank_conflicts, 0u) << pass->config.name;
    EXPECT_EQ(pass->counters.global_read_bytes, bytes) << pass->config.name;
    EXPECT_EQ(pass->counters.global_write_bytes, bytes) << pass->config.name;
    if (w % 32 == 0) {
      // One load and one store transaction per (32-column run, row).
      EXPECT_EQ(pass->counters.global_transactions,
                2ull * static_cast<std::uint64_t>(h) *
                    static_cast<std::uint64_t>(w / 32))
          << pass->config.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GpuIntegralParam,
    ::testing::Combine(::testing::Values(1, 31, 32, 33, 63, 64, 65, 255, 256,
                                         257, 1000, 1920),
                       ::testing::Values(1, 31, 32, 33, 65, 1080)));

TEST(GpuIntegral, RowScanHandlesNegativeValues) {
  const vgpu::DeviceSpec spec;
  core::Rng rng(11);
  img::ImageI32 in(70, 40);
  for (auto& p : in.pixels()) {
    p = rng.uniform_int(-50, 50);
  }
  img::ImageI32 out(70, 40);
  scan_rows_gpu(spec, in, out);
  EXPECT_EQ(out, row_prefix_naive(in));
}

TEST(GpuIntegral, MatchesNaiveOnRandomImages) {
  const vgpu::DeviceSpec spec;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const int w = 30 + static_cast<int>(seed) * 41;
    const int h = 25 + static_cast<int>(seed) * 17;
    const img::ImageU8 im = random_image(w, h, seed + 100);
    const GpuIntegralResult gpu = integral_gpu(spec, im);
    EXPECT_EQ(gpu.integral.table(), integral_naive(im).table())
        << "seed " << seed;
    EXPECT_EQ(gpu.launches.size(), 2u);
    EXPECT_GT(gpu.total_service_cycles(), 0.0);
  }
}

TEST(GpuIntegral, LargerImagesCostMoreCycles) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 small = random_image(128, 128, 1);
  const img::ImageU8 large = random_image(512, 512, 1);
  const double small_cycles = integral_gpu(spec, small).total_service_cycles();
  const double large_cycles = integral_gpu(spec, large).total_service_cycles();
  EXPECT_GT(large_cycles, small_cycles * 4.0);
}

TEST(CpuModel, HasCacheAndDramRegimes) {
  const CpuModel model;
  // Per-pixel cost jumps once the working set spills out of cache.
  const double small = model.integral_ms(256, 256) / (256.0 * 256.0);
  const double large = model.integral_ms(1920, 1080) / (1920.0 * 1080.0);
  EXPECT_LT(small, large);
}

TEST(CpuModel, HdFrameCostIsMilliseconds) {
  const CpuModel model;
  const double ms = model.integral_ms(1920, 1080);
  EXPECT_GT(ms, 0.5);
  EXPECT_LT(ms, 30.0);
}

}  // namespace
}  // namespace fdet::integral
