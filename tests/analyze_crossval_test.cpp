// Cross-validation of the static traffic predictions (analyze/analyses.h)
// against the executor's measured PerfCounters. The prediction replicates
// the executor's slot-aligned dedup/bank/segment arithmetic from affine
// forms, so:
//   - when every slot is predictable (full participation, affine, data
//     independent) the prediction must EQUAL the measured counter;
//   - otherwise it must be a lower bound (skipped slots only add traffic).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analyze/analyses.h"
#include "analyze/capture.h"
#include "core/rng.h"
#include "detect/kernels.h"
#include "haar/encoding.h"
#include "haar/profile.h"
#include "img/image.h"
#include "integral/gpu.h"
#include "integral/integral.h"
#include "vgpu/kernel.h"

namespace fdet::analyze {
namespace {

const vgpu::DeviceSpec kSpec;

img::ImageU8 random_u8(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

img::ImageI32 random_i32(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageI32 im(w, h);
  for (auto& p : im.pixels()) {
    p = rng.uniform_int(0, 255);
  }
  return im;
}

TEST(AnalyzeCrossval, IntegralPassPredictionsEqualMeasuredCounters) {
  // 256x64 is whole 32x32 tiles, whole 32-row strips and one full
  // 256-thread column block: every tile-move and column slot has full
  // participation and affine addresses, so both global predictions are
  // complete and must match the executor exactly. The row pass's scan
  // phases run on warp 0 only (partial participation), so its shared
  // prediction is a lower bound — and both sides read zero conflicts
  // from the stride-33 tile padding.
  constexpr int kW = 256;
  constexpr int kH = 64;
  const img::ImageI32 input = random_i32(kW, kH, 7);
  img::ImageI32 table(kW, kH);
  const vgpu::LaunchCost measured[2] = {
      integral::scan_rows_gpu(kSpec, input, table),
      integral::scan_cols_gpu(kSpec, table)};

  const std::vector<KernelIR> irs =
      capture_kernels([](std::uint64_t seed) {
        const img::ImageI32 in = random_i32(kW, kH, seed);
        img::ImageI32 t(kW, kH);
        integral::scan_rows_gpu(kSpec, in, t);
        integral::scan_cols_gpu(kSpec, t);
      });
  ASSERT_EQ(irs.size(), 2u);

  for (std::size_t k = 0; k < irs.size(); ++k) {
    const PredictedTraffic traffic = predict_traffic(irs[k]);
    const vgpu::PerfCounters& counters = measured[k].counters;
    EXPECT_EQ(irs[k].config.name, measured[k].config.name);
    EXPECT_TRUE(traffic.global_complete) << irs[k].config.name;
    EXPECT_EQ(traffic.global_transactions, counters.global_transactions)
        << irs[k].config.name;
    EXPECT_EQ(traffic.global_transactions, 2u * kH * (kW / 32))
        << irs[k].config.name;
    EXPECT_EQ(traffic.bank_conflicts, counters.bank_conflicts)
        << irs[k].config.name;
    EXPECT_EQ(counters.bank_conflicts, 0u) << irs[k].config.name;
  }
  EXPECT_FALSE(predict_traffic(irs[0]).shared_complete);  // warp-0 scan
  EXPECT_TRUE(predict_traffic(irs[1]).shared_complete);   // no shared
}

TEST(AnalyzeCrossval, CascadePredictionsAreLowerBounds) {
  // The cascade kernel mixes border-guarded tile loads with data-dependent
  // feature fetches: predictions cannot be complete, but they must stay
  // at or below the measured counters.
  constexpr int kW = 64;
  constexpr int kH = 48;
  const haar::Cascade cascade = haar::build_profile_cascade(
      "crossval", std::vector<int>{6, 8}, /*seed=*/42);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);

  const auto ii = integral::integral_cpu(random_u8(kW, kH, 13));
  detect::CascadeKernelOutput out;
  const vgpu::LaunchCost measured = detect::cascade_kernel(
      kSpec, bank, ii, out, detect::CascadeKernelOptions{}, "cascade");

  const std::vector<KernelIR> irs =
      capture_kernels([&bank](std::uint64_t seed) {
        const auto integral = integral::integral_cpu(random_u8(kW, kH, seed));
        detect::CascadeKernelOutput o;
        detect::cascade_kernel(kSpec, bank, integral,
                               o, detect::CascadeKernelOptions{}, "cascade");
      });
  ASSERT_EQ(irs.size(), 1u);

  const PredictedTraffic traffic = predict_traffic(irs.front());
  EXPECT_GT(traffic.skipped_slots, 0);
  EXPECT_LE(traffic.bank_conflicts, measured.counters.bank_conflicts);
  EXPECT_LE(traffic.global_transactions,
            measured.counters.global_transactions);
}

TEST(AnalyzeCrossval, SyntheticConflictKernelPredictsExactDegree) {
  // Stride-8 shared reads over one warp: lanes 0..31 hit words {0, 8, ...,
  // 248}; words map onto banks {0, 8, 16, 24}, eight distinct words each,
  // so the issue serializes at degree 8 = 7 extra passes (the executor
  // charges max-degree per slot issue). Fully predictable, so equality.
  vgpu::KernelConfig config{.name = "stride8",
                            .grid = {1, 1, 1},
                            .block = {32, 1, 1}};
  config.shared.add<std::int32_t>(32 * 8);
  const auto phase = [](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                        vgpu::SharedMem&) {
    ctx.shared_load(static_cast<std::size_t>(t.thread.x) * 8 * 4, 4);
  };
  const vgpu::LaunchCost measured = vgpu::execute_kernel(kSpec, config, phase);

  const std::vector<KernelIR> irs =
      capture_kernels([&config, &phase](std::uint64_t /*seed*/) {
        vgpu::execute_kernel(kSpec, config, phase);
      });
  ASSERT_EQ(irs.size(), 1u);

  const PredictedTraffic traffic = predict_traffic(irs.front());
  EXPECT_TRUE(traffic.shared_complete);
  EXPECT_EQ(traffic.bank_conflicts, measured.counters.bank_conflicts);
  EXPECT_EQ(traffic.bank_conflicts, 7u);
}

}  // namespace
}  // namespace fdet::analyze
