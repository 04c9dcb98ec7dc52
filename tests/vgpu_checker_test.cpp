#include "vgpu/checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "core/check.h"
#include "core/rng.h"
#include "detect/kernels.h"
#include "haar/encoding.h"
#include "haar/profile.h"
#include "img/image.h"
#include "integral/gpu.h"
#include "vgpu/kernel.h"

namespace fdet::vgpu {
namespace {

constexpr int kLanes = 32;

/// The shared layout of the tile kernels below: one kLanes-word tile.
struct TileLayout {
  SharedLayout layout;
  SharedArray<std::int32_t> tile = layout.add<std::int32_t>(kLanes);
};
const TileLayout kTile;

KernelConfig tile_config(const std::string& name, SharedLayout shared) {
  return KernelConfig{
      .name = name,
      .grid = {1, 1, 1},
      .block = {kLanes, 1, 1},
      .shared = std::move(shared),
  };
}

const Hazard* find_hazard(const CheckReport& report, HazardKind kind) {
  const auto it =
      std::find_if(report.hazards.begin(), report.hazards.end(),
                   [kind](const Hazard& h) { return h.kind == kind; });
  return it == report.hazards.end() ? nullptr : &*it;
}

img::ImageU8 random_image(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

// --- seeded defects ---------------------------------------------------

// Each lane writes its own slot and reads its neighbour's in the *same*
// phase: the canonical missing-__syncthreads bug. The functional executor
// still produces deterministic output; only the checker sees the hazard.
TEST(CheckerSeeded, MissingBarrierRaceIsDetected) {
  const DeviceSpec spec;
  const auto init = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    const auto tile = shared[kTile.tile];
    tile[static_cast<std::size_t>(t.thread.x)] = t.thread.x;
    ctx.shared_store_at(shared, tile[static_cast<std::size_t>(t.thread.x)]);
  };
  const auto racy = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    const auto tile = shared[kTile.tile];
    auto& mine = tile[static_cast<std::size_t>(t.thread.x)];
    mine += 1;
    ctx.shared_store_at(shared, mine);
    const std::size_t next = static_cast<std::size_t>((t.thread.x + 1) % kLanes);
    ctx.shared_load_at(shared, tile[next]);  // neighbour's slot, no barrier
  };

  const std::array<PhaseFn, 2> phases{init, racy};
  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("racy_kernel", kTile.layout), phases);
  ASSERT_FALSE(run.report.clean());
  const Hazard* hazard = find_hazard(run.report, HazardKind::kIntraPhaseRace);
  ASSERT_NE(hazard, nullptr);
  EXPECT_EQ(hazard->kernel, "racy_kernel");
  EXPECT_EQ(hazard->phase, 1);
  EXPECT_TRUE(hazard->has_lane_b);
  EXPECT_NE(hazard->lane_a.x, hazard->lane_b.x);
  EXPECT_NE(hazard->message.find("racy_kernel"), std::string::npos);
  EXPECT_NE(hazard->message.find("phase 1"), std::string::npos);
  EXPECT_NE(hazard->message.find("lane"), std::string::npos);
  EXPECT_NE(hazard->message.find("__syncthreads"), std::string::npos);
}

// The fixed version of the same kernel — neighbour reads moved behind the
// barrier (a separate phase) — must come back clean.
TEST(CheckerSeeded, BarrierSeparatedNeighbourReadIsClean) {
  const DeviceSpec spec;
  const auto write = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    const auto tile = shared[kTile.tile];
    tile[static_cast<std::size_t>(t.thread.x)] = t.thread.x;
    ctx.shared_store_at(shared, tile[static_cast<std::size_t>(t.thread.x)]);
  };
  const auto read = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    const auto tile = shared[kTile.tile];
    const std::size_t next = static_cast<std::size_t>((t.thread.x + 1) % kLanes);
    ctx.shared_load_at(shared, tile[next]);
  };

  const std::array<PhaseFn, 2> phases{write, read};
  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("barriered_kernel", kTile.layout), phases);
  EXPECT_TRUE(run.report.clean());
  EXPECT_EQ(run.report.shared_accesses_checked, 2u * kLanes);
  EXPECT_EQ(run.report.phases, 2);
}

TEST(CheckerSeeded, UninitializedSharedReadIsDetected) {
  const DeviceSpec spec;
  const auto read_cold = [](const ThreadCoord& t, LaneCtx& ctx,
                            SharedMem& shared) {
    ctx.shared_load_at(shared,
                       shared[kTile.tile][static_cast<std::size_t>(t.thread.x)]);
  };

  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("cold_read", kTile.layout), read_cold);
  ASSERT_FALSE(run.report.clean());
  const Hazard* hazard =
      find_hazard(run.report, HazardKind::kUninitializedSharedRead);
  ASSERT_NE(hazard, nullptr);
  EXPECT_EQ(hazard->kernel, "cold_read");
  EXPECT_EQ(hazard->phase, 0);
  EXPECT_NE(hazard->message.find("uninitialized shared read"),
            std::string::npos);
  EXPECT_NE(hazard->message.find("cold_read"), std::string::npos);
}

// A same-lane program-order write→read within one phase is fine (registers
// would carry it on hardware too) — the uninit rule must not fire.
TEST(CheckerSeeded, SameLaneWriteThenReadIsClean) {
  const DeviceSpec spec;
  const auto warm = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    auto& mine = shared[kTile.tile][static_cast<std::size_t>(t.thread.x)];
    mine = 7;
    ctx.shared_store_at(shared, mine);
    ctx.shared_load_at(shared, mine);
  };
  const CheckedExecution run =
      execute_kernel_checked(spec, tile_config("warm_read", kTile.layout), warm);
  EXPECT_TRUE(run.report.clean());
}

// An off-by-one store one word past the layout: under the checker the
// block buffer spans the SM's shared capacity, so the stray write lands in
// real storage and comes back as a hazard instead of corrupting the host.
TEST(CheckerSeeded, StoreOneWordPastTheLayoutIsReportedNotFatal) {
  const DeviceSpec spec;
  const auto off_by_one = [](const ThreadCoord& t, LaneCtx& ctx,
                             SharedMem& shared) {
    std::int32_t& cell =
        shared[kTile.tile].data()[static_cast<std::size_t>(t.thread.x) + 1];
    cell = t.thread.x;
    ctx.shared_store_at(shared, cell);
  };
  CheckedExecution run;
  ASSERT_NO_THROW(run = execute_kernel_checked(
                      spec, tile_config("off_by_one", kTile.layout),
                      off_by_one));
  ASSERT_EQ(run.report.hazards.size(), 1u);
  const Hazard& hazard = run.report.hazards.front();
  EXPECT_EQ(hazard.kind, HazardKind::kSharedOutOfBounds);
  EXPECT_EQ(hazard.lane_a.x, kLanes - 1);
  EXPECT_EQ(hazard.offset, static_cast<std::uint64_t>(kLanes * 4));
  EXPECT_NE(hazard.message.find("128-byte shared layout"), std::string::npos)
      << hazard.message;
}

TEST(CheckerSeeded, ConstantOverflowReportedCheckedThrowsUnchecked) {
  const DeviceSpec spec;
  KernelConfig config = tile_config("fat_constants", {});
  config.constant_bytes = 128 * 1024;  // 2x the 64 KiB device limit
  const auto noop = [](const ThreadCoord&, LaneCtx&, SharedMem&) {};

  const CheckedExecution run =
      execute_kernel_checked(spec, config, PhaseFn(noop));
  ASSERT_FALSE(run.report.clean());
  const Hazard* hazard = find_hazard(run.report, HazardKind::kConstantOverflow);
  ASSERT_NE(hazard, nullptr);
  EXPECT_NE(hazard->message.find("constant memory overflow"),
            std::string::npos);
  EXPECT_NE(hazard->message.find("fat_constants"), std::string::npos);

  // Satellite: the launch-time limit also holds outside checked mode, where
  // it fails fast instead of reporting.
  EXPECT_THROW(execute_kernel(spec, config, PhaseFn(noop)), core::CheckError);
}

TEST(CheckerSeeded, GlobalOutOfBoundsIsDetected) {
  const DeviceSpec spec;
  KernelConfig config = tile_config("oob_global", {});
  config.block = {1, 1, 1};
  const auto touch = [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
    ctx.global_load(16, 4);   // inside [0, 64)
    ctx.global_load(100, 4);  // outside every allocation
  };
  CheckOptions options;
  options.global_allocations = {{"buf", 0, 64}};

  const CheckedExecution run =
      execute_kernel_checked(spec, config, PhaseFn(touch), options);
  EXPECT_EQ(run.report.global_ops_checked, 2u);
  ASSERT_EQ(run.report.hazards.size(), 1u);
  const Hazard& hazard = run.report.hazards.front();
  EXPECT_EQ(hazard.kind, HazardKind::kGlobalOutOfBounds);
  EXPECT_EQ(hazard.offset, 100u);
  EXPECT_NE(hazard.message.find("outside every registered allocation"),
            std::string::npos);
}

TEST(CheckerSeeded, GlobalCheckIsDisabledWithoutAllocations) {
  const DeviceSpec spec;
  KernelConfig config = tile_config("unregistered_global", {});
  config.block = {1, 1, 1};
  const auto touch = [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
    ctx.global_load(1 << 20, 4);
  };
  const CheckedExecution run =
      execute_kernel_checked(spec, config, PhaseFn(touch));
  EXPECT_TRUE(run.report.clean());
  EXPECT_EQ(run.report.global_ops_checked, 0u);
}

TEST(CheckerSeeded, HazardCapSuppressesButStillFailsClean) {
  const DeviceSpec spec;
  // Every lane reads cold: kLanes hazards, more than the per-launch cap.
  const auto read_cold = [](const ThreadCoord& t, LaneCtx& ctx,
                            SharedMem& shared) {
    ctx.shared_load_at(shared,
                       shared[kTile.tile][static_cast<std::size_t>(t.thread.x)]);
  };
  static_assert(kMaxReportsPerKernel < kLanes);
  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("cold_read_capped", kTile.layout), read_cold);
  EXPECT_EQ(run.report.hazards.size(),
            static_cast<std::size_t>(kMaxReportsPerKernel));
  EXPECT_EQ(run.report.suppressed_hazards,
            static_cast<std::uint64_t>(kLanes - kMaxReportsPerKernel));
  EXPECT_FALSE(run.report.clean());
}

TEST(CheckerScope, InnermostCheckerOwnsTheLaunch) {
  const DeviceSpec spec;
  const auto body = [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
    ctx.alu();
  };
  CheckScope outer;
  {
    CheckScope inner;
    execute_kernel(spec, tile_config("nested", {}), PhaseFn(body));
    EXPECT_EQ(inner.reports().size(), 1u);
  }
  EXPECT_TRUE(outer.reports().empty());  // shadowed while inner was open
  execute_kernel(spec, tile_config("restored", {}), PhaseFn(body));
  EXPECT_EQ(outer.reports().size(), 1u);
}

TEST(CheckerScope, LaunchTheDeviceRejectsLeavesTheCheckerReady) {
  // A layout one double over the SM's shared memory cannot be resident:
  // the launch throws before any lane runs, and the next launch under the
  // same scope is checked as usual.
  const DeviceSpec spec;
  SharedLayout too_big;
  too_big.add<double>(
      static_cast<std::size_t>(spec.shared_mem_per_sm) / sizeof(double) + 1);
  const auto body = [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
    ctx.alu();
  };
  CheckScope scope;
  EXPECT_THROW(
      execute_kernel(spec, tile_config("too_big", too_big), PhaseFn(body)),
      core::CheckError);
  execute_kernel(spec, tile_config("ok", {}), PhaseFn(body));
  ASSERT_EQ(scope.reports().size(), 1u);
  EXPECT_EQ(scope.reports()[0].kernel, "ok");
  EXPECT_TRUE(scope.reports()[0].clean());
}

// --- production kernels must come back clean --------------------------

TEST(CheckerProduction, IntegralPipelineIsClean) {
  const DeviceSpec spec;
  const img::ImageU8 image = random_image(97, 53, 11);  // odd sizes: ragged
                                                        // tiles and strips
  CheckScope scope;
  const auto result = integral::integral_gpu(spec, image);
  (void)result;
  ASSERT_EQ(scope.reports().size(), 2u);  // scan_rows, scan_cols
  for (const CheckReport& report : scope.reports()) {
    EXPECT_TRUE(report.clean()) << report.kernel;
  }
  // The row pass stages through shared memory; the column pass has none.
  const CheckReport& rows = scope.reports().front();
  EXPECT_GT(rows.shared_accesses_checked, 0u);
}

TEST(CheckerProduction, RowScanBoundaryStripsAreClean) {
  const DeviceSpec spec;
  // 33x17 cuts the last tile to one column and the strip to 17 rows: the
  // stage/store guards and the scan's row guard must agree or the scan
  // reads unstaged tile cells.
  img::ImageI32 input(33, 17);
  core::Rng rng(5);
  for (auto& p : input.pixels()) {
    p = static_cast<std::int32_t>(rng.uniform_int(0, 1000));
  }
  img::ImageI32 output(33, 17);
  CheckScope scope;
  integral::scan_rows_gpu(spec, input, output);
  ASSERT_EQ(scope.reports().size(), 1u);
  EXPECT_TRUE(scope.reports().front().clean());
}

TEST(CheckerProduction, CascadeKernelIsClean) {
  const DeviceSpec spec;
  const img::ImageU8 image = random_image(72, 56, 3);
  const auto ii = integral::integral_cpu(image);
  const haar::Cascade cascade = haar::build_profile_cascade(
      "checker-cascade", std::vector<int>{4, 4}, 21);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);

  detect::CascadeKernelOutput out;
  CheckScope scope;
  detect::cascade_kernel(spec, bank, ii, out, detect::CascadeKernelOptions{},
                         "cascade_checked");
  ASSERT_EQ(scope.reports().size(), 1u);
  const CheckReport& report = scope.reports().front();
  EXPECT_TRUE(report.clean());
  EXPECT_GT(report.shared_accesses_checked, 0u);
}

TEST(CheckerProduction, ScaleAndFilterKernelsAreClean) {
  const DeviceSpec spec;
  const img::ImageU8 src = random_image(80, 60, 9);
  img::ImageU8 scaled(40, 30);
  img::ImageU8 filtered(40, 30);
  CheckScope scope;
  detect::scale_kernel(spec, src, scaled, "scale_checked");
  detect::filter_kernel(spec, scaled, filtered, /*horizontal=*/true,
                        "filter_checked");
  ASSERT_EQ(scope.reports().size(), 2u);
  for (const CheckReport& report : scope.reports()) {
    EXPECT_TRUE(report.clean()) << report.kernel;
  }
}

}  // namespace
}  // namespace fdet::vgpu
