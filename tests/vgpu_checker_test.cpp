#include "vgpu/checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

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

KernelConfig tile_config(const std::string& name, int shared_bytes) {
  return KernelConfig{
      .name = name,
      .grid = {1, 1, 1},
      .block = {kLanes, 1, 1},
      .shared_bytes = shared_bytes,
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
    auto tile = shared.array<std::int32_t>(kLanes);
    tile[static_cast<std::size_t>(t.thread.x)] = t.thread.x;
    ctx.shared_store_at(shared, tile[static_cast<std::size_t>(t.thread.x)]);
  };
  const auto racy = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    auto tile = shared.array<std::int32_t>(kLanes);
    auto& mine = tile[static_cast<std::size_t>(t.thread.x)];
    mine += 1;
    ctx.shared_store_at(shared, mine);
    const std::size_t next = static_cast<std::size_t>((t.thread.x + 1) % kLanes);
    ctx.shared_load_at(shared, tile[next]);  // neighbour's slot, no barrier
  };

  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("racy_kernel", kLanes * 4), init, racy);
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
    auto tile = shared.array<std::int32_t>(kLanes);
    tile[static_cast<std::size_t>(t.thread.x)] = t.thread.x;
    ctx.shared_store_at(shared, tile[static_cast<std::size_t>(t.thread.x)]);
  };
  const auto read = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
    auto tile = shared.array<std::int32_t>(kLanes);
    const std::size_t next = static_cast<std::size_t>((t.thread.x + 1) % kLanes);
    ctx.shared_load_at(shared, tile[next]);
  };

  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("barriered_kernel", kLanes * 4), write, read);
  EXPECT_TRUE(run.report.clean()) << run.report.summary();
  EXPECT_EQ(run.report.shared_accesses_checked, 2u * kLanes);
  EXPECT_EQ(run.report.phases, 2);
}

TEST(CheckerSeeded, UninitializedSharedReadIsDetected) {
  const DeviceSpec spec;
  const auto read_cold = [](const ThreadCoord& t, LaneCtx& ctx,
                            SharedMem& shared) {
    auto tile = shared.array<std::int32_t>(kLanes);
    ctx.shared_load_at(shared, tile[static_cast<std::size_t>(t.thread.x)]);
  };

  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("cold_read", kLanes * 4), read_cold);
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
    auto tile = shared.array<std::int32_t>(kLanes);
    auto& mine = tile[static_cast<std::size_t>(t.thread.x)];
    mine = 7;
    ctx.shared_store_at(shared, mine);
    ctx.shared_load_at(shared, mine);
  };
  const CheckedExecution run =
      execute_kernel_checked(spec, tile_config("warm_read", kLanes * 4), warm);
  EXPECT_TRUE(run.report.clean()) << run.report.summary();
}

TEST(CheckerSeeded, CarveDivergenceIsDetected) {
  const DeviceSpec spec;
  const auto divergent = [](const ThreadCoord& t, LaneCtx&, SharedMem& shared) {
    // Odd lanes request a different layout than the one lane 0 established.
    shared.array<std::int32_t>(t.thread.x % 2 == 1 ? 8 : 4);
  };
  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("divergent_carve", 32), divergent);
  ASSERT_FALSE(run.report.clean());
  const Hazard* hazard = find_hazard(run.report, HazardKind::kCarveDivergence);
  ASSERT_NE(hazard, nullptr);
  EXPECT_NE(hazard->message.find("carve #0"), std::string::npos);
  EXPECT_NE(hazard->message.find("divergent_carve"), std::string::npos);
  EXPECT_NE(hazard->message.find("identical static __shared__ layouts"),
            std::string::npos);
}

// Unchecked execution throws on a carve past shared_bytes; checked
// execution gives the carve real storage and reports it instead.
TEST(CheckerSeeded, CarveOverflowIsReportedNotFatal) {
  const DeviceSpec spec;
  const auto big_carve = [](const ThreadCoord&, LaneCtx&, SharedMem& shared) {
    shared.array<double>(100);  // 800 bytes vs 64 declared
  };
  CheckedExecution run;
  ASSERT_NO_THROW(run = execute_kernel_checked(
                      spec, tile_config("escaping_carve", 64), big_carve));
  ASSERT_FALSE(run.report.clean());
  const Hazard* hazard = find_hazard(run.report, HazardKind::kCarveOverflow);
  ASSERT_NE(hazard, nullptr);
  EXPECT_NE(hazard->message.find("declares shared_bytes=64"),
            std::string::npos);
}

TEST(CheckerSeeded, SharedDeclarationMismatchIsReported) {
  const DeviceSpec spec;
  const auto small_carve = [](const ThreadCoord&, LaneCtx&, SharedMem& shared) {
    shared.array<std::int32_t>(16);  // 64 of the declared 256 bytes
  };
  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("overdeclared", 256), small_carve);
  ASSERT_FALSE(run.report.clean());
  const Hazard* hazard =
      find_hazard(run.report, HazardKind::kSharedDeclMismatch);
  ASSERT_NE(hazard, nullptr);
  EXPECT_NE(hazard->message.find("declares shared_bytes=256"),
            std::string::npos);
  EXPECT_NE(hazard->message.find("carves at most 64"), std::string::npos);

  // The check is opt-out for intentionally padded layouts.
  CheckOptions lax;
  lax.check_shared_declaration = false;
  const CheckedExecution lax_run = execute_kernel_checked(
      spec, tile_config("overdeclared", 256), small_carve, lax);
  EXPECT_TRUE(lax_run.report.clean()) << lax_run.report.summary();
}

TEST(CheckerSeeded, ConstantOverflowReportedCheckedThrowsUnchecked) {
  const DeviceSpec spec;
  KernelConfig config = tile_config("fat_constants", 0);
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
  KernelConfig config = tile_config("oob_global", 0);
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
  KernelConfig config = tile_config("unregistered_global", 0);
  config.block = {1, 1, 1};
  const auto touch = [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
    ctx.global_load(1 << 20, 4);
  };
  const CheckedExecution run =
      execute_kernel_checked(spec, config, PhaseFn(touch));
  EXPECT_TRUE(run.report.clean()) << run.report.summary();
  EXPECT_EQ(run.report.global_ops_checked, 0u);
}

TEST(CheckerSeeded, HazardCapSuppressesButStillFailsClean) {
  const DeviceSpec spec;
  const auto read_cold = [](const ThreadCoord& t, LaneCtx& ctx,
                            SharedMem& shared) {
    auto tile = shared.array<std::int32_t>(kLanes);
    ctx.shared_load_at(shared, tile[static_cast<std::size_t>(t.thread.x)]);
  };
  CheckOptions options;
  options.max_reports_per_kernel = 2;
  const CheckedExecution run = execute_kernel_checked(
      spec, tile_config("cold_read_capped", kLanes * 4), read_cold, options);
  EXPECT_EQ(run.report.hazards.size(), 2u);
  EXPECT_EQ(run.report.suppressed_hazards, static_cast<std::uint64_t>(kLanes - 2));
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
    execute_kernel(spec, tile_config("nested", 0), PhaseFn(body));
    EXPECT_EQ(inner.reports().size(), 1u);
  }
  EXPECT_TRUE(outer.reports().empty());  // shadowed while inner was open
  execute_kernel(spec, tile_config("restored", 0), PhaseFn(body));
  EXPECT_EQ(outer.reports().size(), 1u);
}

// --- production kernels must come back clean --------------------------

TEST(CheckerProduction, IntegralPipelineIsClean) {
  const DeviceSpec spec;
  const img::ImageU8 image = random_image(97, 53, 11);  // odd sizes: partial
                                                        // chunks + ragged tiles
  CheckScope scope;
  const auto result = integral::integral_gpu(spec, image);
  (void)result;
  ASSERT_EQ(scope.reports().size(), 4u);  // scan, transpose, scan, transpose
  for (const CheckReport& report : scope.reports()) {
    EXPECT_TRUE(report.clean()) << report.summary();
    EXPECT_GT(report.shared_accesses_checked, 0u) << report.kernel;
    EXPECT_GT(report.carves_checked, 0u) << report.kernel;
  }
}

TEST(CheckerProduction, TransposeBoundaryBlocksAreClean) {
  const DeviceSpec spec;
  // 33x17 forces tiles that are cut on both axes: the load/store guards
  // must agree or the store phase reads unstaged tile cells.
  img::ImageI32 input(33, 17);
  core::Rng rng(5);
  for (auto& p : input.pixels()) {
    p = static_cast<std::int32_t>(rng.uniform_int(0, 1000));
  }
  img::ImageI32 output(17, 33);
  CheckScope scope;
  integral::transpose_gpu(spec, input, output);
  ASSERT_EQ(scope.reports().size(), 1u);
  EXPECT_TRUE(scope.reports().front().clean())
      << scope.reports().front().summary();
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
  EXPECT_TRUE(report.clean()) << report.summary();
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
    EXPECT_TRUE(report.clean()) << report.summary();
  }
}

}  // namespace
}  // namespace fdet::vgpu
