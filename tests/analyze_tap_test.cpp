// Regression tests for lane-event ownership on the launch-observer chain
// (vgpu/observer.h): the dynamic checker and the static analyzer's capture
// engine both compete for a launch's lane events, and when both are
// installed the CHECKER owns the launch — capture must observe nothing
// except a shadowed-launch notification. This precedence is load-bearing:
// `fdet_lint check` hazard reports must not change because a capture
// scope happens to be open somewhere up the stack.
#include "vgpu/observer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analyze/capture.h"
#include "vgpu/checker.h"
#include "vgpu/kernel.h"

namespace fdet::analyze {
namespace {

using vgpu::CheckScope;
using vgpu::KernelConfig;
using vgpu::LaneCtx;
using vgpu::SharedMem;
using vgpu::ThreadCoord;

const vgpu::DeviceSpec kSpec;

/// One 32-word tile: the shared layout of every kernel below.
struct TileLayout {
  vgpu::SharedLayout layout;
  vgpu::SharedArray<std::int32_t> tile = layout.add<std::int32_t>(32);
};
const TileLayout kTile;
const KernelConfig kConfig{.name = "tapped",
                           .grid = {1, 1, 1},
                           .block = {32, 1, 1},
                           .shared = kTile.layout};

void launch_once() {
  vgpu::execute_kernel(
      kSpec, kConfig,
      [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        const auto tile = shared[kTile.tile];
        const auto lane = static_cast<std::size_t>(t.thread.x);
        tile[lane] = t.thread.x;
        ctx.shared_store_at(shared, tile[lane]);
      });
}

TEST(LaneOwner, CaptureAloneObservesTheLaunch) {
  CaptureScope scope;
  launch_once();
  EXPECT_EQ(scope.engine().captures().size(), 1u);
  EXPECT_EQ(scope.shadowed_launches(), 0);
}

TEST(LaneOwner, CheckerShadowsCapture) {
  CaptureScope capture;
  {
    // Checker opened INSIDE the capture scope: for launches under both,
    // the checker takes the lane events and capture only counts shadows.
    CheckScope check;
    launch_once();
    ASSERT_EQ(check.reports().size(), 1u);
    EXPECT_TRUE(check.reports()[0].clean());
  }
  EXPECT_EQ(capture.engine().captures().size(), 0u);
  EXPECT_EQ(capture.shadowed_launches(), 1);

  // Once the checker closes, the same capture scope sees launches again.
  launch_once();
  EXPECT_EQ(capture.engine().captures().size(), 1u);
  EXPECT_EQ(capture.shadowed_launches(), 1);
}

TEST(LaneOwner, CheckerReportsAreIdenticalUnderCapture) {
  // A hazardous kernel (same-phase write/read race) must produce the same
  // hazard count whether or not a capture scope surrounds the check —
  // the precedence rule means capture cannot perturb verification.
  const auto racy = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
    const auto self = static_cast<std::size_t>(t.thread.x);
    const std::size_t next = (self + 1) % 32;
    ctx.shared_store(self * 4, 4);
    ctx.shared_load(next * 4, 4);  // neighbour's slot, no barrier between
  };

  vgpu::CheckReport plain;
  {
    CheckScope check;
    vgpu::execute_kernel(kSpec, kConfig, racy);
    ASSERT_EQ(check.reports().size(), 1u);
    plain = check.reports()[0];
  }
  EXPECT_FALSE(plain.clean());

  vgpu::CheckReport shadowed;
  {
    CaptureScope capture;
    CheckScope check;
    vgpu::execute_kernel(kSpec, kConfig, racy);
    ASSERT_EQ(check.reports().size(), 1u);
    shadowed = check.reports()[0];
    EXPECT_EQ(capture.engine().captures().size(), 0u);
  }
  EXPECT_EQ(shadowed.hazards.size(), plain.hazards.size());
  EXPECT_EQ(shadowed.suppressed_hazards, plain.suppressed_hazards);
}

TEST(LaneOwner, CaptureKernelsReportsShadowedLaunches) {
  int shadowed = 0;
  const std::vector<KernelIR> irs = capture_kernels(
      [](std::uint64_t /*seed*/) {
        CheckScope check;  // the driver itself opens a checker
        launch_once();
      },
      0x5eed0001, 0x5eed0002, &shadowed);
  EXPECT_TRUE(irs.empty());
  EXPECT_EQ(shadowed, 2);  // one shadowed launch per capture seed
}

TEST(LaneOwner, InnermostCaptureOwnsAndOuterCountsTheShadow) {
  CaptureScope outer;
  {
    CaptureScope inner;
    launch_once();
    EXPECT_EQ(inner.engine().captures().size(), 1u);
    EXPECT_EQ(outer.engine().captures().size(), 0u);
    EXPECT_EQ(outer.shadowed_launches(), 1);
  }
  launch_once();
  EXPECT_EQ(outer.engine().captures().size(), 1u);
}

TEST(LaneOwner, CheckerOutsideCaptureStillOwnsTheLaunch) {
  // Install order does not matter: a checker opened OUTSIDE the capture
  // scope owns the launch too.
  CheckScope check;
  CaptureScope capture;
  launch_once();
  EXPECT_EQ(check.reports().size(), 1u);
  EXPECT_EQ(capture.engine().captures().size(), 0u);
  EXPECT_EQ(capture.shadowed_launches(), 1);
}

}  // namespace
}  // namespace fdet::analyze
