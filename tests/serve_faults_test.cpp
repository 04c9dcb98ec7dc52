#include "serve/faults.h"

#include <gtest/gtest.h>

#include "core/check.h"
#include "vgpu/kernel.h"

namespace fdet::serve {
namespace {

TEST(FaultPlan, ParsesEveryKindAndRoundTrips) {
  const FaultPlan plan =
      FaultPlan::parse("decode@4,corrupt@12,launch@9x2,const@17,shared@21", 1);
  ASSERT_EQ(plan.specs().size(), 5u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kDecodeFail);
  EXPECT_EQ(plan.specs()[0].frame, 4);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kLaunchTransient);
  EXPECT_EQ(plan.specs()[2].burst, 2);
  EXPECT_EQ(plan.describe(),
            "decode@4,corrupt@12,launch@9x2,const@17,shared@21");
  EXPECT_EQ(plan.targeted_frames(), (std::vector<int>{4, 9, 12, 17, 21}));
}

TEST(FaultPlan, ParseNamesTheOffendingToken) {
  try {
    FaultPlan::parse("decode@4,warp@7", 1);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("warp"), std::string::npos);
  }
  EXPECT_THROW(FaultPlan::parse("decode", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("decode@", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("decode@4x0", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("launch@xyz", 1), core::CheckError);
  // Every character of a number must belong to it: no prefix parses.
  EXPECT_THROW(FaultPlan::parse("decode@4junk", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("decode@1e3", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("launch@9x2y", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("launch@0.05z", 1), core::CheckError);
  EXPECT_THROW(FaultPlan::parse("launch@ 0.05", 1), core::CheckError);
}

TEST(FaultPlan, BurstGatesRetryableKindsButNotHardOnes) {
  const FaultPlan plan = FaultPlan::parse("decode@5x2,const@5", 1);
  EXPECT_TRUE(plan.fires(FaultKind::kDecodeFail, 5, 0));
  EXPECT_TRUE(plan.fires(FaultKind::kDecodeFail, 5, 1));
  EXPECT_FALSE(plan.fires(FaultKind::kDecodeFail, 5, 2));  // retry succeeds
  EXPECT_FALSE(plan.fires(FaultKind::kDecodeFail, 6, 0));
  // Hard kinds fail every attempt: retrying cannot clear them.
  EXPECT_TRUE(plan.fires(FaultKind::kConstantOverflow, 5, 0));
  EXPECT_TRUE(plan.fires(FaultKind::kConstantOverflow, 5, 7));
}

TEST(FaultPlan, ProbabilisticFaultsAreDeterministicInSeedAndFrame) {
  const FaultPlan a = FaultPlan::parse("launch@0.25", 42);
  const FaultPlan b = FaultPlan::parse("launch@0.25", 42);
  const FaultPlan other_seed = FaultPlan::parse("launch@0.25", 43);
  int fired = 0;
  int diverged = 0;
  for (int frame = 0; frame < 2000; ++frame) {
    const bool hit = a.fires(FaultKind::kLaunchTransient, frame, 0);
    EXPECT_EQ(hit, b.fires(FaultKind::kLaunchTransient, frame, 0));
    fired += hit ? 1 : 0;
    diverged +=
        hit != other_seed.fires(FaultKind::kLaunchTransient, frame, 0) ? 1 : 0;
  }
  EXPECT_NEAR(fired, 500, 120);  // ~Binomial(2000, 0.25)
  EXPECT_GT(diverged, 0);        // a different seed is a different plan
}

TEST(CorruptLuma, IsSeededAndChangesThePlane) {
  img::ImageU8 a(64, 48, 100);
  img::ImageU8 b(64, 48, 100);
  img::ImageU8 c(64, 48, 100);
  corrupt_luma(a, 7);
  corrupt_luma(b, 7);
  corrupt_luma(c, 8);
  EXPECT_EQ(a, b);                       // deterministic in the seed
  EXPECT_NE(a, img::ImageU8(64, 48, 100));  // actually corrupted
  EXPECT_NE(a, c);
}

TEST(LaunchFaultInjector, TransientFiresOnceAndClearsOnNextAttempt) {
  const FaultPlan plan = FaultPlan::parse("launch@3", 1);
  const vgpu::DeviceSpec spec;
  const vgpu::KernelConfig config{
      .name = "probe", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const auto noop = [](const vgpu::ThreadCoord&, vgpu::LaneCtx& ctx,
                       vgpu::SharedMem&) { ctx.alu(); };

  {
    LaunchFaultInjector faults(plan, 3, 0);
    const vgpu::LaunchObserverScope scope(faults);
    try {
      vgpu::execute_kernel(spec, config, noop);
      FAIL() << "expected LaunchError";
    } catch (const vgpu::LaunchError& error) {
      EXPECT_TRUE(error.transient());
    }
    // The armed fault fired; the in-scope retry launches clean.
    EXPECT_NO_THROW(vgpu::execute_kernel(spec, config, noop));
  }
  // attempt 1 is past the burst (default 1): nothing is armed.
  LaunchFaultInjector retry(plan, 3, 1);
  EXPECT_FALSE(retry.armed());
  const vgpu::LaunchObserverScope scope(retry);
  EXPECT_NO_THROW(vgpu::execute_kernel(spec, config, noop));
}

TEST(LaunchFaultInjector, OverflowKindsTargetMatchingLaunchesOnly) {
  const FaultPlan plan = FaultPlan::parse("const@2,shared@2", 1);
  const vgpu::DeviceSpec spec;
  const auto noop = [](const vgpu::ThreadCoord&, vgpu::LaneCtx& ctx,
                       vgpu::SharedMem&) { ctx.alu(); };
  LaunchFaultInjector faults(plan, 2, 0);
  const vgpu::LaunchObserverScope scope(faults);

  // No constant or shared usage: the injector lets the launch through.
  vgpu::KernelConfig plain{
      .name = "plain", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  EXPECT_NO_THROW(vgpu::execute_kernel(spec, plain, noop));

  vgpu::KernelConfig uses_const = plain;
  uses_const.name = "const_user";
  uses_const.constant_bytes = 128;
  try {
    vgpu::execute_kernel(spec, uses_const, noop);
    FAIL() << "expected LaunchError";
  } catch (const vgpu::LaunchError& error) {
    EXPECT_FALSE(error.transient());
    EXPECT_NE(std::string(error.what()).find("constant"), std::string::npos);
  }
}

TEST(LaunchFaultInjector, UntargetedFrameArmsNothing) {
  const FaultPlan plan = FaultPlan::parse("launch@3", 1);
  EXPECT_FALSE(LaunchFaultInjector(plan, 4, 0).armed());
  EXPECT_TRUE(LaunchFaultInjector(plan, 3, 0).armed());
}

TEST(DeviceFaultPlan, ParsesEveryFormAndRoundTrips) {
  const DeviceFaultPlan plan = DeviceFaultPlan::parse(
      "device-lost@1:2.5+1,device-hang@2:4+0.5,device-slow@0:3+2*4,"
      "device-slow@0.05*8",
      1);
  ASSERT_EQ(plan.specs().size(), 4u);
  EXPECT_EQ(plan.specs()[0].kind, DeviceFaultKind::kDeviceLost);
  EXPECT_EQ(plan.specs()[0].device, 1);
  EXPECT_DOUBLE_EQ(plan.specs()[0].start_s, 2.5);
  EXPECT_DOUBLE_EQ(plan.specs()[0].duration_s, 1.0);
  EXPECT_EQ(plan.specs()[1].kind, DeviceFaultKind::kDeviceHang);
  EXPECT_EQ(plan.specs()[2].kind, DeviceFaultKind::kDeviceSlow);
  EXPECT_DOUBLE_EQ(plan.specs()[2].factor, 4.0);
  EXPECT_EQ(plan.specs()[3].device, -1);  // probabilistic on every device
  EXPECT_DOUBLE_EQ(plan.specs()[3].probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.specs()[3].factor, 8.0);
  // describe() round-trips through parse().
  const DeviceFaultPlan again = DeviceFaultPlan::parse(plan.describe(), 1);
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(DeviceFaultPlan, ParseNamesTheOffendingToken) {
  try {
    DeviceFaultPlan::parse("device-lost@1:2+1,device-warp@2:1+1", 1);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("device-warp"),
              std::string::npos);
  }
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost", 1), core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1", 1), core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1:2", 1),
               core::CheckError);
  // Only device-slow may be probabilistic.
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@0.5", 1),
               core::CheckError);
  // Outage windows on the same device must not overlap.
  EXPECT_THROW(
      DeviceFaultPlan::parse("device-lost@1:2+2,device-hang@1:3+1", 1),
      core::CheckError);
  // Slow factors must actually slow.
  EXPECT_THROW(DeviceFaultPlan::parse("device-slow@0:1+1*0.5", 1),
               core::CheckError);
  // Every character of a number must belong to it: no prefix parses.
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1:2.5+1.0zz", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1: 2+1", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1x:2+1", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-hang@1:2s+1", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-slow@0:1+1*4q", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-slow@0.05p*4", 1),
               core::CheckError);
  // "inf" is a whole number token, but no usable onset, length or factor.
  EXPECT_THROW(DeviceFaultPlan::parse("device-slow@0:1+1*inf", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-lost@1:inf+1", 1),
               core::CheckError);
  EXPECT_THROW(DeviceFaultPlan::parse("device-hang@1:1+inf", 1),
               core::CheckError);
}

TEST(DeviceFaultPlan, SlowFactorWindowsAndProbabilisticFiring) {
  const DeviceFaultPlan plan =
      DeviceFaultPlan::parse("device-slow@0:2+3*4", 1);
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 1.0), 1.0);  // before onset
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 2.0), 4.0);  // active
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 4.9), 4.0);
  EXPECT_DOUBLE_EQ(plan.slow_factor(0, 0, 0, 5.0), 1.0);  // window end
  EXPECT_DOUBLE_EQ(plan.slow_factor(1, 0, 0, 2.0), 1.0);  // other device

  const DeviceFaultPlan prob =
      DeviceFaultPlan::parse("device-slow@0.3*2", 9);
  int fired = 0;
  for (int frame = 0; frame < 400; ++frame) {
    const double factor = prob.slow_factor(0, 0, frame, 0.0);
    EXPECT_TRUE(factor == 1.0 || factor == 2.0);
    fired += factor > 1.0 ? 1 : 0;
    // Deterministic in (seed, device, stream, frame).
    EXPECT_DOUBLE_EQ(factor, prob.slow_factor(0, 0, frame, 99.0));
  }
  EXPECT_GT(fired, 400 * 0.3 / 2);
  EXPECT_LT(fired, 400 * 0.3 * 2);
  // Different streams draw independently.
  int diverged = 0;
  for (int frame = 0; frame < 100; ++frame) {
    diverged += prob.slow_factor(0, 0, frame, 0.0) !=
                        prob.slow_factor(0, 7, frame, 0.0)
                    ? 1
                    : 0;
  }
  EXPECT_GT(diverged, 0);
}

TEST(MixedFaultPlanTest, SplitsFrameAndDeviceTokens) {
  const MixedFaultPlan mixed =
      parse_mixed_fault_plan("decode@4,device-lost@1:2+1,corrupt@7", 5);
  ASSERT_EQ(mixed.frame.specs().size(), 2u);
  EXPECT_EQ(mixed.frame.specs()[0].kind, FaultKind::kDecodeFail);
  EXPECT_EQ(mixed.frame.specs()[1].kind, FaultKind::kCorruptLuma);
  ASSERT_EQ(mixed.device.specs().size(), 1u);
  EXPECT_EQ(mixed.device.specs()[0].kind, DeviceFaultKind::kDeviceLost);
  EXPECT_EQ(mixed.frame.seed(), 5u);
  EXPECT_EQ(mixed.device.seed(), 5u);

  const MixedFaultPlan frame_only = parse_mixed_fault_plan("decode@4", 5);
  EXPECT_TRUE(frame_only.device.empty());
  const MixedFaultPlan device_only =
      parse_mixed_fault_plan("device-hang@0:1+1", 5);
  EXPECT_TRUE(device_only.frame.empty());
  const MixedFaultPlan none = parse_mixed_fault_plan("", 5);
  EXPECT_TRUE(none.frame.empty());
  EXPECT_TRUE(none.device.empty());
}

}  // namespace
}  // namespace fdet::serve
