#include "vgpu/kernel.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/check.h"

namespace fdet::vgpu {
namespace {

DeviceSpec test_spec() { return DeviceSpec{}; }

TEST(Executor, RunsEveryThreadExactlyOnce) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "cover", .grid = {4, 3, 1}, .block = {8, 4, 1}};
  std::vector<int> hits(4 * 3 * 8 * 4, 0);

  execute_kernel(spec, config,
                 [&](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
                   const int gx = t.block_id.x * t.block.x + t.thread.x;
                   const int gy = t.block_id.y * t.block.y + t.thread.y;
                   hits[static_cast<std::size_t>(gy * 32 + gx)]++;
                   ctx.alu();
                 });

  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(Executor, CountersAccumulateArithmetic) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "ops", .grid = {2, 1, 1}, .block = {32, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
        ctx.alu(3);
        ctx.fma(2);
        ctx.sfu(1);
      });
  EXPECT_EQ(cost.counters.threads, 64u);
  EXPECT_EQ(cost.counters.alu_ops, 64u * 3);
  EXPECT_EQ(cost.counters.fma_ops, 64u * 2);
  EXPECT_EQ(cost.counters.sfu_ops, 64u);
}

TEST(Executor, WarpPaysForSlowestLane) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "skew", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.alu(t.thread.x == 0 ? 1000 : 1);
      });
  // Warp issue should be dominated by the 1000-op lane, not the average.
  EXPECT_GE(cost.counters.warp_issue_cycles, 1000.0 * spec.cost.alu);
  // SIMD efficiency reflects 31 mostly idle lanes.
  EXPECT_LT(cost.counters.simd_efficiency(), 0.05);
}

TEST(Executor, UniformWorkHasFullSimdEfficiency) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "uniform", .grid = {2, 2, 1}, .block = {64, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config,
      [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) { ctx.alu(10); });
  EXPECT_NEAR(cost.counters.simd_efficiency(), 1.0, 1e-9);
}

TEST(Executor, CoalescedLoadsFormSingleTransaction) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "coalesced", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        // 32 consecutive 4-byte words: one 128-byte segment.
        ctx.global_load(static_cast<std::uint64_t>(t.thread.x) * 4, 4);
      });
  EXPECT_EQ(cost.counters.global_transactions, 1u);
  EXPECT_EQ(cost.counters.global_read_bytes, 32u * 4);
}

TEST(Executor, StridedLoadsSerializeIntoManyTransactions) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "strided", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.global_load(static_cast<std::uint64_t>(t.thread.x) * 128, 4);
      });
  EXPECT_EQ(cost.counters.global_transactions, 32u);
}

TEST(Executor, StridedCostsMoreThanCoalesced) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "mem", .grid = {8, 8, 1}, .block = {32, 1, 1}};
  const LaunchCost coalesced = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.global_load(static_cast<std::uint64_t>(t.flat_thread()) * 4, 4);
      });
  const LaunchCost strided = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.global_load(static_cast<std::uint64_t>(t.flat_thread()) * 256, 4);
      });
  EXPECT_GT(strided.total_service_cycles, coalesced.total_service_cycles);
}

TEST(Executor, TrackedBranchDivergenceIsDetected) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "div",
                      .grid = {1, 1, 1},
                      .block = {32, 1, 1},
                      .track_branches = true};
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.branch(true);                 // uniform
        ctx.branch(t.thread.x < 16);      // divergent
      });
  EXPECT_EQ(cost.counters.warp_branches, 2u);
  EXPECT_EQ(cost.counters.divergent_branches, 1u);
  EXPECT_NEAR(cost.counters.branch_efficiency(), 0.5, 1e-12);
}

TEST(Executor, EarlyExitLanesDoNotFlagUniformTail) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "exit",
                      .grid = {1, 1, 1},
                      .block = {32, 1, 1},
                      .track_branches = true};
  // All lanes branch identically for 3 steps; half the lanes then stop.
  // The 4th step is uniform among the lanes still alive.
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        for (int i = 0; i < 3; ++i) {
          ctx.branch(true);
        }
        if (t.thread.x < 16) {
          ctx.branch(false);
        }
      });
  EXPECT_EQ(cost.counters.warp_branches, 4u);
  EXPECT_EQ(cost.counters.divergent_branches, 0u);
}

TEST(Executor, UntrackedBranchesCountAtWarpLevel) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "untracked", .grid = {1, 1, 1}, .block = {64, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config,
      [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) { ctx.branch(true); });
  EXPECT_EQ(cost.counters.warp_branches, 2u);  // 2 warps x 1 branch
  EXPECT_EQ(cost.counters.divergent_branches, 0u);
}

TEST(Executor, SharedMemoryCarriesDataAcrossPhases) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "twophase", .grid = {2, 1, 1}, .block = {32, 1, 1}};
  const auto tile = config.shared.add<int>(32);
  std::vector<int> out(64, -1);

  execute_kernel(
      spec, config,
      [tile](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        int& slot = shared[tile][static_cast<std::size_t>(t.thread.x)];
        slot = t.thread.x * 2;
        ctx.shared_store_at(shared, slot);
      },
      [&](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        // Read a *different* lane's value: only valid because of the
        // inter-phase barrier.
        const int other = (t.thread.x + 1) % 32;
        const int& slot = shared[tile][static_cast<std::size_t>(other)];
        out[static_cast<std::size_t>(t.flat_block() * 32 + t.thread.x)] = slot;
        ctx.shared_load_at(shared, slot);
      });

  for (int b = 0; b < 2; ++b) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(out[static_cast<std::size_t>(b * 32 + x)], ((x + 1) % 32) * 2);
    }
  }
}

TEST(Executor, MultiPhaseChargesBarrier) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "barrier", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const auto nop = [](const ThreadCoord&, LaneCtx&, SharedMem&) {};
  const LaunchCost one = execute_kernel(spec, config, nop);
  const LaunchCost two = execute_kernel(spec, config, nop, nop);
  EXPECT_GT(two.total_service_cycles, one.total_service_cycles);
}

TEST(Executor, SerializedConstantAccessCostsMore) {
  const DeviceSpec spec = test_spec();
  KernelConfig broadcast{.name = "cb", .grid = {4, 1, 1}, .block = {64, 1, 1}};
  KernelConfig serialized = broadcast;
  serialized.constant_broadcast = false;
  const auto body = [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
    ctx.constant_load(16);
  };
  const LaunchCost fast = execute_kernel(spec, broadcast, body);
  const LaunchCost slow = execute_kernel(spec, serialized, body);
  EXPECT_GT(slow.total_service_cycles, fast.total_service_cycles);
  EXPECT_EQ(slow.counters.constant_accesses, fast.counters.constant_accesses);
}

TEST(Executor, RejectsInvalidLaunches) {
  const DeviceSpec spec = test_spec();
  KernelConfig too_big{.name = "big", .grid = {1, 1, 1}, .block = {2048, 1, 1}};
  EXPECT_THROW(execute_kernel(spec, too_big,
                              [](const ThreadCoord&, LaneCtx&, SharedMem&) {}),
               core::CheckError);

  KernelConfig no_resident{.name = "regs",
                           .grid = {1, 1, 1},
                           .block = {1024, 1, 1},
                           .regs_per_thread = 64};
  EXPECT_THROW(execute_kernel(spec, no_resident,
                              [](const ThreadCoord&, LaneCtx&, SharedMem&) {}),
               core::CheckError);
}

TEST(Executor, SharedOverflowIsCaught) {
  // A layout larger than the SM's shared memory cannot be resident.
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "overflow", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  config.shared.add<double>(
      static_cast<std::size_t>(spec.shared_mem_per_sm) / sizeof(double) + 1);
  EXPECT_THROW(execute_kernel(spec, config,
                              [](const ThreadCoord&, LaneCtx&, SharedMem&) {}),
               core::CheckError);
}

TEST(Executor, PartialWarpsAreHandled) {
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "partial", .grid = {1, 1, 1}, .block = {40, 1, 1}};
  const LaunchCost cost = execute_kernel(
      spec, config,
      [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) { ctx.alu(); });
  EXPECT_EQ(cost.counters.threads, 40u);
  EXPECT_EQ(cost.counters.alu_ops, 40u);
  EXPECT_EQ(cost.counters.warps, 2u);
}

TEST(Executor, ThreeDimensionalBlockIssuesLanesInFlatOrder) {
  // 60 threads: the second warp starts at flat thread 32 = (2, 0, 2), mid
  // row, and crosses from z = 2 into z = 3 at flat thread 45.
  const DeviceSpec spec = test_spec();
  KernelConfig config{.name = "cube", .grid = {2, 1, 1}, .block = {5, 3, 4}};
  const int threads = 5 * 3 * 4;
  std::vector<std::vector<int>> order(4);  // per (block, phase)
  std::vector<int> hits(2 * 2 * threads, 0);
  const auto record = [&](int phase) {
    return [&, phase](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
      ASSERT_LT(t.thread.x, 5);
      ASSERT_LT(t.thread.y, 3);
      ASSERT_LT(t.thread.z, 4);
      const int slot = t.block_id.x * 2 + phase;
      order[static_cast<std::size_t>(slot)].push_back(t.flat_thread());
      ++hits[static_cast<std::size_t>(slot * threads + t.flat_thread())];
      ctx.alu();
    };
  };
  const LaunchCost cost = execute_kernel(spec, config, record(0), record(1));

  std::vector<int> flat(threads);
  std::iota(flat.begin(), flat.end(), 0);
  for (const auto& issued : order) {
    EXPECT_EQ(issued, flat);
  }
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
  EXPECT_EQ(cost.counters.warps, 2u * 2u * 2u);
}

TEST(Executor, HigherOccupancyHidesMoreLatency) {
  const DeviceSpec spec = test_spec();
  // Same per-block work; the low-occupancy variant wastes shared memory so
  // fewer blocks are resident and stalls are exposed.
  KernelConfig high{.name = "high", .grid = {14, 1, 1}, .block = {192, 1, 1}};
  KernelConfig low = high;
  low.name = "low";
  low.shared.add<std::byte>(40 * 1024);  // 1 block per SM
  const auto body = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
    ctx.global_load(static_cast<std::uint64_t>(t.flat_thread()) * 4, 4);
    ctx.alu(4);
  };
  const LaunchCost fast = execute_kernel(spec, high, body);
  const LaunchCost slow = execute_kernel(spec, low, body);
  EXPECT_GT(slow.total_service_cycles, fast.total_service_cycles);
}

}  // namespace
}  // namespace fdet::vgpu
