// PerfCounters edge cases (degenerate ratios, clamping, associative
// merging) and the shared-memory bank-conflict model: deliberately
// conflicting access patterns must serialize and show up in both the
// conflict counter and the service-cycle decomposition, while stride-1
// and broadcast patterns stay free.
#include "vgpu/counters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

#include "vgpu/kernel.h"

namespace fdet::vgpu {
namespace {

TEST(PerfCounters, DefaultConstructedRatiosAreBenign) {
  const PerfCounters c;
  // No branches / no issued warp cycles count as fully efficient rather
  // than dividing by zero.
  EXPECT_DOUBLE_EQ(c.branch_efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(c.simd_efficiency(), 1.0);
  // Zero or negative durations yield 0 throughput, not infinity.
  EXPECT_DOUBLE_EQ(c.dram_read_throughput(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.dram_read_throughput(-1.0), 0.0);
  // No ops and no bytes: intensity 0, not 0/0.
  EXPECT_DOUBLE_EQ(c.arithmetic_intensity(), 0.0);
}

TEST(PerfCounters, ArithmeticIntensityCoversAllRooflineCases) {
  PerfCounters compute_only;
  compute_only.alu_ops = 100;
  EXPECT_TRUE(std::isinf(compute_only.arithmetic_intensity()));

  PerfCounters memory_only;
  memory_only.global_read_bytes = 256;
  EXPECT_DOUBLE_EQ(memory_only.arithmetic_intensity(), 0.0);

  PerfCounters mixed;
  mixed.alu_ops = 64;
  mixed.fma_ops = 32;
  mixed.sfu_ops = 4;
  mixed.global_read_bytes = 40;
  mixed.global_write_bytes = 10;
  EXPECT_EQ(mixed.arithmetic_ops(), 100u);
  EXPECT_EQ(mixed.global_bytes(), 50u);
  EXPECT_DOUBLE_EQ(mixed.arithmetic_intensity(), 2.0);
}

TEST(PerfCounters, BranchEfficiencyClampsInconsistentInputs) {
  // More divergent than total branches can only come from a buggy merge;
  // the ratio clamps to [0, 1] instead of going negative.
  PerfCounters c;
  c.warp_branches = 4;
  c.divergent_branches = 9;
  EXPECT_DOUBLE_EQ(c.branch_efficiency(), 0.0);

  c.divergent_branches = 1;
  EXPECT_DOUBLE_EQ(c.branch_efficiency(), 0.75);
}

TEST(PerfCounters, SimdEfficiencyClampsAboveOne) {
  PerfCounters c;
  c.lane_issue_cycles = 33.0 * 10.0;  // impossible: >32 lanes' worth
  c.warp_issue_cycles = 10.0;
  EXPECT_DOUBLE_EQ(c.simd_efficiency(), 1.0);
}

PerfCounters filled(std::uint64_t base) {
  PerfCounters c;
  c.threads = base + 1;
  c.warps = base + 2;
  c.warp_branches = base + 3;
  c.divergent_branches = base + 4;
  c.global_read_bytes = base + 5;
  c.global_write_bytes = base + 6;
  c.global_transactions = base + 7;
  c.alu_ops = base + 8;
  c.fma_ops = base + 9;
  c.sfu_ops = base + 10;
  c.shared_accesses = base + 11;
  c.constant_accesses = base + 12;
  c.texture_fetches = base + 13;
  c.bank_conflicts = base + 14;
  c.lane_issue_cycles = static_cast<double>(base) + 0.25;
  c.warp_issue_cycles = static_cast<double>(base) + 0.5;
  c.issue_service_cycles = static_cast<double>(base) + 0.125;
  c.stall_service_cycles = static_cast<double>(base) + 0.375;
  c.stall_base_cycles = static_cast<double>(base) + 0.0625;
  c.divergence_cycles = static_cast<double>(base) + 0.75;
  c.bank_conflict_cycles = static_cast<double>(base) + 0.875;
  return c;
}

void expect_equal(const PerfCounters& a, const PerfCounters& b) {
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.warp_branches, b.warp_branches);
  EXPECT_EQ(a.divergent_branches, b.divergent_branches);
  EXPECT_EQ(a.global_read_bytes, b.global_read_bytes);
  EXPECT_EQ(a.global_write_bytes, b.global_write_bytes);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.alu_ops, b.alu_ops);
  EXPECT_EQ(a.fma_ops, b.fma_ops);
  EXPECT_EQ(a.sfu_ops, b.sfu_ops);
  EXPECT_EQ(a.shared_accesses, b.shared_accesses);
  EXPECT_EQ(a.constant_accesses, b.constant_accesses);
  EXPECT_EQ(a.texture_fetches, b.texture_fetches);
  EXPECT_EQ(a.bank_conflicts, b.bank_conflicts);
  EXPECT_DOUBLE_EQ(a.lane_issue_cycles, b.lane_issue_cycles);
  EXPECT_DOUBLE_EQ(a.warp_issue_cycles, b.warp_issue_cycles);
  EXPECT_DOUBLE_EQ(a.issue_service_cycles, b.issue_service_cycles);
  EXPECT_DOUBLE_EQ(a.stall_service_cycles, b.stall_service_cycles);
  EXPECT_DOUBLE_EQ(a.stall_base_cycles, b.stall_base_cycles);
  EXPECT_DOUBLE_EQ(a.divergence_cycles, b.divergence_cycles);
  EXPECT_DOUBLE_EQ(a.bank_conflict_cycles, b.bank_conflict_cycles);
}

TEST(PerfCounters, MergeIsAssociativeOverEveryField) {
  // (a + b) + c must equal a + (b + c) fieldwise — the profiler merges
  // launches in arbitrary order, so any non-summable field would skew
  // aggregates depending on launch interleaving.
  PerfCounters left = filled(100);
  PerfCounters left_b = filled(2000);
  left += left_b;
  left += filled(30000);

  PerfCounters right_bc = filled(2000);
  right_bc += filled(30000);
  PerfCounters right = filled(100);
  right += right_bc;

  expect_equal(left, right);
}

// --- bank-conflict model (one warp, one addressed access per lane) -----

using WordOf = std::function<std::uint64_t(int lane)>;

WordOf stride(std::uint64_t words) {
  return [=](int lane) { return static_cast<std::uint64_t>(lane) * words; };
}

/// One block of `lanes` threads (at most one warp); lane l loads shared
/// word word_of(l).
LaunchCost run_shared_pattern(int lanes, const WordOf& word_of) {
  const DeviceSpec spec;
  KernelConfig config{.name = "shared_pattern",
                      .grid = {1, 1, 1},
                      .block = {lanes, 1, 1}};
  config.shared.add<std::int32_t>(1024);  // addressed by raw offset
  return execute_kernel(
      spec, config, [&](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.shared_load(static_cast<std::size_t>(word_of(t.thread.x)) * 4, 4);
      });
}

TEST(BankConflicts, StrideOneIsConflictFree) {
  // word = lane: every lane hits its own bank.
  const LaunchCost cost = run_shared_pattern(32, stride(1));
  EXPECT_EQ(cost.counters.shared_accesses, 32u);
  EXPECT_EQ(cost.counters.bank_conflicts, 0u);
  EXPECT_DOUBLE_EQ(cost.counters.bank_conflict_cycles, 0.0);
}

TEST(BankConflicts, BroadcastOfOneWordIsFree) {
  // All 32 lanes read the same word: hardware broadcasts in one pass.
  const LaunchCost cost = run_shared_pattern(32, stride(0));
  EXPECT_EQ(cost.counters.bank_conflicts, 0u);
  EXPECT_DOUBLE_EQ(cost.counters.bank_conflict_cycles, 0.0);
}

TEST(BankConflicts, Stride32SerializesIntoThirtyTwoPasses) {
  // word = lane * 32: 32 distinct words, all in bank 0 — the classic
  // worst case (column walk of a 32-wide shared tile). Degree 32 means
  // 31 extra serialized passes for the single access slot.
  const LaunchCost cost = run_shared_pattern(32, stride(32));
  EXPECT_EQ(cost.counters.bank_conflicts, 31u);
  EXPECT_GT(cost.counters.bank_conflict_cycles, 0.0);

  // The serialization must cost real service cycles relative to the
  // conflict-free pattern with the identical instruction mix.
  const LaunchCost clean = run_shared_pattern(32, stride(1));
  EXPECT_GT(cost.total_service_cycles, clean.total_service_cycles);
  const DeviceSpec spec;
  EXPECT_NEAR(cost.counters.warp_issue_cycles -
                  clean.counters.warp_issue_cycles,
              31.0 * spec.cost.shared_conflict, 1e-9);
}

TEST(BankConflicts, TwoWayConflictCostsOneExtraPass) {
  // word = lane * 2: lanes l and l+16 land in the same even bank with
  // distinct words — 16 banks with degree 2 each. The slot pays
  // max-degree-minus-one, not the sum over banks: one extra pass.
  const LaunchCost cost = run_shared_pattern(32, stride(2));
  EXPECT_EQ(cost.counters.bank_conflicts, 1u);
}

TEST(BankConflicts, MisalignedSlotsDoNotCrossConflict) {
  // Half the warp issues one access, the other half two: the lone second
  // slot only sees the lanes that actually issued it. Lanes 16..31 issue
  // their second access into bank 0 with distinct words — degree 16.
  const DeviceSpec spec;
  KernelConfig config{.name = "ragged", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  config.shared.add<std::int32_t>(1024);
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.shared_load(static_cast<std::size_t>(t.thread.x) * 4, 4);  // clean
        if (t.thread.x >= 16) {
          ctx.shared_load(static_cast<std::size_t>(t.thread.x - 16) * 32 * 4,
                          4);
        }
      });
  EXPECT_EQ(cost.counters.bank_conflicts, 15u);
}

TEST(BankConflicts, Stride8PutsEightWordsInEachOfFourBanks) {
  // word = lane * 8: banks 0, 8, 16, 24 each receive 8 distinct words.
  const LaunchCost cost = run_shared_pattern(32, stride(8));
  EXPECT_EQ(cost.counters.bank_conflicts, 7u);
}

TEST(BankConflicts, OddStrideIsConflictFree) {
  // word = lane * 5: 5 is coprime with 32, so the 32 lanes land in 32
  // distinct banks.
  const LaunchCost cost = run_shared_pattern(32, stride(5));
  EXPECT_EQ(cost.counters.bank_conflicts, 0u);
}

TEST(BankConflicts, RepeatedWordsInAConflictingBankCountOnce) {
  // Four distinct words, all in bank 0, each read by 8 lanes: the repeats
  // broadcast, so the degree is 4 (3 extra passes), not 32.
  const LaunchCost cost =
      run_shared_pattern(32, [](int lane) { return (lane % 4) * 32u; });
  EXPECT_EQ(cost.counters.bank_conflicts, 3u);
}

TEST(BankConflicts, PartialWarpColumnWalkCountsOnlyItsLanes) {
  // A 20-lane block walking a column: 20 distinct words in bank 0.
  const LaunchCost cost = run_shared_pattern(20, stride(32));
  EXPECT_EQ(cost.counters.bank_conflicts, 19u);
}

// --- service-cycle decomposition ---------------------------------------

TEST(ServiceDecomposition, ComponentsSumToTotalServiceCycles) {
  const DeviceSpec spec;
  KernelConfig config{.name = "mixed",
                      .grid = {8, 2, 1},
                      .block = {64, 1, 1},
                      .track_branches = true};
  config.shared.add<std::int32_t>(1024);
  const LaunchCost cost = execute_kernel(
      spec, config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.alu(3 + t.thread.x % 5);  // uneven lanes -> divergence cycles
        ctx.branch(t.thread.x % 2 == 0);
        ctx.global_load(static_cast<std::uint64_t>(t.flat_thread()) * 4, 4);
        // Conflicting column walk within each warp.
        ctx.shared_load(static_cast<std::size_t>(t.thread.x % 32) * 32 * 4, 4);
      });

  const PerfCounters& c = cost.counters;
  const double total = cost.total_service_cycles;
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(c.issue_service_cycles + c.stall_service_cycles, total,
              total * 1e-9);
  EXPECT_GT(c.divergence_cycles, 0.0);
  EXPECT_GT(c.bank_conflict_cycles, 0.0);
  EXPECT_LE(c.divergence_cycles + c.bank_conflict_cycles,
            c.issue_service_cycles * (1.0 + 1e-9));
  EXPECT_LE(c.stall_base_cycles, c.stall_service_cycles * (1.0 + 1e-9));
}

TEST(ServiceDecomposition, OccupancyLimitedStallAppearsAtLowOccupancy) {
  const DeviceSpec spec;
  // Memory-heavy body so stalls dominate.
  const auto body = [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
    ctx.global_load(static_cast<std::uint64_t>(t.flat_thread()) * 4, 4);
    ctx.alu();
  };
  KernelConfig high{.name = "occ_high", .grid = {14, 1, 1}, .block = {192, 1, 1}};
  KernelConfig low = high;
  low.name = "occ_low";
  low.shared.add<std::byte>(40 * 1024);  // one resident block per SM

  const LaunchCost fast = execute_kernel(spec, high, body);
  const LaunchCost slow = execute_kernel(spec, low, body);

  // At low occupancy the visible stall exceeds what a fully occupied SM
  // would see; that excess is the profiler's "occupancy-limited" bucket.
  const double slow_excess = slow.counters.stall_service_cycles -
                             slow.counters.stall_base_cycles;
  const double fast_excess = fast.counters.stall_service_cycles -
                             fast.counters.stall_base_cycles;
  EXPECT_GT(slow_excess, 0.0);
  EXPECT_GT(slow_excess, fast_excess);
}

}  // namespace
}  // namespace fdet::vgpu
