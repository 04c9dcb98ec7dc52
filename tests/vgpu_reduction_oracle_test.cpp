// Differential oracle for the executor's warp reduction. A lane-owning
// observer records every lane's LaneCtx as the executor hands it over at
// end_lane, re-reduces the launch with the original slot-by-slot
// reduction (kept below verbatim as the reference: an O(32^2) distinct-word
// search per shared slot and per global slot, per-lane counter updates),
// and requires every PerfCounters field, every block's service cycles and
// the launch total to be bit-identical to the LaunchCost the executor
// delivers in after_launch. Inputs: every production kernel target at
// three geometries, plus synthetic access patterns aimed at the cases the
// fast reduction special-cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analyze/registry.h"
#include "core/rng.h"
#include "launch_cost_equal.h"
#include "vgpu/kernel.h"
#include "vgpu/observer.h"

namespace fdet::vgpu {
namespace {

// --- reference reduction (the original executor code, unchanged) ---------

namespace reference {

constexpr int kWarpSize = 32;
constexpr std::uint64_t kSegmentBytes = 128;  // Fermi coalescing granularity

/// Scratch for one warp's aggregation, reused across warps to avoid
/// allocation in the hot loop (Per.14/Per.15).
struct WarpScratch {
  std::array<LaneCtx, kWarpSize> lanes;
  std::array<std::uint64_t, kWarpSize> segments;  // dedup buffer per slot
};

struct WarpCost {
  double issue = 0.0;
  double stall = 0.0;
  double divergence_issue = 0.0;     ///< issue cycles lost to idle lanes
  double bank_conflict_issue = 0.0;  ///< serialized shared-memory passes
};

constexpr int kSharedBanks = 32;  // Fermi: 32 banks, 4-byte wide

/// Reduces the lanes of one warp (lanes[0..active)) into cost + counters.
WarpCost aggregate_warp(const CostModel& cost, const KernelConfig& config,
                        WarpScratch& scratch, int active,
                        PerfCounters& counters) {
  WarpCost warp;
  double max_lane_issue = 0.0;
  double sum_lane_issue = 0.0;
  std::size_t max_global_ops = 0;
  std::size_t max_shared_ops = 0;
  std::size_t max_branch_trace = 0;
  std::uint32_t max_untracked = 0;

  const double const_cost =
      config.constant_broadcast ? cost.constant_access : cost.constant_serialized;

  for (int l = 0; l < active; ++l) {
    const LaneCtx& lane = scratch.lanes[l];
    double issue = lane.alu_count() * cost.alu + lane.fma_count() * cost.fma +
                   lane.sfu_count() * cost.sfu +
                   lane.shared_count() * cost.shared_access +
                   lane.constant_count() * const_cost +
                   lane.texture_count() * cost.texture_fetch;
    const std::size_t branches =
        lane.branch_trace().size() + lane.untracked_branches();
    issue += static_cast<double>(branches) * cost.branch;

    counters.alu_ops += lane.alu_count();
    counters.fma_ops += lane.fma_count();
    counters.sfu_ops += lane.sfu_count();
    counters.shared_accesses += lane.shared_count();
    counters.constant_accesses += lane.constant_count();
    counters.texture_fetches += lane.texture_count();
    counters.lane_issue_cycles += issue;

    sum_lane_issue += issue;
    max_lane_issue = std::max(max_lane_issue, issue);
    max_global_ops = std::max(max_global_ops, lane.global_ops().size());
    max_shared_ops = std::max(max_shared_ops, lane.shared_words().size());
    max_branch_trace = std::max(max_branch_trace, lane.branch_trace().size());
    max_untracked = std::max(max_untracked, lane.untracked_branches());

    for (const auto& op : lane.global_ops()) {
      if (op.store) {
        counters.global_write_bytes += op.bytes;
      } else {
        counters.global_read_bytes += op.bytes;
      }
    }
  }
  warp.issue = max_lane_issue;
  // SIMD lockstep: the warp pays max-lane issue, so the gap between the
  // slowest lane and the lane average is issue capacity burned on idle
  // lanes (inactive tail lanes of a partial warp included).
  warp.divergence_issue =
      std::max(0.0, max_lane_issue - sum_lane_issue / kWarpSize);

  // Bank conflicts: align addressed shared accesses by slot index across
  // lanes (lanes of a warp issue their k-th shared access together).
  // Distinct 4-byte words falling into the same of the 32 banks serialize;
  // an n-way conflict costs n - 1 extra passes. Lanes reading the same
  // word broadcast for free.
  for (std::size_t slot = 0; slot < max_shared_ops; ++slot) {
    std::array<std::uint32_t, kWarpSize> words;
    int n_words = 0;
    for (int l = 0; l < active; ++l) {
      const auto& lane_words = scratch.lanes[static_cast<std::size_t>(l)]
                                   .shared_words();
      if (slot >= lane_words.size()) {
        continue;
      }
      const std::uint32_t word = lane_words[slot];
      bool seen = false;
      for (int s = 0; s < n_words; ++s) {
        if (words[static_cast<std::size_t>(s)] == word) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        words[static_cast<std::size_t>(n_words++)] = word;
      }
    }
    std::array<int, kSharedBanks> per_bank{};
    int degree = 0;
    for (int s = 0; s < n_words; ++s) {
      const auto bank = words[static_cast<std::size_t>(s)] % kSharedBanks;
      degree = std::max(degree, ++per_bank[static_cast<std::size_t>(bank)]);
    }
    const int extra = std::max(0, degree - 1);
    if (extra > 0) {
      counters.bank_conflicts += static_cast<std::uint64_t>(extra);
      const double serialized = extra * cost.shared_conflict;
      warp.issue += serialized;
      warp.bank_conflict_issue += serialized;
    }
  }

  // Coalescing: align global accesses by slot index across lanes; lanes of
  // a warp issue their k-th access together, and distinct 128-byte segments
  // become separate transactions.
  for (std::size_t slot = 0; slot < max_global_ops; ++slot) {
    int distinct = 0;
    for (int l = 0; l < active; ++l) {
      const auto& ops = scratch.lanes[l].global_ops();
      if (slot >= ops.size()) {
        continue;
      }
      const std::uint64_t seg = ops[slot].addr / kSegmentBytes;
      bool seen = false;
      for (int s = 0; s < distinct; ++s) {
        if (scratch.segments[static_cast<std::size_t>(s)] == seg) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        scratch.segments[static_cast<std::size_t>(distinct++)] = seg;
      }
    }
    counters.global_transactions += static_cast<std::uint64_t>(distinct);
    warp.issue += distinct * cost.global_transaction_issue;
    warp.stall += cost.global_latency;  // one dependent wait per slot
  }

  // Divergence: a warp branch is divergent when participating lanes
  // disagree on the outcome at the same trace position.
  for (std::size_t k = 0; k < max_branch_trace; ++k) {
    bool saw_taken = false;
    bool saw_not_taken = false;
    for (int l = 0; l < active; ++l) {
      const auto& trace = scratch.lanes[l].branch_trace();
      if (k >= trace.size()) {
        continue;
      }
      (trace[k] != 0 ? saw_taken : saw_not_taken) = true;
    }
    ++counters.warp_branches;
    if (saw_taken && saw_not_taken) {
      ++counters.divergent_branches;
    }
  }
  // Untracked branches are uniform by construction (kernels with regular
  // control flow); count them at warp level without divergence.
  counters.warp_branches += max_untracked;

  counters.warp_issue_cycles += warp.issue;
  return warp;
}

}  // namespace reference

// --- the oracle observer ---------------------------------------------------

/// Owns each launch's lane events, feeds the recorded lanes warp by warp
/// through the reference reduction, and reassembles the block and launch
/// totals exactly as the original executor did. after_launch compares the
/// result with the executor's LaunchCost bit for bit.
class OracleObserver final : public LaunchObserver {
 public:
  LaneRole lane_role() const override { return LaneRole::kCapture; }

  void begin_kernel(const DeviceSpec& spec,
                    const KernelConfig& config) override {
    spec_ = spec;
    expected_ = LaunchCost{};
    expected_.config = config;
    threads_per_block_ = static_cast<int>(config.block.count());
    warps_per_block_ =
        (threads_per_block_ + reference::kWarpSize - 1) / reference::kWarpSize;
    expected_.occupancy = compute_occupancy(
        spec, threads_per_block_, static_cast<int>(config.shared.bytes()),
        config.regs_per_thread);
    expected_.block_service_cycles.resize(
        static_cast<std::size_t>(config.grid.count()));
    hiding_ = 1.0 + spec.cost.latency_hiding_per_warp *
                        std::max(0, expected_.occupancy.resident_warps - 1);
    hiding_full_ = 1.0 + spec.cost.latency_hiding_per_warp *
                             std::max(0, spec.max_warps_per_sm - 1);
    block_ = -1;
    phases_ = 0;
  }

  void begin_block(const Dim3& block_id) override {
    finish_block();
    const KernelConfig& config = expected_.config;
    block_ = block_id.x +
             static_cast<std::int64_t>(config.grid.x) *
                 (block_id.y + static_cast<std::int64_t>(config.grid.y) *
                                   block_id.z);
    block_issue_ = block_stall_ = block_divergence_ = block_conflict_ = 0.0;
  }

  void begin_phase(int phase) override {
    // The barrier between two phases, charged where the executor charges
    // it: after the earlier phase's last warp.
    if (phase > 0) {
      block_issue_ += warps_per_block_ * spec_.cost.sync;
    }
    phases_ = std::max(phases_, phase + 1);
    lanes_in_phase_ = 0;
    lanes_in_warp_ = 0;
  }

  void end_lane(const LaneCtx& lane) override {
    scratch_.lanes[static_cast<std::size_t>(lanes_in_warp_++)] = lane;
    ++lanes_in_phase_;
    if (lanes_in_warp_ == reference::kWarpSize ||
        lanes_in_phase_ == threads_per_block_) {
      const reference::WarpCost warp =
          reference::aggregate_warp(spec_.cost, expected_.config, scratch_,
                                    lanes_in_warp_, expected_.counters);
      block_issue_ += warp.issue;
      block_stall_ += warp.stall;
      block_divergence_ += warp.divergence_issue;
      block_conflict_ += warp.bank_conflict_issue;
      lanes_in_warp_ = 0;
    }
  }

  void end_kernel() override {
    finish_block();
    const auto blocks =
        static_cast<std::uint64_t>(expected_.config.grid.count());
    expected_.counters.threads =
        blocks * static_cast<std::uint64_t>(threads_per_block_);
    expected_.counters.warps = blocks *
                               static_cast<std::uint64_t>(warps_per_block_) *
                               static_cast<std::uint64_t>(phases_);
    pending_ = expected_;
  }

  void after_launch(const DeviceSpec&, const LaunchCost& cost) override {
    ASSERT_TRUE(pending_.has_value())
        << "launch '" << cost.config.name << "' ran no lane through the oracle";
    expect_bit_identical(*pending_, cost);
    pending_.reset();
    ++launches_;
    costs_.push_back(cost);
  }

  int launches() const { return launches_; }
  /// Every LaunchCost the executor delivered, in launch order.
  const std::vector<LaunchCost>& costs() const { return costs_; }

 private:
  void finish_block() {
    if (block_ < 0) {
      return;
    }
    const CostModel& cost = spec_.cost;
    const double service = block_issue_ / cost.ipc + block_stall_ / hiding_;
    expected_.block_service_cycles[static_cast<std::size_t>(block_)] = service;
    expected_.total_service_cycles += service;
    PerfCounters& c = expected_.counters;
    c.issue_service_cycles += block_issue_ / cost.ipc;
    c.stall_service_cycles += block_stall_ / hiding_;
    c.stall_base_cycles += block_stall_ / hiding_full_;
    c.divergence_cycles += block_divergence_ / cost.ipc;
    c.bank_conflict_cycles += block_conflict_ / cost.ipc;
    block_ = -1;
  }

  DeviceSpec spec_;
  LaunchCost expected_;
  std::optional<LaunchCost> pending_;
  reference::WarpScratch scratch_;
  int threads_per_block_ = 0;
  int warps_per_block_ = 0;
  int phases_ = 0;
  int lanes_in_phase_ = 0;
  int lanes_in_warp_ = 0;
  std::int64_t block_ = -1;
  double hiding_ = 1.0;
  double hiding_full_ = 1.0;
  double block_issue_ = 0.0;
  double block_stall_ = 0.0;
  double block_divergence_ = 0.0;
  double block_conflict_ = 0.0;
  int launches_ = 0;
  std::vector<LaunchCost> costs_;
};

/// Runs `launch` under the oracle, then again with no lane owner on the
/// chain, and requires the owner-free run to deliver the same costs: the
/// executor takes no different reduction path when nobody watches lanes.
template <typename Fn>
void check_against_oracle(Fn&& launch) {
  OracleObserver oracle;
  {
    const LaunchObserverScope scope(oracle);
    launch();
  }
  ASSERT_GT(oracle.launches(), 0);

  std::vector<LaunchCost> unobserved;
  {
    const ScopedKernelProfileHook hook(
        [&](const DeviceSpec&, const LaunchCost& cost) {
          unobserved.push_back(cost);
        });
    launch();
  }
  ASSERT_EQ(unobserved.size(), oracle.costs().size());
  for (std::size_t i = 0; i < unobserved.size(); ++i) {
    expect_bit_identical(oracle.costs()[i], unobserved[i]);
  }
}

// --- production kernels ----------------------------------------------------

void check_production_targets(int width, int height) {
  for (const analyze::LintTarget& target :
       analyze::production_targets(width, height)) {
    SCOPED_TRACE(target.name);
    check_against_oracle([&] { target.driver(42); });
  }
}

TEST(ReductionOracle, ProductionKernelsAt96x72) {
  check_production_targets(96, 72);
}

TEST(ReductionOracle, ProductionKernelsAtOddGeometry97x73) {
  check_production_targets(97, 73);
}

TEST(ReductionOracle, ProductionKernelsAt256x144) {
  check_production_targets(256, 144);
}

// --- synthetic access patterns ----------------------------------------------

const DeviceSpec kSpec;

KernelConfig pattern_config(const char* name, Dim3 block,
                            Dim3 grid = {2, 1, 1}) {
  KernelConfig config{.name = name,
                      .grid = grid,
                      .block = block,
                      .track_branches = true};
  config.shared.add<std::byte>(16 * 1024);
  return config;
}

TEST(ReductionOracle, SharedStrides) {
  for (const int stride : {0, 1, 2, 5, 8, 16, 32}) {
    SCOPED_TRACE(stride);
    check_against_oracle([stride] {
      execute_kernel(kSpec, pattern_config("stride", {64, 1, 1}),
                     [stride](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
                       const auto word = static_cast<std::size_t>(
                           t.flat_thread() * stride);
                       for (std::size_t k = 0; k < 3; ++k) {
                         ctx.shared_load((word + k) * 4, 4);
                       }
                     });
    });
  }
}

TEST(ReductionOracle, MixedBroadcastAndConflict) {
  // Lanes 0..15 broadcast one word; lanes 16..31 walk a column of bank 0
  // in which each of 8 distinct words is read by two lanes, so repeats
  // reach the bank's overflow chain.
  check_against_oracle([] {
    execute_kernel(
        kSpec, pattern_config("mixed", {32, 4, 1}),
        [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
          const int x = t.thread.x;
          const int column = (x - 16) / 4 * 4 + x % 2;
          const std::size_t word =
              x < 16 ? 7 : static_cast<std::size_t>(column * 32);
          ctx.shared_store(word * 4, 4);
          ctx.shared_load(static_cast<std::size_t>(x % 8) * 32 * 4, 4);
          ctx.shared_load(static_cast<std::size_t>(x % 3) * 4, 4);
        });
  });
}

TEST(ReductionOracle, RaggedSlotCountsAndPartialWarps) {
  for (const Dim3 block : {Dim3{40, 1, 1}, Dim3{20, 1, 1}, Dim3{7, 3, 2}}) {
    check_against_oracle([block] {
      execute_kernel(
          kSpec, pattern_config("ragged", block, {3, 2, 1}),
          [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
            const int f = t.flat_thread();
            for (int k = 0; k < f % 5; ++k) {
              const auto w = static_cast<std::size_t>((f * 3 + k * 32) % 512);
              ctx.shared_load(w * 4, 4);
              ctx.alu(k);
            }
            for (int k = 0; k < f % 3; ++k) {
              ctx.global_load(static_cast<std::uint64_t>(f) * 4 + k * 4096, 4);
            }
          });
    });
  }
}

TEST(ReductionOracle, TranslatedWarpDegreesFollowTheIssuingLanes) {
  // Lane l issues l/8 + 1 loads at word 8l + 32k: a translated warp (lane
  // 24 is the longest; the deltas 8l - 192 are negative below it) whose
  // slots 0..3 have 32, 24, 16 and 8 issuing lanes and degrees 8, 6, 4
  // and 2. Each run of slots must be priced over the lanes still issuing.
  const auto launch = [] {
    return execute_kernel(
        kSpec, pattern_config("shrinking", {32, 1, 1}),
        [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
          const int l = t.thread.x;
          for (int k = 0; k <= l / 8; ++k) {
            ctx.shared_load(static_cast<std::size_t>(8 * l + 32 * k) * 4, 4);
          }
        });
  };
  check_against_oracle(launch);
  EXPECT_EQ(launch().counters.bank_conflicts, 2u * (7 + 5 + 3 + 1));
}

TEST(ReductionOracle, OneLanesLastWordBreaksTheTranslation) {
  // Lane l loads words l, l + 32 and l + 64, a conflict-free translation,
  // except that lane `odd` ends on word 96 + (odd + 1) % 32 instead: slot 2
  // then holds two distinct words in that bank, a 2-way conflict the
  // deltas of a translation would hide. The warp must take the slot loop.
  for (const int odd : {0, 1, 16, 31}) {
    SCOPED_TRACE(odd);
    const auto launch = [odd] {
      return execute_kernel(
          kSpec, pattern_config("broken", {32, 1, 1}),
          [odd](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
            const int l = t.thread.x;
            ctx.shared_load(static_cast<std::size_t>(l) * 4, 4);
            ctx.shared_load(static_cast<std::size_t>(l + 32) * 4, 4);
            const int last = l == odd ? 96 + (odd + 1) % 32 : l + 64;
            ctx.shared_load(static_cast<std::size_t>(last) * 4, 4);
          });
    };
    check_against_oracle(launch);
    EXPECT_EQ(launch().counters.bank_conflicts, 2u);
  }
}

TEST(ReductionOracle, DivergentTrackedBranches) {
  check_against_oracle([] {
    execute_kernel(kSpec, pattern_config("branches", {64, 1, 1}),
                   [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
                     const int x = t.thread.x;
                     for (int k = 0; k < 1 + x % 4; ++k) {
                       ctx.branch((x >> k) % 2 == 0);
                     }
                     ctx.branch_uniform(x % 3);
                     ctx.branch(true);
                   });
  });
}

TEST(ReductionOracle, UncoalescedGlobals) {
  // Per slot: coalesced, strided (one segment per lane), descending, and
  // lane-scrambled addresses, loads and stores of mixed widths.
  check_against_oracle([] {
    execute_kernel(
        kSpec, pattern_config("globals", {32, 2, 1}),
        [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
          const auto f = static_cast<std::uint64_t>(t.flat_thread());
          ctx.global_load(f * 4, 4);
          ctx.global_load(f * 256, 4);
          ctx.global_store((63 - f) * 96, 8);
          ctx.global_store((f * 37 % 64) * 128 + f % 3, 1);
          if (f % 2 == 0) {
            ctx.global_load(1 << 20, 4);
          }
        });
  });
}

TEST(ReductionOracle, MultiPhaseMixedOpCounts) {
  KernelConfig config = pattern_config("phases", {16, 4, 3}, {2, 2, 2});
  config.constant_broadcast = false;
  check_against_oracle([&config] {
    execute_kernel(
        kSpec, config,
        [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
          const int f = t.flat_thread();
          ctx.alu(1 + f % 2);
          ctx.fma(2);
          ctx.sfu(f % 7 == 0 ? 1 : 0);
          ctx.constant_load(3);
          ctx.texture_fetch(f % 4 == 0 ? 2 : 0);
          ctx.shared_store(static_cast<std::size_t>(f) * 4, 4);
        },
        [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
          const int f = t.flat_thread();
          ctx.shared_load(static_cast<std::size_t>((f * 2) % 192) * 4, 4);
          const auto addr = static_cast<std::uint64_t>(t.flat_block()) * 4096 +
                            static_cast<std::uint64_t>(f) * 4;
          ctx.global_store(addr, 4);
          ctx.branch(t.block_id.x == 0);
        });
  });
}

/// The default cost model prices every op in whole cycles, so its sums
/// are exact in any order. Fractional costs make every floating-point sum
/// order-sensitive: the oracle then also pins the addition order.
DeviceSpec fractional_spec() {
  DeviceSpec spec;
  CostModel& c = spec.cost;
  c.alu = 0.7;
  c.fma = 1.1;
  c.sfu = 7.3;
  c.shared_access = 2.3;
  c.shared_conflict = 1.9;
  c.constant_access = 0.9;
  c.constant_serialized = 15.7;
  c.texture_fetch = 3.1;
  c.branch = 1.3;
  c.sync = 4.1;
  c.global_transaction_issue = 3.7;
  c.global_latency = 401.3;
  c.ipc = 3.3;
  return spec;
}

/// Each lane draws its own op sequence from a generator seeded by the
/// launch seed and its (block, thread) identity, over random geometries.
void check_random_lane_programs(const DeviceSpec& spec) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    core::Rng geometry(seed);
    const Dim3 block{geometry.uniform_int(1, 40), geometry.uniform_int(1, 3),
                     geometry.uniform_int(1, 2)};
    const Dim3 grid{geometry.uniform_int(1, 3), geometry.uniform_int(1, 2), 1};
    check_against_oracle([&] {
      execute_kernel(
          spec, pattern_config("random", block, grid),
          [seed](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
            core::Rng rng(seed * 1000003 +
                          static_cast<std::uint64_t>(t.flat_block()) * 4099 +
                          static_cast<std::uint64_t>(t.flat_thread()));
            const int ops = rng.uniform_int(0, 24);
            for (int i = 0; i < ops; ++i) {
              switch (rng.uniform_int(0, 5)) {
                case 0:
                  ctx.shared_load(
                      static_cast<std::size_t>(rng.uniform_int(0, 255)) * 4, 4);
                  break;
                case 1:
                  ctx.shared_store(
                      static_cast<std::size_t>(rng.uniform_int(0, 7)) * 32 * 4,
                      4);
                  break;
                case 2:
                  ctx.global_load(
                      static_cast<std::uint64_t>(rng.uniform_int(0, 4095)) * 4,
                      4);
                  break;
                case 3:
                  ctx.branch(rng.bernoulli(0.5));
                  break;
                case 4:
                  ctx.alu(rng.uniform_int(1, 3));
                  break;
                default:
                  ctx.branch_uniform();
                  break;
              }
            }
          });
    });
  }
}

TEST(ReductionOracle, SeededRandomLanePrograms) {
  check_random_lane_programs(kSpec);
}

TEST(ReductionOracle, SeededRandomLaneProgramsUnderFractionalCosts) {
  check_random_lane_programs(fractional_spec());
}

}  // namespace
}  // namespace fdet::vgpu
