#include "vgpu/kernel.h"

#include <algorithm>
#include <array>

#include "core/check.h"

namespace fdet::vgpu {
namespace {

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

}  // namespace

LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          std::span<const PhaseFn> phases) {
  // The composition rule of vgpu/observer.h: before_launch on every
  // observer (a throw aborts here), one lane-event owner per launch, and
  // after_launch on every observer once the launch finished.
  const LaunchObserverScope* const observers =
      LaunchObserverScope::innermost();
  LaunchObserver* const owner =
      observers == nullptr ? nullptr : observers->open_launch(spec, config);
  FDET_CHECK(!phases.empty()) << "kernel '" << config.name << "' has no phases";
  FDET_CHECK(config.grid.count() > 0 && config.block.count() > 0)
      << "kernel '" << config.name << "' has an empty launch";
  const int threads_per_block = static_cast<int>(config.block.count());
  FDET_CHECK(threads_per_block <= spec.max_threads_per_block)
      << "kernel '" << config.name << "': " << threads_per_block
      << " threads per block";
  if (owner == nullptr || !owner->absorbs_resource_faults()) {
    FDET_CHECK(config.constant_bytes <= spec.constant_mem_bytes)
        << "kernel '" << config.name << "' needs " << config.constant_bytes
        << " bytes of constant memory but device '" << spec.name
        << "' provides " << spec.constant_mem_bytes;
  }
  if (owner != nullptr) {
    owner->begin_kernel(spec, config);
  }
  const bool track_branches =
      config.track_branches ||
      (owner != nullptr && owner->wants_branch_tracking());

  LaunchCost result;
  result.config = config;
  result.occupancy = compute_occupancy(spec, threads_per_block,
                                       config.shared_bytes,
                                       config.regs_per_thread);
  FDET_CHECK(result.occupancy.blocks_per_sm > 0)
      << "kernel '" << config.name << "' cannot be resident on an SM";

  const std::int64_t num_blocks = config.grid.count();
  result.block_service_cycles.resize(static_cast<std::size_t>(num_blocks));

  const int warps_per_block =
      (threads_per_block + kWarpSize - 1) / kWarpSize;
  // Latency hiding pool: every resident warp beyond the first helps cover
  // memory stalls.
  const double hiding =
      1.0 + spec.cost.latency_hiding_per_warp *
                std::max(0, result.occupancy.resident_warps - 1);
  // Hypothetical hiding pool of a fully occupied SM: the stall a launch
  // would still see at max occupancy. The gap between stall/hiding and
  // stall/hiding_full is the occupancy-limited loss the profiler reports.
  const double hiding_full =
      1.0 + spec.cost.latency_hiding_per_warp *
                std::max(0, spec.max_warps_per_sm - 1);

  WarpScratch scratch;
  SharedMem shared;

  ThreadCoord coord;
  coord.grid = config.grid;
  coord.block = config.block;

  for (std::int64_t b = 0; b < num_blocks; ++b) {
    coord.block_id.x = static_cast<int>(b % config.grid.x);
    coord.block_id.y = static_cast<int>((b / config.grid.x) % config.grid.y);
    coord.block_id.z = static_cast<int>(b / (static_cast<std::int64_t>(config.grid.x) * config.grid.y));

    if (owner == nullptr) {
      shared.reset(static_cast<std::size_t>(config.shared_bytes));
    } else {
      owner->begin_block(coord.block_id);
      shared.reset_checked(static_cast<std::size_t>(config.shared_bytes),
                           owner);
    }
    double block_issue = 0.0;
    double block_stall = 0.0;
    double block_divergence = 0.0;
    double block_conflict = 0.0;

    for (std::size_t phase = 0; phase < phases.size(); ++phase) {
      if (owner != nullptr) {
        owner->begin_phase(static_cast<int>(phase));
      }
      for (int w = 0; w < warps_per_block; ++w) {
        const int first_thread = w * kWarpSize;
        const int active =
            std::min(kWarpSize, threads_per_block - first_thread);
        for (int l = 0; l < active; ++l) {
          const int t = first_thread + l;
          coord.thread.x = t % config.block.x;
          coord.thread.y = (t / config.block.x) % config.block.y;
          coord.thread.z = t / (config.block.x * config.block.y);
          LaneCtx& lane = scratch.lanes[static_cast<std::size_t>(l)];
          lane.reset();
          lane.set_track_branches(track_branches);
          if (owner != nullptr) {
            owner->begin_lane(coord.thread);
            lane.set_owner(owner);
          }
          shared.rewind();
          phases[phase](coord, lane, shared);
          if (owner != nullptr) {
            owner->end_lane(lane);
          }
        }
        const WarpCost warp = aggregate_warp(spec.cost, config, scratch,
                                             active, result.counters);
        block_issue += warp.issue;
        block_stall += warp.stall;
        block_divergence += warp.divergence_issue;
        block_conflict += warp.bank_conflict_issue;
      }
      if (owner != nullptr) {
        owner->end_phase();  // the block-wide barrier commits writes
      }
      if (phase + 1 < phases.size()) {
        block_issue += warps_per_block * spec.cost.sync;  // __syncthreads
      }
    }

    const double service = block_issue / spec.cost.ipc + block_stall / hiding;
    result.block_service_cycles[static_cast<std::size_t>(b)] = service;
    result.total_service_cycles += service;

    // Service-cycle decomposition (counters.h): same ipc / hiding divisors
    // as the timing above, so issue + stall sums to total_service_cycles.
    result.counters.issue_service_cycles += block_issue / spec.cost.ipc;
    result.counters.stall_service_cycles += block_stall / hiding;
    result.counters.stall_base_cycles += block_stall / hiding_full;
    result.counters.divergence_cycles += block_divergence / spec.cost.ipc;
    result.counters.bank_conflict_cycles += block_conflict / spec.cost.ipc;
  }

  result.counters.threads =
      static_cast<std::uint64_t>(num_blocks) * threads_per_block;
  result.counters.warps = static_cast<std::uint64_t>(num_blocks) *
                          warps_per_block * phases.size();
  if (owner != nullptr) {
    owner->end_kernel();
  }
  if (observers != nullptr) {
    observers->close_launch(spec, result);
  }
  return result;
}

LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase) {
  const std::array<PhaseFn, 1> phases{std::move(phase)};
  return execute_kernel(spec, config, std::span<const PhaseFn>(phases));
}

LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase1, PhaseFn phase2) {
  const std::array<PhaseFn, 2> phases{std::move(phase1), std::move(phase2)};
  return execute_kernel(spec, config, std::span<const PhaseFn>(phases));
}

CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        std::span<const PhaseFn> phases,
                                        CheckOptions options) {
  CheckScope scope(std::move(options));
  CheckedExecution result;
  result.cost = execute_kernel(spec, config, phases);
  result.report = std::move(scope.checker().take_reports().back());
  return result;
}

CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase, CheckOptions options) {
  const std::array<PhaseFn, 1> phases{std::move(phase)};
  return execute_kernel_checked(spec, config,
                                std::span<const PhaseFn>(phases),
                                std::move(options));
}

CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase1, PhaseFn phase2,
                                        CheckOptions options) {
  const std::array<PhaseFn, 2> phases{std::move(phase1), std::move(phase2)};
  return execute_kernel_checked(spec, config,
                                std::span<const PhaseFn>(phases),
                                std::move(options));
}

}  // namespace fdet::vgpu
