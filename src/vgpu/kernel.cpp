#include "vgpu/kernel.h"

#include <algorithm>
#include <array>
#include <span>

#include "core/check.h"
#include "vgpu/warp.h"

namespace fdet::vgpu {
namespace {

/// One kind of lane event (shared words, global ops or branch outcomes)
/// of every lane of a warp as raw (data, size) views, taken once per warp
/// so the slot loops index plain arrays.
template <typename T>
struct LaneSlots {
  std::array<const T*, kWarpSize> data{};
  std::array<std::size_t, kWarpSize> size{};
  std::size_t min_size = 0;  ///< slots every lane issued
  std::size_t max_size = 0;  ///< slots some lane issued

  void set(int lane, std::span<const T> events) {
    const auto l = static_cast<std::size_t>(lane);
    data[l] = events.data();
    size[l] = events.size();
    min_size = lane == 0 ? events.size() : std::min(min_size, events.size());
    max_size = lane == 0 ? events.size() : std::max(max_size, events.size());
  }

  /// Calls fn(event) with slot `slot` of each lane that issued it, in lane
  /// order. A slot every lane issued skips the per-lane size check.
  template <typename Fn>
  void for_each_in_slot(int active, std::size_t slot, Fn&& fn) const {
    if (slot < min_size) {
      for (int l = 0; l < active; ++l) {
        fn(data[static_cast<std::size_t>(l)][slot]);
      }
      return;
    }
    for (int l = 0; l < active; ++l) {
      const auto i = static_cast<std::size_t>(l);
      if (slot < size[i]) {
        fn(data[i][slot]);
      }
    }
  }
};

/// Prices the shared slots of a *translated* warp: every lane's words are
/// a longest lane r's words plus a per-lane constant d_l = w_l[0] - w_r[0]
/// (uint32 arithmetic), checked by one branch-free compare per lane. Slot
/// k's words are then w_r[k] + d_l over the lanes still issuing. Adding one
/// constant to every word keeps them distinct and permutes the 32 banks
/// (32 divides 2^32), so the slot's degree is the degree of those lanes'
/// deltas: it changes only where a lane stops issuing. Calls
/// charge(degree, slots) once per run of slots with one participant set,
/// in slot order. Returns false, charging nothing, when the warp is not
/// translated.
template <typename Charge>
bool price_translated_warp(const LaneSlots<std::uint32_t>& words, int active,
                           BankConflictSlot& banks, Charge&& charge) {
  int r = 0;
  while (words.size[static_cast<std::size_t>(r)] != words.max_size) {
    ++r;
  }
  const std::uint32_t* ref = words.data[static_cast<std::size_t>(r)];
  std::array<std::uint32_t, kWarpSize> delta{};
  for (int l = 0; l < active; ++l) {
    const auto i = static_cast<std::size_t>(l);
    const std::size_t n = words.size[i];
    if (n == 0) {
      continue;  // issues no slot, so it never joins a run below
    }
    const std::uint32_t* w = words.data[i];
    const std::uint32_t d = w[0] - ref[0];
    std::uint32_t mismatch = 0;
    for (std::size_t k = 0; k < n; ++k) {
      mismatch |= (w[k] - ref[k]) ^ d;
    }
    if (mismatch != 0) {
      return false;
    }
    delta[i] = d;
  }
  for (std::size_t slot = 0; slot < words.max_size;) {
    std::size_t end = words.max_size;
    banks.clear();
    for (int l = 0; l < active; ++l) {
      const auto i = static_cast<std::size_t>(l);
      if (words.size[i] > slot) {
        banks.add(delta[i]);
        end = std::min(end, words.size[i]);
      }
    }
    charge(banks.degree(), end - slot);
    slot = end;
  }
  return true;
}

/// Scratch for one warp's aggregation, reused across warps to avoid
/// allocation in the hot loop (Per.14/Per.15).
struct WarpScratch {
  std::array<LaneCtx, kWarpSize> lanes;
  LaneSlots<std::uint32_t> shared_words;
  LaneSlots<LaneCtx::GlobalOp> global_ops;
  LaneSlots<std::uint8_t> branch_trace;
  BankConflictSlot bank_slot;
  SegmentSlot segment_slot;
};

struct WarpCost {
  double issue = 0.0;
  double stall = 0.0;
  double divergence_issue = 0.0;     ///< issue cycles lost to idle lanes
  double bank_conflict_issue = 0.0;  ///< serialized shared-memory passes
};

/// Reduces the lanes of one warp (lanes[0..active)) into cost + counters.
/// Integer counters are summed per warp; the floating-point sums
/// (lane_issue_cycles, the warp's issue and stall) add their terms in lane
/// order and slot order, so every result is bit-identical to adding them
/// one lane and one slot at a time.
WarpCost aggregate_warp(const CostModel& cost, const KernelConfig& config,
                        WarpScratch& scratch, int active,
                        PerfCounters& counters) {
  WarpCost warp;
  const double const_cost =
      config.constant_broadcast ? cost.constant_access : cost.constant_serialized;

  // Per lane: issue cycles (SIMD lockstep pays the max) and op counts.
  std::uint64_t alu = 0;
  std::uint64_t fma = 0;
  std::uint64_t sfu = 0;
  std::uint64_t shared = 0;
  std::uint64_t constant = 0;
  std::uint64_t texture = 0;
  std::uint32_t max_untracked = 0;
  double max_lane_issue = 0.0;
  double sum_lane_issue = 0.0;
  for (int l = 0; l < active; ++l) {
    const LaneCtx& lane = scratch.lanes[static_cast<std::size_t>(l)];
    scratch.shared_words.set(l, lane.shared_words());
    scratch.global_ops.set(l, lane.global_ops());
    scratch.branch_trace.set(l, lane.branch_trace());
    double issue = lane.alu_count() * cost.alu + lane.fma_count() * cost.fma +
                   lane.sfu_count() * cost.sfu +
                   lane.shared_count() * cost.shared_access +
                   lane.constant_count() * const_cost +
                   lane.texture_count() * cost.texture_fetch;
    const std::size_t branches =
        lane.branch_trace().size() + lane.untracked_branches();
    issue += static_cast<double>(branches) * cost.branch;
    alu += lane.alu_count();
    fma += lane.fma_count();
    sfu += lane.sfu_count();
    shared += lane.shared_count();
    constant += lane.constant_count();
    texture += lane.texture_count();
    max_untracked = std::max(max_untracked, lane.untracked_branches());
    counters.lane_issue_cycles += issue;
    sum_lane_issue += issue;
    max_lane_issue = std::max(max_lane_issue, issue);
  }
  counters.alu_ops += alu;
  counters.fma_ops += fma;
  counters.sfu_ops += sfu;
  counters.shared_accesses += shared;
  counters.constant_accesses += constant;
  counters.texture_fetches += texture;

  warp.issue = max_lane_issue;
  // SIMD lockstep: the warp pays max-lane issue, so the gap between the
  // slowest lane and the lane average is issue capacity burned on idle
  // lanes (inactive tail lanes of a partial warp included).
  warp.divergence_issue =
      std::max(0.0, max_lane_issue - sum_lane_issue / kWarpSize);

  // Bank conflicts (vgpu/warp.h): an n-way conflict in a slot costs n - 1
  // extra serialized passes, added to the warp slot by slot. A translated
  // warp prices each run of slots once; any other warp reduces every slot.
  std::uint64_t bank_conflicts = 0;
  const auto charge = [&](int degree, std::size_t slots) {
    const int extra = degree - 1;
    if (extra <= 0) {
      return;
    }
    bank_conflicts += static_cast<std::uint64_t>(extra) * slots;
    const double serialized = extra * cost.shared_conflict;
    for (std::size_t k = 0; k < slots; ++k) {
      warp.issue += serialized;
      warp.bank_conflict_issue += serialized;
    }
  };
  BankConflictSlot& banks = scratch.bank_slot;
  if (scratch.shared_words.max_size > 0 &&
      !price_translated_warp(scratch.shared_words, active, banks, charge)) {
    for (std::size_t slot = 0; slot < scratch.shared_words.max_size; ++slot) {
      banks.clear();
      scratch.shared_words.for_each_in_slot(
          active, slot, [&banks](std::uint32_t word) { banks.add(word); });
      charge(banks.degree(), 1);
    }
  }
  counters.bank_conflicts += bank_conflicts;

  // Coalescing (vgpu/warp.h): each distinct 128-byte segment of a slot is
  // one transaction, and every slot is one dependent wait.
  std::uint64_t transactions = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  SegmentSlot& segments = scratch.segment_slot;
  for (std::size_t slot = 0; slot < scratch.global_ops.max_size; ++slot) {
    segments.clear();
    scratch.global_ops.for_each_in_slot(
        active, slot, [&](const LaneCtx::GlobalOp& op) {
          segments.add(op.addr);
          (op.store ? write_bytes : read_bytes) += op.bytes;
        });
    const int distinct = segments.count();
    transactions += static_cast<std::uint64_t>(distinct);
    warp.issue += distinct * cost.global_transaction_issue;
    warp.stall += cost.global_latency;
  }
  counters.global_transactions += transactions;
  counters.global_read_bytes += read_bytes;
  counters.global_write_bytes += write_bytes;

  // Divergence: a warp branch is divergent when participating lanes
  // disagree on the outcome at the same trace position. Untracked branches
  // are uniform by construction (kernels with regular control flow); they
  // count at warp level without divergence.
  std::uint64_t divergent = 0;
  for (std::size_t k = 0; k < scratch.branch_trace.max_size; ++k) {
    bool saw_taken = false;
    bool saw_not_taken = false;
    scratch.branch_trace.for_each_in_slot(
        active, k, [&](std::uint8_t taken) {
          (taken != 0 ? saw_taken : saw_not_taken) = true;
        });
    divergent += saw_taken && saw_not_taken ? 1 : 0;
  }
  counters.warp_branches += scratch.branch_trace.max_size + max_untracked;
  counters.divergent_branches += divergent;

  counters.warp_issue_cycles += warp.issue;
  return warp;
}

/// Steps a thread index to the next lane in flat_thread() order (x
/// fastest), carrying into y and z instead of dividing.
void advance_thread(Dim3& thread, const Dim3& block) {
  if (++thread.x == block.x) {
    thread.x = 0;
    if (++thread.y == block.y) {
      thread.y = 0;
      ++thread.z;
    }
  }
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
  if (owner == nullptr) {
    FDET_CHECK(config.constant_bytes <= spec.constant_mem_bytes)
        << "kernel '" << config.name << "' needs " << config.constant_bytes
        << " bytes of constant memory but device '" << spec.name
        << "' provides " << spec.constant_mem_bytes;
  }
  LaunchCost result;
  result.config = config;
  result.occupancy = compute_occupancy(
      spec, threads_per_block, static_cast<int>(config.shared.bytes()),
      config.regs_per_thread);
  FDET_CHECK(result.occupancy.blocks_per_sm > 0)
      << "kernel '" << config.name << "' cannot be resident on an SM";
  // Every validation above throws before the owner's begin_kernel, so a
  // rejected launch leaves the owner ready for the next one.
  if (owner != nullptr) {
    owner->begin_kernel(spec, config);
  }
  const bool track_branches =
      config.track_branches ||
      (owner != nullptr && owner->wants_branch_tracking());

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
  // Under a lane-event owner the block buffer spans the SM's shared
  // capacity (occupancy above guarantees the layout fits it), so an access
  // outside the layout lands in real storage and is reported instead of
  // corrupting the host.
  const std::size_t shared_size =
      owner == nullptr ? config.shared.bytes()
                       : static_cast<std::size_t>(spec.shared_mem_per_sm);

  ThreadCoord coord;
  coord.grid = config.grid;
  coord.block = config.block;

  for (std::int64_t b = 0; b < num_blocks; ++b) {
    coord.block_id.x = static_cast<int>(b % config.grid.x);
    coord.block_id.y = static_cast<int>((b / config.grid.x) % config.grid.y);
    coord.block_id.z = static_cast<int>(b / (static_cast<std::int64_t>(config.grid.x) * config.grid.y));

    if (owner != nullptr) {
      owner->begin_block(coord.block_id);
    }
    shared.reset(shared_size);
    double block_issue = 0.0;
    double block_stall = 0.0;
    double block_divergence = 0.0;
    double block_conflict = 0.0;

    for (std::size_t phase = 0; phase < phases.size(); ++phase) {
      if (owner != nullptr) {
        owner->begin_phase(static_cast<int>(phase));
      }
      coord.thread = Dim3{0, 0, 0};
      for (int w = 0; w < warps_per_block; ++w) {
        const int active =
            std::min(kWarpSize, threads_per_block - w * kWarpSize);
        for (int l = 0; l < active; ++l) {
          LaneCtx& lane = scratch.lanes[static_cast<std::size_t>(l)];
          lane.reset();
          lane.set_track_branches(track_branches);
          if (owner != nullptr) {
            owner->begin_lane(coord.thread);
            lane.set_owner(owner);
          }
          phases[phase](coord, lane, shared);
          if (owner != nullptr) {
            owner->end_lane(lane);
          }
          advance_thread(coord.thread, config.block);
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

}  // namespace fdet::vgpu
