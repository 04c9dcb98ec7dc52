// Profiler-style performance counters aggregated over a kernel launch.
// These mirror the statistics the paper reads from the CUDA compute
// profiler: branch efficiency (ratio of non-divergent to total warp
// branches), DRAM read throughput, and SIMD lane utilization.
//
// Beyond the raw event counts, the executor decomposes every block's
// service time into additive *service-cycle* components (all divided by
// CostModel::ipc / latency hiding exactly like the scheduler's timing, so
// they sum to LaunchCost::total_service_cycles):
//
//   issue_service_cycles      front-end/ALU issue work, incl. divergence
//                             and bank-conflict serialization
//   divergence_cycles         issue cycles lost to idle SIMD lanes (the
//                             warp pays for its slowest lane)
//   bank_conflict_cycles      extra issue cycles from serialized
//                             shared-memory bank conflicts
//   stall_service_cycles      visible memory stalls after latency hiding
//   stall_base_cycles         the part of the stall a fully occupied SM
//                             would still see (stall_service_cycles -
//                             stall_base_cycles is the occupancy-limited
//                             loss)
//
// The profiler (obs/profile.h) reads these to attribute cycles per kernel
// with a stall taxonomy; the counters stay plain summable fields so
// merging launches is associative.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace fdet::vgpu {

struct PerfCounters {
  std::uint64_t threads = 0;
  std::uint64_t warps = 0;

  std::uint64_t warp_branches = 0;      ///< branch instructions, warp level
  std::uint64_t divergent_branches = 0; ///< warp branches with mixed outcome

  std::uint64_t global_read_bytes = 0;
  std::uint64_t global_write_bytes = 0;
  std::uint64_t global_transactions = 0; ///< 128-byte coalesced segments

  std::uint64_t alu_ops = 0;
  std::uint64_t fma_ops = 0;
  std::uint64_t sfu_ops = 0;
  std::uint64_t shared_accesses = 0;
  std::uint64_t constant_accesses = 0;
  std::uint64_t texture_fetches = 0;
  /// Extra serialized shared-memory passes from bank conflicts: for each
  /// warp-synchronous access slot, conflict degree minus one (a
  /// conflict-free or fully broadcast slot contributes 0), over the
  /// addressed accesses of LaneCtx::shared_load/shared_store.
  std::uint64_t bank_conflicts = 0;

  double lane_issue_cycles = 0.0;  ///< sum of per-lane useful issue cycles
  double warp_issue_cycles = 0.0;  ///< sum of per-warp (max-lane) cycles

  // Service-cycle decomposition (see file comment). All five are in the
  // same post-ipc/post-hiding domain as LaunchCost::total_service_cycles:
  //   issue_service_cycles + stall_service_cycles == total service cycles
  //   divergence_cycles + bank_conflict_cycles    <= issue_service_cycles
  //   stall_base_cycles                           <= stall_service_cycles
  double issue_service_cycles = 0.0;
  double stall_service_cycles = 0.0;
  double stall_base_cycles = 0.0;
  double divergence_cycles = 0.0;
  double bank_conflict_cycles = 0.0;

  /// Fraction of warp branches with a uniform outcome (paper: 98.9 %).
  /// A launch with no branches counts as fully efficient; inconsistent
  /// inputs (more divergent than total branches) clamp into [0, 1].
  double branch_efficiency() const {
    if (warp_branches == 0) {
      return 1.0;
    }
    const double eff =
        1.0 - static_cast<double>(divergent_branches) /
                  static_cast<double>(warp_branches);
    return std::clamp(eff, 0.0, 1.0);
  }

  /// Average fraction of lanes doing useful work while their warp executes.
  /// Degenerate launches (no issued warp cycles) count as fully efficient.
  double simd_efficiency() const {
    if (warp_issue_cycles <= 0.0) {
      return 1.0;
    }
    return std::clamp(lane_issue_cycles / (warp_issue_cycles * 32.0), 0.0, 1.0);
  }

  /// DRAM read throughput in bytes/second for a given kernel duration.
  /// Zero-duration (or negative) intervals yield 0 rather than infinity.
  double dram_read_throughput(double seconds) const {
    return seconds <= 0.0 ? 0.0
                          : static_cast<double>(global_read_bytes) / seconds;
  }

  /// Arithmetic ops charged to the launch (roofline numerator).
  std::uint64_t arithmetic_ops() const { return alu_ops + fma_ops + sfu_ops; }

  /// Global-memory traffic in bytes (roofline denominator).
  std::uint64_t global_bytes() const {
    return global_read_bytes + global_write_bytes;
  }

  /// Roofline arithmetic intensity in ops/byte of global traffic. A
  /// launch that touches no global memory is unboundedly compute-heavy:
  /// returns +inf (callers rendering JSON should store ops and bytes and
  /// derive the ratio instead of serializing the infinity).
  double arithmetic_intensity() const {
    const std::uint64_t bytes = global_bytes();
    if (bytes == 0) {
      return arithmetic_ops() == 0
                 ? 0.0
                 : std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(arithmetic_ops()) / static_cast<double>(bytes);
  }

  PerfCounters& operator+=(const PerfCounters& other) {
    threads += other.threads;
    warps += other.warps;
    warp_branches += other.warp_branches;
    divergent_branches += other.divergent_branches;
    global_read_bytes += other.global_read_bytes;
    global_write_bytes += other.global_write_bytes;
    global_transactions += other.global_transactions;
    alu_ops += other.alu_ops;
    fma_ops += other.fma_ops;
    sfu_ops += other.sfu_ops;
    shared_accesses += other.shared_accesses;
    constant_accesses += other.constant_accesses;
    texture_fetches += other.texture_fetches;
    bank_conflicts += other.bank_conflicts;
    lane_issue_cycles += other.lane_issue_cycles;
    warp_issue_cycles += other.warp_issue_cycles;
    issue_service_cycles += other.issue_service_cycles;
    stall_service_cycles += other.stall_service_cycles;
    stall_base_cycles += other.stall_base_cycles;
    divergence_cycles += other.divergence_cycles;
    bank_conflict_cycles += other.bank_conflict_cycles;
    return *this;
  }
};

}  // namespace fdet::vgpu
