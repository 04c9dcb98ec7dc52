// Virtual GPU device description and occupancy calculation.
//
// The default spec is modelled on the NVIDIA GTX470 (Fermi GF100, sm_20)
// used in the paper: 14 streaming multiprocessors, 32-lane warps, 48 KiB
// shared memory and 32 K registers per SM, 1.215 GHz shader clock.
#pragma once

#include <cstdint>

#include "vgpu/cost_model.h"

namespace fdet::vgpu {

struct DeviceSpec {
  const char* name = "vGTX470";
  int sm_count = 14;
  int max_threads_per_block = 1024;
  int max_blocks_per_sm = 8;
  int max_warps_per_sm = 48;        // 1536 threads per SM on Fermi
  int shared_mem_per_sm = 48 * 1024;
  int registers_per_sm = 32 * 1024;
  int constant_mem_bytes = 64 * 1024;
  double clock_ghz = 1.215;

  /// Per-launch overhead: driver/runtime launch latency plus the
  /// inter-kernel drain bubble before a dependent kernel's first block can
  /// start. Exposed in serial execution (one long dependent chain of
  /// launches); hidden by concurrent kernel execution, where other
  /// streams' blocks keep the SMs busy across the gap — the mechanism
  /// behind the paper's ~2x serial-vs-concurrent difference.
  double launch_overhead_s = 35e-6;
  /// Host-side issue serialization between consecutive launches.
  double host_issue_gap_s = 3e-6;

  CostModel cost;

  /// Virtual seconds for a cycle count.
  double cycles_to_seconds(double cycles) const {
    return cycles / (clock_ghz * 1e9);
  }
};

/// Result of the CUDA-style occupancy calculation for one kernel launch.
struct Occupancy {
  int blocks_per_sm = 0;   ///< resident blocks, min over all limiters
  int warps_per_block = 0;
  int resident_warps = 0;  ///< blocks_per_sm * warps_per_block
  double ratio = 0.0;      ///< resident_warps / max_warps_per_sm
};

/// Computes how many blocks of a kernel fit on one SM given its thread
/// count, static shared-memory footprint and per-thread register usage.
Occupancy compute_occupancy(const DeviceSpec& spec, int threads_per_block,
                            int shared_per_block, int regs_per_thread);

}  // namespace fdet::vgpu
