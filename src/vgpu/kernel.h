// Kernel launch description and the functional executor.
//
// A kernel is a sequence of *phases*: per-thread functors separated by
// implicit block-wide barriers (the moral equivalent of writing CUDA code
// with __syncthreads between cooperative stages). The executor runs every
// thread of every block on the host — producing the kernel's real output —
// while reducing per-lane operation counts into warp, block and launch
// costs:
//
//   lane issue cycles  = Σ op_count × cost                     (per lane)
//   warp issue cycles  = max over its 32 lanes (SIMD lockstep) +
//                        coalesced global transactions
//   block issue cycles = Σ over warps (single-issue SM frontend)
//   block service      = issue + stalls / latency-hiding(occupancy)
//
// The scheduler (scheduler.h) later places block service times onto SMs to
// obtain virtual timestamps; nothing here depends on wall-clock time.
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vgpu/checker.h"
#include "vgpu/counters.h"
#include "vgpu/device.h"
#include "vgpu/dim.h"
#include "vgpu/lane.h"
#include "vgpu/shared_mem.h"

namespace fdet::vgpu {

struct KernelConfig {
  std::string name;
  Dim3 grid;
  Dim3 block;
  SharedLayout shared{};      ///< static __shared__ layout per block
  int regs_per_thread = 24;   ///< occupancy input; sm_20-era default
  bool track_branches = false;///< enable per-lane branch traces (divergence)
  bool constant_broadcast = true;  ///< false = serialized constant accesses
  /// Constant-memory footprint the launch depends on (the encoded cascade
  /// bank for the evaluation kernel). Enforced against
  /// DeviceSpec::constant_mem_bytes at launch: execute_kernel throws
  /// unless a lane-event owner is installed (vgpu/observer.h); the checker
  /// then reports a constant-overflow hazard instead.
  int constant_bytes = 0;
};

/// Per-thread phase body. Runs the thread's real computation and reports
/// costed operations through LaneCtx. shared[handle] views of the
/// config's layout are stable across lanes and phases of one block.
using PhaseFn = std::function<void(const ThreadCoord&, LaneCtx&, SharedMem&)>;

/// Launch-time failure of the virtual device — the analogue of a CUDA
/// launch error (cudaErrorLaunchFailure and friends). `transient()`
/// distinguishes glitches a caller may retry (driver hiccup, ECC retry)
/// from hard resource faults (constant/shared overflow) that will fail
/// identically on every attempt. Fault injection throws it from a launch
/// observer's before_launch (vgpu/observer.h).
class LaunchError : public std::runtime_error {
 public:
  LaunchError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Cost of one executed kernel launch, ready for scheduling.
struct LaunchCost {
  KernelConfig config;
  Occupancy occupancy;
  std::vector<double> block_service_cycles;  ///< indexed by flat block id
  PerfCounters counters;
  double total_service_cycles = 0.0;

  std::int64_t block_count() const {
    return static_cast<std::int64_t>(block_service_cycles.size());
  }
};

/// Executes every thread of the launch functionally and returns its cost,
/// dispatching to the calling thread's launch observers by the composition
/// rule of vgpu/observer.h. Throws core::CheckError on invalid
/// configuration (block too large, shared memory exceeding the SM, zero
/// occupancy).
LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          std::span<const PhaseFn> phases);

/// Convenience overloads for the common one- and two-phase kernels.
LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase);
LaunchCost execute_kernel(const DeviceSpec& spec, const KernelConfig& config,
                          PhaseFn phase1, PhaseFn phase2);

/// Result of one launch under verification (vgpu/checker.h): the normal
/// cost plus the hazard report.
struct CheckedExecution {
  LaunchCost cost;
  CheckReport report;
};

/// Runs the launch inside a fresh CheckScope and returns cost + report.
/// For checking a *sequence* of launches (or the production wrappers in
/// fdet::integral / fdet::detect), open a CheckScope around the calls
/// instead and read its per-launch reports.
CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        std::span<const PhaseFn> phases,
                                        CheckOptions options = {});
CheckedExecution execute_kernel_checked(const DeviceSpec& spec,
                                        const KernelConfig& config,
                                        PhaseFn phase,
                                        CheckOptions options = {});

}  // namespace fdet::vgpu
