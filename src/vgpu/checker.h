// Racecheck/memcheck-style verification layer for virtual-GPU kernels.
//
// The functional executor (kernel.cpp) produces host-order deterministic
// results, so an entire class of CUDA porting bugs is invisible to it: a
// kernel missing a phase split (the moral __syncthreads) still computes
// the right answer on the host while racing on real hardware. The paper's
// cascade kernel is the canonical example — Sec. III-C's staging protocol
// has every thread write 4 shared-tile pixels, 3 of which are consumed by
// *other* threads' windows after the barrier.
//
// Checked execution shadows every attributed shared-memory access and
// every recorded global operation with (lane, phase, byte-range,
// read/write) records and reports:
//
//   intra-phase race          two lanes touch overlapping shared bytes in
//                             one phase, at least one writing — a missing
//                             barrier (cuda-memcheck --tool racecheck)
//   uninitialized shared read a lane reads shared bytes no earlier phase
//                             (and no same-lane program-order write) ever
//                             wrote — __shared__ starts undefined even
//                             though the simulator zero-fills it
//   shared out-of-bounds      an access outside the kernel's SharedLayout
//                             (bytes() is the static footprint; under the
//                             checker the block buffer spans the whole SM,
//                             so the stray access lands in real storage)
//   constant overflow         KernelConfig::constant_bytes exceeds
//                             DeviceSpec::constant_mem_bytes (the 64 KiB
//                             Fermi limit the re-encoding of Sec. III-B
//                             exists to satisfy)
//   global out-of-bounds      a recorded global access falls outside every
//                             registered allocation (cuda-memcheck proper)
//
// Opt-in: instantiate a CheckScope, run any kernel(s) through the normal
// execute_kernel path (directly or via the production wrappers in
// fdet::integral / fdet::detect), then inspect the per-launch reports.
// The checker is a launch observer (vgpu/observer.h) and owns the lane
// events of every launch it sees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/device.h"
#include "vgpu/dim.h"
#include "vgpu/observer.h"

namespace fdet::vgpu {

class LaneCtx;
struct KernelConfig;

enum class HazardKind {
  kIntraPhaseRace,
  kUninitializedSharedRead,
  kSharedOutOfBounds,
  kConstantOverflow,
  kGlobalOutOfBounds,
};

/// Stable lowercase identifier (used in messages, metrics labels, tables).
const char* hazard_name(HazardKind kind);

/// One detected hazard. `message` is the full human-readable diagnostic
/// (kernel, phase, lane coordinates, byte offsets, suggested fix); the
/// structured fields exist so tests and tools can assert without parsing.
struct Hazard {
  HazardKind kind;
  std::string kernel;
  int phase = -1;            ///< -1 when not tied to a phase
  Dim3 block_id{0, 0, 0};
  Dim3 lane_a{0, 0, 0};      ///< thread coords of the reporting lane
  Dim3 lane_b{0, 0, 0};      ///< second lane for races (valid iff has_lane_b)
  bool has_lane_b = false;
  std::uint64_t offset = 0;  ///< shared byte offset / global address
  std::uint32_t bytes = 0;
  std::string message;
};

/// Verification verdict for one kernel launch.
struct CheckReport {
  std::string kernel;
  int phases = 0;
  std::int64_t blocks = 0;
  std::vector<Hazard> hazards;
  std::uint64_t suppressed_hazards = 0;    ///< beyond kMaxReportsPerKernel
  std::uint64_t shared_accesses_checked = 0;
  std::uint64_t global_ops_checked = 0;

  bool clean() const { return hazards.empty() && suppressed_hazards == 0; }
};

/// A named [base, base+size) virtual-address range for the memcheck side.
/// Kernels use per-array byte offsets as virtual addresses (see addr_of in
/// integral/gpu.cpp), so callers typically register one range per distinct
/// array a launch touches; the check flags accesses outside all of them.
struct GlobalAllocation {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

/// Hazards recorded per launch before further ones are only counted.
inline constexpr int kMaxReportsPerKernel = 8;

struct CheckOptions {
  /// Registered allocations for global bounds checking; empty disables it.
  std::vector<GlobalAllocation> global_allocations;
};

/// The verification engine: the lane-capable launch observer that wins
/// ownership of every launch it sees (vgpu/observer.h). The executor
/// drives it through the begin/on/end hooks while a CheckScope is open;
/// most callers never touch it directly and read CheckScope::reports()
/// instead.
class Checker : public LaunchObserver {
 public:
  explicit Checker(CheckOptions options = {});

  // --- executor hooks (one kernel launch at a time) ---------------------
  LaneRole lane_role() const override { return LaneRole::kChecker; }
  void begin_kernel(const DeviceSpec& spec,
                    const KernelConfig& config) override;
  void begin_block(const Dim3& block_id) override;
  void begin_phase(int phase) override;
  void begin_lane(const Dim3& thread) override;
  /// Attributed shared access from LaneCtx::shared_load/shared_store.
  void on_shared(std::size_t offset, std::uint32_t bytes,
                 bool store) override;
  /// Lane finished: memcheck its recorded global ops.
  void end_lane(const LaneCtx& lane) override;
  void end_phase() override;
  void end_kernel() override;

  const std::vector<CheckReport>& reports() const { return reports_; }
  std::vector<CheckReport> take_reports();

 private:
  /// Byte-granular shadow cell. Epoch tags make per-phase and per-block
  /// resets O(1): a tag only means something when it equals the current
  /// phase/block epoch.
  struct ByteState {
    std::uint64_t write_epoch = 0;  ///< phase epoch of the last write
    std::uint64_t read_epoch = 0;   ///< phase epoch of the last read
    std::uint64_t valid_epoch = 0;  ///< block epoch when committed written
    std::int32_t write_lane = -1;
    std::int32_t read_lane = -1;
  };

  void add_hazard(HazardKind kind, std::uint64_t offset, std::uint32_t bytes,
                  std::string message);
  void add_race(std::size_t byte, std::uint32_t bytes, bool current_is_store,
                bool other_is_store, std::int32_t other_lane);
  Dim3 lane_coords(std::int32_t flat) const;
  std::string lane_str(const Dim3& lane) const;

  CheckOptions options_;

  // Per-kernel state.
  bool in_kernel_ = false;
  std::string kernel_name_;
  const char* device_name_ = "";
  Dim3 block_dim_{1, 1, 1};
  std::size_t layout_bytes_ = 0;  ///< SharedLayout::bytes() of the launch
  int phase_ = -1;
  Dim3 block_id_{0, 0, 0};
  Dim3 lane_{0, 0, 0};
  std::int32_t lane_flat_ = 0;

  std::vector<ByteState> shadow_;
  std::uint64_t phase_epoch_ = 0;
  std::uint64_t block_epoch_ = 0;
  /// Byte ranges written during the current phase, committed into
  /// valid_epoch at the barrier (end_phase).
  std::vector<std::pair<std::size_t, std::size_t>> phase_writes_;

  CheckReport current_;
  std::vector<CheckReport> reports_;
};

/// RAII opt-in: installs a Checker on the calling thread's launch-observer
/// chain, so every execute_kernel on this thread until destruction runs
/// instrumented. Scopes nest (the innermost checker owns each launch);
/// the chain is per-thread, so concurrent tests do not interfere.
class CheckScope {
 public:
  explicit CheckScope(CheckOptions options = {});

  Checker& checker() { return checker_; }
  const std::vector<CheckReport>& reports() const { return checker_.reports(); }

 private:
  Checker checker_;
  LaunchObserverScope installer_;
};

}  // namespace fdet::vgpu
