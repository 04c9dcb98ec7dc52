// Symbolic capture mode for vgpu kernels (layer 1 of the static analyzer).
//
// A CaptureScope installs a CaptureEngine on the thread's launch-observer
// chain (vgpu/observer.h): every execute_kernel launch until the scope
// closes is recorded — lane by lane, slot by slot — into a
// RawKernelCapture. Production kernels need no rewrites: the engine taps
// the exact instrumentation the checker already uses (LaneCtx
// attribution and the PhaseFn barrier structure); the shared layout
// travels with the captured KernelConfig.
//
// Capture runs the kernel's real code, but the *analysis* contract is
// static: the engine samples a handful of blocks and warps (the first two
// and the last block of each grid axis; the first two, middle and last
// warp of each block — enough to pin every affine coefficient), fits an
// AffineForm per access slot, and verifies the fit against every
// observation. merge_captures() then combines two captures of the same
// driver under different data seeds: any slot whose addresses, branch
// outcomes or participating lanes changed with the data is flagged
// data-dependent, which is what separates geometry-determined access
// patterns (extrapolatable to every lane of every block) from indirect,
// input-driven ones (never extrapolated).
//
// Precedence (vgpu/observer.h): if a CheckScope is open around a launch,
// the checker owns it and the engine only counts the launch as shadowed —
// the resulting capture set is incomplete and fdet_lint reports it as
// such. The same holds for an outer capture under an inner one.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analyze/ir.h"
#include "vgpu/kernel.h"
#include "vgpu/observer.h"

namespace fdet::analyze {

/// One observation of an access slot: which lane produced which value.
struct SlotObservation {
  std::int16_t tx = 0, ty = 0, tz = 0;
  std::int16_t bx = 0, by = 0, bz = 0;
  std::int64_t value = 0;
};

/// Raw per-slot accumulator (shared or global access slots).
struct RawSlot {
  bool store = false;
  bool load = false;
  std::uint32_t bytes = 0;
  std::int64_t count = 0;          ///< observations incl. beyond the cap
  std::uint64_t min_value = 0;
  std::uint64_t max_value = 0;
  std::uint64_t value_fingerprint = 0;        ///< order-independent (lane,value) hash
  std::uint64_t participant_fingerprint = 0;  ///< order-independent lane hash
  std::vector<SlotObservation> observations;
};

/// Raw per-branch-slot accumulator.
struct RawBranch {
  std::int64_t taken = 0;
  std::int64_t count = 0;
  bool divergent = false;           ///< mixed outcomes inside one warp
  std::uint64_t outcome_fingerprint = 0;
  std::uint64_t participant_fingerprint = 0;
};

struct RawPhase {
  std::vector<RawSlot> shared_slots;
  std::vector<RawSlot> global_slots;
  std::vector<RawBranch> branches;
  std::int64_t lanes_sampled = 0;   ///< begin_lane calls kept for this phase
};

/// Everything recorded about one launch, before affine fitting.
struct RawKernelCapture {
  vgpu::KernelConfig config;
  vgpu::DeviceSpec device;
  std::vector<RawPhase> phases;
  std::vector<bool> shared_words_written;
  std::vector<bool> shared_words_read;
  int blocks_sampled = 0;
  std::int64_t blocks_total = 0;
  bool branch_tracking_forced = false;
};

/// The capture observer. Normally driven through CaptureScope; exposed so
/// the precedence regression test can observe it directly.
class CaptureEngine : public vgpu::LaunchObserver {
 public:
  CaptureEngine();
  ~CaptureEngine() override;

  // vgpu::LaunchObserver lane events
  LaneRole lane_role() const override { return LaneRole::kCapture; }
  void begin_kernel(const vgpu::DeviceSpec& spec,
                    const vgpu::KernelConfig& config) override;
  void begin_block(const vgpu::Dim3& block_id) override;
  void begin_phase(int phase) override;
  void begin_lane(const vgpu::Dim3& thread) override;
  void on_shared(std::size_t offset, std::uint32_t bytes, bool store) override;
  void end_lane(const vgpu::LaneCtx& lane) override;
  void end_phase() override;
  void end_kernel() override;
  void on_shadowed_launch(const vgpu::KernelConfig& config) override;
  bool wants_branch_tracking() const override { return true; }

  const std::vector<RawKernelCapture>& captures() const { return captures_; }
  std::vector<RawKernelCapture> take_captures();
  /// Launches another lane-event owner (a checker, or an inner capture)
  /// took from this engine — nonzero means the capture set is incomplete.
  int shadowed_launches() const { return shadowed_launches_; }

 private:
  struct Impl;
  std::vector<RawKernelCapture> captures_;
  int shadowed_launches_ = 0;
  Impl* impl_;  ///< in-flight launch state
};

/// RAII: installs a CaptureEngine on the calling thread's launch-observer
/// chain.
class CaptureScope {
 public:
  CaptureScope();

  CaptureEngine& engine() { return engine_; }
  std::vector<RawKernelCapture> take_captures() {
    return engine_.take_captures();
  }
  int shadowed_launches() const { return engine_.shadowed_launches(); }

 private:
  CaptureEngine engine_;
  vgpu::LaunchObserverScope installer_;
};

/// Merges two captures of the SAME launch sequence under different data
/// seeds into the final IR (data-dependence = any cross-seed difference).
/// Throws core::CheckError when the sequences disagree structurally
/// (different kernel name, geometry or phase count) — drivers must be
/// geometry-deterministic.
KernelIR merge_captures(const RawKernelCapture& seed_a,
                        const RawKernelCapture& seed_b);

/// Convenience harness: runs `driver` once per data seed under a capture
/// scope and returns one merged IR per launch the driver performed, in
/// launch order. `shadowed` (optional) receives the total count of
/// launches another lane-event owner took (observer precedence).
std::vector<KernelIR> capture_kernels(
    const std::function<void(std::uint64_t seed)>& driver,
    std::uint64_t seed_a = 0x5eed0001, std::uint64_t seed_b = 0x5eed0002,
    int* shadowed = nullptr);

}  // namespace fdet::analyze
