// Kernel profiler and performance attribution: the "why is it slow"
// half of the observability loop.
//
// A KernelProfiler is a vgpu launch observer (vgpu/observer.h): it reads
// every finished launch in after_launch and aggregates, per kernel
// *base name* (the per-scale `_s<N>` suffix stripped, so `cascade_s0`
// ... `cascade_s7` roll up into one `cascade` row):
//
//   - launch count and total service cycles,
//   - the stall taxonomy from the executor's service-cycle decomposition
//     (vgpu/counters.h): issue vs. memory stall, and within issue the
//     cycles burned on SIMD divergence and shared-memory bank-conflict
//     serialization; within stall the occupancy-limited share a fully
//     occupied SM would have hidden,
//   - achieved occupancy (cycle-weighted), branch/SIMD efficiency,
//     memory transactions, and a roofline classification (memory- vs
//     compute-bound by arithmetic intensity against the device ridge).
//
// Cycles are simultaneously attributed along two ambient axes captured at
// launch time:
//
//   stage   the innermost ProfileStageScope (detect::Pipeline installs
//           scale / integral / cascade / grouping around its launches);
//           launches outside any scope land in "(unattributed)"
//   frame   the innermost TraceContext's trace_id (obs/trace.h) — the
//           per-frame context the serving loop / bench harness installs;
//           launches outside any context land in "(no-frame)"
//
// Because every bucket sums the same LaunchCost::total_service_cycles,
// kernel totals, stage totals and frame totals each sum to the same
// grand total — the conservation property obs_profile_test asserts and
// `fdet_report show` surfaces as a coverage percentage.
//
// A snapshot is an ordinary obs::RunRecord (one gauge series
// per quantity), persisted as `PROFILE_<artifact>.json`: `fdet_report
// diff` gates it like any bench record and `fdet_report show` renders
// its breakdown (render_profile_text). The series:
//
//   profile.total_cycles, profile.launches
//   profile.ridge_ops_per_byte   the device's roofline ridge: peak issue
//       rate (ipc × 32 lanes) over peak global bandwidth (128 bytes per
//       transaction-issue slot)
//   profile.kernel.<field>{kernel=K}   cycles, issue_cycles, stall_cycles,
//       divergence_cycles, bank_conflict_cycles, occupancy_limited_cycles,
//       bank_conflicts, global_transactions, achieved_occupancy,
//       branch_efficiency, launches, occupancy_cycles, arithmetic_ops,
//       global_bytes, warp_branches, divergent_branches,
//       lane_issue_cycles, warp_issue_cycles
//   profile.stage.{cycles,launches}{stage=S}
//   profile.frame.{cycles,launches}{frame=F}
//
// Frame ids are trace ids, which the serving loop and the bench harness
// derive from their seed and frame index, so the frame series are as
// deterministic as the cycles.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/runrecord.h"
#include "vgpu/device.h"
#include "vgpu/kernel.h"

namespace fdet::obs {

/// Stage bucket for launches issued outside any ProfileStageScope.
inline constexpr const char* kUnattributedStage = "(unattributed)";
/// Frame bucket for launches issued outside any trace context.
inline constexpr const char* kNoFrame = "(no-frame)";

/// Strips the per-scale launch suffix: "cascade_s12" -> "cascade",
/// "scan2_s0" -> "scan2". Names without a `_s<digits>` tail pass through.
std::string kernel_base_name(std::string_view name);

/// Names the pipeline stage for cycle attribution on the current thread
/// (stack discipline — scopes nest, the innermost wins). detect::Pipeline
/// installs one per stage; tests and tools may install their own.
class ProfileStageScope {
 public:
  explicit ProfileStageScope(std::string stage);
  ~ProfileStageScope();
  ProfileStageScope(const ProfileStageScope&) = delete;
  ProfileStageScope& operator=(const ProfileStageScope&) = delete;

  /// Innermost installed stage name of this thread, or nullptr.
  static const std::string* current();

 private:
  std::string stage_;
  ProfileStageScope* prev_;
};

/// Aggregated profile of one kernel (by base name) across all launches.
/// Counts are held as doubles (exact up to 2^53) because each field is
/// one series of the snapshot record.
struct KernelProfile {
  std::string name;
  double launches = 0.0;
  double total_cycles = 0.0;  ///< Σ LaunchCost::total_service_cycles

  // Stall taxonomy (service-cycle domain, see vgpu/counters.h):
  //   total = issue + stall
  //   divergence + bank_conflict <= issue
  //   occupancy_limited          <= stall
  double issue_cycles = 0.0;
  double stall_cycles = 0.0;
  double divergence_cycles = 0.0;
  double bank_conflict_cycles = 0.0;
  double occupancy_limited_cycles = 0.0;

  /// Σ occupancy.ratio × launch cycles; divide by total_cycles for the
  /// cycle-weighted achieved occupancy.
  double occupancy_cycles = 0.0;

  double bank_conflicts = 0.0;
  double global_transactions = 0.0;
  double arithmetic_ops = 0.0;
  double global_bytes = 0.0;
  double warp_branches = 0.0;
  double divergent_branches = 0.0;
  double lane_issue_cycles = 0.0;
  double warp_issue_cycles = 0.0;

  /// Cycle-weighted achieved occupancy in [0, 1]; 0 when no cycles.
  double achieved_occupancy() const {
    return total_cycles <= 0.0 ? 0.0 : occupancy_cycles / total_cycles;
  }
  /// Fraction of warp branches with a uniform outcome (1.0 when none).
  double branch_efficiency() const;
  /// Average fraction of lanes doing useful work (1.0 when degenerate).
  double simd_efficiency() const;
  /// Roofline arithmetic intensity in ops per global byte. A kernel with
  /// no global traffic is unboundedly compute-heavy (+inf).
  double arithmetic_intensity() const;
  /// "memory" when arithmetic intensity sits below `ridge`, else
  /// "compute" (a kernel with no global traffic is compute-bound).
  const char* roofline_bound(double ridge) const;
};

/// Cycles attributed to one pipeline stage / one frame.
struct AttributionBucket {
  std::string name;
  double launches = 0.0;
  double cycles = 0.0;
};

/// Collects launches into per-kernel / per-stage / per-frame aggregates.
/// Not thread-safe: install on the thread issuing the launches (the
/// launch-observer chain is thread-local anyway).
class KernelProfiler : public vgpu::LaunchObserver {
 public:
  /// Feeds one finished launch. Reads the ambient ProfileStageScope and
  /// TraceContext for attribution.
  void after_launch(const vgpu::DeviceSpec& spec,
                    const vgpu::LaunchCost& cost) override;

  std::uint64_t launches() const { return launches_; }
  double total_cycles() const { return total_cycles_; }

  /// Aggregates collected launches into a run record (default variant)
  /// of the series listed above, in series_less order. Callable
  /// repeatedly; collection continues afterwards.
  RunRecord snapshot(std::string artifact, Labels labels = {}) const;

 private:
  std::uint64_t launches_ = 0;
  double total_cycles_ = 0.0;
  double ridge_ops_per_byte_ = 0.0;
  std::vector<KernelProfile> kernels_;        // insertion order
  std::vector<AttributionBucket> stages_;     // insertion order
  std::vector<AttributionBucket> frames_;     // insertion order
};

/// RAII collection window: installs `profiler` on the thread's
/// launch-observer chain for the scope's lifetime. Nested windows all
/// collect (every observer sees every launch).
class ScopedProfileCollection {
 public:
  explicit ScopedProfileCollection(KernelProfiler& profiler)
      : scope_(profiler) {}

 private:
  vgpu::LaunchObserverScope scope_;
};

/// Paper-style text rendering of a snapshot record (the detection-time
/// breakdown `fdet_report show` prints for a record holding
/// profile.total_cycles): per-kernel cycle shares with the stall
/// taxonomy, per-stage shares, and the attribution-coverage line.
std::string render_profile_text(const RunRecord& record);

}  // namespace fdet::obs
