// Static analyses over the captured kernel IR (layer 2 of fdet_lint).
//
// Every analysis here consumes a KernelIR and launch geometry only — no
// kernel code runs and no image data is touched. Affine slots with full
// participation are evaluated exactly for every lane of every block (the
// same slot-aligned dedup/bank/segment arithmetic the executor uses for
// its dynamic PerfCounters, so predictions cross-validate against
// measured bank_conflicts / global_transactions). Partial, data-dependent
// or non-affine slots are never extrapolated: bound-style analyses fall
// back to the observed value range and traffic predictions mark their
// totals incomplete (a lower bound on the dynamic counter).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/ir.h"

namespace fdet::analyze {

enum class Severity { kInfo, kWarning, kError };
const char* severity_name(Severity s);

enum class FindingKind {
  kSharedOutOfBounds,   ///< proven shared access outside the shared layout
  kGlobalOutOfBounds,   ///< proven global access escaping its allocation
  kBarrierDivergence,   ///< data-dependent producer divergence before a barrier
  kBankConflict,        ///< predicted conflict degree at/above threshold
  kUncoalesced,         ///< predicted transactions far above the packed minimum
  kDeadSharedWrite,     ///< layout array written but never read
  kOccupancy,           ///< occupancy-limiter advisory
  kNonAffine,           ///< slots the affine fit could not explain (summary)
  kDataDependent,       ///< data-dependent slots (summary, informational)
};
const char* finding_kind_name(FindingKind k);  ///< kebab-case slug

struct Finding {
  FindingKind kind = FindingKind::kNonAffine;
  Severity severity = Severity::kInfo;
  std::string kernel;
  int phase = -1;  ///< -1 when the finding is kernel-scoped
  int slot = -1;
  std::string message;
};

struct AnalysisOptions {
  /// Registered global allocations the kernel may address — the same
  /// ranges the dynamic checker bounds-checks (vgpu/checker.h). Global OOB
  /// proofs require a slot's whole evaluated range to stay inside the
  /// allocation containing its minimum address.
  std::vector<vgpu::GlobalAllocation> allocations;
};

/// Slot-exact replication of the executor's warp reduction, evaluated
/// from affine forms instead of executed lanes.
struct PredictedTraffic {
  std::uint64_t bank_conflicts = 0;       ///< extra serialized passes
  std::uint64_t global_transactions = 0;  ///< 128B segments touched
  /// Packed-minimum transactions for the predicted slots (coalescing
  /// denominator): ceil(active_lanes * bytes / 128) per warp issue.
  std::uint64_t min_global_transactions = 0;
  bool shared_complete = true;  ///< every shared slot was predictable
  bool global_complete = true;  ///< every global slot was predictable
  int skipped_slots = 0;        ///< partial/data-dependent/non-affine slots
};

/// Predicts dynamic traffic counters at the IR's captured geometry. When
/// the corresponding *_complete flag is true the prediction equals the
/// executor's counter; otherwise it is a lower bound (skipped slots only
/// ever add traffic).
PredictedTraffic predict_traffic(const KernelIR& ir);

/// Runs every analysis; findings come back ordered most severe first.
/// Warnings: a predicted bank conflict of degree 8 or more, a global slot
/// needing 8x its packed transactions or more, occupancy below 25%.
std::vector<Finding> analyze_kernel(const KernelIR& ir,
                                    const AnalysisOptions& options = {});

/// Findings that gate (warning or worse).
int active_findings(const std::vector<Finding>& findings);

}  // namespace fdet::analyze
