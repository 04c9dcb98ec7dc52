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
  kSharedOutOfBounds,   ///< proven shared access beyond the declared footprint
  kGlobalOutOfBounds,   ///< proven global access escaping its allocation
  kSharedFootprint,     ///< carve layout exceeds KernelConfig::shared_bytes
  kCarveDivergence,     ///< lanes disagreed on the shared carve layout
  kBarrierDivergence,   ///< data-dependent producer divergence before a barrier
  kBankConflict,        ///< predicted conflict degree at/above threshold
  kUncoalesced,         ///< predicted transactions far above the packed minimum
  kDeadSharedWrite,     ///< carve region written but never read
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
  bool suppressed = false;
};

struct AnalysisOptions {
  /// Warn when a predicted per-issue conflict degree reaches this many
  /// serialized passes. Production scan legitimately runs degree-4 chunk
  /// scans; 8 is one power of two above anything the shipped kernels do.
  int bank_conflict_warn_degree = 8;
  /// Warn when predicted transactions exceed the packed minimum by this
  /// factor on some slot (32 on a fully strided column-major read).
  double uncoalesced_warn_ratio = 8.0;
  /// Warn (not just inform) when occupancy drops below this ratio.
  double occupancy_warn_ratio = 0.25;
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
std::vector<Finding> analyze_kernel(const KernelIR& ir,
                                    const AnalysisOptions& options = {});

/// Suppression spec: "kind@kernel" or "kind@*" (kind as kebab-case slug,
/// kernel matched against KernelConfig::name). Unparseable specs throw
/// core::CheckError. Matching findings are flagged `suppressed` and no
/// longer count toward the lint exit code; they still render (dimmed) in
/// reports so a stale suppression stays visible.
void apply_suppressions(std::vector<Finding>& findings,
                        const std::vector<std::string>& specs);

/// Findings that still gate (unsuppressed, warning or worse).
int active_findings(const std::vector<Finding>& findings);

}  // namespace fdet::analyze
