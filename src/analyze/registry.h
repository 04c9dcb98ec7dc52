// Production kernel targets: every registered virtual-GPU kernel, wrapped
// in a driver. fdet_lint sweeps this one registry in both modes — `check`
// runs each driver under the dynamic checker, `lint` captures it for the
// static analyses — and tests reuse it so the "all production kernels are
// clean" gates and the CLI agree on what "all" means.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analyze/analyses.h"

namespace fdet::analyze {

struct LintTarget {
  /// Target group, e.g. "integral" (one driver can launch several kernels).
  std::string name;
  /// Global allocations the kernels address (virtual byte-offset ranges):
  /// the checker's memcheck ranges and the static global-OOB proof's.
  std::vector<vgpu::GlobalAllocation> allocations;
  /// Suppressions registered with the target ("kind@kernel"); merged with
  /// any the CLI passes. Empty for the shipped kernels — they lint clean.
  std::vector<std::string> suppressions;
  /// Launches the target's kernels. The seed must ONLY change input data,
  /// never geometry: capture runs the driver twice and diffs the runs to
  /// classify data dependence.
  std::function<void(std::uint64_t seed)> driver;
};

/// All production kernels at one frame geometry: the integral row and
/// column passes, pyramid scale + separable filters, cascade evaluation,
/// display overlay.
std::vector<LintTarget> production_targets(int width, int height);

}  // namespace fdet::analyze
