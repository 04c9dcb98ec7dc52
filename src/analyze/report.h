// Reporting for fdet_lint (layer 3): findings tables on stdout and
// analyze.lint.* metrics for fdet_report, mirroring the vgpu.check.*
// family the dynamic checker publishes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "analyze/analyses.h"
#include "analyze/ir.h"
#include "obs/metrics.h"

namespace fdet::analyze {

/// One analyzed kernel launch: its IR summary, traffic prediction and
/// findings.
struct KernelLintResult {
  std::string target;  ///< registry target the launch came from
  std::string kernel;  ///< KernelConfig::name
  std::string geometry;
  int phases = 0;
  int barriers = 0;
  int shared_slots = 0;
  int global_slots = 0;
  PredictedTraffic traffic;
  std::vector<Finding> findings;
};

/// Builds the per-kernel summary row from an analyzed IR.
KernelLintResult summarize(const std::string& target, const KernelIR& ir,
                           std::vector<Finding> findings);

/// Per-kernel overview table: phases/barriers, captured slots, predicted
/// traffic (with completeness markers) and the finding tally.
void print_lint_table(std::ostream& out,
                      const std::vector<KernelLintResult>& results);

/// One line per finding, errors first.
void print_findings(std::ostream& out,
                    const std::vector<KernelLintResult>& results);

/// Exports analyze.lint.* metrics: per-kernel clean gauge, finding
/// counters by kind/severity, predicted traffic counters. `fdet_report
/// show` renders these back as a table.
void publish_lint_results(obs::Registry& registry,
                          const std::vector<KernelLintResult>& results);

}  // namespace fdet::analyze
