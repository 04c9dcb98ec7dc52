#include "analyze/report.h"

#include <ostream>
#include <sstream>

#include "core/table.h"

namespace fdet::analyze {
namespace {

std::string geometry_string(const vgpu::KernelConfig& config) {
  std::ostringstream out;
  out << config.grid.x << "x" << config.grid.y << "x" << config.grid.z << "/"
      << config.block.x << "x" << config.block.y << "x" << config.block.z;
  return out.str();
}

int count_findings(const KernelLintResult& r, Severity severity) {
  int n = 0;
  for (const Finding& f : r.findings) {
    if (f.severity == severity) {
      ++n;
    }
  }
  return n;
}

}  // namespace

KernelLintResult summarize(const std::string& target, const KernelIR& ir,
                           std::vector<Finding> findings) {
  KernelLintResult r;
  r.target = target;
  r.kernel = ir.config.name;
  r.geometry = geometry_string(ir.config);
  r.phases = static_cast<int>(ir.phases.size());
  r.barriers = ir.barrier_count();
  for (const PhaseIR& phase : ir.phases) {
    r.shared_slots += static_cast<int>(phase.shared_slots.size());
    r.global_slots += static_cast<int>(phase.global_slots.size());
  }
  r.traffic = predict_traffic(ir);
  r.findings = std::move(findings);
  return r;
}

void print_lint_table(std::ostream& out,
                      const std::vector<KernelLintResult>& results) {
  core::Table table({"kernel", "geometry", "phases", "slots s/g",
                     "pred conflicts", "pred transactions", "findings e/w/i",
                     "verdict"});
  for (const KernelLintResult& r : results) {
    const int errors = count_findings(r, Severity::kError);
    const int warnings = count_findings(r, Severity::kWarning);
    const int infos = count_findings(r, Severity::kInfo);
    std::ostringstream slots;
    slots << r.shared_slots << "/" << r.global_slots;
    std::ostringstream conflicts;
    conflicts << r.traffic.bank_conflicts
              << (r.traffic.shared_complete ? "" : "+");
    std::ostringstream transactions;
    transactions << r.traffic.global_transactions
                 << (r.traffic.global_complete ? "" : "+");
    std::ostringstream tally;
    tally << errors << "/" << warnings << "/" << infos;
    table.add_row({r.kernel, r.geometry, std::to_string(r.phases),
                   slots.str(), conflicts.str(), transactions.str(),
                   tally.str(),
                   errors + warnings > 0 ? "FINDINGS" : "CLEAN"});
  }
  table.print(out);
  out << "(a trailing + marks an incomplete prediction: partial, "
         "data-dependent or non-affine slots make it a lower bound)\n";
}

void print_findings(std::ostream& out,
                    const std::vector<KernelLintResult>& results) {
  for (const KernelLintResult& r : results) {
    for (const Finding& f : r.findings) {
      out << severity_name(f.severity) << " [" << finding_kind_name(f.kind)
          << "@" << f.kernel << "]";
      if (f.phase >= 0) {
        out << " phase " << f.phase;
      }
      if (f.slot >= 0) {
        out << " slot " << f.slot;
      }
      out << ": " << f.message << "\n";
    }
  }
}

void publish_lint_results(obs::Registry& registry,
                          const std::vector<KernelLintResult>& results) {
  for (const KernelLintResult& r : results) {
    const obs::Labels labels = {{"target", r.target}, {"kernel", r.kernel}};
    const int gating = count_findings(r, Severity::kError) +
                       count_findings(r, Severity::kWarning);
    registry.gauge("analyze.lint.clean", labels).set(gating == 0 ? 1.0 : 0.0);
    registry.counter("analyze.lint.shared_slots", labels)
        .add(static_cast<double>(r.shared_slots));
    registry.counter("analyze.lint.global_slots", labels)
        .add(static_cast<double>(r.global_slots));
    registry.counter("analyze.lint.predicted_bank_conflicts", labels)
        .add(static_cast<double>(r.traffic.bank_conflicts));
    registry.counter("analyze.lint.predicted_global_transactions", labels)
        .add(static_cast<double>(r.traffic.global_transactions));
    for (const Finding& f : r.findings) {
      obs::Labels finding_labels = labels;
      finding_labels.emplace_back("kind", finding_kind_name(f.kind));
      finding_labels.emplace_back("severity", severity_name(f.severity));
      registry.counter("analyze.lint.findings", finding_labels).increment();
    }
  }
}

}  // namespace fdet::analyze
