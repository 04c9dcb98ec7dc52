#include "obs/verify.h"

namespace fdet::obs {
namespace {

Labels with_kernel(const Labels& base, const std::string& kernel) {
  Labels labels = base;
  labels.emplace_back("kernel", kernel);
  return labels;
}

}  // namespace

void publish_check_report(Registry& registry, const vgpu::CheckReport& report,
                          const Labels& base) {
  const Labels labels = with_kernel(base, report.kernel);
  registry.gauge("vgpu.check.clean", labels).set(report.clean() ? 1.0 : 0.0);
  registry.counter("vgpu.check.shared_accesses", labels)
      .add(static_cast<double>(report.shared_accesses_checked));
  registry.counter("vgpu.check.global_ops", labels)
      .add(static_cast<double>(report.global_ops_checked));
  for (const vgpu::Hazard& hazard : report.hazards) {
    Labels hazard_labels = labels;
    hazard_labels.emplace_back("kind", vgpu::hazard_name(hazard.kind));
    registry.counter("vgpu.check.hazards", hazard_labels).increment();
  }
  if (report.suppressed_hazards > 0) {
    Labels hazard_labels = labels;
    hazard_labels.emplace_back("kind", "suppressed");
    registry.counter("vgpu.check.hazards", hazard_labels)
        .add(static_cast<double>(report.suppressed_hazards));
  }
}

void publish_check_reports(Registry& registry,
                           const std::vector<vgpu::CheckReport>& reports,
                           const Labels& base) {
  for (const vgpu::CheckReport& report : reports) {
    publish_check_report(registry, report, base);
  }
}

}  // namespace fdet::obs
