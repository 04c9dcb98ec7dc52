// Publishes kernel-verification verdicts (vgpu/checker.h) as metrics.
//
// One CheckReport — a single launch run under a CheckScope — becomes a
// `vgpu.check.*` metric family labelled by kernel name, so verification
// results travel through the same run records (--record-out),
// fdet_report tables and CI gates as the performance numbers:
//
//   vgpu.check.clean{kernel=K}          gauge, 1 when no hazards
//   vgpu.check.hazards{kernel=K,kind=}  counter per hazard kind (includes
//                                       kind=suppressed beyond the cap)
//   vgpu.check.shared_accesses{kernel=K}    shared accesses checked
//   vgpu.check.global_ops{kernel=K}     global ops bounds-checked
#pragma once

#include "obs/metrics.h"
#include "vgpu/checker.h"

namespace fdet::obs {

/// Publishes one launch's verification verdict. `base` labels are
/// prepended to every metric (the kernel label is always appended).
void publish_check_report(Registry& registry,
                          const vgpu::CheckReport& report,
                          const Labels& base = {});

/// Convenience: publishes every report a checker accumulated.
void publish_check_reports(Registry& registry,
                           const std::vector<vgpu::CheckReport>& reports,
                           const Labels& base = {});

}  // namespace fdet::obs
