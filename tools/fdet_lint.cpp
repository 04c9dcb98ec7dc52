// fdet_lint — verifies the virtual GPU's production kernels two ways, over
// one kernel list (analyze::production_targets):
//
//   fdet_lint check [flags]     run every registered kernel under the
//                               racecheck/memcheck checker (vgpu/checker.h),
//                               the moral equivalent of sweeping it with
//                               `cuda-memcheck --tool racecheck`, and print
//                               a per-launch verdict table
//   fdet_lint lint [flags]      capture every registered kernel's lane
//                               program as a symbolic IR (analyze/capture.h)
//                               and run the static analyses
//                               (analyze/analyses.h): shared/global OOB
//                               proofs, barrier divergence, bank-conflict
//                               and coalescing predictions, dead-shared-write
//                               and occupancy advisories
//
// Flags, both modes:
//   --seeded                    run the mode's seeded-defect corpus instead:
//                               each planted bug must produce its expected
//                               hazard (check) or finding kind (lint) — CI
//                               proof of detection
//   --width, --height           base frame geometry (96x72)
//   --sweep                     also run an odd-sized frame (default on)
//   --suppress=k@n,...          lint only: extra suppressions (kind@kernel
//                               or kind@*) on top of registry ones
//   --metrics-out=f             export vgpu.check.* (check) or
//                               analyze.lint.* (lint) metrics as JSON,
//                               which `fdet_report show` renders as
//                               tables
//
// Exit codes, both modes: 0 the gate passes (every kernel clean; with
// --seeded, every planted defect detected), 1 usage error, 2 the gate
// fails (hazards or findings; with --seeded, a planted defect missed).
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyses.h"
#include "analyze/capture.h"
#include "analyze/registry.h"
#include "analyze/report.h"
#include "core/check.h"
#include "core/cli.h"
#include "core/rng.h"
#include "core/table.h"
#include "obs/metrics.h"
#include "obs/verify.h"
#include "vgpu/checker.h"
#include "vgpu/kernel.h"

namespace fdet {
namespace {

using vgpu::KernelConfig;
using vgpu::LaneCtx;
using vgpu::SharedMem;
using vgpu::ThreadCoord;

/// Input-data seed of the check mode's single run per target.
constexpr std::uint64_t kCheckSeed = 42;

std::vector<std::string> split_commas(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  for (std::string item; std::getline(stream, item, ',');) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

std::vector<std::pair<int, int>> geometries(int width, int height,
                                            bool sweep) {
  std::vector<std::pair<int, int>> out = {{width, height}};
  if (sweep) {
    // Odd frame: ragged last blocks on every axis, odd strides — the
    // geometry where off-by-one index bugs surface.
    out.emplace_back(width + 5, height - 3 - height % 2);
  }
  return out;
}

void write_metrics(const obs::Registry& registry, const std::string& path) {
  if (!path.empty()) {
    registry.write_file(path);
    std::printf("metrics written to %s\n", path.c_str());
  }
}

/// One planted defect of a seeded corpus and whether the mode caught it.
struct SeededVerdict {
  std::string defect;
  std::string expected;  ///< hazard or finding kind name
  bool detected = false;
};

int report_seeded(const std::vector<SeededVerdict>& verdicts,
                  const char* expected_column) {
  core::Table table({"seeded defect", expected_column, "verdict"});
  bool all_caught = true;
  for (const SeededVerdict& v : verdicts) {
    all_caught = all_caught && v.detected;
    table.add_row({v.defect, v.expected, v.detected ? "DETECTED" : "MISSED"});
  }
  table.print(std::cout);
  std::printf("%zu seeded defects: %s\n", verdicts.size(),
              all_caught ? "ALL DETECTED" : "SOME MISSED");
  return all_caught ? 0 : 2;
}

// --- check mode ----------------------------------------------------------

int check_production(int width, int height, bool sweep,
                     const std::string& metrics_out) {
  std::vector<vgpu::CheckReport> reports;
  for (const auto& [w, h] : geometries(width, height, sweep)) {
    std::printf("## check sweep at %dx%d\n", w, h);
    core::Table table({"kernel", "verdict", "hazards", "shared accesses",
                       "carves", "global ops"});
    for (const analyze::LintTarget& target :
         analyze::production_targets(w, h)) {
      // One scope per target: the offset address spaces of different
      // targets overlap, so each registers only its own allocations.
      vgpu::CheckScope scope(
          vgpu::CheckOptions{.global_allocations = target.allocations});
      target.driver(kCheckSeed);
      for (vgpu::CheckReport& report : scope.checker().take_reports()) {
        table.add_row(
            {report.kernel, report.clean() ? "CLEAN" : "HAZARDS",
             std::to_string(report.hazards.size() + report.suppressed_hazards),
             std::to_string(report.shared_accesses_checked),
             std::to_string(report.carves_checked),
             std::to_string(report.global_ops_checked)});
        reports.push_back(std::move(report));
      }
    }
    table.print(std::cout);
  }

  bool all_clean = true;
  for (const vgpu::CheckReport& report : reports) {
    all_clean = all_clean && report.clean();
    for (const vgpu::Hazard& hazard : report.hazards) {
      std::printf("HAZARD [%s] %s\n", vgpu::hazard_name(hazard.kind),
                  hazard.message.c_str());
    }
  }
  obs::Registry registry;
  obs::publish_check_reports(registry, reports);
  write_metrics(registry, metrics_out);
  std::printf("%zu kernel launches checked: %s\n", reports.size(),
              all_clean ? "ALL CLEAN" : "HAZARDS FOUND");
  return all_clean ? 0 : 2;
}

int check_seeded(const std::string& metrics_out) {
  using vgpu::HazardKind;
  const vgpu::DeviceSpec spec;
  constexpr int kLanes = 32;
  const auto config = [](const std::string& name, int shared_bytes) {
    return KernelConfig{.name = name,
                        .grid = {1, 1, 1},
                        .block = {kLanes, 1, 1},
                        .shared_bytes = shared_bytes};
  };
  struct Planted {
    std::string name;
    HazardKind expected;
    vgpu::CheckReport report;
  };
  std::vector<Planted> planted;
  const auto plant = [&planted](std::string name, HazardKind expected,
                                vgpu::CheckedExecution run) {
    planted.push_back({std::move(name), expected, std::move(run.report)});
  };

  // Missing barrier: write own slot, read the neighbour's in one phase.
  plant("missing barrier (neighbour read)", HazardKind::kIntraPhaseRace,
        vgpu::execute_kernel_checked(
            spec, config("seeded_race", kLanes * 4),
            [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
              auto tile = shared.array<std::int32_t>(kLanes);
              auto& mine = tile[static_cast<std::size_t>(t.thread.x)];
              mine = t.thread.x;
              ctx.shared_store_at(shared, mine);
              ctx.shared_load_at(
                  shared,
                  tile[static_cast<std::size_t>((t.thread.x + 1) % kLanes)]);
            }));

  // Read of shared bytes no phase ever wrote.
  plant("uninitialized shared read", HazardKind::kUninitializedSharedRead,
        vgpu::execute_kernel_checked(
            spec, config("seeded_uninit", kLanes * 4),
            [](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
              auto tile = shared.array<std::int32_t>(kLanes);
              ctx.shared_load_at(shared,
                                 tile[static_cast<std::size_t>(t.thread.x)]);
            }));

  // Lanes disagree on the static __shared__ layout.
  plant("carve divergence (odd lanes)", HazardKind::kCarveDivergence,
        vgpu::execute_kernel_checked(
            spec, config("seeded_divergence", 32),
            [](const ThreadCoord& t, LaneCtx&, SharedMem& shared) {
              shared.array<std::int32_t>(t.thread.x % 2 == 1 ? 8 : 4);
            }));

  // Carve escaping the declared static footprint.
  plant("carve past shared_bytes", HazardKind::kCarveOverflow,
        vgpu::execute_kernel_checked(
            spec, config("seeded_overflow", 64),
            [](const ThreadCoord&, LaneCtx&, SharedMem& shared) {
              shared.array<double>(100);
            }));

  // Constant-memory footprint over the device limit (Sec. III-B's reason
  // for re-encoding the cascade records).
  KernelConfig fat = config("seeded_constant", 0);
  fat.constant_bytes = 2 * spec.constant_mem_bytes;
  plant("constant footprint 2x device", HazardKind::kConstantOverflow,
        vgpu::execute_kernel_checked(
            spec, fat, [](const ThreadCoord&, LaneCtx&, SharedMem&) {}));

  // Global access outside every registered allocation.
  plant("global load past allocation", HazardKind::kGlobalOutOfBounds,
        vgpu::execute_kernel_checked(
            spec, config("seeded_global_oob", 0),
            [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
              ctx.global_load(100, 4);
            },
            vgpu::CheckOptions{.global_allocations = {{"buf", 0, 64}}}));

  std::vector<SeededVerdict> verdicts;
  obs::Registry registry;
  for (const Planted& p : planted) {
    SeededVerdict verdict{p.name, vgpu::hazard_name(p.expected)};
    for (const vgpu::Hazard& hazard : p.report.hazards) {
      verdict.detected = verdict.detected || hazard.kind == p.expected;
    }
    verdicts.push_back(std::move(verdict));
    obs::publish_check_report(registry, p.report, {{"corpus", "seeded"}});
  }
  write_metrics(registry, metrics_out);
  return report_seeded(verdicts, "expected hazard");
}

// --- lint mode -----------------------------------------------------------

std::vector<analyze::KernelLintResult> lint_geometry(
    int width, int height, const std::vector<std::string>& cli_suppressions,
    int& shadowed_launches) {
  std::vector<analyze::KernelLintResult> results;
  for (analyze::LintTarget& target : analyze::production_targets(width, height)) {
    int shadowed = 0;
    const std::vector<analyze::KernelIR> irs = analyze::capture_kernels(
        target.driver, /*seed_a=*/0x5eed0001, /*seed_b=*/0x5eed0002,
        analyze::CaptureOptions{}, &shadowed);
    shadowed_launches += shadowed;
    analyze::AnalysisOptions options;
    options.allocations = target.allocations;
    std::vector<std::string> suppressions = target.suppressions;
    suppressions.insert(suppressions.end(), cli_suppressions.begin(),
                        cli_suppressions.end());
    for (const analyze::KernelIR& ir : irs) {
      std::vector<analyze::Finding> findings =
          analyze::analyze_kernel(ir, options);
      analyze::apply_suppressions(findings, suppressions);
      results.push_back(
          analyze::summarize(target.name, ir, std::move(findings)));
    }
  }
  return results;
}

int lint_production(int width, int height, bool sweep,
                    const std::string& suppress,
                    const std::string& metrics_out) {
  const std::vector<std::string> cli_suppressions = split_commas(suppress);
  std::vector<analyze::KernelLintResult> results;
  int shadowed = 0;
  for (const auto& [w, h] : geometries(width, height, sweep)) {
    std::printf("## lint sweep at %dx%d\n", w, h);
    const auto geometry_results = lint_geometry(w, h, cli_suppressions,
                                                shadowed);
    analyze::print_lint_table(std::cout, geometry_results);
    results.insert(results.end(), geometry_results.begin(),
                   geometry_results.end());
  }
  std::printf("\n");
  analyze::print_findings(std::cout, results);

  obs::Registry registry;
  analyze::publish_lint_results(registry, results);
  write_metrics(registry, metrics_out);

  int gating = 0;
  for (const analyze::KernelLintResult& r : results) {
    gating += analyze::active_findings(r.findings);
  }
  if (shadowed > 0) {
    std::printf(
        "WARNING: %d launches were owned by another lane observer (an open "
        "CheckScope, vgpu/observer.h) and were not captured — lint coverage "
        "is incomplete\n",
        shadowed);
    gating += shadowed;
  }
  std::printf("%zu kernel launches analyzed: %s\n", results.size(),
              gating == 0 ? "ALL CLEAN" : "FINDINGS");
  return gating == 0 ? 0 : 2;
}

/// Captures one single-kernel driver under both seeds and analyzes it.
template <typename Driver>
std::vector<analyze::Finding> capture_and_analyze(Driver&& driver) {
  const std::vector<analyze::KernelIR> irs =
      analyze::capture_kernels(std::forward<Driver>(driver));
  FDET_CHECK(irs.size() == 1) << "seeded defect must launch exactly once";
  return analyze::analyze_kernel(irs.front(), analyze::AnalysisOptions{});
}

int lint_seeded(const std::string& metrics_out) {
  const vgpu::DeviceSpec spec;
  struct Planted {
    std::string name;
    analyze::FindingKind expected;
    std::vector<analyze::Finding> findings;
  };
  std::vector<Planted> planted;
  const auto plant = [&planted](std::string name,
                                analyze::FindingKind expected,
                                std::vector<analyze::Finding> findings) {
    planted.push_back({std::move(name), expected, std::move(findings)});
  };

  // Off-by-one shared read: every lane of an odd-sized block reads its
  // right neighbour's word — the last lane's read lands one word past the
  // declared footprint. The analyzer must PROVE this from the affine form
  // (the capture seeds never change the address).
  {
    constexpr int kLanes = 33;  // odd block: the ragged case the sweep hunts
    const KernelConfig config{.name = "seeded_oob",
                              .grid = {1, 1, 1},
                              .block = {kLanes, 1, 1},
                              .shared_bytes = kLanes * 4};
    plant("shared off-by-one at odd block dim",
          analyze::FindingKind::kSharedOutOfBounds,
          capture_and_analyze([&spec, &config](std::uint64_t /*seed*/) {
            vgpu::execute_kernel(
                spec, config,
                [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
                  // Raw offset report: the planted bug is the index math,
                  // not a host access, so no real span is dereferenced.
                  ctx.shared_load(
                      (static_cast<std::size_t>(t.thread.x) + 1) * 4, 4);
                });
          }));
  }

  // Barrier divergence: lanes store to shared memory only when their
  // input byte passes a threshold, then every lane reads after the
  // barrier. The writing lane set follows the data.
  {
    const KernelConfig config{.name = "seeded_barrier",
                              .grid = {1, 1, 1},
                              .block = {32, 1, 1},
                              .shared_bytes = 32 * 4,
                              .track_branches = true};
    plant("barrier in data-dependent branch",
          analyze::FindingKind::kBarrierDivergence,
          capture_and_analyze([&spec, &config](std::uint64_t seed) {
            core::Rng rng(seed);
            std::vector<int> input(32);
            for (int& v : input) {
              v = rng.uniform_int(0, 255);
            }
            const vgpu::PhaseFn produce = [&input](const ThreadCoord& t,
                                                   LaneCtx& ctx, SharedMem&) {
              const bool hot =
                  input[static_cast<std::size_t>(t.thread.x)] > 127;
              ctx.branch(hot);
              if (hot) {
                ctx.shared_store(static_cast<std::size_t>(t.thread.x) * 4, 4);
              }
            };
            const vgpu::PhaseFn consume = [](const ThreadCoord& t,
                                             LaneCtx& ctx, SharedMem&) {
              ctx.shared_load(static_cast<std::size_t>(t.thread.x) * 4, 4);
            };
            const std::vector<vgpu::PhaseFn> phases = {produce, consume};
            vgpu::execute_kernel(spec, config,
                                 std::span<const vgpu::PhaseFn>(phases));
          }));
  }

  // Stride-32 shared access: every lane of the warp hits bank 0 — the
  // worst-case 32-way serialization the padding idiom exists to avoid.
  {
    const KernelConfig config{.name = "seeded_stride",
                              .grid = {1, 1, 1},
                              .block = {32, 1, 1},
                              .shared_bytes = 32 * 32 * 4};
    plant("stride-32 shared access (single bank)",
          analyze::FindingKind::kBankConflict,
          capture_and_analyze([&spec, &config](std::uint64_t /*seed*/) {
            vgpu::execute_kernel(
                spec, config,
                [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
                  ctx.shared_load(
                      static_cast<std::size_t>(t.thread.x) * 32 * 4, 4);
                });
          }));
  }

  // Column-major global read: consecutive lanes stride by the image pitch,
  // so a warp touches 32 distinct 128-byte segments where packed access
  // needs one.
  {
    const KernelConfig config{.name = "seeded_column",
                              .grid = {1, 1, 1},
                              .block = {32, 1, 1}};
    plant("uncoalesced column-major read", analyze::FindingKind::kUncoalesced,
          capture_and_analyze([&spec, &config](std::uint64_t /*seed*/) {
            constexpr std::uint64_t kPitch = 512;
            vgpu::execute_kernel(
                spec, config,
                [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
                  ctx.global_load(
                      static_cast<std::uint64_t>(t.thread.x) * kPitch, 4);
                });
          }));
  }

  std::vector<SeededVerdict> verdicts;
  obs::Registry registry;
  for (const Planted& p : planted) {
    SeededVerdict verdict{p.name, analyze::finding_kind_name(p.expected)};
    for (const analyze::Finding& f : p.findings) {
      verdict.detected = verdict.detected ||
                         (f.kind == p.expected && !f.suppressed &&
                          f.severity != analyze::Severity::kInfo);
      registry
          .counter("analyze.lint.findings",
                   {{"corpus", "seeded"},
                    {"kernel", f.kernel},
                    {"kind", analyze::finding_kind_name(f.kind)},
                    {"severity", analyze::severity_name(f.severity)}})
          .increment();
    }
    verdicts.push_back(std::move(verdict));
  }
  write_metrics(registry, metrics_out);
  return report_seeded(verdicts, "expected finding");
}

}  // namespace
}  // namespace fdet

int main(int argc, char** argv) {
  using namespace fdet;
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode != "check" && mode != "lint") {
    std::fprintf(stderr,
                 "usage: fdet_lint check|lint [--seeded] [--width=N] "
                 "[--height=N] [--sweep=BOOL] [--suppress=k@n,...] "
                 "[--metrics-out=FILE]\n");
    return 1;
  }
  int width = 96;
  int height = 72;
  bool sweep = true;
  bool seeded = false;
  std::string suppress;
  std::string metrics_out;
  core::Cli cli("fdet_lint " + mode);
  cli.flag("width", width, "base frame width");
  cli.flag("height", height, "base frame height");
  cli.flag("sweep", sweep, "also verify an odd-sized frame geometry");
  cli.flag("seeded", seeded,
           "run the seeded-defect corpus instead of the production sweep");
  cli.flag("suppress", suppress,
           "lint: comma-separated suppressions (kind@kernel or kind@*)");
  cli.flag("metrics-out", metrics_out,
           "export vgpu.check.* / analyze.lint.* metrics (JSON)");
  // Shift out the mode so the flag parser sees only flags.
  std::vector<char*> args = {argv[0]};
  args.insert(args.end(), argv + 2, argv + argc);
  if (!cli.parse(static_cast<int>(args.size()), args.data())) {
    return 1;
  }
  if (mode == "check" && !suppress.empty()) {
    std::fprintf(stderr, "fdet_lint check: --suppress applies to lint only\n");
    return 1;
  }
  try {
    if (mode == "check") {
      return seeded ? check_seeded(metrics_out)
                    : check_production(width, height, sweep, metrics_out);
    }
    return seeded ? lint_seeded(metrics_out)
                  : lint_production(width, height, sweep, suppress,
                                    metrics_out);
  } catch (const core::CheckError& error) {
    std::fprintf(stderr, "fdet_lint %s: %s\n", mode.c_str(), error.what());
    return 1;
  }
}
