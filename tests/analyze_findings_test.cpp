// Static analyses + findings model (analyze/analyses.h): OOB proofs from
// affine forms, dead-shared-write detection over the shared layout, and
// barrier-divergence keying on data dependence.
#include "analyze/analyses.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analyze/capture.h"
#include "core/rng.h"
#include "vgpu/kernel.h"

namespace fdet::analyze {
namespace {

using vgpu::KernelConfig;
using vgpu::LaneCtx;
using vgpu::SharedMem;
using vgpu::ThreadCoord;

const vgpu::DeviceSpec kSpec;

template <typename Phase>
std::vector<Finding> analyze_one(const KernelConfig& config, Phase&& phase,
                                 const AnalysisOptions& options = {}) {
  const std::vector<KernelIR> irs =
      capture_kernels([&config, &phase](std::uint64_t /*seed*/) {
        vgpu::execute_kernel(kSpec, config, phase);
      });
  EXPECT_EQ(irs.size(), 1u);
  return analyze_kernel(irs.front(), options);
}

const Finding* find_kind(const std::vector<Finding>& findings,
                         FindingKind kind) {
  const auto it =
      std::find_if(findings.begin(), findings.end(),
                   [kind](const Finding& f) { return f.kind == kind; });
  return it == findings.end() ? nullptr : &*it;
}

TEST(AnalyzeFindings, ProvesSharedOutOfBoundsFromAffineForm) {
  // 33-lane block, 33-word footprint, each lane reads word tx+1: the
  // affine proof must flag the max (34th word) as out of bounds even
  // though the capture itself never faults (raw offset report).
  KernelConfig config{.name = "oob", .grid = {1, 1, 1}, .block = {33, 1, 1}};
  config.shared.add<std::int32_t>(33);
  const std::vector<Finding> findings = analyze_one(
      config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.shared_load((static_cast<std::size_t>(t.thread.x) + 1) * 4, 4);
      });

  const Finding* f = find_kind(findings, FindingKind::kSharedOutOfBounds);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->kernel, "oob");
}

TEST(AnalyzeFindings, ProvesGlobalOutOfBoundsAgainstAllocations) {
  const KernelConfig config{.name = "goob",
                            .grid = {1, 1, 1},
                            .block = {32, 1, 1}};
  AnalysisOptions options;
  options.allocations = {{"buf", 0, 32 * 4}};  // one word short of the max
  const std::vector<Finding> findings = analyze_one(
      config,
      [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.global_load((static_cast<std::uint64_t>(t.thread.x) + 1) * 4, 4);
      },
      options);

  const Finding* f = find_kind(findings, FindingKind::kGlobalOutOfBounds);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(AnalyzeFindings, InBoundsKernelHasNoErrorFindings) {
  // 256-lane blocks keep occupancy at 100% so the only acceptable
  // findings are informational.
  KernelConfig config{.name = "clean", .grid = {2, 1, 1}, .block = {256, 1, 1}};
  const auto cells = config.shared.add<std::int32_t>(256);
  AnalysisOptions options;
  options.allocations = {{"buf", 0, 2 * 256 * 4}};
  const std::vector<Finding> findings = analyze_one(
      config,
      [cells](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        const auto tile = shared[cells];
        const auto lane = static_cast<std::size_t>(t.thread.x);
        tile[lane] = t.thread.x;
        ctx.shared_store_at(shared, tile[lane]);
        ctx.shared_load_at(shared, tile[lane]);
        ctx.global_store(
            (static_cast<std::uint64_t>(t.block_id.x) * 256 +
             static_cast<std::uint64_t>(t.thread.x)) *
                4,
            4);
      },
      options);

  for (const Finding& f : findings) {
    EXPECT_NE(f.severity, Severity::kError) << f.message;
    EXPECT_NE(f.severity, Severity::kWarning) << f.message;
  }
}

TEST(AnalyzeFindings, DetectsDeadSharedWriteRegion) {
  // Two arrays; the second is written and never read anywhere in the
  // kernel — shared memory spent for nothing, worth a warning.
  KernelConfig config{.name = "dead", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const auto live = config.shared.add<std::int32_t>(32);
  const auto dead = config.shared.add<std::int32_t>(32);
  const std::vector<Finding> findings = analyze_one(
      config,
      [live, dead](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        const auto lane = static_cast<std::size_t>(t.thread.x);
        auto& kept = shared[live][lane];
        kept = t.thread.x;
        ctx.shared_store_at(shared, kept);
        ctx.shared_load_at(shared, kept);
        auto& dropped = shared[dead][lane];
        dropped = t.thread.x;
        ctx.shared_store_at(shared, dropped);
      });

  const Finding* f = find_kind(findings, FindingKind::kDeadSharedWrite);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->slot, 1);  // the second array of the layout
}

TEST(AnalyzeFindings, BarrierDivergenceRequiresDataDependence) {
  // Geometry-affine producer guard (tx < 16): every run has the same
  // writer set, the consumers read only written words — NOT a barrier
  // hazard. The scan kernel's tree guards rely on this distinction.
  KernelConfig config{.name = "geom",
                      .grid = {1, 1, 1},
                      .block = {32, 1, 1},
                      .track_branches = true};
  config.shared.add<std::int32_t>(32);
  const std::vector<KernelIR> irs =
      capture_kernels([&config](std::uint64_t /*seed*/) {
        const vgpu::PhaseFn produce = [](const ThreadCoord& t, LaneCtx& ctx,
                                         SharedMem&) {
          const bool low = t.thread.x < 16;
          ctx.branch(low);
          if (low) {
            ctx.shared_store(static_cast<std::size_t>(t.thread.x) * 4, 4);
          }
        };
        const vgpu::PhaseFn consume = [](const ThreadCoord& t, LaneCtx& ctx,
                                         SharedMem&) {
          ctx.shared_load(static_cast<std::size_t>(t.thread.x % 16) * 4, 4);
        };
        const std::vector<vgpu::PhaseFn> phases = {produce, consume};
        vgpu::execute_kernel(kSpec, config,
                             std::span<const vgpu::PhaseFn>(phases));
      });
  ASSERT_EQ(irs.size(), 1u);
  const std::vector<Finding> findings = analyze_kernel(irs.front());
  EXPECT_EQ(find_kind(findings, FindingKind::kBarrierDivergence), nullptr);
}

TEST(AnalyzeFindings, WarningsGateAndInfoDoesNot) {
  std::vector<Finding> findings(1);
  findings[0] = {.kind = FindingKind::kUncoalesced,
                 .severity = Severity::kWarning,
                 .kernel = "k",
                 .message = "m"};
  EXPECT_EQ(active_findings(findings), 1);
  findings.push_back({.kind = FindingKind::kOccupancy,
                      .severity = Severity::kInfo,
                      .kernel = "k",
                      .message = "m"});
  EXPECT_EQ(active_findings(findings), 1);
}

}  // namespace
}  // namespace fdet::analyze
