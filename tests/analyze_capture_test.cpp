// IR capture edge cases (analyze/capture.h): affine recovery, non-affine
// flagging (never miscompiling), multi-phase barrier structure, forced
// branch tracking, data-dependence classification and partial
// participation.
#include "analyze/capture.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "analyze/ir.h"
#include "core/rng.h"
#include "img/image.h"
#include "integral/gpu.h"
#include "vgpu/kernel.h"

namespace fdet::analyze {
namespace {

using vgpu::Dim3;
using vgpu::KernelConfig;
using vgpu::LaneCtx;
using vgpu::SharedMem;
using vgpu::ThreadCoord;

const vgpu::DeviceSpec kSpec;

/// Captures a single launch of `phase` under both default seeds.
template <typename Phase>
KernelIR capture_one(const KernelConfig& config, Phase&& phase) {
  const std::vector<KernelIR> irs =
      capture_kernels([&config, &phase](std::uint64_t /*seed*/) {
        vgpu::execute_kernel(kSpec, config, phase);
      });
  EXPECT_EQ(irs.size(), 1u);
  return irs.front();
}

TEST(AnalyzeCapture, RecoversExactAffineFormAcrossBlockAndThreadAxes) {
  // addr = 4*tx + 512*ty + 64*bx + 8192*by + 12: every coefficient sits on
  // a different axis, so the fit must pin all of them from the sampled
  // corner blocks/warps and verification must hold on every observation.
  const KernelConfig config{.name = "affine",
                            .grid = {5, 4, 1},
                            .block = {16, 8, 1}};
  const KernelIR ir = capture_one(
      config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        const std::uint64_t addr = 4ull * static_cast<unsigned>(t.thread.x) +
                                   512ull * static_cast<unsigned>(t.thread.y) +
                                   64ull * static_cast<unsigned>(t.block_id.x) +
                                   8192ull * static_cast<unsigned>(t.block_id.y) +
                                   12;
        ctx.global_load(addr, 4);
      });

  ASSERT_EQ(ir.phases.size(), 1u);
  ASSERT_EQ(ir.phases[0].global_slots.size(), 1u);
  const AccessPattern& p = ir.phases[0].global_slots[0];
  EXPECT_TRUE(p.affine);
  EXPECT_FALSE(p.data_dependent);
  EXPECT_EQ(p.participation, Participation::kFull);
  EXPECT_EQ(p.form.c0, 12);
  EXPECT_EQ(p.form.tx, 4);
  EXPECT_EQ(p.form.ty, 512);
  EXPECT_EQ(p.form.tz, 0);
  EXPECT_EQ(p.form.bx, 64);
  EXPECT_EQ(p.form.by, 8192);
  EXPECT_EQ(p.form.bz, 0);
  EXPECT_EQ(p.bytes, 4u);
  EXPECT_TRUE(p.load);
  EXPECT_FALSE(p.store);
}

TEST(AnalyzeCapture, NonAffineIndexIsFlaggedNotMiscompiled) {
  // |tx - 8|*4 is geometry-determined but not affine. The contract is that
  // the fit FAILS (affine=false) rather than producing a wrong form that
  // downstream analyses would extrapolate; the observed range must still
  // be exact so bound analyses stay sound.
  const KernelConfig config{.name = "vee",
                            .grid = {1, 1, 1},
                            .block = {32, 1, 1}};
  const KernelIR ir = capture_one(
      config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.global_load(
            4ull * static_cast<unsigned>(std::abs(t.thread.x - 8)), 4);
      });

  ASSERT_EQ(ir.phases[0].global_slots.size(), 1u);
  const AccessPattern& p = ir.phases[0].global_slots[0];
  EXPECT_FALSE(p.affine);
  EXPECT_FALSE(p.data_dependent);  // same values under both seeds
  EXPECT_EQ(p.participation, Participation::kFull);
  EXPECT_EQ(p.min_seen, 0u);                 // tx == 8
  EXPECT_EQ(p.max_seen, 4u * (31 - 8));      // tx == 31
}

TEST(AnalyzeCapture, MultiPhaseKernelKeepsBarrierStructure) {
  // The production row scan over 3 tiles: 2·tiles+1 = 7 phases (stage
  // tile 0, then scan/move per tile) — 6 implicit barriers. The IR must
  // preserve that structure phase by phase: the scan phases work in
  // shared memory only, every other phase moves a tile through global
  // memory.
  constexpr int kTiles = 3;
  img::ImageI32 input(32 * kTiles, 2, 1);
  img::ImageI32 output(32 * kTiles, 2, 0);
  const std::vector<KernelIR> irs =
      capture_kernels([&input, &output](std::uint64_t seed) {
        core::Rng rng(seed);
        for (auto& p : input.pixels()) {
          p = rng.uniform_int(0, 255);
        }
        integral::scan_rows_gpu(kSpec, input, output);
      });

  ASSERT_EQ(irs.size(), 1u);
  const KernelIR& ir = irs.front();
  EXPECT_EQ(ir.config.name, "scan_rows");
  ASSERT_EQ(ir.phases.size(), 2u * kTiles + 1);
  EXPECT_EQ(ir.barrier_count(), 2 * kTiles);
  for (std::size_t i = 0; i < ir.phases.size(); ++i) {
    const bool scan_phase = i % 2 == 1;
    EXPECT_EQ(ir.phases[i].global_slots.empty(), scan_phase)
        << "phase " << i;
    EXPECT_FALSE(ir.phases[i].shared_slots.empty()) << "phase " << i;
  }
}

TEST(AnalyzeCapture, ForcesBranchTrackingWhenConfigHasItOff) {
  // Production configs mostly leave track_branches off (tracing costs).
  // The capture engine's wants_branch_tracking() must force lane traces on
  // for the capture run so divergence is observable anyway — and the IR
  // must record that it did.
  const KernelConfig config{.name = "untracked",
                            .grid = {1, 1, 1},
                            .block = {32, 1, 1},
                            .track_branches = false};
  const KernelIR ir = capture_one(
      config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        ctx.branch(t.thread.x < 16);  // half the warp: divergent
      });

  EXPECT_TRUE(ir.branch_tracking_forced);
  ASSERT_EQ(ir.phases[0].branches.size(), 1u);
  const BranchPattern& b = ir.phases[0].branches[0];
  EXPECT_TRUE(b.divergent_observed);
  EXPECT_FALSE(b.data_dependent);  // the split is geometry, not data
  EXPECT_EQ(b.taken, 16);
}

TEST(AnalyzeCapture, CrossSeedValueChangeIsFlaggedDataDependent) {
  // The address is the seed itself: a perfectly affine form exists within
  // EACH capture (constant per run), but the two runs disagree — exactly
  // the indirect-addressing shape the merge must refuse to extrapolate.
  const KernelConfig config{.name = "indirect",
                            .grid = {1, 1, 1},
                            .block = {32, 1, 1}};
  const std::vector<KernelIR> irs =
      capture_kernels([&config](std::uint64_t seed) {
        vgpu::execute_kernel(
            kSpec, config,
            [seed](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
              ctx.global_load((seed % 97) * 128, 4);
            });
      });

  ASSERT_EQ(irs.size(), 1u);
  const AccessPattern& p = irs.front().phases[0].global_slots[0];
  EXPECT_TRUE(p.data_dependent);
  EXPECT_FALSE(p.affine);
  EXPECT_EQ(irs.front().data_seeds, 2);
}

TEST(AnalyzeCapture, DataDependentParticipationIsClassified) {
  // Which lanes issue the access changes with the seed (threshold on
  // seeded data): participation must be kDataDependent, the input the
  // barrier-divergence analysis keys on.
  KernelConfig config{.name = "gated", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  config.shared.add<std::int32_t>(32);
  const std::vector<KernelIR> irs =
      capture_kernels([&config](std::uint64_t seed) {
        core::Rng rng(seed);
        std::vector<int> data(32);
        for (int& v : data) {
          v = rng.uniform_int(0, 255);
        }
        vgpu::execute_kernel(
            kSpec, config,
            [&data](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
              if (data[static_cast<std::size_t>(t.thread.x)] > 127) {
                ctx.shared_store(static_cast<std::size_t>(t.thread.x) * 4, 4);
              }
            });
      });

  ASSERT_EQ(irs.size(), 1u);
  ASSERT_EQ(irs.front().phases[0].shared_slots.size(), 1u);
  EXPECT_EQ(irs.front().phases[0].shared_slots[0].participation,
            Participation::kDataDependent);
}

TEST(AnalyzeCapture, GeometryStableGuardIsPartialParticipation) {
  // tx < 20 of 32: stable across seeds, so kPartial — analyses may use the
  // observed range but must not assume every lane issues the slot.
  const KernelConfig config{.name = "guarded",
                            .grid = {1, 1, 1},
                            .block = {32, 1, 1}};
  const KernelIR ir = capture_one(
      config, [](const ThreadCoord& t, LaneCtx& ctx, SharedMem&) {
        if (t.thread.x < 20) {
          ctx.global_load(static_cast<std::uint64_t>(t.thread.x) * 4, 4);
        }
      });

  ASSERT_EQ(ir.phases[0].global_slots.size(), 1u);
  const AccessPattern& p = ir.phases[0].global_slots[0];
  EXPECT_EQ(p.participation, Participation::kPartial);
  EXPECT_FALSE(p.data_dependent);
  EXPECT_TRUE(p.affine);  // affine over the lanes that do participate
  EXPECT_EQ(p.form.tx, 4);
}

TEST(AnalyzeCapture, MergeRejectsStructurallyDifferentCaptures) {
  // Drivers must be geometry-deterministic: a driver that changes its
  // launch geometry with the seed cannot be merged.
  EXPECT_THROW(
      capture_kernels([](std::uint64_t seed) {
        const KernelConfig config{
            .name = "unstable",
            .grid = {1, 1, 1},
            .block = {seed % 2 == 0 ? 32 : 64, 1, 1}};
        vgpu::execute_kernel(kSpec, config,
                             [](const ThreadCoord&, LaneCtx& ctx, SharedMem&) {
                               ctx.global_load(0, 4);
                             });
      }),
      core::CheckError);
}

TEST(AnalyzeCapture, LayoutAndWrittenWordsAreRecorded) {
  KernelConfig config{.name = "tiled", .grid = {1, 1, 1}, .block = {32, 1, 1}};
  const auto tile = config.shared.add<std::int32_t>(64);
  const KernelIR ir = capture_one(
      config, [tile](const ThreadCoord& t, LaneCtx& ctx, SharedMem& shared) {
        auto& cell = shared[tile][static_cast<std::size_t>(t.thread.x)];
        cell = t.thread.x;
        ctx.shared_store_at(shared, cell);
      });

  ASSERT_EQ(ir.config.shared.arrays().size(), 1u);
  EXPECT_EQ(ir.config.shared.arrays()[0].bytes, 64u * 4u);
  // Words 0..31 written, 32..63 never touched.
  ASSERT_GE(ir.shared_words_written.size(), 32u);
  EXPECT_TRUE(ir.shared_words_written[0]);
  EXPECT_TRUE(ir.shared_words_written[31]);
  if (ir.shared_words_written.size() > 32) {
    EXPECT_FALSE(ir.shared_words_written[32]);
  }
}

}  // namespace
}  // namespace fdet::analyze
