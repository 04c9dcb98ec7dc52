// LaneCtx's batched shared form: shared_load_at/shared_store_at with
// several elements must record exactly what one call per element records,
// for every consumer of the lane's shared events — the executor's cost,
// the lane's word record, the checker and the capture engine.
#include "vgpu/lane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/capture.h"
#include "launch_cost_equal.h"
#include "vgpu/checker.h"
#include "vgpu/kernel.h"

namespace fdet::vgpu {
namespace {

const DeviceSpec kSpec;

struct Layout {
  SharedLayout layout;
  SharedArray<std::int32_t> tile = layout.add<std::int32_t>(128);
};
const Layout kLayout;

/// Lanes store two words, then load four: their own word (same-lane
/// read), the next lane's (a race or an uninitialized read), a word no
/// lane writes, and one of four words in bank 0 (a 4-way conflict).
/// `batched` reports each group with one call, its twin one call per
/// element. Every lane's shared_words() land in `words`.
PhaseFn twin_phase(bool batched,
                   std::vector<std::vector<std::uint32_t>>& words) {
  return [batched, &words](const ThreadCoord& t, LaneCtx& ctx,
                           SharedMem& shared) {
    const auto tile = shared[kLayout.tile];
    const auto x = static_cast<std::size_t>(t.thread.x);
    auto& mine = tile[x];
    auto& spare = tile[64 + x];
    mine = t.thread.x;
    spare = 1;
    const auto& own = tile[x];
    const auto& next = tile[(x + 1) % 32];
    const auto& unwritten = tile[32 + x];
    const auto& bank0 = tile[x % 4 * 32];
    if (batched) {
      ctx.shared_store_at(shared, mine, spare);
      ctx.shared_load_at(shared, own, next, unwritten, bank0);
    } else {
      ctx.shared_store_at(shared, mine);
      ctx.shared_store_at(shared, spare);
      ctx.shared_load_at(shared, own);
      ctx.shared_load_at(shared, next);
      ctx.shared_load_at(shared, unwritten);
      ctx.shared_load_at(shared, bank0);
    }
    const auto recorded = ctx.shared_words();
    words[static_cast<std::size_t>(t.flat_block() * 32 + t.flat_thread())]
        .assign(recorded.begin(), recorded.end());
  };
}

KernelConfig twin_config() {
  return KernelConfig{.name = "twin",
                      .grid = {2, 1, 1},
                      .block = {32, 1, 1},
                      .shared = kLayout.layout};
}

std::vector<std::vector<std::uint32_t>> no_words() {
  return std::vector<std::vector<std::uint32_t>>(64);
}

std::string describe(const analyze::AccessPattern& p) {
  std::ostringstream out;
  out << p.phase << '/' << p.slot << ' ' << p.shared << p.store << p.load
      << ' ' << p.bytes << ' ' << p.form.to_string() << ' ' << p.affine
      << p.data_dependent << ' ' << p.min_seen << '-' << p.max_seen << ' '
      << static_cast<int>(p.participation) << ' '
      << p.observations;
  return out.str();
}

/// Every field of a captured IR the analyses read, one line per slot.
std::string describe(const analyze::KernelIR& ir) {
  std::ostringstream out;
  for (const analyze::PhaseIR& phase : ir.phases) {
    out << "phase " << phase.index << '\n';
    for (const auto& slot : phase.shared_slots) {
      out << "  shared " << describe(slot) << '\n';
    }
    for (const auto& slot : phase.global_slots) {
      out << "  global " << describe(slot) << '\n';
    }
    for (const auto& branch : phase.branches) {
      out << "  branch " << branch.slot << ' ' << branch.taken << '/'
          << branch.observations << '\n';
    }
  }
  for (const bool written : ir.shared_words_written) {
    out << written;
  }
  out << '\n';
  for (const bool read : ir.shared_words_read) {
    out << read;
  }
  out << '\n' << ir.blocks_sampled << '\n';
  return out.str();
}

TEST(LaneBatch, BatchedCallsRecordWhatSingleCallsRecord) {
  auto batched_words = no_words();
  auto single_words = no_words();
  const LaunchCost batched =
      execute_kernel(kSpec, twin_config(), twin_phase(true, batched_words));
  const LaunchCost single =
      execute_kernel(kSpec, twin_config(), twin_phase(false, single_words));
  expect_bit_identical(single, batched);
  EXPECT_EQ(batched.counters.shared_accesses, 64u * 6);
  EXPECT_GT(batched.counters.bank_conflicts, 0u);

  EXPECT_EQ(batched_words, single_words);
  EXPECT_EQ(batched_words[33],
            (std::vector<std::uint32_t>{1, 65, 1, 2, 33, 32}));
}

TEST(LaneBatch, CheckerSeesTheSameAccessesInTheSameOrder) {
  auto words = no_words();
  std::vector<CheckReport> reports;
  for (const bool batched : {true, false}) {
    CheckScope scope;
    execute_kernel(kSpec, twin_config(), twin_phase(batched, words));
    ASSERT_EQ(scope.reports().size(), 1u);
    reports.push_back(scope.reports()[0]);
  }
  const CheckReport& batched = reports[0];
  const CheckReport& single = reports[1];
  EXPECT_FALSE(single.clean());
  EXPECT_EQ(batched.blocks, single.blocks);
  EXPECT_EQ(batched.phases, single.phases);
  EXPECT_EQ(batched.shared_accesses_checked, single.shared_accesses_checked);
  EXPECT_EQ(batched.global_ops_checked, single.global_ops_checked);
  EXPECT_EQ(batched.suppressed_hazards, single.suppressed_hazards);
  ASSERT_EQ(batched.hazards.size(), single.hazards.size());
  for (std::size_t i = 0; i < single.hazards.size(); ++i) {
    EXPECT_EQ(batched.hazards[i].message, single.hazards[i].message) << i;
  }
}

TEST(LaneBatch, CaptureBuildsTheSameIr) {
  auto words = no_words();
  std::vector<std::string> irs;
  for (const bool batched : {true, false}) {
    const std::vector<analyze::KernelIR> captured =
        analyze::capture_kernels([&](std::uint64_t) {
          execute_kernel(kSpec, twin_config(), twin_phase(batched, words));
        });
    ASSERT_EQ(captured.size(), 1u);
    ASSERT_EQ(captured[0].phases.size(), 1u);
    EXPECT_EQ(captured[0].phases[0].shared_slots.size(), 6u);
    irs.push_back(describe(captured[0]));
  }
  EXPECT_EQ(irs[0], irs[1]);
}

}  // namespace
}  // namespace fdet::vgpu
