// Bitwise equality of two launch costs, for the vgpu tests that require
// one launch to reproduce another exactly.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "vgpu/kernel.h"

namespace fdet::vgpu {

/// Bitwise equality of every modeled field of two launch costs.
inline void expect_bit_identical(const LaunchCost& want,
                                 const LaunchCost& got) {
  const std::string& k = got.config.name;
  const PerfCounters& a = want.counters;
  const PerfCounters& b = got.counters;
#define FDET_COST_EQ(field) \
  EXPECT_EQ(a.field, b.field) << k << ": counters." #field
#define FDET_COST_BITS(field)                      \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.field), \
            std::bit_cast<std::uint64_t>(b.field)) \
      << k << ": counters." #field " " << a.field << " vs " << b.field
  FDET_COST_EQ(threads);
  FDET_COST_EQ(warps);
  FDET_COST_EQ(warp_branches);
  FDET_COST_EQ(divergent_branches);
  FDET_COST_EQ(global_read_bytes);
  FDET_COST_EQ(global_write_bytes);
  FDET_COST_EQ(global_transactions);
  FDET_COST_EQ(alu_ops);
  FDET_COST_EQ(fma_ops);
  FDET_COST_EQ(sfu_ops);
  FDET_COST_EQ(shared_accesses);
  FDET_COST_EQ(constant_accesses);
  FDET_COST_EQ(texture_fetches);
  FDET_COST_EQ(bank_conflicts);
  FDET_COST_BITS(lane_issue_cycles);
  FDET_COST_BITS(warp_issue_cycles);
  FDET_COST_BITS(issue_service_cycles);
  FDET_COST_BITS(stall_service_cycles);
  FDET_COST_BITS(stall_base_cycles);
  FDET_COST_BITS(divergence_cycles);
  FDET_COST_BITS(bank_conflict_cycles);
#undef FDET_COST_EQ
#undef FDET_COST_BITS
  ASSERT_EQ(want.block_service_cycles.size(), got.block_service_cycles.size())
      << k;
  for (std::size_t i = 0; i < want.block_service_cycles.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want.block_service_cycles[i]),
              std::bit_cast<std::uint64_t>(got.block_service_cycles[i]))
        << k << ": block " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.total_service_cycles),
            std::bit_cast<std::uint64_t>(got.total_service_cycles))
      << k << ": total_service_cycles";
}

}  // namespace fdet::vgpu
