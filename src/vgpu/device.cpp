#include "vgpu/device.h"

#include <algorithm>

#include "core/check.h"
#include "vgpu/warp.h"

namespace fdet::vgpu {

Occupancy compute_occupancy(const DeviceSpec& spec, int threads_per_block,
                            int shared_per_block, int regs_per_thread) {
  FDET_CHECK(threads_per_block > 0 &&
             threads_per_block <= spec.max_threads_per_block)
      << "threads_per_block=" << threads_per_block;
  FDET_CHECK(shared_per_block >= 0 &&
             shared_per_block <= spec.shared_mem_per_sm)
      << "shared footprint=" << shared_per_block;
  FDET_CHECK(regs_per_thread >= 0);

  const int warps_per_block =
      (threads_per_block + kWarpSize - 1) / kWarpSize;

  int limit = spec.max_blocks_per_sm;
  limit = std::min(limit, spec.max_warps_per_sm / warps_per_block);
  if (shared_per_block > 0) {
    limit = std::min(limit, spec.shared_mem_per_sm / shared_per_block);
  }
  if (regs_per_thread > 0) {
    const int regs_per_block = regs_per_thread * threads_per_block;
    limit = std::min(limit, spec.registers_per_sm / regs_per_block);
  }
  limit = std::max(limit, 0);

  Occupancy occ;
  occ.blocks_per_sm = limit;
  occ.warps_per_block = warps_per_block;
  occ.resident_warps = limit * warps_per_block;
  occ.ratio = static_cast<double>(occ.resident_warps) / spec.max_warps_per_sm;
  return occ;
}

}  // namespace fdet::vgpu
