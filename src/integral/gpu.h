// Integral-image computation on the virtual GPU in two launches per image:
// a row pass and a column pass, with no transpose.
//
// The paper's recipe (Sec. III-B) is row prefix sum, transpose, prefix
// sum, transpose. Here the row pass follows the strip formulation of
// Ehsan et al. (arXiv 1510.05138): one block per 32-row strip walks the
// strip in 32x32 tiles staged through padded shared memory, and lane r of
// warp 0 scans row r of each tile serially, carrying its running sum from
// tile to tile. The column pass needs no staging at all: thread x walks
// column x top to bottom in place, and the 32 columns of a warp make one
// coalesced transaction per row — the transpose-free arrangement of
// Poostchi et al. (arXiv 1711.01919).
#pragma once

#include <vector>

#include "integral/integral.h"
#include "vgpu/kernel.h"

namespace fdet::integral {

/// Row-wise inclusive prefix sum: out(x, y) = Σ_{i<=x} in(i, y).
/// One thread block per 32-row strip; 2·⌈w/32⌉+1 barrier phases.
vgpu::LaunchCost scan_rows_gpu(const vgpu::DeviceSpec& spec,
                               const img::ImageI32& input,
                               img::ImageI32& output);

/// Column-wise inclusive prefix sum, in place:
/// table(x, y) <- Σ_{j<=y} table(x, j). One thread per column.
vgpu::LaunchCost scan_cols_gpu(const vgpu::DeviceSpec& spec,
                               img::ImageI32& table);

/// Full integral-image pipeline (scan_rows, then scan_cols in place).
struct GpuIntegralResult {
  IntegralImage integral;
  std::vector<vgpu::LaunchCost> launches;  ///< in issue order

  double total_service_cycles() const {
    double total = 0.0;
    for (const auto& launch : launches) {
      total += launch.total_service_cycles;
    }
    return total;
  }
};

GpuIntegralResult integral_gpu(const vgpu::DeviceSpec& spec,
                               const img::ImageU8& input);

}  // namespace fdet::integral
