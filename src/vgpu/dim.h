// Grid/block/thread coordinates for the virtual GPU, mirroring the CUDA
// execution hierarchy (grid of blocks, block of threads, warps of 32 lanes).
#pragma once

#include <cstdint>

namespace fdet::vgpu {

/// CUDA-style 3-component extent. Components must be >= 1.
struct Dim3 {
  int x = 1;
  int y = 1;
  int z = 1;

  constexpr std::int64_t count() const {
    return static_cast<std::int64_t>(x) * y * z;
  }
  constexpr bool operator==(const Dim3&) const = default;
};

/// Identity of one thread during kernel execution.
struct ThreadCoord {
  Dim3 grid;     ///< gridDim
  Dim3 block;    ///< blockDim
  Dim3 block_id; ///< blockIdx
  Dim3 thread;   ///< threadIdx

  /// Linear thread index within the block (x fastest), as CUDA defines it;
  /// warp membership is flat_thread() / kWarpSize (vgpu/warp.h).
  constexpr int flat_thread() const {
    return thread.x + block.x * (thread.y + block.y * thread.z);
  }

  /// Linear block index within the grid (x fastest).
  constexpr std::int64_t flat_block() const {
    return block_id.x +
           static_cast<std::int64_t>(grid.x) *
               (block_id.y + static_cast<std::int64_t>(grid.y) * block_id.z);
  }
};

}  // namespace fdet::vgpu
