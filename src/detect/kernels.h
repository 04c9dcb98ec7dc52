// The vGPU kernels of the detection pipeline (paper Fig. 1):
// scaling (texture bilinear), anti-alias filtering (separable binomial),
// cascade evaluation (the paper's core kernel, Sec. III-C) and display.
// Integral-image kernels live in fdet::integral.
#pragma once

#include "haar/encoding.h"
#include "integral/integral.h"
#include "vgpu/kernel.h"

namespace fdet::detect {

/// Bilinear downscale from the full-resolution luma (texture fetches),
/// one thread per destination pixel. 16x16 blocks.
vgpu::LaunchCost scale_kernel(const vgpu::DeviceSpec& spec,
                              const img::ImageU8& source, img::ImageU8& dest,
                              const std::string& name);

/// 3-tap binomial [1 2 1]/4 along one axis (clamped edges). Two of these
/// back-to-back form the paper's filtering stage at level resolution.
vgpu::LaunchCost filter_kernel(const vgpu::DeviceSpec& spec,
                               const img::ImageU8& source, img::ImageU8& dest,
                               bool horizontal, const std::string& name);

struct CascadeKernelOptions {
  /// Block side n (= m): the paper's n x m chunk. Must be >= the window
  /// (24) so the 2n x 2m shared tile of eqs. (1)-(4) covers every window.
  int block_dim = 32;
  /// false = fetch feature records from global memory (ablation).
  bool constant_memory = true;
  /// false = model the uncompressed record layout (ablation: more fetches).
  bool compressed_records = true;
};

/// Output of the cascade kernel for one scale: per-anchor deepest stage
/// reached (the paper's display-stage input) and the final-stage vote sum
/// (used as the detection score for the Fig. 9 curves).
struct CascadeKernelOutput {
  img::ImageI32 depth;
  img::ImageF32 score;
};

/// The cascade evaluation kernel. Phase 1 stages the shared tile exactly
/// per eqs. (1)-(4) — each thread brings 4 integral pixels, 3 of them for
/// neighbouring blocks' windows — with the tile origin shifted by (-1,-1)
/// so inclusive rectangle sums need no boundary branch. Phase 2 walks the
/// boosted cascade for this thread's window, fetching re-encoded feature
/// records from constant memory, and stores the deepest stage reached.
vgpu::LaunchCost cascade_kernel(const vgpu::DeviceSpec& spec,
                                const haar::ConstantBank& bank,
                                const integral::IntegralImage& ii,
                                CascadeKernelOutput& out,
                                const CascadeKernelOptions& options,
                                const std::string& name);

/// Display kernel: scans a scale's depth map and outlines accepted windows
/// (scaled back to frame coordinates) into the overlay image.
vgpu::LaunchCost display_kernel(const vgpu::DeviceSpec& spec,
                                const img::ImageI32& depth, int full_depth,
                                double scale_factor, img::ImageU8& overlay,
                                const std::string& name);

}  // namespace fdet::detect
