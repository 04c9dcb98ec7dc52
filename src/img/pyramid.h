// Image-pyramid construction for fixed-size sliding-window detection.
//
// The paper keeps the detection window constant (24x24, the training
// normalization) and downscales the frame by successive factors instead of
// scaling the Haar features (Sec. III-A, Fig. 2) — this is what keeps the
// GPU thread count high for every face size. This header provides the
// host-side plan; the vGPU scaling and filter kernels in fdet::detect
// build each level from it.
#pragma once

#include <vector>

#include "img/image.h"

namespace fdet::img {

/// One pyramid level: the frame downscaled by `factor` (>= 1).
struct PyramidLevel {
  int index = 0;
  double factor = 1.0;  ///< original_size / level_size
  int width = 0;
  int height = 0;
};

struct PyramidPlan {
  std::vector<PyramidLevel> levels;
};

/// Computes the level geometry for a frame, halting once either dimension
/// drops below `min_size` (the detection window). `step` is the per-level
/// scale ratio (paper-style 1.25).
PyramidPlan plan_pyramid(int width, int height, double step, int min_size);

/// Bilinear downscale of `input` to exactly (width, height).
ImageF32 resize_bilinear(const ImageF32& input, int width, int height);

}  // namespace fdet::img
