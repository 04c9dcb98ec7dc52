// Binary PPM output for the examples (the reproduction's stand-in for the
// paper's CUDA-OpenGL display path).
#pragma once

#include <string>

#include "img/image.h"

namespace fdet::img {

/// Writes an RGB triplet of planes as binary PPM (P6).
void write_ppm(const std::string& path, const ImageU8& r, const ImageU8& g,
               const ImageU8& b);

}  // namespace fdet::img
