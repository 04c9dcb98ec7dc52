// Host-side rectangle drawing (reference for the vGPU display kernel).
#pragma once

#include "img/image.h"

namespace fdet::img {

/// Draws the outline of `rect` with `value`, `thickness` pixels wide
/// (growing inward), clipping to the image.
void draw_rect(ImageU8& image, const Rect& rect, std::uint8_t value,
               int thickness);

}  // namespace fdet::img
