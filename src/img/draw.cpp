#include "img/draw.h"

#include <algorithm>

namespace fdet::img {
namespace {

void hline(ImageU8& image, int x0, int x1, int y, std::uint8_t value) {
  if (y < 0 || y >= image.height()) {
    return;
  }
  x0 = std::max(x0, 0);
  x1 = std::min(x1, image.width());
  for (int x = x0; x < x1; ++x) {
    image(x, y) = value;
  }
}

void vline(ImageU8& image, int x, int y0, int y1, std::uint8_t value) {
  if (x < 0 || x >= image.width()) {
    return;
  }
  y0 = std::max(y0, 0);
  y1 = std::min(y1, image.height());
  for (int y = y0; y < y1; ++y) {
    image(x, y) = value;
  }
}

}  // namespace

void draw_rect(ImageU8& image, const Rect& rect, std::uint8_t value,
               int thickness) {
  for (int t = 0; t < thickness; ++t) {
    hline(image, rect.x + t, rect.right() - t, rect.y + t, value);
    hline(image, rect.x + t, rect.right() - t, rect.bottom() - 1 - t, value);
    vline(image, rect.x + t, rect.y + t, rect.bottom() - t, value);
    vline(image, rect.right() - 1 - t, rect.y + t, rect.bottom() - t, value);
  }
}

}  // namespace fdet::img
