// Integral images (summed-area tables) — the memory-access backbone of
// Haar feature evaluation (Viola–Jones): any rectangle sum costs four
// lookups regardless of its size.
//
// Convention: the stored table is *inclusive*, ii(x, y) = Σ pixels in
// [0..x] x [0..y]. IntegralImage::sum() exposes half-open rectangle sums
// and handles the implicit zero row/column.
//
// Values are int32: a 255-valued 8-bit image needs width*height*255 <
// 2^31, i.e. images up to ~8.4 Mpixels (1080p = 2.1 Mpixels) are exact.
#pragma once

#include "img/image.h"

namespace fdet::integral {

class IntegralImage {
 public:
  IntegralImage() = default;

  /// Wraps an inclusive summed-area table (as produced by the builders).
  explicit IntegralImage(img::ImageI32 table) : table_(std::move(table)) {}

  int width() const { return table_.width(); }
  int height() const { return table_.height(); }
  const img::ImageI32& table() const { return table_; }

  /// Sum of pixels in the half-open rectangle [x0,x1) x [y0,y1).
  /// Requires 0 <= x0 <= x1 <= width, same for y.
  std::int64_t sum(int x0, int y0, int x1, int y1) const {
    const auto at = [this](int x, int y) -> std::int64_t {
      return (x < 0 || y < 0) ? 0 : table_(x, y);
    };
    return at(x1 - 1, y1 - 1) - at(x0 - 1, y1 - 1) - at(x1 - 1, y0 - 1) +
           at(x0 - 1, y0 - 1);
  }

  /// Sum over a Rect (half-open, like sum()).
  std::int64_t sum(const img::Rect& r) const {
    return sum(r.x, r.y, r.right(), r.bottom());
  }

 private:
  img::ImageI32 table_;
};

/// Single-pass cache-friendly CPU implementation (running row sum + the
/// value directly above) — the "CPU beats GPU while the image fits in L2"
/// contender from paper Sec. III-B.
IntegralImage integral_cpu(const img::ImageU8& input);

/// Throws core::CheckError if the image is too large for exact int32 sums.
void check_integral_range(const img::ImageU8& input);

}  // namespace fdet::integral
