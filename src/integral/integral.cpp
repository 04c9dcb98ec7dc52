#include "integral/integral.h"

#include "core/check.h"

namespace fdet::integral {

void check_integral_range(const img::ImageU8& input) {
  const std::int64_t worst =
      static_cast<std::int64_t>(input.width()) * input.height() * 255;
  FDET_CHECK(worst < (std::int64_t{1} << 31))
      << input.width() << "x" << input.height()
      << " exceeds exact int32 integral range";
}

IntegralImage integral_cpu(const img::ImageU8& input) {
  check_integral_range(input);
  const int w = input.width();
  const int h = input.height();

  img::ImageI32 table(w, h);
  // First row: plain prefix sum.
  {
    std::int32_t acc = 0;
    for (int x = 0; x < w; ++x) {
      acc += input(x, 0);
      table(x, 0) = acc;
    }
  }
  // Remaining rows stream sequentially: ii(x,y) = row_acc + ii(x,y-1).
  for (int y = 1; y < h; ++y) {
    std::int32_t row_acc = 0;
    const auto above = table.row(y - 1);
    auto current = table.row(y);
    const auto pixels = input.row(y);
    for (int x = 0; x < w; ++x) {
      row_acc += pixels[static_cast<std::size_t>(x)];
      current[static_cast<std::size_t>(x)] =
          row_acc + above[static_cast<std::size_t>(x)];
    }
  }
  return IntegralImage(std::move(table));
}

}  // namespace fdet::integral
