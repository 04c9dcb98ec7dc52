#include "img/pyramid.h"

#include <cmath>

#include "core/check.h"
#include "img/texture.h"

namespace fdet::img {

PyramidPlan plan_pyramid(int width, int height, double step, int min_size) {
  FDET_CHECK(width > 0 && height > 0);
  FDET_CHECK(step > 1.0) << "pyramid step must shrink: " << step;
  FDET_CHECK(min_size > 0);

  PyramidPlan plan;
  double factor = 1.0;
  for (int index = 0;; ++index, factor *= step) {
    const int w = static_cast<int>(std::lround(width / factor));
    const int h = static_cast<int>(std::lround(height / factor));
    if (w < min_size || h < min_size) {
      break;
    }
    plan.levels.push_back({index, factor, w, h});
  }
  FDET_CHECK(!plan.levels.empty())
      << "frame " << width << "x" << height << " smaller than window";
  return plan;
}

ImageF32 resize_bilinear(const ImageF32& input, int width, int height) {
  FDET_CHECK(width > 0 && height > 0);
  ImageF32 output(width, height);
  const BilinearSampler<float> sampler(input);
  const float sx = static_cast<float>(input.width()) / static_cast<float>(width);
  const float sy =
      static_cast<float>(input.height()) / static_cast<float>(height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      // Sample at the center of the destination pixel mapped to source.
      output(x, y) = sampler.sample((static_cast<float>(x) + 0.5f) * sx,
                                    (static_cast<float>(y) + 0.5f) * sy);
    }
  }
  return output;
}

}  // namespace fdet::img
