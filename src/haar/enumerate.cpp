#include "haar/enumerate.h"

#include <algorithm>

#include "core/check.h"
#include "core/rng.h"

namespace fdet::haar {
namespace {

/// Orientations to visit for a family (edge/line have two).
int orientation_count(HaarType type) {
  return (type == HaarType::kEdge || type == HaarType::kLine) ? 2 : 1;
}

}  // namespace

std::int64_t for_each_feature(
    HaarType type, const EnumerationGrid& grid,
    const std::function<void(const HaarFeature&)>& sink) {
  FDET_CHECK(grid.position_step >= 1 && grid.cell_step >= 1 &&
             grid.min_cell >= 1);
  std::int64_t count = 0;
  for (int orientation = 0; orientation < orientation_count(type);
       ++orientation) {
    for (int cw = grid.min_cell; cw <= kWindowSize; cw += grid.cell_step) {
      for (int ch = grid.min_cell; ch <= kWindowSize; ch += grid.cell_step) {
        HaarFeature probe{type, orientation == 1, 0, 0,
                          static_cast<std::uint8_t>(cw),
                          static_cast<std::uint8_t>(ch)};
        const int max_x = kWindowSize - probe.extent_w();
        const int max_y = kWindowSize - probe.extent_h();
        if (max_x < 0 || max_y < 0) {
          continue;
        }
        for (int y = 0; y <= max_y; y += grid.position_step) {
          for (int x = 0; x <= max_x; x += grid.position_step) {
            probe.x = static_cast<std::uint8_t>(x);
            probe.y = static_cast<std::uint8_t>(y);
            sink(probe);
            ++count;
          }
        }
      }
    }
  }
  return count;
}

std::int64_t count_features(HaarType type, const EnumerationGrid& grid) {
  return for_each_feature(type, grid, [](const HaarFeature&) {});
}

std::vector<HaarFeature> sample_features(HaarType type, int target,
                                         std::uint64_t seed) {
  FDET_CHECK(target > 0);
  const std::int64_t total = count_features(type, EnumerationGrid{});
  const double keep = std::min(1.0, static_cast<double>(target) /
                                        static_cast<double>(total));
  core::Rng rng(core::hash_combine(seed, static_cast<std::uint64_t>(type)));
  std::vector<HaarFeature> sampled;
  sampled.reserve(static_cast<std::size_t>(target) + 64);
  for_each_feature(type, EnumerationGrid{}, [&](const HaarFeature& f) {
    // Always keep coarse features (cells >= 4 px): they carry the global
    // face structure that early cascade stages rely on.
    const bool coarse = f.cw >= 4 && f.ch >= 4;
    if (rng.bernoulli(coarse ? std::min(1.0, keep * 4.0) : keep)) {
      sampled.push_back(f);
    }
  });
  return sampled;
}

}  // namespace fdet::haar
