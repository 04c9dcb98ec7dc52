// Exhaustive enumeration of the Haar-feature hypothesis space inside the
// 24x24 training window — the outer loop of the boosting trainer and the
// subject of paper Table I.
//
// The paper reports 55660 / 31878 / 3969 / 12100 combinations for the four
// families but does not state its enumeration constraints (grid strides,
// minimum cell sizes); those exact counts are not derivable from the
// standard full-grid enumeration, which this module implements (every
// anchor, every cell size that fits). The Table I bench prints both our
// counts and the paper's constants side by side; the training benches use
// the paper's totals for workload sizing (see kPaperCombinations).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "haar/feature.h"

namespace fdet::haar {

/// Enumeration constraints. Defaults = the classic full grid.
struct EnumerationGrid {
  int position_step = 1;  ///< stride of the (x, y) anchor grid
  int cell_step = 1;      ///< stride of the (cw, ch) cell-size grid
  int min_cell = 1;       ///< minimum cell side
};

/// Invokes `sink` for every valid feature of `type` under `grid`.
/// Returns the number of features visited.
std::int64_t for_each_feature(HaarType type, const EnumerationGrid& grid,
                              const std::function<void(const HaarFeature&)>& sink);

/// Counts without materializing.
std::int64_t count_features(HaarType type, const EnumerationGrid& grid = {});

/// Deterministically subsamples the full grid to ~`target` features of the
/// given type (used to keep training tractable); always includes coarse
/// large-cell features.
std::vector<HaarFeature> sample_features(HaarType type, int target,
                                         std::uint64_t seed);

/// Paper Table I combination counts (used for workload sizing).
struct PaperCombinations {
  std::int64_t edge = 55660;
  std::int64_t line = 31878;
  std::int64_t center_surround = 3969;
  std::int64_t diagonal = 12100;

  std::int64_t total() const {
    return edge + line + center_surround + diagonal;
  }
};
inline constexpr PaperCombinations kPaperCombinations{};

}  // namespace fdet::haar
