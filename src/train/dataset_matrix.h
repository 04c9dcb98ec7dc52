// The training-set matrix of paper Sec. IV / Fig. 4.
//
// Every 24x24 training window is stored as one column holding its
// *precomputed integral image*, so any Haar rectangle sum is a fixed
// linear combination of rows, and evaluating one feature hypothesis over
// the entire training set vectorizes into contiguous row arithmetic:
//
//   eval = -1*(r0 + r1 - r2 - r3) + 2*(r4 + r5 - r6 - r7)   (paper Fig. 4)
//
// Differences from the paper, documented in DESIGN.md:
//  * rows are stored contiguously (row-major) so the SSE4 path streams
//    unit-stride; the paper's Eigen matrix is column-major with strided
//    row access;
//  * the integral is padded with a zero row/column (25x25 = 625 rows
//    rather than 576) so rectangles anchored at x=0/y=0 need no branch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "haar/feature.h"
#include "img/image.h"

namespace fdet::train {

class DatasetMatrix {
 public:
  /// Rows of the padded integral representation (25 x 25).
  static constexpr int kGrid = haar::kWindowSize + 1;
  static constexpr int kRows = kGrid * kGrid;

  DatasetMatrix() = default;

  /// Reserves storage for `expected_columns` windows.
  explicit DatasetMatrix(int expected_columns);

  /// Appends one 24x24 window (computes its padded integral column).
  void add_window(const img::ImageU8& window);

  int cols() const { return cols_; }

  /// Row index of padded-integral entry (gx, gy), gx/gy in [0, 24].
  static constexpr int row_index(int gx, int gy) { return gy * kGrid + gx; }

  /// The (row, coefficient) terms of a feature: response(col) =
  /// Σ coeff_k * row_k[col]. At most 16 terms (4 rects x 4 corners).
  struct Term {
    int row;
    std::int32_t coeff;
  };
  static std::vector<Term> feature_terms(const haar::HaarFeature& feature);

  /// Evaluates one feature hypothesis, given as its feature_terms(), over
  /// every column: out[j] = feature response on window j. out.size() must
  /// equal cols(). Uses SSE4.1 when available (the paper's data-parallel
  /// inner loop).
  void evaluate_terms(std::span<const Term> terms,
                      std::span<std::int32_t> out) const;

 private:
  int cols_ = 0;
  int capacity_ = 0;
  // Row-major: row r occupies [r * capacity_, r * capacity_ + cols_).
  std::vector<std::int32_t> data_;

  void grow(int new_capacity);
};

}  // namespace fdet::train
