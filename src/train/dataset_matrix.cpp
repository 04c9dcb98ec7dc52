#include "train/dataset_matrix.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif

#include "core/check.h"
#include "integral/integral.h"

namespace fdet::train {

DatasetMatrix::DatasetMatrix(int expected_columns) {
  FDET_CHECK(expected_columns >= 0);
  grow(std::max(16, expected_columns));
}

void DatasetMatrix::grow(int new_capacity) {
  FDET_CHECK(new_capacity >= cols_);
  std::vector<std::int32_t> next(
      static_cast<std::size_t>(kRows) * static_cast<std::size_t>(new_capacity),
      0);
  // First grow() runs on an empty matrix: data_.data() is null there, and
  // memcpy's pointer arguments must be non-null even for zero sizes.
  if (cols_ > 0) {
    for (int r = 0; r < kRows; ++r) {
      std::memcpy(next.data() + static_cast<std::size_t>(r) * new_capacity,
                  data_.data() + static_cast<std::size_t>(r) * capacity_,
                  static_cast<std::size_t>(cols_) * sizeof(std::int32_t));
    }
  }
  data_ = std::move(next);
  capacity_ = new_capacity;
}

void DatasetMatrix::add_window(const img::ImageU8& window) {
  FDET_CHECK(window.width() == haar::kWindowSize &&
             window.height() == haar::kWindowSize)
      << "windows must be " << haar::kWindowSize << "x" << haar::kWindowSize;
  if (cols_ == capacity_) {
    grow(std::max(16, capacity_ * 2));
  }
  const integral::IntegralImage ii = integral::integral_cpu(window);
  // Padded layout: row 0 and column 0 of the 25x25 grid stay zero; entry
  // (gx, gy) with gx,gy >= 1 holds the inclusive integral at (gx-1, gy-1).
  for (int gy = 0; gy < kGrid; ++gy) {
    for (int gx = 0; gx < kGrid; ++gx) {
      const std::int32_t value =
          (gx == 0 || gy == 0)
              ? 0
              : ii.table()(gx - 1, gy - 1);
      data_[static_cast<std::size_t>(row_index(gx, gy)) * capacity_ + cols_] =
          value;
    }
  }
  ++cols_;
}

std::vector<DatasetMatrix::Term> DatasetMatrix::feature_terms(
    const haar::HaarFeature& feature) {
  FDET_CHECK(feature.valid());
  const auto d = feature.decompose();
  // Rect [x, x+w) x [y, y+h) over the padded integral:
  //   sum = I(x+w, y+h) - I(x, y+h) - I(x+w, y) + I(x, y)
  // Merge coincident corners (adjacent rects share edges).
  std::vector<Term> terms;
  const auto add = [&terms](int row, std::int32_t coeff) {
    for (Term& t : terms) {
      if (t.row == row) {
        t.coeff += coeff;
        return;
      }
    }
    terms.push_back({row, coeff});
  };
  for (int i = 0; i < d.count; ++i) {
    const haar::RectTerm& r = d.rects[static_cast<std::size_t>(i)];
    const auto w = static_cast<std::int32_t>(r.weight);
    add(row_index(r.x + r.w, r.y + r.h), +w);
    add(row_index(r.x, r.y + r.h), -w);
    add(row_index(r.x + r.w, r.y), -w);
    add(row_index(r.x, r.y), +w);
  }
  std::erase_if(terms, [](const Term& t) { return t.coeff == 0; });
  return terms;
}

void DatasetMatrix::evaluate_terms(std::span<const Term> terms,
                                   std::span<std::int32_t> out) const {
  FDET_CHECK(static_cast<int>(out.size()) == cols_)
      << "out size " << out.size() << " vs " << cols_ << " columns";
  std::fill(out.begin(), out.end(), 0);
  const int n = cols_;
  for (const Term& term : terms) {
    const std::int32_t* src =
        data_.data() + static_cast<std::size_t>(term.row) * capacity_;
    std::int32_t* dst = out.data();
    const std::int32_t c = term.coeff;
    int j = 0;
#if defined(__SSE4_1__)
    // The paper's SSE4 inner loop: 4-wide multiply-accumulate over the row.
    const __m128i vc = _mm_set1_epi32(c);
    for (; j + 4 <= n; j += 4) {
      const __m128i row_vals =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
      const __m128i acc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + j));
      const __m128i prod = _mm_mullo_epi32(row_vals, vc);  // SSE4.1
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j),
                       _mm_add_epi32(acc, prod));
    }
#endif
    for (; j < n; ++j) {
      dst[j] += c * src[j];
    }
  }
}

}  // namespace fdet::train
