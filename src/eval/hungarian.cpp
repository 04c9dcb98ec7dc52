#include "eval/hungarian.h"

#include <limits>

#include "core/check.h"

namespace fdet::eval {

std::vector<int> solve_assignment(
    const std::vector<std::vector<double>>& cost) {
  const int rows = static_cast<int>(cost.size());
  if (rows == 0) {
    return {};
  }
  const int cols = static_cast<int>(cost[0].size());
  for (const auto& row : cost) {
    FDET_CHECK(static_cast<int>(row.size()) == cols)
        << "ragged cost matrix";
  }
  if (cols == 0) {
    return std::vector<int>(static_cast<std::size_t>(rows), -1);
  }

  // Pad to a square matrix; the constant pad cost cannot bias the choice
  // among real entries because exactly |rows - cols| dummies are used.
  const int n = std::max(rows, cols);
  const auto at = [&](int r, int c) -> double {
    return (r < rows && c < cols) ? cost[static_cast<std::size_t>(r)]
                                        [static_cast<std::size_t>(c)]
                                  : 0.0;
  };

  // Kuhn–Munkres with potentials and shortest augmenting paths, 1-indexed.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<double> v(static_cast<std::size_t>(n) + 1, 0.0);
  std::vector<int> p(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> way(static_cast<std::size_t>(n) + 1, 0);

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(static_cast<std::size_t>(n) + 1, kInf);
    std::vector<bool> used(static_cast<std::size_t>(n) + 1, false);
    do {
      used[static_cast<std::size_t>(j0)] = true;
      const int i0 = p[static_cast<std::size_t>(j0)];
      double delta = kInf;
      int j1 = -1;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          continue;
        }
        const double cur = at(i0 - 1, j - 1) - u[static_cast<std::size_t>(i0)] -
                           v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      FDET_CHECK(j1 >= 0) << "augmenting path search failed";
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<std::size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<std::size_t>(j0)];
      p[static_cast<std::size_t>(j0)] = p[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<int> assignment(static_cast<std::size_t>(rows), -1);
  for (int j = 1; j <= n; ++j) {
    const int i = p[static_cast<std::size_t>(j)];
    if (i >= 1 && i <= rows && j <= cols) {
      assignment[static_cast<std::size_t>(i - 1)] = j - 1;
    }
  }
  return assignment;
}

}  // namespace fdet::eval
