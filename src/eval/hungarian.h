// Hungarian algorithm (Kuhn–Munkres) for minimum-cost assignment — the
// paper associates detection windows with ground-truth annotations using
// it, with S_eyes as the cost function (Sec. VI-B).
#pragma once

#include <vector>

namespace fdet::eval {

/// Solves min-cost assignment for an n x m cost matrix (rows = workers,
/// columns = jobs; rectangular matrices are padded internally). Returns
/// one entry per row: the assigned column, or -1 when n > m left the row
/// unassigned. Complexity O(max(n,m)^3).
std::vector<int> solve_assignment(
    const std::vector<std::vector<double>>& cost);

}  // namespace fdet::eval
