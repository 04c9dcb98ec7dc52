#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/check.h"
#include "core/rng.h"
#include "eval/accuracy.h"
#include "eval/hungarian.h"

namespace fdet::eval {
namespace {

// --- Hungarian ---------------------------------------------------------

/// Total cost of an assignment as solve_assignment returns it (rows left
/// unassigned, -1, cost nothing).
double assignment_cost(const std::vector<std::vector<double>>& cost,
                       const std::vector<int>& assignment) {
  FDET_CHECK(assignment.size() == cost.size());
  double total = 0.0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    if (assignment[i] >= 0) {
      total += cost[i][static_cast<std::size_t>(assignment[i])];
    }
  }
  return total;
}

double brute_force_best(const std::vector<std::vector<double>>& cost) {
  const int rows = static_cast<int>(cost.size());
  const int cols = static_cast<int>(cost[0].size());
  std::vector<int> perm(static_cast<std::size_t>(cols));
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e30;
  do {
    double total = 0.0;
    for (int i = 0; i < std::min(rows, cols); ++i) {
      total += cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    }
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  // For rows > cols, iterate row subsets via transposition (not needed for
  // our test sizes where rows <= cols after transpose).
  return best;
}

TEST(Hungarian, SolvesKnownSquareInstance) {
  const std::vector<std::vector<double>> cost{
      {4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto assignment = solve_assignment(cost);
  EXPECT_DOUBLE_EQ(assignment_cost(cost, assignment), 5.0);  // 1 + 2 + 2
  // Must be a permutation.
  std::set<int> used(assignment.begin(), assignment.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(Hungarian, MatchesBruteForceOnRandomSquares) {
  core::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = rng.uniform_int(1, 6);
    std::vector<std::vector<double>> cost(static_cast<std::size_t>(n));
    for (auto& row : cost) {
      row.resize(static_cast<std::size_t>(n));
      for (auto& c : row) {
        c = rng.uniform(0.0, 10.0);
      }
    }
    const auto assignment = solve_assignment(cost);
    EXPECT_NEAR(assignment_cost(cost, assignment), brute_force_best(cost),
                1e-9)
        << "n=" << n << " trial=" << trial;
  }
}

TEST(Hungarian, RectangularWideAssignsEveryRow) {
  // 2 rows, 4 columns: every row gets its cheapest feasible column.
  const std::vector<std::vector<double>> cost{{9, 1, 9, 9}, {9, 9, 1, 9}};
  const auto assignment = solve_assignment(cost);
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 2);
}

TEST(Hungarian, RectangularTallLeavesRowsUnassigned) {
  // 3 rows, 1 column: only one row can win it (the cheapest).
  const std::vector<std::vector<double>> cost{{5}, {1}, {3}};
  const auto assignment = solve_assignment(cost);
  EXPECT_EQ(assignment[1], 0);
  EXPECT_EQ(assignment[0], -1);
  EXPECT_EQ(assignment[2], -1);
  EXPECT_DOUBLE_EQ(assignment_cost(cost, assignment), 1.0);
}

TEST(Hungarian, HandlesEmptyAndDegenerateInputs) {
  EXPECT_TRUE(solve_assignment({}).empty());
  const auto one = solve_assignment({{7.0}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0);
}

TEST(Hungarian, RejectsRaggedMatrix) {
  EXPECT_THROW(solve_assignment({{1.0, 2.0}, {3.0}}), core::CheckError);
}

// --- Association -------------------------------------------------------

detect::Detection det_at(int x, int y, int size, float score) {
  return {{x, y, size, size}, score, 1, 0};
}

GroundTruthFace gt_for(const detect::Detection& d) {
  return {d.predicted_eyes()};
}

TEST(Associate, PerfectDetectionMatches) {
  const auto d = det_at(100, 100, 48, 3.0f);
  const auto scored = associate({d}, {gt_for(d)});
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_TRUE(scored[0].matched);
  EXPECT_FLOAT_EQ(scored[0].score, 3.0f);
}

TEST(Associate, FarDetectionDoesNotMatch) {
  const auto d = det_at(100, 100, 48, 3.0f);
  const auto far = det_at(400, 400, 48, 1.0f);
  const auto scored = associate({far}, {gt_for(d)});
  EXPECT_FALSE(scored[0].matched);
}

TEST(Associate, OneGtMatchesAtMostOneDetection) {
  const auto d = det_at(100, 100, 48, 3.0f);
  const auto near = det_at(102, 100, 48, 1.0f);
  const auto scored = associate({d, near}, {gt_for(d)});
  const int matches = scored[0].matched + scored[1].matched;
  EXPECT_EQ(matches, 1);
}

TEST(Associate, HungarianPicksGloballyBestPairs) {
  // d1 is close to g1 and g2; d2 only to g1. Greedy (d1 -> g1) would leave
  // d2 unmatched; the Hungarian assignment matches both.
  const auto g1 = det_at(100, 100, 48, 0.0f);
  const auto g2 = det_at(104, 100, 48, 0.0f);
  const auto d1 = det_at(102, 100, 48, 1.0f);  // between both
  const auto d2 = det_at(99, 100, 48, 1.0f);   // near g1 only
  const auto scored = associate({d1, d2}, {gt_for(g1), gt_for(g2)});
  EXPECT_TRUE(scored[0].matched);
  EXPECT_TRUE(scored[1].matched);
}

TEST(Associate, EmptyInputsAreHandled) {
  EXPECT_TRUE(associate({}, {}).empty());
  const auto d = det_at(0, 0, 48, 1.0f);
  const auto scored = associate({d}, {});
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_FALSE(scored[0].matched);
}

// --- ROC curve ---------------------------------------------------------

TEST(RocCurve, PerfectDetectorReachesFullTprAtZeroFp) {
  std::vector<ScoredDetection> scored{{5.0f, true}, {4.0f, true}};
  const auto curve = roc_curve(scored, 2);
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.back().false_positives, 0);
  EXPECT_DOUBLE_EQ(curve.back().true_positive_rate, 1.0);
}

TEST(RocCurve, TprAndFpAreMonotoneAlongTheSweep) {
  core::Rng rng(9);
  std::vector<ScoredDetection> scored;
  for (int i = 0; i < 200; ++i) {
    scored.push_back({static_cast<float>(rng.uniform(0.0, 10.0)),
                      rng.bernoulli(0.5)});
  }
  const auto curve = roc_curve(scored, 120);
  double prev_tpr = 0.0;
  int prev_fp = 0;
  double prev_thr = 1e30;
  for (const auto& p : curve) {
    EXPECT_GE(p.true_positive_rate, prev_tpr);
    EXPECT_GE(p.false_positives, prev_fp);
    EXPECT_LT(p.threshold, prev_thr);
    prev_tpr = p.true_positive_rate;
    prev_fp = p.false_positives;
    prev_thr = p.threshold;
  }
}

TEST(RocCurve, HigherScoredMatchesDominateTheCurve) {
  // Detector A scores matches above FPs; detector B the reverse.
  std::vector<ScoredDetection> good{{5.0f, true}, {4.0f, true}, {1.0f, false}};
  std::vector<ScoredDetection> bad{{5.0f, false}, {4.0f, true}, {1.0f, true}};
  // Point by point, A finds at least as many faces for no more FPs, and
  // reaches full TPR before its first false positive.
  const auto a = roc_curve(good, 2);
  const auto b = roc_curve(bad, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].true_positive_rate, b[i].true_positive_rate) << i;
    EXPECT_LE(a[i].false_positives, b[i].false_positives) << i;
  }
  EXPECT_DOUBLE_EQ(a[1].true_positive_rate, 1.0);
  EXPECT_EQ(a[1].false_positives, 0);
  EXPECT_EQ(b[0].false_positives, 1);
}

TEST(RocCurve, RejectsZeroFaces) {
  EXPECT_THROW(roc_curve({}, 0), core::CheckError);
}

}  // namespace
}  // namespace fdet::eval
