#include "eval/accuracy.h"

#include <algorithm>

#include "core/check.h"
#include "eval/hungarian.h"

namespace fdet::eval {

std::vector<ScoredDetection> associate(
    const std::vector<detect::Detection>& detections,
    const std::vector<GroundTruthFace>& ground_truth, double match_threshold) {
  std::vector<ScoredDetection> scored;
  scored.reserve(detections.size());
  for (const auto& d : detections) {
    scored.push_back({d.score, false});
  }
  if (detections.empty() || ground_truth.empty()) {
    return scored;
  }

  // Cost matrix: S_eyes between predicted and annotated eyes; pairs beyond
  // the match threshold are priced prohibitively so the assignment never
  // prefers them over leaving a row unassigned (dummy column cost 0 <
  // kNoMatch).
  constexpr double kNoMatch = 1e6;
  std::vector<std::vector<double>> cost(detections.size());
  for (std::size_t i = 0; i < detections.size(); ++i) {
    cost[i].resize(ground_truth.size());
    const detect::EyePair eyes = detections[i].predicted_eyes();
    for (std::size_t j = 0; j < ground_truth.size(); ++j) {
      const double s = detect::s_eyes(eyes, ground_truth[j].eyes);
      cost[i][j] = (s < match_threshold) ? s : kNoMatch;
    }
  }
  const std::vector<int> assignment = solve_assignment(cost);
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const int j = assignment[i];
    if (j >= 0 && cost[i][static_cast<std::size_t>(j)] < kNoMatch) {
      scored[i].matched = true;
    }
  }
  return scored;
}

std::vector<RocPoint> roc_curve(const std::vector<ScoredDetection>& scored,
                                int total_faces) {
  FDET_CHECK(total_faces > 0);
  std::vector<ScoredDetection> sorted = scored;
  std::sort(sorted.begin(), sorted.end(),
            [](const ScoredDetection& a, const ScoredDetection& b) {
              return a.score > b.score;
            });
  std::vector<RocPoint> curve;
  int tp = 0;
  int fp = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].matched) {
      ++tp;
    } else {
      ++fp;
    }
    // Emit one point per distinct threshold (after ties are absorbed).
    if (i + 1 < sorted.size() && sorted[i + 1].score == sorted[i].score) {
      continue;
    }
    curve.push_back({static_cast<double>(sorted[i].score), fp,
                     static_cast<double>(tp) / total_faces});
  }
  return curve;
}

BenchmarkRun run_mugshot_benchmark(const detect::Pipeline& pipeline,
                                   const facegen::MugshotBenchmark& bench,
                                   double match_threshold) {
  BenchmarkRun run;
  for (const facegen::Mugshot& shot : bench.mugshots) {
    const detect::FrameResult result = pipeline.process(shot.image);
    GroundTruthFace gt;
    gt.eyes = {shot.left_eye_x, shot.left_eye_y, shot.right_eye_x,
               shot.right_eye_y};
    const auto scored =
        associate(result.detections, {gt}, match_threshold);
    run.scored.insert(run.scored.end(), scored.begin(), scored.end());
    ++run.total_faces;
  }
  for (const img::ImageU8& bg : bench.backgrounds) {
    const detect::FrameResult result = pipeline.process(bg);
    for (const auto& d : result.detections) {
      run.scored.push_back({d.score, false});  // anything here is an FP
    }
  }
  return run;
}

}  // namespace fdet::eval
