// Accuracy evaluation (paper Sec. VI-B): detections are associated with
// ground-truth annotations by the Hungarian algorithm under the S_eyes
// cost; matches are true positives, the rest false positives, and TPR/FP
// curves are traced by sweeping a threshold over the detection score.
#pragma once

#include <vector>

#include "detect/detection.h"
#include "detect/pipeline.h"
#include "facegen/dataset.h"

namespace fdet::eval {

/// A detection's evaluation outcome after association.
struct ScoredDetection {
  float score = 0.0f;
  bool matched = false;  ///< associated to a ground-truth face
};

/// Ground truth expressed as annotated eye pairs.
struct GroundTruthFace {
  detect::EyePair eyes;
};

/// Associates detections to ground truth: Hungarian assignment on the
/// S_eyes cost, accepting pairs with S_eyes < `match_threshold`. Each
/// ground-truth face matches at most one detection.
std::vector<ScoredDetection> associate(
    const std::vector<detect::Detection>& detections,
    const std::vector<GroundTruthFace>& ground_truth,
    double match_threshold = 1.0);

/// One point of the TPR/FP curve.
struct RocPoint {
  double threshold = 0.0;
  int false_positives = 0;
  double true_positive_rate = 0.0;
};

/// Builds the curve by sweeping the score threshold over all observed
/// scores (descending), as in Fig. 9: x = absolute FP count, y = TPR.
std::vector<RocPoint> roc_curve(const std::vector<ScoredDetection>& scored,
                                int total_faces);

/// Runs a pipeline over the mugshot benchmark (faces + pure backgrounds)
/// and returns the scored detections plus the face total.
struct BenchmarkRun {
  std::vector<ScoredDetection> scored;
  int total_faces = 0;
};
BenchmarkRun run_mugshot_benchmark(const detect::Pipeline& pipeline,
                                   const facegen::MugshotBenchmark& bench,
                                   double match_threshold = 1.0);

}  // namespace fdet::eval
