// Detection grouping (paper Sec. VI-B): overlapping raw windows are merged
// by clustering on the S_eyes predicate (< 0.5 means "same face") and
// averaging each cluster.
#pragma once

#include <vector>

#include "detect/detection.h"

namespace fdet::detect {

/// Groups raw detections: union-find clustering under
/// s_eyes(predicted_eyes_i, predicted_eyes_j) < threshold, then per-cluster
/// averaging of the boxes. The result carries the cluster size in
/// `neighbors` and the maximum member score.
///
/// Cost: every pair of raw detections is compared, O(n^2); a pair whose
/// boxes do not intersect is rejected before the metric is evaluated.
/// Order: clusters are emitted by ascending union-find root, and a root
/// is not always its cluster's smallest index (it depends on the order
/// of the unions), so the output is not sorted by first member.
std::vector<Detection> group_detections(const std::vector<Detection>& raw,
                                        double eyes_threshold = 0.5);

}  // namespace fdet::detect
