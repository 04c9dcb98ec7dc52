// Pure helpers behind the benchmark's reported numbers: the tail
// percentile rule, the outcome ratios and the memo-hit ratio. Kept free of
// the fdet libraries so tests/stats_test.cpp can pin them on hand-computed
// inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank median (the lower middle element for an even count);
/// 0 for an empty sample.
inline double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

/// The tail of a latency sample: the highest percentile that still has at
/// least `min_beyond` samples strictly above its rank. With n sorted
/// samples that is rank n - 1 - min_beyond, i.e. percentile
/// 100 * (n - min_beyond) / n. A sample too small to have such a rank
/// reports its median (percentile 50) instead of an unsupported maximum.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};

inline Tail tail(std::vector<double> samples, std::size_t min_beyond = 10) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n <= min_beyond) {
    out.value = samples[(n - 1) / 2];
    return out;
  }
  const std::size_t rank = n - 1 - min_beyond;
  out.value = samples[rank];
  out.percentile =
      100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return out;
}

/// Terminal outcomes of the frames one workload offered.
struct Outcomes {
  int offered = 0;   ///< frames the workload asked the system to serve
  int served = 0;    ///< ok + degraded
  int late = 0;      ///< served, but past the deadline
  int failed = 0;    ///< threw or quarantined
  int dropped = 0;   ///< shed or dropped under backpressure
  int rejected = 0;  ///< turned away by admission control
};

/// Frames that missed the deadline — late, failed, dropped and rejected
/// frames all count — over frames offered.
inline double miss_ratio(const Outcomes& o) {
  if (o.offered <= 0) {
    return 0.0;
  }
  return static_cast<double>(o.late + o.failed + o.dropped + o.rejected) /
         o.offered;
}

/// Frames not served at all (failed, dropped, rejected) over frames
/// offered.
inline double failed_ratio(const Outcomes& o) {
  if (o.offered <= 0) {
    return 0.0;
  }
  return static_cast<double>(o.failed + o.dropped + o.rejected) / o.offered;
}

/// Share of detection requests answered without running the pipeline:
/// (requests - pipeline runs) / requests, clamped to [0, 1].
inline double memo_hit_ratio(long long requests, long long pipeline_runs) {
  if (requests <= 0) {
    return 0.0;
  }
  const double ratio = static_cast<double>(requests - pipeline_runs) /
                       static_cast<double>(requests);
  return std::clamp(ratio, 0.0, 1.0);
}

}  // namespace perfbench
