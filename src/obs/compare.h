// Statistical baseline comparison for benchmark run records: the gating
// half of the observability loop.
//
// compare_runs() walks every metric series of a baseline RunRecord,
// matches it against the current record by (name, labels) identity, and
// issues one of the paper-evaluation verdicts:
//
//   improved    median shifted beyond the noise band, in the good
//               direction for this metric
//   unchanged   median shift within the noise band
//   regressed   shift beyond the band in the bad direction — or any
//               shift of a direction-neutral (exact) metric
//   missing     series present in the baseline, absent from the run
//   new         series only the current run has (informational)
//
// The noise band is max(3 × the repeats' median absolute deviation,
// float-printing dust). A series whose samples agree on both sides —
// every modeled-clock series, since the virtual GPU is deterministic —
// therefore gets the dust band alone, and any drift beyond it fails the
// gate in either direction: an improvement there means behaviour changed
// and the committed record must be re-pinned. The verdict still names
// the direction. Host-clock series stay out of the records; perfbench
// measures that clock with alternating pairs.
// `fdet_report diff` is the one gate built on this: it exits 2 when
// CompareReport::ok() is false, whatever kind of record it compares.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/runrecord.h"

namespace fdet::obs {

enum class Verdict { kImproved, kUnchanged, kRegressed, kMissing, kNew };

/// Lower-case verdict label ("improved", ...), stable for reports/tests.
const char* verdict_name(Verdict verdict);

/// Which way a metric is allowed to move without being a regression.
enum class Direction {
  kLowerIsBetter,   ///< latencies, makespans, deadline violations
  kHigherIsBetter,  ///< efficiencies, throughputs, speedups, TPR
  kExact,           ///< deterministic quantities; any drift regresses
};

/// Infers the direction from the metric name (substring conventions used
/// across src/obs and the bench binaries: "_ms"/"latency"/"makespan"/
/// "cycles"/"conflict"/"transaction" are lower-is-better, "efficiency"/
/// "throughput"/"speedup"/"tpr"/"occupancy" higher). Unrecognized names
/// are kExact.
Direction metric_direction(std::string_view name);

/// Float-printing dust, relative to max(1, |baseline median|): the slack
/// that lets a deterministic value printed, re-parsed or summed in
/// another order by another compiler still compare equal.
inline constexpr double kCompareDust = 1e-9;

/// Noise band as a multiple of max(baseline MAD, current MAD).
inline constexpr double kCompareMadMultiplier = 3.0;

struct MetricVerdict {
  std::string name;
  Labels labels;
  Verdict verdict = Verdict::kUnchanged;
  Direction direction = Direction::kExact;
  double baseline_median = 0.0;
  double current_median = 0.0;
  /// (current - baseline) / |baseline|; 0 when the baseline median is 0
  /// or either side is non-finite.
  double relative_change = 0.0;
  double band = 0.0;  ///< absolute tolerance that was applied
  /// Every sample on both sides agreed to within the dust: any verdict
  /// other than unchanged fails the gate, an improvement included.
  bool exact = false;

  /// True when this verdict alone fails the gate.
  bool fails() const {
    return verdict == Verdict::kRegressed || verdict == Verdict::kMissing ||
           (exact && verdict == Verdict::kImproved);
  }
};

struct CompareReport {
  /// Sorted most-severe first: regressed, missing, improved, new,
  /// unchanged; by (name, labels) within a severity class.
  std::vector<MetricVerdict> verdicts;
  int improved = 0;
  int unchanged = 0;
  int regressed = 0;
  int missing = 0;
  int added = 0;
  int drifted = 0;  ///< improved verdicts on exact series

  /// The gate: true when nothing regressed, nothing went missing and no
  /// exact series drifted.
  bool ok() const { return regressed == 0 && missing == 0 && drifted == 0; }
};

CompareReport compare_runs(const RunRecord& baseline,
                           const RunRecord& current);

/// One human-readable line, e.g.
/// `regressed  vgpu.makespan_ms{mode=concurrent}  4.000 -> 4.800  (+20.0%, band 0.400)`.
/// An exact series that drifted in the good direction says to re-pin the
/// record.
std::string describe(const MetricVerdict& verdict);

}  // namespace fdet::obs
