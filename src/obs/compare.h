// Baseline comparison for run records: the gating half of the
// observability loop.
//
// compare_runs() walks the baseline and the current RunRecord side by
// side — both are in series_less order — and issues one verdict per
// (name, labels) identity:
//
//   unchanged   |current - baseline| within float-printing dust
//   drifted     beyond the dust, in either direction
//   missing     series present in the baseline, absent from the run
//   new         series only the current run has (informational)
//
// Every recorded series is on the deterministic modeled clock, so the
// dust is the only tolerance: a drift either way means behaviour
// changed, and the committed record must be re-pinned on purpose.
// Host-clock series stay out of the records; perfbench measures that
// clock with alternating pairs.
// `fdet_report diff` is the one gate built on this: it exits 2 when
// CompareReport::ok() is false, whatever kind of record it compares.
#pragma once

#include <string>
#include <vector>

#include "obs/runrecord.h"

namespace fdet::obs {

enum class Verdict { kUnchanged, kDrifted, kMissing, kNew };

/// Lower-case verdict label ("drifted", ...), stable for reports/tests.
const char* verdict_name(Verdict verdict);

/// Float-printing dust, relative to max(1, |baseline value|): the slack
/// that lets a deterministic value printed, re-parsed or summed in
/// another order by another compiler still compare equal.
inline constexpr double kCompareDust = 1e-9;

struct MetricVerdict {
  std::string name;
  Labels labels;
  Verdict verdict = Verdict::kUnchanged;
  double baseline = 0.0;
  double current = 0.0;
  /// (current - baseline) / |baseline|; 0 when the baseline is 0 or
  /// either side is non-finite.
  double relative_change = 0.0;

  /// True when this verdict alone fails the gate.
  bool fails() const {
    return verdict == Verdict::kDrifted || verdict == Verdict::kMissing;
  }
};

struct CompareReport {
  /// Failing verdicts first: drifted, missing, new, unchanged; by
  /// (name, labels) within a verdict.
  std::vector<MetricVerdict> verdicts;
  int unchanged = 0;
  int drifted = 0;
  int missing = 0;
  int added = 0;

  /// The gate: true when nothing drifted and nothing went missing.
  bool ok() const { return drifted == 0 && missing == 0; }
};

CompareReport compare_runs(const RunRecord& baseline,
                           const RunRecord& current);

/// One human-readable line, e.g.
/// `drifted    vgpu.makespan_ms{mode=concurrent}  4 -> 4.8  (+20.000%)`.
std::string describe(const MetricVerdict& verdict);

}  // namespace fdet::obs
