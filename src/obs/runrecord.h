// Versioned benchmark run records: the persistence half of the
// observability loop.
//
// A RunRecord captures one invocation of a bench binary — the artifact
// it reproduces (fig5, table2, ...), the cascade/configuration variant,
// and, per metric series, the raw sample from every measurement repeat
// plus robust location/scale statistics (median and MAD). Records
// serialize through obs::json as `BENCH_<artifact>.json`. It is the one
// persisted record schema: kernel profiles (`PROFILE_<artifact>.json`,
// obs/profile.h) and the fleet record (`BENCH_fleet_chaos.json`) are run
// records too. Committed records at the repo root form the trajectory
// that `fdet_report diff` (obs::compare_runs) gates new runs against,
// and `fdet_report show` renders.
//
// Schema (version 1):
//
//   {
//     "schema_version": 1,
//     "artifact": "fig5",
//     "variant": "default",
//     "repeats": 3,
//     "labels": {"host": "ci"},
//     "metrics": [
//       {"name": "vgpu.makespan_ms", "kind": "gauge",
//        "labels": {"mode": "concurrent"},
//        "samples": [4.01, 4.00, 4.02], "median": 4.01, "mad": 0.01},
//       ...
//     ]
//   }
//
// Histograms flatten into two scalar series, `<name>.sum` and
// `<name>.count` (kinds `histogram_sum` / `histogram_count`): run-to-run
// comparison needs robust scalars, not buckets — the full bucket layout
// stays available via --metrics-out. Non-finite samples serialize as
// `null` (see json::number) and parse back as NaN, so one degenerate
// repeat cannot make a record unreadable.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace fdet::obs {

/// Bump when the on-disk layout changes; from_json rejects mismatches.
inline constexpr int kRunRecordSchemaVersion = 1;

/// Median of `values` (copied: the selection is destructive). Ignores
/// nothing — callers filter non-finite values first if desired. FDET_CHECKs
/// non-empty input.
double median_of(std::vector<double> values);

/// Median absolute deviation around `center` — the robust scale estimate
/// used for the regression-gate noise band. FDET_CHECKs non-empty input.
double mad_of(const std::vector<double>& values, double center);

/// One metric series across all repeats of a run.
struct MetricSeries {
  std::string name;
  std::string kind;  ///< counter | gauge | histogram_sum | histogram_count
  Labels labels;
  std::vector<double> samples;  ///< one per repeat (repeat order)
  double median = 0.0;          ///< median_of(samples)
  double mad = 0.0;             ///< mad_of(samples, median)
};

struct RunRecord {
  int schema_version = kRunRecordSchemaVersion;
  std::string artifact;            ///< bench artifact id ("fig5", "integral")
  std::string variant = "default"; ///< cascade/configuration variant
  int repeats = 0;                 ///< measurement repetitions recorded
  Labels labels;                   ///< run-level label set (host, commit, ...)
  std::vector<MetricSeries> metrics;  ///< sorted by (name, labels)

  /// Series lookup by exact (name, labels) identity; nullptr when absent.
  const MetricSeries* find(std::string_view name,
                           const Labels& match_labels) const;

  json::Value to_json() const;
  std::string dump() const;  ///< to_json().dump()
  /// Writes dump(); throws core::CheckError when the file cannot be
  /// written.
  void write_file(const std::string& path) const;

  /// Validating deserialization; throws core::CheckError on a missing or
  /// mistyped field or a schema_version mismatch.
  static RunRecord from_json(const json::Value& doc);
  static RunRecord parse(std::string_view text);
  static RunRecord load_file(const std::string& path);
};

/// Aggregates one registry snapshot per repeat into a record: every
/// (name, labels) series collects its per-repeat values (histograms
/// flatten into .sum/.count) and gets median/MAD attached. A series
/// absent from some repeats keeps only the samples it has.
RunRecord build_run_record(std::string artifact, std::string variant,
                           Labels labels,
                           const std::vector<const Registry*>& repeats);

/// Canonical on-disk name for a bench artifact: `BENCH_<artifact>.json`.
std::string run_record_path(const std::string& artifact);

}  // namespace fdet::obs
