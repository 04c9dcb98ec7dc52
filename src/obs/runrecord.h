// Versioned benchmark run records: the persistence half of the
// observability loop.
//
// A RunRecord captures one invocation of a binary — the artifact it
// reproduces (fig5, table2, ...), the configuration variant, and one
// value per metric series. Records serialize through obs::json as
// `BENCH_<artifact>.json`. It is the one persisted record schema and the
// only way a metrics registry is persisted: every binary that keeps its
// registry writes build_run_record(...) behind --record-out, and kernel
// profiles (`PROFILE_<artifact>.json`, obs/profile.h) and the fleet
// record (`BENCH_fleet_chaos.json`) are run records too. Committed
// records at the repo root form the trajectory that `fdet_report diff`
// (obs::compare_runs) gates new runs against, and `fdet_report show`
// renders. Every recorded series is on the modeled clock of the
// deterministic virtual GPU, so one run is the measurement: a second
// run reproduces it exactly.
//
// Schema (version 2):
//
//   {
//     "schema_version": 2,
//     "artifact": "fig5",
//     "variant": "default",
//     "labels": {"host": "ci"},
//     "metrics": [
//       {"name": "vgpu.makespan_ms", "kind": "gauge",
//        "labels": {"mode": "concurrent"}, "value": 4.01},
//       ...
//     ]
//   }
//
// Series are in strictly increasing (name, labels) order — series_less,
// labels ordered by compare_labels — and from_json rejects a record that
// is not, which also rejects a repeated identity; find() binary-searches
// that order.
// Histograms flatten into two scalar series, `<name>.sum` and
// `<name>.count` (kinds `histogram_sum` / `histogram_count`), which is
// all a registry histogram keeps. A non-finite value serializes as `null`
// (see json::number) and parses back as NaN, so one degenerate ratio
// cannot make a record unreadable.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace fdet::obs {

/// Bump when the on-disk layout changes; from_json rejects mismatches.
inline constexpr int kRunRecordSchemaVersion = 2;

/// One metric series of a run.
struct MetricSeries {
  std::string name;
  std::string kind;  ///< counter | gauge | histogram_sum | histogram_count
  Labels labels;
  double value = 0.0;
};

/// The record order: by name, then by compare_labels.
bool series_less(const MetricSeries& a, const MetricSeries& b);

/// How the gate names a series: `name`, or `name{k1=v1,k2=v2}`.
std::string series_identity(const std::string& name, const Labels& labels);

struct RunRecord {
  int schema_version = kRunRecordSchemaVersion;
  std::string artifact;            ///< bench artifact id ("fig5", "integral")
  std::string variant = "default"; ///< cascade/configuration variant
  Labels labels;                   ///< run-level label set (host, commit, ...)
  std::vector<MetricSeries> metrics;  ///< strictly increasing by series_less

  /// Series lookup by exact (name, labels) identity; nullptr when absent.
  /// Binary search: `metrics` must be in series_less order.
  const MetricSeries* find(std::string_view name,
                           const Labels& match_labels) const;

  json::Value to_json() const;
  std::string dump() const;  ///< to_json().dump()
  /// Writes dump() through core::atomic_write_file, so a failed write
  /// leaves the previous file intact; throws core::CheckError (an
  /// ArtifactError) when the file cannot be written.
  void write_file(const std::string& path) const;

  /// Validating deserialization; throws core::CheckError on a missing or
  /// mistyped field, a schema_version mismatch, or series out of
  /// series_less order (a repeated identity included).
  static RunRecord from_json(const json::Value& doc);
  static RunRecord load_file(const std::string& path);
};

/// Snapshots `registry` into a record of the default variant: one series
/// per (name, labels), histograms flattened into .sum/.count, in
/// series_less order.
RunRecord build_run_record(std::string artifact, Labels labels,
                           const Registry& registry);

}  // namespace fdet::obs
