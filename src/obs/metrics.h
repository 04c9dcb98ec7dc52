// Labeled metrics registry for the observability layer.
//
// Mirrors the shape of the numbers the paper reports — profiler ratios
// (branch efficiency, SIMD utilization), throughputs (DRAM reads),
// timings (makespan, per-frame latency) and distributions (per-scale
// cascade rejection depths) — as three metric kinds:
//
//   Counter    monotonically increasing total (kernel launches, bytes)
//   Gauge      last-written value (makespan_ms, sm_utilization)
//   Histogram  explicit-bucket distribution (frame latency, stage depth)
//
// Every metric carries a name plus an ordered label set, so the same
// quantity can be published per {mode=serial|concurrent}, per scale, per
// trailer, ... The registry serializes to JSON; bench binaries write
// these files via --metrics-out (bench_common.h).
//
// Thread safety: metric creation and all value updates are guarded by one
// registry mutex — contention is irrelevant at the rates benches publish.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"

namespace fdet::obs {

/// Thrown when creating a new (name, labels) series would exceed the
/// registry's cardinality cap — the typed signal that a label (frame
/// index, trace id, ...) with unbounded values leaked into a metric
/// identity. Existing series keep working; only *new* series are
/// rejected.
class MetricCardinalityError : public core::CheckError {
 public:
  explicit MetricCardinalityError(const std::string& what)
      : core::CheckError(what) {}
};

/// Ordered key=value labels. Keep keys unique; order is preserved in the
/// exported identity, so use a consistent order per metric name.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Renders labels as `k1=v1,k2=v2` (empty string for no labels).
std::string format_labels(const Labels& labels);

class Registry;

class Counter {
 public:
  void add(double delta);
  void increment() { add(1.0); }
  double value() const;

 private:
  friend class Registry;
  explicit Counter(Registry* registry) : registry_(registry) {}
  Registry* registry_;
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value);
  double value() const;

 private:
  friend class Registry;
  explicit Gauge(Registry* registry) : registry_(registry) {}
  Registry* registry_;
  double value_ = 0.0;
};

// Bucket-count convention (applies to every exported surface): bucket
// counts are CUMULATIVE, Prometheus-style — element i is the count of
// observations <= bounds()[i], the final element (the implicit +inf
// bucket) equals count(). This holds for Histogram::bucket_counts(),
// Registry::Sample::bucket_counts and the JSON "buckets" array. Only the
// private accumulation buffer `counts_` stores per-bucket
// (non-cumulative) increments; it is never exported.
class Histogram {
 public:
  /// Records `count` observations of `value`.
  void observe(double value, double count = 1.0);
  double sum() const;
  double count() const;
  /// Cumulative: element i counts observations <= bounds()[i]; the last
  /// element (implicit +inf bucket) equals count().
  std::vector<double> bucket_counts() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class Registry;
  Histogram(Registry* registry, std::vector<double> bounds);
  Registry* registry_;
  std::vector<double> bounds_;   ///< ascending upper bounds; +inf implicit
  /// Per-bucket accumulation buffer (last slot = +inf bucket). Internal
  /// only: every exported view converts to cumulative counts (see the
  /// class comment).
  std::vector<double> counts_;
  double sum_ = 0.0;
  double count_ = 0.0;
};

/// Equal-width bucket bounds [0, count) — handy for depth histograms.
std::vector<double> linear_buckets(double start, double width, int count);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Metric accessors create on first use and return the same instance for
  /// the same (name, labels) afterwards. Re-registering a name with a
  /// different kind throws core::CheckError; creating a series beyond the
  /// cardinality cap throws MetricCardinalityError.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});

  /// Default cap on distinct (name, labels) series. Generous for every
  /// legitimate publisher (benches sit in the hundreds) while bounding
  /// the damage of an unbounded label.
  static constexpr std::size_t kDefaultSeriesLimit = 4096;
  /// Adjusts the cap (takes effect for subsequent creations; existing
  /// series are never evicted). `limit` must be >= 1.
  void set_series_limit(std::size_t limit);
  std::size_t series_limit() const;

  bool empty() const;
  std::size_t size() const;

  /// One exported data point (histograms flatten into sum/count/buckets).
  struct Sample {
    std::string name;
    std::string kind;  ///< "counter" | "gauge" | "histogram"
    Labels labels;
    double value = 0.0;               ///< counter/gauge value, histogram sum
    double count = 0.0;               ///< histogram only
    std::vector<double> bounds;       ///< histogram only
    /// Histogram only; cumulative (element i = observations <=
    /// bounds[i], last = total), matching Histogram::bucket_counts().
    std::vector<double> bucket_counts;
  };

  /// Deterministic snapshot, sorted by (name, labels).
  std::vector<Sample> samples() const;

  /// `{"metrics": [...]}` — one object per sample.
  std::string to_json() const;

  /// Writes to_json() through core::atomic_write_file (a failed write
  /// leaves the previous file intact). Throws core::CheckError when the
  /// file cannot be written.
  void write_file(const std::string& path) const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Entry {
    std::string name;
    Labels labels;
    std::string kind;
    // Stable addresses: metrics hand out references.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, const Labels& labels,
               const std::string& kind);

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::string>, Entry> entries_;
  std::size_t series_limit_ = kDefaultSeriesLimit;
};

}  // namespace fdet::obs
