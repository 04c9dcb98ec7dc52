// Labeled metrics registry for the observability layer.
//
// Mirrors the shape of the numbers the paper reports — profiler ratios
// (branch efficiency, SIMD utilization), throughputs (DRAM reads),
// timings (makespan, per-frame latency) and distributions (per-scale
// cascade rejection depths) — as three metric kinds:
//
//   Counter    monotonically increasing total (kernel launches, bytes)
//   Gauge      last-written value (makespan_ms, sm_utilization)
//   Histogram  sum and count of weighted observations (frame latency,
//              stage depth)
//
// Every metric carries a name plus an ordered label set, so the same
// quantity can be published per {mode=serial|concurrent}, per scale, per
// trailer, ... A registry is persisted only as a run record
// (obs::build_run_record, obs/runrecord.h), which binaries write via
// --record-out.
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

/// Three-way order of two label sets (<0, 0, >0): the order of their
/// format_labels strings, except that the `=` and `,` the format inserts
/// sort before a literal `=` or `,` inside a key or value. Sets without
/// those characters order exactly as their strings do, and distinct sets
/// never compare equal ({a="x,b=y"} and {a="x",b="y"} format alike).
int compare_labels(const Labels& a, const Labels& b);

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

/// Keeps what a run record holds of a distribution: the weighted sum
/// and the observation count (series `<name>.sum` / `<name>.count`).
class Histogram {
 public:
  /// Records `count` observations of `value`.
  void observe(double value, double count = 1.0);

 private:
  friend class Registry;
  explicit Histogram(Registry* registry) : registry_(registry) {}
  Registry* registry_;
  double sum_ = 0.0;
  double count_ = 0.0;
};

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
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Cap on distinct (name, labels) series. Generous for every
  /// legitimate publisher (benches sit in the hundreds) while bounding
  /// the damage of an unbounded label; existing series are never evicted.
  static constexpr std::size_t kDefaultSeriesLimit = 4096;

  /// One data point of a snapshot.
  struct Sample {
    std::string name;
    std::string kind;  ///< "counter" | "gauge" | "histogram"
    Labels labels;
    double value = 0.0;  ///< counter/gauge value, histogram sum
    double count = 0.0;  ///< histogram only
  };

  /// Deterministic snapshot, sorted by (name, labels).
  std::vector<Sample> samples() const;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  /// A series identity; the map finds one from a KeyRef without copying.
  struct Key {
    std::string name;
    Labels labels;
  };
  struct KeyRef {
    const std::string& name;
    const Labels& labels;
  };
  struct KeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const int by_name = a.name.compare(b.name);
      return by_name != 0 ? by_name < 0
                          : compare_labels(a.labels, b.labels) < 0;
    }
  };
  struct Entry {
    std::string kind;
    // Stable addresses: metrics hand out references.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, const Labels& labels,
               const std::string& kind);

  mutable std::mutex mutex_;
  std::map<Key, Entry, KeyLess> entries_;
};

}  // namespace fdet::obs
