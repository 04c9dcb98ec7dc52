#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "core/artifact.h"
#include "core/check.h"
#include "obs/json.h"

namespace fdet::obs {

std::string format_labels(const Labels& labels) {
  std::string out;
  for (const auto& [key, value] : labels) {
    if (!out.empty()) {
      out += ',';
    }
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

void Counter::add(double delta) {
  FDET_CHECK(delta >= 0.0) << "counter deltas must be non-negative";
  std::lock_guard lock(registry_->mutex_);
  value_ += delta;
}

double Counter::value() const {
  std::lock_guard lock(registry_->mutex_);
  return value_;
}

void Gauge::set(double value) {
  std::lock_guard lock(registry_->mutex_);
  value_ = value;
}

double Gauge::value() const {
  std::lock_guard lock(registry_->mutex_);
  return value_;
}

Histogram::Histogram(Registry* registry, std::vector<double> bounds)
    : registry_(registry), bounds_(std::move(bounds)) {
  FDET_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket bounds must be ascending";
  counts_.assign(bounds_.size() + 1, 0.0);  // trailing +inf bucket
}

void Histogram::observe(double value, double count) {
  FDET_CHECK(count >= 0.0) << "histogram counts must be non-negative";
  std::lock_guard lock(registry_->mutex_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += count;
  sum_ += value * count;
  count_ += count;
}

double Histogram::sum() const {
  std::lock_guard lock(registry_->mutex_);
  return sum_;
}

double Histogram::count() const {
  std::lock_guard lock(registry_->mutex_);
  return count_;
}

std::vector<double> Histogram::bucket_counts() const {
  std::lock_guard lock(registry_->mutex_);
  std::vector<double> cumulative(counts_.size(), 0.0);
  double running = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    cumulative[i] = running;
  }
  return cumulative;
}

std::vector<double> linear_buckets(double start, double width, int count) {
  FDET_CHECK(width > 0.0 && count > 0);
  std::vector<double> bounds(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    bounds[static_cast<std::size_t>(i)] = start + width * i;
  }
  return bounds;
}

Registry::Entry& Registry::entry(const std::string& name, const Labels& labels,
                                 const std::string& kind) {
  const auto key = std::make_pair(name, format_labels(labels));
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    FDET_CHECK(it->second.kind == kind)
        << "metric '" << name << "' already registered as " << it->second.kind;
    return it->second;
  }
  if (entries_.size() >= series_limit_) {
    throw MetricCardinalityError(
        "metric series cardinality cap (" + std::to_string(series_limit_) +
        ") reached creating '" + name + "{" + key.second +
        "}' — an unbounded label value is leaking into a metric identity");
  }
  Entry& created = entries_[key];
  created.name = name;
  created.labels = labels;
  created.kind = kind;
  return created;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, labels, "counter");
  if (!e.counter) {
    e.counter.reset(new Counter(this));
  }
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, labels, "gauge");
  if (!e.gauge) {
    e.gauge.reset(new Gauge(this));
  }
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const Labels& labels) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, labels, "histogram");
  if (!e.histogram) {
    e.histogram.reset(new Histogram(this, std::move(bounds)));
  }
  return *e.histogram;
}

void Registry::set_series_limit(std::size_t limit) {
  FDET_CHECK(limit >= 1) << "series limit must be >= 1";
  std::lock_guard lock(mutex_);
  series_limit_ = limit;
}

std::size_t Registry::series_limit() const {
  std::lock_guard lock(mutex_);
  return series_limit_;
}

bool Registry::empty() const {
  std::lock_guard lock(mutex_);
  return entries_.empty();
}

std::size_t Registry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::vector<Registry::Sample> Registry::samples() const {
  std::vector<Sample> out;
  std::lock_guard lock(mutex_);
  for (const auto& [key, e] : entries_) {
    Sample sample;
    sample.name = e.name;
    sample.kind = e.kind;
    sample.labels = e.labels;
    if (e.counter) {
      sample.value = e.counter->value_;
    } else if (e.gauge) {
      sample.value = e.gauge->value_;
    } else if (e.histogram) {
      const Histogram& h = *e.histogram;
      sample.value = h.sum_;
      sample.count = h.count_;
      sample.bounds = h.bounds_;
      double running = 0.0;
      for (const double c : h.counts_) {
        running += c;
        sample.bucket_counts.push_back(running);
      }
    }
    out.push_back(std::move(sample));
  }
  return out;
}

std::string Registry::to_json() const {
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples()) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"name\":\"" << json::escape(s.name) << "\",\"kind\":\"" << s.kind
        << "\",\"labels\":{";
    for (std::size_t i = 0; i < s.labels.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << json::escape(s.labels[i].first) << "\":\""
          << json::escape(s.labels[i].second) << "\"";
    }
    out << "}";
    if (s.kind == "histogram") {
      out << ",\"sum\":" << json::number(s.value)
          << ",\"count\":" << json::number(s.count) << ",\"buckets\":[";
      for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
        if (i > 0) out << ",";
        out << "{\"le\":";
        if (i < s.bounds.size()) {
          out << json::number(s.bounds[i]);
        } else {
          out << "\"inf\"";
        }
        out << ",\"count\":" << json::number(s.bucket_counts[i]) << "}";
      }
      out << "]";
    } else {
      out << ",\"value\":" << json::number(s.value);
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

void Registry::write_file(const std::string& path) const {
  core::atomic_write_file(path, to_json());
}

}  // namespace fdet::obs
