#include "obs/metrics.h"

#include "core/check.h"

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

void Histogram::observe(double value, double count) {
  FDET_CHECK(count >= 0.0) << "histogram counts must be non-negative";
  std::lock_guard lock(registry_->mutex_);
  sum_ += value * count;
  count_ += count;
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
  if (entries_.size() >= kDefaultSeriesLimit) {
    throw MetricCardinalityError(
        "metric series cardinality cap (" +
        std::to_string(kDefaultSeriesLimit) +
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
                               const Labels& labels) {
  std::lock_guard lock(mutex_);
  Entry& e = entry(name, labels, "histogram");
  if (!e.histogram) {
    e.histogram.reset(new Histogram(this));
  }
  return *e.histogram;
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
      sample.value = e.histogram->sum_;
      sample.count = e.histogram->count_;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

}  // namespace fdet::obs
