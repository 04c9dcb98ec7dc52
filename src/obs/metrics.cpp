#include "obs/metrics.h"

#include <algorithm>
#include <string_view>

#include "core/check.h"

namespace fdet::obs {

namespace {

/// What follows a value that ends its label set; sorts before any
/// character.
constexpr int kEndOfLabels = -1;

/// Compares one field of two formatted label streams, each field followed
/// by its terminator (a separator character or kEndOfLabels); a
/// terminator sorts before a literal character equal to it.
int compare_field(std::string_view a, int a_next, std::string_view b,
                  int b_next) {
  const std::size_t common = std::min(a.size(), b.size());
  if (const int by_text = a.substr(0, common).compare(b.substr(0, common));
      by_text != 0) {
    return by_text;
  }
  if (a.size() == b.size()) {
    return a_next == b_next ? 0 : (a_next < b_next ? -1 : 1);
  }
  // One field is a prefix of the other: its terminator meets a literal.
  return a.size() < b.size()
             ? (a_next <= static_cast<unsigned char>(b[common]) ? -1 : 1)
             : (b_next <= static_cast<unsigned char>(a[common]) ? 1 : -1);
}

}  // namespace

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

int compare_labels(const Labels& a, const Labels& b) {
  if (a.empty() || b.empty()) {
    return static_cast<int>(!a.empty()) - static_cast<int>(!b.empty());
  }
  for (std::size_t i = 0;; ++i) {
    if (const int by_key = compare_field(a[i].first, '=', b[i].first, '=');
        by_key != 0) {
      return by_key;
    }
    const int a_next = i + 1 < a.size() ? ',' : kEndOfLabels;
    const int b_next = i + 1 < b.size() ? ',' : kEndOfLabels;
    if (const int by_value =
            compare_field(a[i].second, a_next, b[i].second, b_next);
        by_value != 0 || a_next == kEndOfLabels) {
      return by_value;
    }
  }
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
  const auto it = entries_.find(KeyRef{name, labels});
  if (it != entries_.end()) {
    FDET_CHECK(it->second.kind == kind)
        << "metric '" << name << "' already registered as " << it->second.kind;
    return it->second;
  }
  if (entries_.size() >= kDefaultSeriesLimit) {
    throw MetricCardinalityError(
        "metric series cardinality cap (" +
        std::to_string(kDefaultSeriesLimit) +
        ") reached creating '" + name + "{" + format_labels(labels) +
        "}' — an unbounded label value is leaking into a metric identity");
  }
  Entry& created = entries_[Key{name, labels}];
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
    sample.name = key.name;
    sample.kind = e.kind;
    sample.labels = key.labels;
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
