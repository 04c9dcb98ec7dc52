#include "obs/runrecord.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/artifact.h"
#include "core/check.h"

namespace fdet::obs {

namespace {

/// Three-way order of `series` against the identity (name, label_key),
/// label_key being format_labels of the identity's labels.
int compare_identity(const MetricSeries& series, std::string_view name,
                     std::string_view label_key) {
  if (const int by_name = std::string_view(series.name).compare(name);
      by_name != 0) {
    return by_name;
  }
  return std::string_view(format_labels(series.labels)).compare(label_key);
}

json::Value labels_to_json(const Labels& labels) {
  json::Value::Object members;
  for (const auto& [key, value] : labels) {
    members.emplace_back(key, json::Value::make_string(value));
  }
  return json::Value::make_object(std::move(members));
}

Labels labels_from_json(const json::Value& value) {
  Labels labels;
  for (const auto& [key, member] : value.as_object()) {
    labels.emplace_back(key, member.as_string());
  }
  return labels;
}

/// Numbers parse as themselves; `null` (how json::number serializes
/// non-finite values) parses back as NaN.
double number_or_nan(const json::Value& value) {
  return value.is_null() ? std::nan("") : value.as_number();
}

}  // namespace

std::string series_identity(const std::string& name, const Labels& labels) {
  const std::string formatted = format_labels(labels);
  return formatted.empty() ? name : name + "{" + formatted + "}";
}

bool series_less(const MetricSeries& a, const MetricSeries& b) {
  return compare_identity(a, b.name, format_labels(b.labels)) < 0;
}

const MetricSeries* RunRecord::find(std::string_view name,
                                    const Labels& match_labels) const {
  const std::string label_key = format_labels(match_labels);
  const auto it = std::partition_point(
      metrics.begin(), metrics.end(), [&](const MetricSeries& series) {
        return compare_identity(series, name, label_key) < 0;
      });
  return it != metrics.end() && compare_identity(*it, name, label_key) == 0
             ? &*it
             : nullptr;
}

json::Value RunRecord::to_json() const {
  json::Value::Array series_array;
  for (const MetricSeries& series : metrics) {
    json::Value::Object m;
    m.emplace_back("name", json::Value::make_string(series.name));
    m.emplace_back("kind", json::Value::make_string(series.kind));
    m.emplace_back("labels", labels_to_json(series.labels));
    m.emplace_back("value", json::Value::make_number(series.value));
    series_array.push_back(json::Value::make_object(std::move(m)));
  }
  json::Value::Object doc;
  doc.emplace_back("schema_version",
                   json::Value::make_number(schema_version));
  doc.emplace_back("artifact", json::Value::make_string(artifact));
  doc.emplace_back("variant", json::Value::make_string(variant));
  doc.emplace_back("labels", labels_to_json(labels));
  doc.emplace_back("metrics", json::Value::make_array(std::move(series_array)));
  return json::Value::make_object(std::move(doc));
}

std::string RunRecord::dump() const { return to_json().dump(); }

void RunRecord::write_file(const std::string& path) const {
  core::atomic_write_file(path, dump() + "\n");
}

RunRecord RunRecord::from_json(const json::Value& doc) {
  RunRecord record;
  record.schema_version = static_cast<int>(doc.at("schema_version").as_number());
  FDET_CHECK(record.schema_version == kRunRecordSchemaVersion)
      << "run record schema_version " << record.schema_version
      << " (this build reads version " << kRunRecordSchemaVersion << ")";
  record.artifact = doc.at("artifact").as_string();
  FDET_CHECK(!record.artifact.empty()) << "run record has an empty artifact";
  record.variant = doc.at("variant").as_string();
  record.labels = labels_from_json(doc.at("labels"));
  for (const json::Value& entry : doc.at("metrics").as_array()) {
    MetricSeries series;
    series.name = entry.at("name").as_string();
    FDET_CHECK(!series.name.empty()) << "run record series without a name";
    series.kind = entry.at("kind").as_string();
    series.labels = labels_from_json(entry.at("labels"));
    series.value = number_or_nan(entry.at("value"));
    if (!record.metrics.empty()) {
      const int order =
          compare_identity(record.metrics.back(), series.name,
                           format_labels(series.labels));
      FDET_CHECK(order < 0)
          << "series '" << series_identity(series.name, series.labels)
          << (order == 0 ? "' appears twice"
                         : "' is out of (name, labels) order");
    }
    record.metrics.push_back(std::move(series));
  }
  return record;
}

RunRecord RunRecord::parse(std::string_view text) {
  return from_json(json::parse(text));
}

RunRecord RunRecord::load_file(const std::string& path) {
  try {
    return from_json(json::parse_file(path));
  } catch (const core::CheckError& error) {
    // Parse/schema failures name the defect but not the file; re-raise
    // with the path so "which baseline was bad" is never a mystery.
    const std::string what = error.what();
    if (what.find(path) == std::string::npos) {
      FDET_CHECK(false) << "run record '" << path << "': " << what;
    }
    throw;
  }
}

RunRecord build_run_record(std::string artifact, std::string variant,
                           Labels labels, const Registry& registry) {
  RunRecord record;
  record.artifact = std::move(artifact);
  record.variant = std::move(variant);
  record.labels = std::move(labels);
  for (const Registry::Sample& sample : registry.samples()) {
    if (sample.kind == "histogram") {
      record.metrics.push_back(
          {sample.name + ".sum", "histogram_sum", sample.labels, sample.value});
      record.metrics.push_back({sample.name + ".count", "histogram_count",
                                sample.labels, sample.count});
    } else {
      record.metrics.push_back(
          {sample.name, sample.kind, sample.labels, sample.value});
    }
  }
  // Flattening puts `x.sum` before `x.count`; restore the record order.
  std::sort(record.metrics.begin(), record.metrics.end(), series_less);
  return record;
}

std::string run_record_path(const std::string& artifact) {
  return "BENCH_" + artifact + ".json";
}

}  // namespace fdet::obs
