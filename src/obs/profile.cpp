#include "obs/profile.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "core/check.h"
#include "obs/trace.h"

namespace fdet::obs {

std::string kernel_base_name(std::string_view name) {
  const std::size_t pos = name.rfind("_s");
  if (pos == std::string_view::npos || pos + 2 >= name.size()) {
    return std::string(name);
  }
  for (std::size_t i = pos + 2; i < name.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) {
      return std::string(name);
    }
  }
  return std::string(name.substr(0, pos));
}

namespace {

/// Innermost stage scope of this thread (see ProfileStageScope).
thread_local ProfileStageScope* g_stage_scope = nullptr;

/// Device roofline ridge: peak issue ops per cycle over peak global
/// bytes per cycle.
double ridge_of(const vgpu::DeviceSpec& spec) {
  const double peak_ops = spec.cost.ipc * 32.0;
  const double peak_bytes = 128.0 / spec.cost.global_transaction_issue;
  return peak_bytes <= 0.0 ? 0.0 : peak_ops / peak_bytes;
}

AttributionBucket& bucket_of(std::vector<AttributionBucket>& buckets,
                             std::string_view name) {
  for (AttributionBucket& bucket : buckets) {
    if (bucket.name == name) {
      return bucket;
    }
  }
  buckets.push_back(AttributionBucket{std::string(name), 0, 0.0});
  return buckets.back();
}

void sort_by_cycles(std::vector<AttributionBucket>& buckets) {
  std::stable_sort(buckets.begin(), buckets.end(),
                   [](const AttributionBucket& a, const AttributionBucket& b) {
                     if (a.cycles != b.cycles) {
                       return a.cycles > b.cycles;
                     }
                     return a.name < b.name;
                   });
}

std::string format_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string format_cycles(double cycles) {
  char buf[32];
  if (cycles >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", cycles / 1e6);
  } else if (cycles >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", cycles / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", cycles);
  }
  return buf;
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

std::uint64_t u64_field(const json::Value& doc, std::string_view key) {
  const double n = doc.at(key).as_number();
  FDET_CHECK(n >= 0.0) << "profile field '" << key << "' is negative";
  return static_cast<std::uint64_t>(n);
}

json::Value::Object bucket_to_json(const AttributionBucket& bucket) {
  json::Value::Object m;
  m.emplace_back("name", json::Value::make_string(bucket.name));
  m.emplace_back("launches",
                 json::Value::make_number(static_cast<double>(bucket.launches)));
  m.emplace_back("cycles", json::Value::make_number(bucket.cycles));
  return m;
}

AttributionBucket bucket_from_json(const json::Value& doc) {
  AttributionBucket bucket;
  bucket.name = doc.at("name").as_string();
  FDET_CHECK(!bucket.name.empty()) << "profile bucket has an empty name";
  bucket.launches = u64_field(doc, "launches");
  bucket.cycles = doc.at("cycles").as_number();
  return bucket;
}

}  // namespace

ProfileStageScope::ProfileStageScope(std::string stage)
    : stage_(std::move(stage)), prev_(g_stage_scope) {
  g_stage_scope = this;
}

ProfileStageScope::~ProfileStageScope() { g_stage_scope = prev_; }

const std::string* ProfileStageScope::current() {
  return g_stage_scope == nullptr ? nullptr : &g_stage_scope->stage_;
}

double KernelProfile::branch_efficiency() const {
  if (warp_branches == 0) {
    return 1.0;
  }
  const double eff =
      1.0 - static_cast<double>(divergent_branches) / warp_branches;
  return std::clamp(eff, 0.0, 1.0);
}

double KernelProfile::simd_efficiency() const {
  if (warp_issue_cycles <= 0.0) {
    return 1.0;
  }
  return std::clamp(lane_issue_cycles / (warp_issue_cycles * 32.0), 0.0, 1.0);
}

double KernelProfile::arithmetic_intensity() const {
  if (global_bytes == 0) {
    return arithmetic_ops == 0 ? 0.0
                               : std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(arithmetic_ops) /
         static_cast<double>(global_bytes);
}

const char* KernelProfile::roofline_bound(double ridge) const {
  if (global_bytes == 0) {
    return "compute";  // no global traffic: unboundedly compute-heavy
  }
  return arithmetic_intensity() < ridge ? "memory" : "compute";
}

void KernelProfiler::after_launch(const vgpu::DeviceSpec& spec,
                                  const vgpu::LaunchCost& cost) {
  ridge_ops_per_byte_ = ridge_of(spec);

  const double cycles = cost.total_service_cycles;
  ++launches_;
  total_cycles_ += cycles;

  const std::string base = kernel_base_name(cost.config.name);
  KernelProfile* slot = nullptr;
  for (KernelProfile& kernel : kernels_) {
    if (kernel.name == base) {
      slot = &kernel;
      break;
    }
  }
  if (slot == nullptr) {
    kernels_.push_back(KernelProfile{});
    slot = &kernels_.back();
    slot->name = base;
  }

  const vgpu::PerfCounters& c = cost.counters;
  ++slot->launches;
  slot->total_cycles += cycles;
  slot->issue_cycles += c.issue_service_cycles;
  slot->stall_cycles += c.stall_service_cycles;
  slot->divergence_cycles += c.divergence_cycles;
  slot->bank_conflict_cycles += c.bank_conflict_cycles;
  slot->occupancy_limited_cycles +=
      std::max(0.0, c.stall_service_cycles - c.stall_base_cycles);
  slot->occupancy_cycles += cost.occupancy.ratio * cycles;
  slot->bank_conflicts += c.bank_conflicts;
  slot->global_transactions += c.global_transactions;
  slot->arithmetic_ops += c.arithmetic_ops();
  slot->global_bytes += c.global_bytes();
  slot->warp_branches += c.warp_branches;
  slot->divergent_branches += c.divergent_branches;
  slot->lane_issue_cycles += c.lane_issue_cycles;
  slot->warp_issue_cycles += c.warp_issue_cycles;

  const std::string* stage = ProfileStageScope::current();
  AttributionBucket& stage_bucket =
      bucket_of(stages_, stage == nullptr ? kUnattributedStage : *stage);
  ++stage_bucket.launches;
  stage_bucket.cycles += cycles;

  const TraceContext* context = current_trace_context();
  AttributionBucket& frame_bucket = bucket_of(
      frames_,
      context == nullptr || !context->valid() ? std::string(kNoFrame)
                                              : hex_id(context->trace_id));
  ++frame_bucket.launches;
  frame_bucket.cycles += cycles;
}

ProfileRecord KernelProfiler::snapshot(std::string artifact,
                                       std::string variant,
                                       Labels labels) const {
  ProfileRecord record;
  record.artifact = std::move(artifact);
  record.variant = std::move(variant);
  record.labels = std::move(labels);
  record.ridge_ops_per_byte = ridge_ops_per_byte_;
  record.launches = launches_;
  record.total_cycles = total_cycles_;
  record.kernels = kernels_;
  record.stages = stages_;
  record.frames = frames_;

  std::stable_sort(record.kernels.begin(), record.kernels.end(),
                   [](const KernelProfile& a, const KernelProfile& b) {
                     if (a.total_cycles != b.total_cycles) {
                       return a.total_cycles > b.total_cycles;
                     }
                     return a.name < b.name;
                   });
  sort_by_cycles(record.stages);
  std::stable_sort(record.frames.begin(), record.frames.end(),
                   [](const AttributionBucket& a, const AttributionBucket& b) {
                     return a.name < b.name;
                   });
  return record;
}

void KernelProfiler::reset() {
  launches_ = 0;
  total_cycles_ = 0.0;
  kernels_.clear();
  stages_.clear();
  frames_.clear();
}

const KernelProfile* ProfileRecord::find_kernel(std::string_view name) const {
  for (const KernelProfile& kernel : kernels) {
    if (kernel.name == name) {
      return &kernel;
    }
  }
  return nullptr;
}

const AttributionBucket* ProfileRecord::find_stage(
    std::string_view name) const {
  for (const AttributionBucket& stage : stages) {
    if (stage.name == name) {
      return &stage;
    }
  }
  return nullptr;
}

json::Value ProfileRecord::to_json() const {
  json::Value::Array kernel_array;
  for (const KernelProfile& k : kernels) {
    json::Value::Object m;
    m.emplace_back("name", json::Value::make_string(k.name));
    m.emplace_back("launches",
                   json::Value::make_number(static_cast<double>(k.launches)));
    m.emplace_back("total_cycles", json::Value::make_number(k.total_cycles));
    m.emplace_back("issue_cycles", json::Value::make_number(k.issue_cycles));
    m.emplace_back("stall_cycles", json::Value::make_number(k.stall_cycles));
    m.emplace_back("divergence_cycles",
                   json::Value::make_number(k.divergence_cycles));
    m.emplace_back("bank_conflict_cycles",
                   json::Value::make_number(k.bank_conflict_cycles));
    m.emplace_back("occupancy_limited_cycles",
                   json::Value::make_number(k.occupancy_limited_cycles));
    m.emplace_back("occupancy_cycles",
                   json::Value::make_number(k.occupancy_cycles));
    m.emplace_back(
        "bank_conflicts",
        json::Value::make_number(static_cast<double>(k.bank_conflicts)));
    m.emplace_back(
        "global_transactions",
        json::Value::make_number(static_cast<double>(k.global_transactions)));
    m.emplace_back(
        "arithmetic_ops",
        json::Value::make_number(static_cast<double>(k.arithmetic_ops)));
    m.emplace_back(
        "global_bytes",
        json::Value::make_number(static_cast<double>(k.global_bytes)));
    m.emplace_back(
        "warp_branches",
        json::Value::make_number(static_cast<double>(k.warp_branches)));
    m.emplace_back(
        "divergent_branches",
        json::Value::make_number(static_cast<double>(k.divergent_branches)));
    m.emplace_back("lane_issue_cycles",
                   json::Value::make_number(k.lane_issue_cycles));
    m.emplace_back("warp_issue_cycles",
                   json::Value::make_number(k.warp_issue_cycles));
    // Derived, for human readers of the artifact; from_json recomputes.
    m.emplace_back("bound", json::Value::make_string(
                                k.roofline_bound(ridge_ops_per_byte)));
    kernel_array.push_back(json::Value::make_object(std::move(m)));
  }

  json::Value::Array stage_array;
  for (const AttributionBucket& stage : stages) {
    stage_array.push_back(json::Value::make_object(bucket_to_json(stage)));
  }
  json::Value::Array frame_array;
  for (const AttributionBucket& frame : frames) {
    frame_array.push_back(json::Value::make_object(bucket_to_json(frame)));
  }

  json::Value::Object doc;
  doc.emplace_back("schema_version", json::Value::make_number(schema_version));
  doc.emplace_back("artifact", json::Value::make_string(artifact));
  doc.emplace_back("variant", json::Value::make_string(variant));
  doc.emplace_back("labels", labels_to_json(labels));
  doc.emplace_back("ridge_ops_per_byte",
                   json::Value::make_number(ridge_ops_per_byte));
  doc.emplace_back("launches",
                   json::Value::make_number(static_cast<double>(launches)));
  doc.emplace_back("total_cycles", json::Value::make_number(total_cycles));
  doc.emplace_back("kernels", json::Value::make_array(std::move(kernel_array)));
  doc.emplace_back("stages", json::Value::make_array(std::move(stage_array)));
  doc.emplace_back("frames", json::Value::make_array(std::move(frame_array)));
  return json::Value::make_object(std::move(doc));
}

std::string ProfileRecord::dump() const { return to_json().dump(); }

void ProfileRecord::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  FDET_CHECK(out.good()) << "cannot write profile record '" << path << "'";
  out << dump() << "\n";
  FDET_CHECK(out.good()) << "error writing profile record '" << path << "'";
}

ProfileRecord ProfileRecord::from_json(const json::Value& doc) {
  ProfileRecord record;
  record.schema_version =
      static_cast<int>(doc.at("schema_version").as_number());
  FDET_CHECK(record.schema_version == kProfileSchemaVersion)
      << "profile record schema_version " << record.schema_version
      << " (this build reads version " << kProfileSchemaVersion << ")";
  record.artifact = doc.at("artifact").as_string();
  FDET_CHECK(!record.artifact.empty())
      << "profile record has an empty artifact";
  record.variant = doc.at("variant").as_string();
  record.labels = labels_from_json(doc.at("labels"));
  record.ridge_ops_per_byte = doc.at("ridge_ops_per_byte").as_number();
  FDET_CHECK(record.ridge_ops_per_byte >= 0.0)
      << "profile record has a negative roofline ridge";
  record.launches = u64_field(doc, "launches");
  record.total_cycles = doc.at("total_cycles").as_number();
  FDET_CHECK(std::isfinite(record.total_cycles) && record.total_cycles >= 0.0)
      << "profile record total_cycles is not a finite non-negative number";

  for (const json::Value& entry : doc.at("kernels").as_array()) {
    KernelProfile k;
    k.name = entry.at("name").as_string();
    FDET_CHECK(!k.name.empty()) << "profile kernel has an empty name";
    k.launches = u64_field(entry, "launches");
    FDET_CHECK(k.launches >= 1)
        << "profile kernel '" << k.name << "' claims zero launches";
    k.total_cycles = entry.at("total_cycles").as_number();
    k.issue_cycles = entry.at("issue_cycles").as_number();
    k.stall_cycles = entry.at("stall_cycles").as_number();
    k.divergence_cycles = entry.at("divergence_cycles").as_number();
    k.bank_conflict_cycles = entry.at("bank_conflict_cycles").as_number();
    k.occupancy_limited_cycles =
        entry.at("occupancy_limited_cycles").as_number();
    k.occupancy_cycles = entry.at("occupancy_cycles").as_number();
    k.bank_conflicts = u64_field(entry, "bank_conflicts");
    k.global_transactions = u64_field(entry, "global_transactions");
    k.arithmetic_ops = u64_field(entry, "arithmetic_ops");
    k.global_bytes = u64_field(entry, "global_bytes");
    k.warp_branches = u64_field(entry, "warp_branches");
    k.divergent_branches = u64_field(entry, "divergent_branches");
    k.lane_issue_cycles = entry.at("lane_issue_cycles").as_number();
    k.warp_issue_cycles = entry.at("warp_issue_cycles").as_number();
    record.kernels.push_back(std::move(k));
  }
  for (const json::Value& entry : doc.at("stages").as_array()) {
    record.stages.push_back(bucket_from_json(entry));
  }
  for (const json::Value& entry : doc.at("frames").as_array()) {
    record.frames.push_back(bucket_from_json(entry));
  }
  return record;
}

ProfileRecord ProfileRecord::parse(std::string_view text) {
  return from_json(json::parse(text));
}

ProfileRecord ProfileRecord::load_file(const std::string& path) {
  return from_json(json::parse_file(path));
}

RunRecord ProfileRecord::to_run_record() const {
  RunRecord record;
  record.artifact = artifact;
  record.variant = variant;
  record.repeats = 1;
  record.labels = labels;

  const auto add = [&record](std::string name, Labels series_labels,
                             double value) {
    MetricSeries series;
    series.name = std::move(name);
    series.kind = "gauge";
    series.labels = std::move(series_labels);
    series.samples = {value};
    series.median = value;
    series.mad = 0.0;
    record.metrics.push_back(std::move(series));
  };

  add("profile.total_cycles", {}, total_cycles);
  add("profile.launches", {}, static_cast<double>(launches));
  for (const KernelProfile& k : kernels) {
    const Labels kl = {{"kernel", k.name}};
    add("profile.kernel.cycles", kl, k.total_cycles);
    add("profile.kernel.issue_cycles", kl, k.issue_cycles);
    add("profile.kernel.stall_cycles", kl, k.stall_cycles);
    add("profile.kernel.divergence_cycles", kl, k.divergence_cycles);
    add("profile.kernel.bank_conflict_cycles", kl, k.bank_conflict_cycles);
    add("profile.kernel.occupancy_limited_cycles", kl,
        k.occupancy_limited_cycles);
    add("profile.kernel.bank_conflicts", kl,
        static_cast<double>(k.bank_conflicts));
    add("profile.kernel.global_transactions", kl,
        static_cast<double>(k.global_transactions));
    add("profile.kernel.achieved_occupancy", kl, k.achieved_occupancy());
    add("profile.kernel.branch_efficiency", kl, k.branch_efficiency());
  }
  for (const AttributionBucket& stage : stages) {
    add("profile.stage.cycles", {{"stage", stage.name}}, stage.cycles);
  }
  return record;
}

std::string profile_record_path(const std::string& artifact) {
  return "PROFILE_" + artifact + ".json";
}

std::string render_profile_text(const ProfileRecord& record) {
  std::string out;
  char line[256];

  std::snprintf(line, sizeof(line), "PROFILE %s (variant %s)\n",
                record.artifact.c_str(), record.variant.c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "total: %s cycles over %llu launches; roofline ridge %.2f "
                "ops/byte\n\n",
                format_cycles(record.total_cycles).c_str(),
                static_cast<unsigned long long>(record.launches),
                record.ridge_ops_per_byte);
  out += line;

  std::snprintf(line, sizeof(line), "%-12s %8s %9s %7s  %s\n", "kernel",
                "launches", "cycles", "share", "breakdown");
  out += line;
  for (const KernelProfile& k : record.kernels) {
    const double share =
        record.total_cycles <= 0.0 ? 0.0 : k.total_cycles / record.total_cycles;
    const double total = k.total_cycles <= 0.0 ? 1.0 : k.total_cycles;
    std::snprintf(
        line, sizeof(line),
        "%-12s %8llu %9s %7s  issue %s | stall %s (occ-lim %s) | "
        "diverg %s | bankcf %s\n",
        k.name.c_str(), static_cast<unsigned long long>(k.launches),
        format_cycles(k.total_cycles).c_str(), format_pct(share).c_str(),
        format_pct(k.issue_cycles / total).c_str(),
        format_pct(k.stall_cycles / total).c_str(),
        format_pct(k.occupancy_limited_cycles / total).c_str(),
        format_pct(k.divergence_cycles / total).c_str(),
        format_pct(k.bank_conflict_cycles / total).c_str());
    out += line;
    std::snprintf(
        line, sizeof(line),
        "%-12s %8s %9s %7s  occ %s | beff %s | simd %s | %llu conflicts | "
        "%s-bound\n",
        "", "", "", "", format_pct(k.achieved_occupancy()).c_str(),
        format_pct(k.branch_efficiency()).c_str(),
        format_pct(k.simd_efficiency()).c_str(),
        static_cast<unsigned long long>(k.bank_conflicts),
        k.roofline_bound(record.ridge_ops_per_byte));
    out += line;
  }

  out += "\nstage breakdown:\n";
  double attributed_stage = 0.0;
  for (const AttributionBucket& stage : record.stages) {
    const double share =
        record.total_cycles <= 0.0 ? 0.0 : stage.cycles / record.total_cycles;
    if (stage.name != kUnattributedStage) {
      attributed_stage += stage.cycles;
    }
    std::snprintf(line, sizeof(line), "  %-14s %7s  (%s cycles, %llu launches)\n",
                  stage.name.c_str(), format_pct(share).c_str(),
                  format_cycles(stage.cycles).c_str(),
                  static_cast<unsigned long long>(stage.launches));
    out += line;
  }

  double attributed_frame = 0.0;
  std::uint64_t frame_count = 0;
  for (const AttributionBucket& frame : record.frames) {
    if (frame.name != kNoFrame) {
      attributed_frame += frame.cycles;
      ++frame_count;
    }
  }
  const double stage_cov = record.total_cycles <= 0.0
                               ? 1.0
                               : attributed_stage / record.total_cycles;
  const double frame_cov = record.total_cycles <= 0.0
                               ? 1.0
                               : attributed_frame / record.total_cycles;
  std::snprintf(line, sizeof(line),
                "\nattribution: %s of cycles in named stages, %s in %llu "
                "frames\n",
                format_pct(stage_cov).c_str(), format_pct(frame_cov).c_str(),
                static_cast<unsigned long long>(frame_count));
  out += line;
  return out;
}

}  // namespace fdet::obs
