#include "obs/profile.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

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
  buckets.push_back(AttributionBucket{std::string(name), 0.0, 0.0});
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

/// The raw per-kernel fields and the series each one is persisted as.
constexpr std::pair<const char*, double KernelProfile::*> kKernelFields[] = {
    {"profile.kernel.launches", &KernelProfile::launches},
    {"profile.kernel.cycles", &KernelProfile::total_cycles},
    {"profile.kernel.issue_cycles", &KernelProfile::issue_cycles},
    {"profile.kernel.stall_cycles", &KernelProfile::stall_cycles},
    {"profile.kernel.divergence_cycles", &KernelProfile::divergence_cycles},
    {"profile.kernel.bank_conflict_cycles",
     &KernelProfile::bank_conflict_cycles},
    {"profile.kernel.occupancy_limited_cycles",
     &KernelProfile::occupancy_limited_cycles},
    {"profile.kernel.occupancy_cycles", &KernelProfile::occupancy_cycles},
    {"profile.kernel.bank_conflicts", &KernelProfile::bank_conflicts},
    {"profile.kernel.global_transactions",
     &KernelProfile::global_transactions},
    {"profile.kernel.arithmetic_ops", &KernelProfile::arithmetic_ops},
    {"profile.kernel.global_bytes", &KernelProfile::global_bytes},
    {"profile.kernel.warp_branches", &KernelProfile::warp_branches},
    {"profile.kernel.divergent_branches", &KernelProfile::divergent_branches},
    {"profile.kernel.lane_issue_cycles", &KernelProfile::lane_issue_cycles},
    {"profile.kernel.warp_issue_cycles", &KernelProfile::warp_issue_cycles},
};

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
  if (warp_branches == 0.0) {
    return 1.0;
  }
  const double eff = 1.0 - divergent_branches / warp_branches;
  return std::clamp(eff, 0.0, 1.0);
}

double KernelProfile::simd_efficiency() const {
  if (warp_issue_cycles <= 0.0) {
    return 1.0;
  }
  return std::clamp(lane_issue_cycles / (warp_issue_cycles * 32.0), 0.0, 1.0);
}

double KernelProfile::arithmetic_intensity() const {
  if (global_bytes == 0.0) {
    return arithmetic_ops == 0.0 ? 0.0
                                 : std::numeric_limits<double>::infinity();
  }
  return arithmetic_ops / global_bytes;
}

const char* KernelProfile::roofline_bound(double ridge) const {
  if (global_bytes == 0.0) {
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
  slot->bank_conflicts += static_cast<double>(c.bank_conflicts);
  slot->global_transactions += static_cast<double>(c.global_transactions);
  slot->arithmetic_ops += static_cast<double>(c.arithmetic_ops());
  slot->global_bytes += static_cast<double>(c.global_bytes());
  slot->warp_branches += static_cast<double>(c.warp_branches);
  slot->divergent_branches += static_cast<double>(c.divergent_branches);
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

RunRecord KernelProfiler::snapshot(std::string artifact,
                                   Labels labels) const {
  RunRecord record;
  record.artifact = std::move(artifact);
  record.labels = std::move(labels);
  const auto add = [&record](std::string name, double value,
                             Labels series_labels = {}) {
    record.metrics.push_back(MetricSeries{std::move(name), "gauge",
                                          std::move(series_labels), value});
  };
  const auto add_buckets = [&add](const std::string& family, const char* key,
                                  const std::vector<AttributionBucket>& all) {
    for (const AttributionBucket& bucket : all) {
      add(family + ".cycles", bucket.cycles, {{key, bucket.name}});
      add(family + ".launches", bucket.launches, {{key, bucket.name}});
    }
  };

  add("profile.total_cycles", total_cycles_);
  add("profile.launches", static_cast<double>(launches_));
  add("profile.ridge_ops_per_byte", ridge_ops_per_byte_);
  for (const KernelProfile& k : kernels_) {
    const Labels kl = {{"kernel", k.name}};
    for (const auto& [series, field] : kKernelFields) {
      add(series, k.*field, kl);
    }
    add("profile.kernel.achieved_occupancy", k.achieved_occupancy(), kl);
    add("profile.kernel.branch_efficiency", k.branch_efficiency(), kl);
  }
  add_buckets("profile.stage", "stage", stages_);
  add_buckets("profile.frame", "frame", frames_);

  std::sort(record.metrics.begin(), record.metrics.end(), series_less);
  return record;
}

std::string render_profile_text(const RunRecord& record) {
  // Rebuild the kernel rows and the buckets from their series, keyed by
  // label value (one pass; a record holds one series per quantity).
  double total_cycles = 0.0;
  double launches = 0.0;
  double ridge = 0.0;
  std::map<std::string, KernelProfile> by_kernel;
  std::map<std::string, AttributionBucket> by_stage;
  std::map<std::string, AttributionBucket> by_frame;  // frame-id order
  for (const MetricSeries& series : record.metrics) {
    const std::string label =
        series.labels.empty() ? std::string() : series.labels[0].second;
    const double value = series.value;
    if (series.name == "profile.total_cycles") {
      total_cycles = value;
    } else if (series.name == "profile.launches") {
      launches = value;
    } else if (series.name == "profile.ridge_ops_per_byte") {
      ridge = value;
    } else if (series.name.starts_with("profile.kernel.")) {
      for (const auto& [name, field] : kKernelFields) {
        if (series.name == name) {
          KernelProfile& k = by_kernel[label];
          k.name = label;
          k.*field = value;
        }
      }
    } else if (series.name.starts_with("profile.stage.") ||
               series.name.starts_with("profile.frame.")) {
      AttributionBucket& bucket =
          (series.name.starts_with("profile.stage.") ? by_stage
                                                     : by_frame)[label];
      bucket.name = label;
      (series.name.ends_with(".cycles") ? bucket.cycles : bucket.launches) =
          value;
    }
  }
  std::vector<KernelProfile> kernels;
  for (auto& [name, k] : by_kernel) {
    kernels.push_back(std::move(k));
  }
  std::stable_sort(kernels.begin(), kernels.end(),
                   [](const KernelProfile& a, const KernelProfile& b) {
                     if (a.total_cycles != b.total_cycles) {
                       return a.total_cycles > b.total_cycles;
                     }
                     return a.name < b.name;
                   });
  std::vector<AttributionBucket> stages;
  for (auto& [name, stage] : by_stage) {
    stages.push_back(std::move(stage));
  }
  sort_by_cycles(stages);

  std::string out;
  char line[256];

  std::snprintf(line, sizeof(line), "PROFILE %s (variant %s)\n",
                record.artifact.c_str(), record.variant.c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "total: %s cycles over %llu launches; roofline ridge %.2f "
                "ops/byte\n\n",
                format_cycles(total_cycles).c_str(),
                static_cast<unsigned long long>(launches), ridge);
  out += line;

  std::snprintf(line, sizeof(line), "%-12s %8s %9s %7s  %s\n", "kernel",
                "launches", "cycles", "share", "breakdown");
  out += line;
  for (const KernelProfile& k : kernels) {
    const double share =
        total_cycles <= 0.0 ? 0.0 : k.total_cycles / total_cycles;
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
        k.roofline_bound(ridge));
    out += line;
  }

  out += "\nstage breakdown:\n";
  double attributed_stage = 0.0;
  for (const AttributionBucket& stage : stages) {
    const double share =
        total_cycles <= 0.0 ? 0.0 : stage.cycles / total_cycles;
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
  for (const auto& [name, frame] : by_frame) {
    if (name != kNoFrame) {
      attributed_frame += frame.cycles;
      ++frame_count;
    }
  }
  const double stage_cov =
      total_cycles <= 0.0 ? 1.0 : attributed_stage / total_cycles;
  const double frame_cov =
      total_cycles <= 0.0 ? 1.0 : attributed_frame / total_cycles;
  std::snprintf(line, sizeof(line),
                "\nattribution: %s of cycles in named stages, %s in %llu "
                "frames\n",
                format_pct(stage_cov).c_str(), format_pct(frame_cov).c_str(),
                static_cast<unsigned long long>(frame_count));
  out += line;
  return out;
}

}  // namespace fdet::obs
