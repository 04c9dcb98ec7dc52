// fdet_report — renders and gates the machine-readable artifacts the
// repository writes: run records (BENCH_<artifact>.json from
// --record-out, kernel profiles PROFILE_<artifact>.json from
// --profile-out, the fleet record from `fdet_chaos fleet --record-out`),
// metrics exports (--metrics-out) and flight-recorder dumps.
//
//   fdet_report show <file.json>...        per file: the generic series
//                                          table (metric names mapped
//                                          back to the paper's artifacts),
//                                          then every section whose series
//                                          family the file holds — kernel
//                                          verification (vgpu.check.*),
//                                          ingest, the kernel-profile
//                                          breakdown (profile.*), serving
//                                          SLO (slo.*), fleet tenants
//                                          (serve.fleet.*), static lint
//                                          (analyze.lint.*); a flight dump
//                                          shows its anomaly header
//   fdet_report diff <baseline> <current>  the one record gate
//                                          (obs::compare_runs) for every
//                                          record kind; exit 2 when a
//                                          series drifted beyond float
//                                          dust, either way, or went
//                                          missing
//
// Exit codes: 0 success/gate-clean, 1 usage error, 2 the gate failed,
// 3 an input is missing, corrupt, of another schema version, has series
// out of (name, labels) order or repeated, or is not a known artifact
// (distinct from 2 so CI can tell "behaviour changed" from "baseline
// file is broken").
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/table.h"
#include "obs/compare.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runrecord.h"

namespace fdet {
namespace {

/// Maps a metric name back to the paper artifact it reproduces — the
/// same correspondence EXPERIMENTS.md tabulates. Longest matching prefix
/// wins; unknown names map to "—".
const char* paper_artifact(const std::string& name) {
  struct Mapping {
    const char* prefix;
    const char* artifact;
  };
  // Ordered longest-prefix-first within a shared stem.
  static constexpr Mapping kMappings[] = {
      {"vgpu.check.", "kernel verification (racecheck/memcheck)"},
      {"vgpu.makespan_ms", "Table II per-config ms/frame"},
      {"vgpu.sm_utilization", "Fig. 6 occupancy contrast"},
      {"vgpu.kernel_duration_ms", "Fig. 6 occupancy contrast"},
      {"vgpu.branch_efficiency", "Sec. VI-A 98.9% branch efficiency"},
      {"vgpu.simd_efficiency", "Sec. VI-A SIMD utilization"},
      {"vgpu.dram_read_gbps", "Sec. VI-A cascade DRAM reads"},
      {"detect.frame_latency_ms", "Fig. 5 latency distribution"},
      {"detect.rejection_depth", "Fig. 7 per-scale rejection depths"},
      {"detect.cascade_branch_efficiency", "Sec. VI-A 98.9% branch efficiency"},
      {"detect.cascade_simd_efficiency", "Sec. VI-A SIMD utilization"},
      {"detect.busy_share", "Sec. VI-A integral ≈ 20%"},
      {"bench.concurrent_speedup", "Table II aggregate ratios"},
      {"bench.combined_speedup", "Table II aggregate ratios"},
      {"bench.deadline_violations", "Fig. 5 40 ms deadline count"},
      {"bench.stage_rejection_rate", "Fig. 7 stage-1 94.52%"},
      {"train.modeled_iteration_s", "Fig. 8 training scalability"},
      {"train.measured_iteration_s", "Fig. 8 training scalability"},
      {"eval.tpr_at_0fp", "Fig. 9 ROC points"},
      {"eval.max_tpr", "Fig. 9 ROC points"},
      {"integral.", "Sec. III-B integral image study"},
      {"haar.", "Table I feature combinations"},
      {"softcascade.", "soft-cascade extension (future work)"},
      {"slo.", "serving SLO engine (DESIGN.md §8)"},
      {"serve.fleet.", "fleet serving (DESIGN.md §12)"},
      {"serve.", "serving layer (chaos invariants)"},
      {"ingest.", "ingest hardening (DESIGN.md §11)"},
      {"profile.", "Sec. VI-A detection-time breakdown"},
      {"obs.overhead", "observability overhead gate"},
  };
  const Mapping* best = nullptr;
  for (const Mapping& m : kMappings) {
    const std::string_view prefix(m.prefix);
    if (name.compare(0, prefix.size(), prefix) == 0 &&
        (best == nullptr || prefix.size() > std::string_view(best->prefix).size())) {
      best = &m;
    }
  }
  return best != nullptr ? best->artifact : "—";
}

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

void show_run_record(const obs::RunRecord& record) {
  std::printf("### Run record `%s` (variant `%s`, schema v%d",
              record.artifact.c_str(), record.variant.c_str(),
              record.schema_version);
  const std::string labels = obs::format_labels(record.labels);
  if (!labels.empty()) {
    std::printf(", %s", labels.c_str());
  }
  std::printf(")\n\n");
  core::Table table({"metric", "labels", "value", "paper artifact"});
  for (const obs::MetricSeries& series : record.metrics) {
    table.add_row({series.name, obs::format_labels(series.labels),
                   format_number(series.value), paper_artifact(series.name)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// Prints the generic table of a metrics export and returns its entries
/// as a record (histograms flatten into `.sum`/`.count`, as in run
/// records), so the sections below read both kinds of file alike.
obs::RunRecord show_metrics_export(const obs::json::Value& doc,
                                   std::string artifact) {
  obs::RunRecord record;
  record.artifact = std::move(artifact);
  const auto add = [&record](std::string name, const obs::Labels& labels,
                             const obs::json::Value& value) {
    const double number = value.is_null() ? std::nan("") : value.as_number();
    record.metrics.push_back({std::move(name), "gauge", labels, number});
  };
  std::printf("### Metrics registry export\n\n");
  core::Table table({"metric", "kind", "labels", "value", "paper artifact"});
  for (const obs::json::Value& entry : doc.at("metrics").as_array()) {
    const std::string& name = entry.at("name").as_string();
    obs::Labels labels;
    for (const auto& [key, value] : entry.at("labels").as_object()) {
      labels.emplace_back(key, value.as_string());
    }
    std::string value;
    if (const obs::json::Value* v = entry.find("value")) {
      value = v->is_null() ? "null" : format_number(v->as_number());
      add(name, labels, *v);
    } else {
      // Histogram: summarize as sum/count, buckets stay in the file.
      value = "sum " + format_number(entry.at("sum").as_number()) + ", n " +
              format_number(entry.at("count").as_number());
      add(name + ".sum", labels, entry.at("sum"));
      add(name + ".count", labels, entry.at("count"));
    }
    table.add_row({name, entry.at("kind").as_string(),
                   obs::format_labels(labels), value, paper_artifact(name)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
  // RunRecord::find binary-searches; flattening broke the export order.
  std::sort(record.metrics.begin(), record.metrics.end(), obs::series_less);
  return record;
}

/// Value of label `key` on a series; empty when absent.
std::string label_of(const obs::MetricSeries& series, const char* key) {
  for (const auto& [k, v] : series.labels) {
    if (k == key) {
      return v;
    }
  }
  return {};
}

/// What the roll-up tables count: a null (non-finite) value counts 0.
double count_of(const obs::MetricSeries& series) {
  return std::isnan(series.value) ? 0.0 : series.value;
}

/// Appends `item` to a ", "-separated list.
void append_item(std::string& list, const std::string& item) {
  if (!list.empty()) {
    list += ", ";
  }
  list += item;
}

/// Per-kernel rollup of the `vgpu.check.*` family (obs/verify.h).
struct KernelVerification {
  double clean = -1.0;  ///< -1 = no vgpu.check.clean gauge seen
  double hazards = 0.0;
  std::string hazard_kinds;
  double shared_accesses = 0.0;
  double carves = 0.0;
  double global_ops = 0.0;
};

void show_verification(const obs::RunRecord& record) {
  std::map<std::string, KernelVerification> verification;
  for (const obs::MetricSeries& series : record.metrics) {
    const std::string kernel = label_of(series, "kernel");
    if (!series.name.starts_with("vgpu.check.") || kernel.empty()) {
      continue;
    }
    KernelVerification& v = verification[kernel];
    const double number = count_of(series);
    if (series.name == "vgpu.check.clean") {
      v.clean = number;
    } else if (series.name == "vgpu.check.hazards") {
      v.hazards += number;
      const std::string kind = label_of(series, "kind");
      if (!kind.empty()) {
        append_item(v.hazard_kinds, kind);
      }
    } else if (series.name == "vgpu.check.shared_accesses") {
      v.shared_accesses = number;
    } else if (series.name == "vgpu.check.carves") {
      v.carves = number;
    } else if (series.name == "vgpu.check.global_ops") {
      v.global_ops = number;
    }
  }
  if (verification.empty()) {
    return;
  }
  std::printf("#### Kernel verification\n\n");
  core::Table table({"kernel", "verdict", "hazards", "shared accesses",
                     "carves", "global ops"});
  for (const auto& [kernel, v] : verification) {
    std::string verdict = "—";
    if (v.clean >= 0.0) {
      verdict = v.clean > 0.0 ? "CLEAN" : "HAZARDS";
    }
    std::string hazards = format_number(v.hazards);
    if (!v.hazard_kinds.empty()) {
      hazards += " (" + v.hazard_kinds + ")";
    }
    table.add_row({kernel, verdict, hazards, format_number(v.shared_accesses),
                   format_number(v.carves), format_number(v.global_ops)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// Per-format rollup of the `ingest.frames` / `ingest.rejects` counters
/// the serving layer publishes per decode attempt (serve/stream.cpp).
struct IngestRollup {
  double accepted = 0.0;
  double rejected = 0.0;
  std::string reject_kinds;  ///< "kind×n, kind×n" breakdown
};

void show_ingest(const obs::RunRecord& record) {
  std::map<std::string, IngestRollup> rollup;
  for (const obs::MetricSeries& series : record.metrics) {
    const std::string format = label_of(series, "format");
    if (format.empty() ||
        (series.name != "ingest.frames" && series.name != "ingest.rejects")) {
      continue;
    }
    IngestRollup& r = rollup[format];
    const double number = count_of(series);
    if (series.name == "ingest.frames") {
      r.accepted = number;
    } else {
      r.rejected += number;
      const std::string kind = label_of(series, "kind");
      if (!kind.empty()) {
        append_item(r.reject_kinds, kind + "×" + format_number(number));
      }
    }
  }
  if (rollup.empty()) {
    return;
  }
  std::printf("#### Ingest accept/reject by format\n\n");
  core::Table table({"format", "accepted", "rejected", "reject breakdown"});
  for (const auto& [format, v] : rollup) {
    table.add_row({format, format_number(v.accepted),
                   format_number(v.rejected),
                   v.reject_kinds.empty() ? "—" : v.reject_kinds});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// The paper-style detection-time breakdown of a kernel profile
/// (obs::render_profile_text).
void show_profile(const obs::RunRecord& record) {
  if (record.find("profile.total_cycles", {}) != nullptr) {
    std::printf("```\n%s```\n", obs::render_profile_text(record).c_str());
  }
}

/// The serving-SLO view: percentiles, miss ratio, burn rates and
/// per-stage latencies from the `slo.*` series the SLO engine publishes
/// (obs::SloEngine::publish).
void show_slo(const obs::RunRecord& record) {
  const obs::MetricSeries* frames = record.find("slo.frames", {});
  if (frames == nullptr) {
    return;
  }
  std::printf("### Serving SLO — `%s` (variant `%s`)\n\n",
              record.artifact.c_str(), record.variant.c_str());
  if (const obs::MetricSeries* deadline = record.find("slo.deadline_ms", {})) {
    std::printf("deadline budget: %s ms, %s frames observed\n\n",
                format_number(deadline->value).c_str(),
                format_number(frames->value).c_str());
  }

  core::Table table({"quantity", "labels", "value"});
  // Stable presentation order: percentiles, then ratios/burn, then
  // stage and queue series, then anything else slo.*.
  static constexpr const char* kFirst[] = {
      "slo.latency_p50_ms",  "slo.latency_p95_ms", "slo.latency_p99_ms",
      "slo.latency_p999_ms", "slo.deadline_miss_ratio",
      "slo.window_miss_ratio", "slo.burn_rate"};
  const auto add_series = [&table](const obs::MetricSeries& series) {
    table.add_row({series.name, obs::format_labels(series.labels),
                   format_number(series.value)});
  };
  for (const char* name : kFirst) {
    for (const obs::MetricSeries& series : record.metrics) {
      if (series.name == name) {
        add_series(series);
      }
    }
  }
  for (const obs::MetricSeries& series : record.metrics) {
    const bool listed =
        std::find_if(std::begin(kFirst), std::end(kFirst),
                     [&series](const char* name) {
                       return series.name == name;
                     }) != std::end(kFirst);
    if (series.name.starts_with("slo.") && !listed) {
      add_series(series);
    }
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// Per-tenant rollup of the `serve.fleet.*` family a fleet chaos run
/// records (serve::FleetScheduler::run).
struct FleetTenantRollup {
  std::string cls;
  double frames = 0.0;
  double rejects = 0.0;
  double misses = 0.0;
  double failovers = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_shed = 0.0;
};

/// The fleet-serving view: the per-tenant QoS table plus the fleet-wide
/// fault/batching summary and the devices' final states.
void show_fleet(const obs::RunRecord& record) {
  std::map<std::string, FleetTenantRollup> tenants;
  std::map<std::string, double> fleet_wide;
  std::map<std::string, double> device_state;
  for (const obs::MetricSeries& series : record.metrics) {
    if (!series.name.starts_with("serve.fleet.")) {
      continue;
    }
    const std::string tenant = label_of(series, "tenant");
    if (!tenant.empty()) {
      FleetTenantRollup& t = tenants[tenant];
      t.cls = label_of(series, "class");
      if (series.name == "serve.fleet.frames") {
        t.frames = series.value;
      } else if (series.name == "serve.fleet.admission_rejects") {
        t.rejects = series.value;
      } else if (series.name == "serve.fleet.deadline_misses") {
        t.misses = series.value;
      } else if (series.name == "serve.fleet.failovers") {
        t.failovers = series.value;
      } else if (series.name == "serve.fleet.latency_p50_ms") {
        t.p50_ms = series.value;
      } else if (series.name == "serve.fleet.latency_p99_ms") {
        t.p99_ms = series.value;
      } else if (series.name == "serve.fleet.max_shed_level") {
        t.max_shed = series.value;
      }
    } else if (series.name == "serve.fleet.device.state") {
      device_state[label_of(series, "device")] = series.value;
    } else {
      fleet_wide[series.name.substr(std::string("serve.fleet.").size())] =
          series.value;
    }
  }
  if (tenants.empty()) {
    return;
  }
  std::printf("### Fleet serving — `%s` (variant `%s`)\n\n",
              record.artifact.c_str(), record.variant.c_str());
  core::Table table({"tenant", "class", "frames", "rejected", "misses",
                     "failovers", "p50 ms", "p99 ms", "max shed"});
  for (const auto& [tenant, t] : tenants) {
    table.add_row({tenant, t.cls, format_number(t.frames),
                   format_number(t.rejects), format_number(t.misses),
                   format_number(t.failovers), format_number(t.p50_ms),
                   format_number(t.p99_ms), format_number(t.max_shed)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
  if (!fleet_wide.empty()) {
    core::Table summary({"fleet-wide", "value"});
    for (const auto& [name, value] : fleet_wide) {
      summary.add_row({name, format_number(value)});
    }
    summary.print_markdown(std::cout);
    std::printf("\n");
  }
  if (!device_state.empty()) {
    // DeviceState enum order: 0 healthy, 1 lost, 2 probation.
    static constexpr const char* kStates[] = {"healthy", "lost", "probation"};
    core::Table devices({"device", "final state"});
    for (const auto& [dev, state] : device_state) {
      const int s = static_cast<int>(state);
      devices.add_row(
          {dev, s >= 0 && s <= 2 ? kStates[s] : format_number(state)});
    }
    devices.print_markdown(std::cout);
    std::printf("\n");
  }
}

/// Per-kernel rollup of the `analyze.lint.*` family (analyze/report.h):
/// the static analyzer's verdicts, captured slot counts and predicted
/// traffic, keyed by target/kernel labels.
struct KernelLintRollup {
  double clean = -1.0;  ///< -1 = no analyze.lint.clean gauge seen
  double shared_slots = 0.0;
  double global_slots = 0.0;
  double predicted_conflicts = 0.0;
  double predicted_transactions = 0.0;
  double findings = 0.0;
  double suppressed = 0.0;
  std::string finding_kinds;
};

void show_lint(const obs::RunRecord& record) {
  std::map<std::string, KernelLintRollup> rollup;
  for (const obs::MetricSeries& series : record.metrics) {
    const std::string kernel = label_of(series, "kernel");
    if (!series.name.starts_with("analyze.lint.") || kernel.empty()) {
      continue;
    }
    const std::string target = label_of(series, "target");
    KernelLintRollup& v = rollup[target.empty() ? kernel
                                                : target + "/" + kernel];
    const double number = count_of(series);
    if (series.name == "analyze.lint.clean") {
      v.clean = number;
    } else if (series.name == "analyze.lint.shared_slots") {
      v.shared_slots += number;
    } else if (series.name == "analyze.lint.global_slots") {
      v.global_slots += number;
    } else if (series.name == "analyze.lint.predicted_bank_conflicts") {
      v.predicted_conflicts += number;
    } else if (series.name == "analyze.lint.predicted_global_transactions") {
      v.predicted_transactions += number;
    } else if (series.name == "analyze.lint.findings") {
      if (label_of(series, "severity") == "suppressed") {
        v.suppressed += number;
      } else {
        v.findings += number;
      }
      const std::string kind = label_of(series, "kind");
      if (!kind.empty() && v.finding_kinds.find(kind) == std::string::npos) {
        append_item(v.finding_kinds, kind);
      }
    }
  }
  if (rollup.empty()) {
    return;
  }
  std::printf("#### Static kernel lint (fdet_lint)\n\n");
  core::Table table({"target/kernel", "verdict", "findings", "slots s/g",
                     "pred conflicts", "pred transactions"});
  for (const auto& [kernel, v] : rollup) {
    std::string verdict = "—";
    if (v.clean >= 0.0) {
      verdict = v.clean > 0.0 ? "CLEAN" : "FINDINGS";
    }
    std::string findings = format_number(v.findings);
    if (v.suppressed > 0.0) {
      findings += " (+" + format_number(v.suppressed) + " suppressed)";
    }
    if (!v.finding_kinds.empty()) {
      findings += " [" + v.finding_kinds + "]";
    }
    table.add_row({kernel, verdict, findings,
                   format_number(v.shared_slots) + "/" +
                       format_number(v.global_slots),
                   format_number(v.predicted_conflicts),
                   format_number(v.predicted_transactions)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// Summarizes a flight-recorder anomaly dump: the root anomaly header
/// (which frame, which causal chain, which trace id) plus per-kind event
/// counts — the quick look before loading the dump in ui.perfetto.dev.
void show_flight(const std::string& path, const obs::json::Value& doc) {
  const obs::json::Value& anomaly = doc.at("anomaly");
  std::printf("### Flight dump `%s`\n\n", path.c_str());
  std::printf("- anomaly: **%s** at frame %s\n",
              anomaly.at("kind").as_string().c_str(),
              format_number(anomaly.at("frame").as_number()).c_str());
  std::printf("- cause: `%s`\n", anomaly.at("cause").as_string().c_str());
  if (const obs::json::Value* trace_id = anomaly.find("trace_id")) {
    std::printf("- trace id: `%s`\n", trace_id->as_string().c_str());
  }

  std::map<std::string, int> kinds;
  double first_us = 0.0;
  double last_us = 0.0;
  bool any = false;
  for (const obs::json::Value& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() == "M") {
      continue;
    }
    std::string kind = "?";
    if (const obs::json::Value* args = event.find("args")) {
      if (const obs::json::Value* k = args->find("kind")) {
        kind = k->as_string();
      }
    }
    ++kinds[kind];
    const double ts = event.at("ts").as_number();
    double end = ts;
    if (const obs::json::Value* dur = event.find("dur")) {
      end += dur->as_number();
    }
    first_us = any ? std::min(first_us, ts) : ts;
    last_us = any ? std::max(last_us, end) : end;
    any = true;
  }
  std::printf("- window: %s ms of virtual time, %s events\n\n",
              format_number((last_us - first_us) / 1e3).c_str(),
              format_number(anomaly.at("events").as_number()).c_str());
  core::Table table({"event kind", "count"});
  for (const auto& [kind, count] : kinds) {
    table.add_row({kind, std::to_string(count)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// `show` for one file; throws core::CheckError when the file cannot be
/// read or is not a known artifact.
void show_file(const std::string& path) {
  const obs::json::Value doc = obs::json::parse_file(path);
  const bool flight =
      doc.find("anomaly") != nullptr && doc.find("traceEvents") != nullptr;
  FDET_CHECK(flight || doc.find("schema_version") != nullptr ||
             doc.find("metrics") != nullptr)
      << path << ": neither a run record, a metrics export nor a flight dump";
  std::printf("<!-- %s -->\n", path.c_str());
  if (flight) {
    show_flight(path, doc);
    return;
  }
  obs::RunRecord record;
  if (doc.find("schema_version") != nullptr) {
    record = obs::RunRecord::from_json(doc);
    show_run_record(record);
  } else {
    record = show_metrics_export(
        doc, std::filesystem::path(path).stem().string());
  }
  show_verification(record);
  show_ingest(record);
  show_profile(record);
  show_slo(record);
  show_fleet(record);
  show_lint(record);
}

/// Markdown verdict table plus one describe() line per failing series
/// (so CI logs name the offending metric without markdown rendering),
/// then the gate exit code.
int run_diff(const obs::RunRecord& baseline, const obs::RunRecord& current) {
  const obs::CompareReport report = obs::compare_runs(baseline, current);

  std::printf("### `%s` (%s) vs baseline\n\n", current.artifact.c_str(),
              current.variant.c_str());
  core::Table table(
      {"verdict", "metric", "labels", "baseline", "current", "Δ%"});
  for (const obs::MetricVerdict& v : report.verdicts) {
    if (v.verdict == obs::Verdict::kUnchanged) {
      continue;
    }
    table.add_row({obs::verdict_name(v.verdict), v.name,
                   obs::format_labels(v.labels), format_number(v.baseline),
                   format_number(v.current),
                   format_number(v.relative_change * 100.0)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
  for (const obs::MetricVerdict& v : report.verdicts) {
    if (v.fails()) {
      std::printf("%s\n", obs::describe(v).c_str());
    }
  }
  std::printf("verdicts: %d drifted, %d missing, %d new, %d unchanged — %s\n",
              report.drifted, report.missing, report.added, report.unchanged,
              report.ok() ? "OK" : "GATE FAILED");
  return report.ok() ? 0 : 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: fdet_report show <file.json>...\n"
               "       fdet_report diff <baseline.json> <current.json>\n");
  return 1;
}

}  // namespace
}  // namespace fdet

int main(int argc, char** argv) {
  using namespace fdet;
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return usage();
  }
  const std::string& command = args[0];
  const std::vector<std::string> operands(args.begin() + 1, args.end());
  if (command == "show" && !operands.empty()) {
    for (const std::string& path : operands) {
      try {
        show_file(path);
      } catch (const core::CheckError& error) {
        std::fprintf(stderr, "fdet_report: cannot show %s: %s\n",
                     path.c_str(), error.what());
        return 3;
      }
    }
    return 0;
  }
  if (command == "diff" && operands.size() == 2) {
    obs::RunRecord baseline;
    obs::RunRecord current;
    try {
      baseline = obs::RunRecord::load_file(operands[0]);
      current = obs::RunRecord::load_file(operands[1]);
    } catch (const core::CheckError& error) {
      std::fprintf(stderr, "fdet_report: cannot load run record: %s\n",
                   error.what());
      return 3;
    }
    return run_diff(baseline, current);
  }
  return usage();
}
