// fdet_report — consumes the machine-readable artifacts the bench
// binaries emit (BENCH_<artifact>.json run records via --record-out,
// metrics registries via --metrics-out) and turns them into
// EXPERIMENTS.md-style markdown or a CI regression gate.
//
//   fdet_report show <file.json>...        render records/metrics as
//                                          markdown, metric names mapped
//                                          back to the paper's artifacts
//   fdet_report diff <baseline> <current>  statistical comparison
//                                          (obs::compare_runs); exit 2
//                                          when a metric regressed or
//                                          went missing
//   fdet_report selftest                   gate logic self-check used by
//                                          the bench_regression_gate
//                                          ctest target
//   fdet_report profile show <p.json>...   paper-style detection-time
//                                          breakdown of a kernel profile
//                                          (PROFILE_<artifact>.json from
//                                          --profile-out)
//   fdet_report profile diff <base> <cur>  differential profiler: gates
//                                          per-kernel/per-stage cycles,
//                                          conflicts and occupancy with
//                                          the same direction-aware
//                                          verdicts as `diff`; exit 2 on
//                                          regression
//   fdet_report fleet show <f.json>...     per-tenant QoS table plus
//                                          fleet-wide fault/batching
//                                          summary from a fleet chaos
//                                          record (fdet_chaos fleet)
//   fdet_report fleet diff <base> <cur>    regression-gates the fleet
//                                          record (latency/miss growth
//                                          regresses); exit 2
//
// Exit codes: 0 success/gate-clean, 1 usage error, 2 regression gate
// failed, 3 a run-record operand is missing or corrupt (distinct from 2
// so CI can tell "perf regressed" from "baseline file is broken").
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/cli.h"
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
  std::printf("### Run record `%s` (variant `%s`, schema v%d, %d repeat%s",
              record.artifact.c_str(), record.variant.c_str(),
              record.schema_version, record.repeats,
              record.repeats == 1 ? "" : "s");
  const std::string labels = obs::format_labels(record.labels);
  if (!labels.empty()) {
    std::printf(", %s", labels.c_str());
  }
  std::printf(")\n\n");
  core::Table table({"metric", "labels", "median", "MAD", "n", "paper artifact"});
  for (const obs::MetricSeries& series : record.metrics) {
    table.add_row({series.name, obs::format_labels(series.labels),
                   format_number(series.median), format_number(series.mad),
                   std::to_string(series.samples.size()),
                   paper_artifact(series.name)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

/// Per-kernel rollup of the `vgpu.check.*` family (obs/verify.h). Keyed
/// by the kernel label; filled from whichever of the family's metrics are
/// present in the export.
struct KernelVerification {
  double clean = -1.0;  ///< -1 = no vgpu.check.clean gauge seen
  double hazards = 0.0;
  std::string hazard_kinds;
  double shared_accesses = 0.0;
  double carves = 0.0;
  double global_ops = 0.0;
};

void show_verification_table(
    const std::map<std::string, KernelVerification>& verification) {
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

/// Per-format rollup of the `ingest.frames` / `ingest.rejects` counters the
/// serving layer publishes per decode attempt (serve/service.cpp).
struct IngestRollup {
  double accepted = 0.0;
  double rejected = 0.0;
  std::string reject_kinds;  ///< "kind×n, kind×n" breakdown
};

void show_ingest_table(const std::map<std::string, IngestRollup>& rollup) {
  std::printf("#### Ingest accept/reject by format\n\n");
  core::Table table(
      {"format", "accepted", "rejected", "reject breakdown"});
  for (const auto& [format, v] : rollup) {
    table.add_row({format, format_number(v.accepted),
                   format_number(v.rejected),
                   v.reject_kinds.empty() ? "—" : v.reject_kinds});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
}

void show_metrics_file(const obs::json::Value& doc) {
  std::printf("### Metrics registry export\n\n");
  core::Table table({"metric", "kind", "labels", "value", "paper artifact"});
  std::map<std::string, KernelVerification> verification;
  std::map<std::string, IngestRollup> ingest;
  for (const obs::json::Value& entry : doc.at("metrics").as_array()) {
    const std::string& name = entry.at("name").as_string();
    std::string labels;
    std::string kernel_label;
    std::string kind_label;
    std::string format_label;
    for (const auto& [key, value] : entry.at("labels").as_object()) {
      if (!labels.empty()) {
        labels += ',';
      }
      labels += key + "=" + value.as_string();
      if (key == "kernel") {
        kernel_label = value.as_string();
      } else if (key == "kind") {
        kind_label = value.as_string();
      } else if (key == "format") {
        format_label = value.as_string();
      }
    }
    std::string value;
    if (const obs::json::Value* v = entry.find("value")) {
      value = v->is_null() ? "null" : format_number(v->as_number());
    } else {
      // Histogram: summarize as sum/count, buckets stay in the file.
      value = "sum " + format_number(entry.at("sum").as_number()) + ", n " +
              format_number(entry.at("count").as_number());
    }
    table.add_row({name, entry.at("kind").as_string(), labels, value,
                   paper_artifact(name)});

    if (name.starts_with("vgpu.check.") && !kernel_label.empty()) {
      KernelVerification& v = verification[kernel_label];
      const obs::json::Value* raw = entry.find("value");
      const double number =
          raw != nullptr && !raw->is_null() ? raw->as_number() : 0.0;
      if (name == "vgpu.check.clean") {
        v.clean = number;
      } else if (name == "vgpu.check.hazards") {
        v.hazards += number;
        if (!kind_label.empty()) {
          if (!v.hazard_kinds.empty()) {
            v.hazard_kinds += ", ";
          }
          v.hazard_kinds += kind_label;
        }
      } else if (name == "vgpu.check.shared_accesses") {
        v.shared_accesses = number;
      } else if (name == "vgpu.check.carves") {
        v.carves = number;
      } else if (name == "vgpu.check.global_ops") {
        v.global_ops = number;
      }
    }

    if (!format_label.empty() &&
        (name == "ingest.frames" || name == "ingest.rejects")) {
      IngestRollup& r = ingest[format_label];
      const obs::json::Value* raw = entry.find("value");
      const double number =
          raw != nullptr && !raw->is_null() ? raw->as_number() : 0.0;
      if (name == "ingest.frames") {
        r.accepted = number;
      } else {
        r.rejected += number;
        if (!kind_label.empty()) {
          if (!r.reject_kinds.empty()) {
            r.reject_kinds += ", ";
          }
          r.reject_kinds += kind_label + "×" + format_number(number);
        }
      }
    }
  }
  table.print_markdown(std::cout);
  std::printf("\n");
  if (!verification.empty()) {
    show_verification_table(verification);
  }
  if (!ingest.empty()) {
    show_ingest_table(ingest);
  }
}

int run_show(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "fdet_report show: no input files\n");
    return 1;
  }
  for (const std::string& path : files) {
    const obs::json::Value doc = obs::json::parse_file(path);
    std::printf("<!-- %s -->\n", path.c_str());
    if (doc.find("schema_version") != nullptr) {
      show_run_record(obs::RunRecord::from_json(doc));
    } else if (doc.find("metrics") != nullptr) {
      show_metrics_file(doc);
    } else {
      std::fprintf(stderr,
                   "%s: neither a run record nor a metrics export\n",
                   path.c_str());
      return 1;
    }
  }
  return 0;
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

void show_lint_table(const std::map<std::string, KernelLintRollup>& rollup) {
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

/// Renders the static-analyzer view of a metrics export: one row per
/// linted kernel from the analyze.lint.* family fdet_lint publishes with
/// --metrics-out. Returns 1 when a file carries no analyze.lint.* metrics
/// — wrong file, not a clean lint.
int run_lint(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "fdet_report lint: no input files\n");
    return 1;
  }
  for (const std::string& path : files) {
    const obs::json::Value doc = obs::json::parse_file(path);
    if (doc.find("metrics") == nullptr) {
      std::fprintf(stderr, "%s: not a metrics export\n", path.c_str());
      return 1;
    }
    std::printf("<!-- %s -->\n", path.c_str());
    std::map<std::string, KernelLintRollup> rollup;
    for (const obs::json::Value& entry : doc.at("metrics").as_array()) {
      const std::string& name = entry.at("name").as_string();
      if (!name.starts_with("analyze.lint.")) {
        continue;
      }
      std::string target_label;
      std::string kernel_label;
      std::string kind_label;
      std::string severity_label;
      for (const auto& [key, value] : entry.at("labels").as_object()) {
        if (key == "target") {
          target_label = value.as_string();
        } else if (key == "kernel") {
          kernel_label = value.as_string();
        } else if (key == "kind") {
          kind_label = value.as_string();
        } else if (key == "severity") {
          severity_label = value.as_string();
        }
      }
      if (kernel_label.empty()) {
        continue;
      }
      const std::string key = target_label.empty()
                                  ? kernel_label
                                  : target_label + "/" + kernel_label;
      KernelLintRollup& v = rollup[key];
      const obs::json::Value* raw = entry.find("value");
      const double number =
          raw != nullptr && !raw->is_null() ? raw->as_number() : 0.0;
      if (name == "analyze.lint.clean") {
        v.clean = number;
      } else if (name == "analyze.lint.shared_slots") {
        v.shared_slots += number;
      } else if (name == "analyze.lint.global_slots") {
        v.global_slots += number;
      } else if (name == "analyze.lint.predicted_bank_conflicts") {
        v.predicted_conflicts += number;
      } else if (name == "analyze.lint.predicted_global_transactions") {
        v.predicted_transactions += number;
      } else if (name == "analyze.lint.findings") {
        if (severity_label == "suppressed") {
          v.suppressed += number;
        } else {
          v.findings += number;
        }
        if (!kind_label.empty() &&
            v.finding_kinds.find(kind_label) == std::string::npos) {
          if (!v.finding_kinds.empty()) {
            v.finding_kinds += ", ";
          }
          v.finding_kinds += kind_label;
        }
      }
    }
    if (rollup.empty()) {
      std::fprintf(stderr, "%s: no analyze.lint.* metrics in export\n",
                   path.c_str());
      return 1;
    }
    show_lint_table(rollup);
  }
  return 0;
}

/// Renders the serving-SLO view of a run record: percentiles, miss
/// ratio, burn rates and per-stage latencies from the `slo.*` series the
/// SLO engine publishes (obs::SloEngine::publish). Returns 1 when the
/// record carries no slo.* series — wrong file, not an empty SLO.
int run_slo(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "fdet_report slo: no input files\n");
    return 1;
  }
  for (const std::string& path : files) {
    obs::RunRecord record;
    try {
      record = obs::RunRecord::load_file(path);
    } catch (const core::CheckError& error) {
      std::fprintf(stderr, "fdet_report: cannot load run record: %s\n",
                   error.what());
      return 3;
    }
    std::printf("### Serving SLO — `%s` (variant `%s`, %d repeat%s)\n\n",
                record.artifact.c_str(), record.variant.c_str(),
                record.repeats, record.repeats == 1 ? "" : "s");
    const auto find = [&record](const char* name,
                                const obs::Labels& labels =
                                    {}) -> const obs::MetricSeries* {
      return record.find(name, labels);
    };
    const obs::MetricSeries* deadline = find("slo.deadline_ms");
    const obs::MetricSeries* frames = find("slo.frames");
    if (frames == nullptr) {
      std::fprintf(stderr,
                   "%s: no slo.* series — not a serving SLO record "
                   "(generate one with bench_serving_slo)\n",
                   path.c_str());
      return 1;
    }
    if (deadline != nullptr) {
      std::printf("deadline budget: %s ms, %s frames observed\n\n",
                  format_number(deadline->median).c_str(),
                  format_number(frames->median).c_str());
    }

    core::Table table({"quantity", "labels", "median", "MAD"});
    // Stable presentation order: percentiles, then ratios/burn, then
    // stage and queue series, then anything else slo.*.
    static constexpr const char* kFirst[] = {
        "slo.latency_p50_ms",  "slo.latency_p95_ms", "slo.latency_p99_ms",
        "slo.latency_p999_ms", "slo.deadline_miss_ratio",
        "slo.window_miss_ratio", "slo.burn_rate"};
    const auto add_series = [&table](const obs::MetricSeries& series) {
      table.add_row({series.name, obs::format_labels(series.labels),
                     format_number(series.median),
                     format_number(series.mad)});
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
  return 0;
}

/// Summarizes a flight-recorder anomaly dump: the root anomaly header
/// (which frame, which causal chain, which trace id) plus per-kind event
/// counts — the quick look before loading the dump in ui.perfetto.dev.
int run_flight(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "fdet_report flight: no input files\n");
    return 1;
  }
  for (const std::string& path : files) {
    const obs::json::Value doc = obs::json::parse_file(path);
    const obs::json::Value* anomaly = doc.find("anomaly");
    if (anomaly == nullptr || doc.find("traceEvents") == nullptr) {
      std::fprintf(stderr, "%s: not a flight-recorder dump (no anomaly "
                           "header)\n",
                   path.c_str());
      return 1;
    }
    std::printf("### Flight dump `%s`\n\n", path.c_str());
    std::printf("- anomaly: **%s** at frame %s\n",
                anomaly->at("kind").as_string().c_str(),
                format_number(anomaly->at("frame").as_number()).c_str());
    std::printf("- cause: `%s`\n", anomaly->at("cause").as_string().c_str());
    if (const obs::json::Value* trace_id = anomaly->find("trace_id")) {
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
      if (!any) {
        first_us = ts;
        last_us = end;
        any = true;
      } else {
        first_us = std::min(first_us, ts);
        last_us = std::max(last_us, end);
      }
    }
    std::printf("- window: %s ms of virtual time, %s events\n\n",
                format_number((last_us - first_us) / 1e3).c_str(),
                format_number(anomaly->at("events").as_number()).c_str());
    core::Table table({"event kind", "count"});
    for (const auto& [kind, count] : kinds) {
      table.add_row({kind, std::to_string(count)});
    }
    table.print_markdown(std::cout);
    std::printf("\n");
  }
  return 0;
}

/// Markdown verdict table plus explicit REGRESSED/MISSING lines (so CI
/// logs name the offending metric without markdown rendering), then the
/// gate exit code. Shared by `diff` and `selftest`.
int run_diff(const obs::RunRecord& baseline, const obs::RunRecord& current,
             const obs::CompareOptions& options, bool show_unchanged) {
  const obs::CompareReport report =
      obs::compare_runs(baseline, current, options);

  std::printf("### `%s` (%s) vs baseline (%d vs %d repeats)\n\n",
              current.artifact.c_str(), current.variant.c_str(),
              current.repeats, baseline.repeats);
  core::Table table(
      {"verdict", "metric", "labels", "baseline", "current", "Δ%"});
  for (const obs::MetricVerdict& v : report.verdicts) {
    if (!show_unchanged && v.verdict == obs::Verdict::kUnchanged) {
      continue;
    }
    table.add_row({obs::verdict_name(v.verdict), v.name,
                   obs::format_labels(v.labels),
                   format_number(v.baseline_median),
                   format_number(v.current_median),
                   format_number(v.relative_change * 100.0)});
  }
  table.print_markdown(std::cout);
  std::printf("\n");
  for (const obs::MetricVerdict& v : report.verdicts) {
    if (v.verdict == obs::Verdict::kRegressed ||
        v.verdict == obs::Verdict::kMissing) {
      std::printf("%s\n", obs::describe(v).c_str());
    }
  }
  std::printf("verdicts: %d regressed, %d missing, %d improved, %d new, "
              "%d unchanged — %s\n",
              report.regressed, report.missing, report.improved, report.added,
              report.unchanged, report.ok() ? "OK" : "GATE FAILED");
  return report.ok() ? 0 : 2;
}

/// `fdet_report profile show|diff`: the kernel-profiler views.
/// `show` renders the paper-style detection-time breakdown
/// (obs::render_profile_text) plus the per-metric mapping table; `diff`
/// projects both profiles into run records (ProfileRecord::to_run_record)
/// and reuses the direction-aware gate, so cycle/conflict/transaction
/// growth and occupancy loss regress while improvements pass.
int run_profile(const std::vector<std::string>& operands,
                const obs::CompareOptions& options, bool show_unchanged) {
  if (operands.empty()) {
    std::fprintf(stderr, "fdet_report profile: missing subcommand "
                         "(show|diff)\n");
    return 1;
  }
  const std::string& sub = operands[0];
  const std::vector<std::string> files(operands.begin() + 1, operands.end());
  if (sub == "show") {
    if (files.empty()) {
      std::fprintf(stderr, "fdet_report profile show: no input files\n");
      return 1;
    }
    for (const std::string& path : files) {
      obs::ProfileRecord record;
      try {
        record = obs::ProfileRecord::load_file(path);
      } catch (const core::CheckError& error) {
        std::fprintf(stderr, "fdet_report: cannot load profile record: %s\n",
                     error.what());
        return 3;
      }
      std::printf("<!-- %s -->\n```\n%s```\n", path.c_str(),
                  obs::render_profile_text(record).c_str());
    }
    return 0;
  }
  if (sub == "diff") {
    if (files.size() != 2) {
      std::fprintf(stderr, "fdet_report profile diff: expected "
                           "<baseline.json> <current.json>\n");
      return 1;
    }
    obs::ProfileRecord baseline;
    obs::ProfileRecord current;
    try {
      baseline = obs::ProfileRecord::load_file(files[0]);
      current = obs::ProfileRecord::load_file(files[1]);
    } catch (const core::CheckError& error) {
      std::fprintf(stderr, "fdet_report: cannot load profile record: %s\n",
                   error.what());
      return 3;
    }
    return run_diff(baseline.to_run_record(), current.to_run_record(),
                    options, show_unchanged);
  }
  std::fprintf(stderr, "fdet_report profile: unknown subcommand '%s'\n",
               sub.c_str());
  return 1;
}

/// Per-tenant rollup of the `serve.fleet.*` family a fleet chaos run
/// records (serve::FleetScheduler::run): admission, deadline and
/// failover counters plus the latency percentiles, keyed by the tenant
/// label.
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

/// `fdet_report fleet show|diff`: the fleet-serving views over
/// BENCH_fleet_chaos.json. `show` renders the per-tenant QoS table plus
/// the fleet-wide fault/batching summary; `diff` reuses the
/// direction-aware regression gate (latency/miss growth regresses,
/// exit 2) — the fleet_record_gate ctest target runs it against the
/// committed baseline.
int run_fleet(const std::vector<std::string>& operands,
              const obs::CompareOptions& options, bool show_unchanged) {
  if (operands.empty()) {
    std::fprintf(stderr, "fdet_report fleet: missing subcommand "
                         "(show|diff)\n");
    return 1;
  }
  const std::string& sub = operands[0];
  const std::vector<std::string> files(operands.begin() + 1, operands.end());
  if (sub == "diff") {
    if (files.size() != 2) {
      std::fprintf(stderr, "fdet_report fleet diff: expected "
                           "<baseline.json> <current.json>\n");
      return 1;
    }
    obs::RunRecord baseline;
    obs::RunRecord current;
    try {
      baseline = obs::RunRecord::load_file(files[0]);
      current = obs::RunRecord::load_file(files[1]);
    } catch (const core::CheckError& error) {
      std::fprintf(stderr, "fdet_report: cannot load run record: %s\n",
                   error.what());
      return 3;
    }
    return run_diff(baseline, current, options, show_unchanged);
  }
  if (sub != "show") {
    std::fprintf(stderr, "fdet_report fleet: unknown subcommand '%s'\n",
                 sub.c_str());
    return 1;
  }
  if (files.empty()) {
    std::fprintf(stderr, "fdet_report fleet show: no input files\n");
    return 1;
  }
  for (const std::string& path : files) {
    obs::RunRecord record;
    try {
      record = obs::RunRecord::load_file(path);
    } catch (const core::CheckError& error) {
      std::fprintf(stderr, "fdet_report: cannot load run record: %s\n",
                   error.what());
      return 3;
    }
    std::map<std::string, FleetTenantRollup> tenants;
    std::map<std::string, double> fleet_wide;
    std::map<std::string, double> device_state;
    for (const obs::MetricSeries& series : record.metrics) {
      if (!series.name.starts_with("serve.fleet.")) {
        continue;
      }
      std::string tenant_label;
      std::string class_label;
      std::string device_label;
      for (const auto& [key, value] : series.labels) {
        if (key == "tenant") {
          tenant_label = value;
        } else if (key == "class") {
          class_label = value;
        } else if (key == "device") {
          device_label = value;
        }
      }
      if (!tenant_label.empty()) {
        FleetTenantRollup& t = tenants[tenant_label];
        t.cls = class_label;
        if (series.name == "serve.fleet.frames") {
          t.frames = series.median;
        } else if (series.name == "serve.fleet.admission_rejects") {
          t.rejects = series.median;
        } else if (series.name == "serve.fleet.deadline_misses") {
          t.misses = series.median;
        } else if (series.name == "serve.fleet.failovers") {
          t.failovers = series.median;
        } else if (series.name == "serve.fleet.latency_p50_ms") {
          t.p50_ms = series.median;
        } else if (series.name == "serve.fleet.latency_p99_ms") {
          t.p99_ms = series.median;
        } else if (series.name == "serve.fleet.max_shed_level") {
          t.max_shed = series.median;
        }
      } else if (series.name == "serve.fleet.device.state") {
        device_state[device_label] = series.median;
      } else {
        fleet_wide[series.name.substr(std::string("serve.fleet.").size())] =
            series.median;
      }
    }
    if (tenants.empty()) {
      std::fprintf(stderr,
                   "%s: no serve.fleet.* series — not a fleet chaos record "
                   "(generate one with `fdet_chaos fleet --record-out=...`)\n",
                   path.c_str());
      return 1;
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
      static constexpr const char* kStates[] = {"healthy", "lost",
                                                "probation"};
      core::Table devices({"device", "final state"});
      for (const auto& [dev, state] : device_state) {
        const int s = static_cast<int>(state);
        devices.add_row({dev, s >= 0 && s <= 2 ? kStates[s]
                                               : format_number(state)});
      }
      devices.print_markdown(std::cout);
      std::printf("\n");
    }
  }
  return 0;
}

/// Synthetic fig5-shaped record for the gate self-check.
obs::RunRecord synthetic_record() {
  obs::RunRecord record;
  record.artifact = "selftest";
  record.repeats = 3;
  const auto series = [](std::string name, std::string kind,
                         obs::Labels labels, std::vector<double> samples) {
    obs::MetricSeries s;
    s.name = std::move(name);
    s.kind = std::move(kind);
    s.labels = std::move(labels);
    s.samples = std::move(samples);
    s.median = obs::median_of(s.samples);
    s.mad = obs::mad_of(s.samples, s.median);
    return s;
  };
  record.metrics = {
      series("detect.frames", "counter", {{"mode", "concurrent"}}, {36, 36, 36}),
      series("vgpu.branch_efficiency", "gauge", {{"mode", "concurrent"}},
             {0.982, 0.982, 0.981}),
      series("vgpu.makespan_ms", "gauge", {{"mode", "concurrent"}},
             {4.00, 4.01, 3.99}),
  };
  return record;
}

int run_selftest() {
  const obs::RunRecord baseline = synthetic_record();

  // Round-trip through the serializer: the gate must behave identically
  // on a record that went to disk and back.
  const obs::RunRecord reparsed = obs::RunRecord::parse(baseline.dump());

  obs::RunRecord regressed = synthetic_record();
  for (obs::MetricSeries& series : regressed.metrics) {
    if (series.name == "vgpu.makespan_ms") {
      for (double& sample : series.samples) {
        sample *= 1.20;  // the injected 20% makespan regression
      }
      series.median = obs::median_of(series.samples);
      series.mad = obs::mad_of(series.samples, series.median);
    }
  }

  std::printf("--- selftest: identical records ---\n");
  const int clean = run_diff(baseline, reparsed, {}, true);
  std::printf("\n--- selftest: injected +20%% vgpu.makespan_ms ---\n");
  const int gated = run_diff(baseline, regressed, {}, false);

  const obs::CompareReport report = obs::compare_runs(baseline, regressed, {});
  const bool names_metric =
      !report.verdicts.empty() &&
      report.verdicts.front().verdict == obs::Verdict::kRegressed &&
      report.verdicts.front().name == "vgpu.makespan_ms";
  if (clean != 0 || gated == 0 || !names_metric) {
    std::fprintf(stderr,
                 "selftest FAILED: clean=%d gated=%d names_metric=%d\n",
                 clean, gated, names_metric);
    return 1;
  }
  std::printf("\nselftest ok: identical -> exit 0, regression -> exit %d "
              "naming vgpu.makespan_ms\n",
              gated);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fdet_report [flags] show <file.json>...\n"
      "       fdet_report [flags] diff <baseline.json> <current.json>\n"
      "       fdet_report lint <LINT_metrics.json>...\n"
      "       fdet_report slo <BENCH_serving_slo.json>...\n"
      "       fdet_report flight <flight_dump.json>...\n"
      "       fdet_report profile show <PROFILE_x.json>...\n"
      "       fdet_report profile diff <baseline.json> <current.json>\n"
      "       fdet_report fleet show <BENCH_fleet_chaos.json>...\n"
      "       fdet_report fleet diff <baseline.json> <current.json>\n"
      "       fdet_report selftest\n"
      "flags: --threshold=R --mad-mult=M --ignore=prefix1,prefix2\n"
      "       --show-unchanged\n");
  return 1;
}

}  // namespace
}  // namespace fdet

int main(int argc, char** argv) {
  using namespace fdet;
  double threshold = obs::CompareOptions{}.relative_threshold;
  double mad_mult = obs::CompareOptions{}.mad_multiplier;
  std::string ignore = "bench.wall_seconds,host_wall";
  bool show_unchanged = false;
  core::Cli cli("fdet_report");
  cli.flag("threshold", threshold, "relative shift tolerated before a verdict");
  cli.flag("mad-mult", mad_mult, "noise band in multiples of the repeat MAD");
  cli.flag("ignore", ignore, "comma-separated metric-name substrings to skip");
  cli.flag("show-unchanged", show_unchanged, "list unchanged metrics in diffs");
  std::vector<std::string> args;
  if (!cli.parse_known(argc, argv, args)) {
    return 1;
  }
  // args[0] is argv[0]; the subcommand and its operands follow.
  if (args.size() < 2) {
    return usage();
  }
  const std::string command = args[1];
  const std::vector<std::string> operands(args.begin() + 2, args.end());

  obs::CompareOptions options;
  options.relative_threshold = threshold;
  options.mad_multiplier = mad_mult;
  options.ignore.clear();
  std::istringstream prefixes(ignore);
  for (std::string prefix; std::getline(prefixes, prefix, ',');) {
    if (!prefix.empty()) {
      options.ignore.push_back(prefix);
    }
  }

  try {
    if (command == "show") {
      return run_show(operands);
    }
    if (command == "diff") {
      if (operands.size() != 2) {
        return usage();
      }
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
      return run_diff(baseline, current, options, show_unchanged);
    }
    if (command == "lint") {
      return run_lint(operands);
    }
    if (command == "slo") {
      return run_slo(operands);
    }
    if (command == "profile") {
      return run_profile(operands, options, show_unchanged);
    }
    if (command == "fleet") {
      return run_fleet(operands, options, show_unchanged);
    }
    if (command == "flight") {
      return run_flight(operands);
    }
    if (command == "selftest") {
      return run_selftest();
    }
  } catch (const core::CheckError& error) {
    std::fprintf(stderr, "fdet_report: %s\n", error.what());
    return 1;
  }
  return usage();
}
