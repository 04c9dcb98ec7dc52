// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures. Every binary prints the paper's reference values
// next to the measured ones so EXPERIMENTS.md can be assembled directly
// from bench output.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/cli.h"
#include "core/stopwatch.h"
#include "core/table.h"
#include "detect/pipeline.h"
#include "obs/compare.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runrecord.h"
#include "obs/trace.h"
#include "train/pretrained.h"
#include "video/decoder.h"
#include "video/trailer.h"

namespace fdet::bench {

inline constexpr const char* kDefaultCacheDir = "fdet_cache";

/// Loads (or trains once and caches) the paper's cascade pair.
inline train::CascadePair load_cascades(const std::string& cache_dir) {
  return train::get_or_train_cascades(cache_dir);
}

/// Banner shared by all bench binaries.
inline void print_header(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("Reproduction of Oro et al., \"Accelerating Boosting-based\n");
  std::printf("Face Detection on GPUs\", ICPP 2012 (virtual-GPU simulator).\n");
  std::printf("==============================================================\n\n");
}

/// Machine-readable run record shared by every bench binary: a metrics
/// registry per measurement repeat plus an ambient trace session.
/// Construct before parsing, register flags via add_flags, and return
/// finish()'s exit code after the printed tables:
///
///   bench::RunRecorder run("fig6");
///   core::Cli cli("bench_fig6_kernel_trace");
///   run.add_flags(cli);
///   ...
///   for (int rep = 0; rep < run.repeats(); ++rep) {
///     run.begin_repeat(rep);
///     obs::publish_timeline(run.metrics(), tl, {{"mode", "concurrent"}});
///     if (rep == 0) run.add_timeline("concurrent", tl);
///   }
///   return run.finish();
///
/// Artifacts:
///   --trace-out         Chrome/Perfetto trace (ambient TraceSession; the
///                       binary's lifetime, so library-internal spans land
///                       automatically)
///   --metrics-out       metrics registry of the *last* repeat (JSON/CSV)
///   --profile-out       kernel profile (obs::ProfileRecord) aggregated
///                       over every launch of the binary's lifetime — the
///                       collector is installed from construction, so all
///                       repeats fold into one record
///   --record-out        obs::RunRecord aggregating all repeats (median +
///                       MAD per series); defaults to BENCH_<artifact>.json
///                       in the working directory, empty disables
///   --repeat            measurement repetitions folded into the record
///   --baseline          gate this run against a stored record
///                       (obs::compare_runs); finish() returns 2 on
///                       regression so the binary's exit status fails CI
///   --update-baseline   rewrite --baseline from this run instead of gating
///
/// finish() re-parses whatever it wrote — an invalid artifact fails
/// loudly, which is what the ctest smoke targets rely on.
class RunRecorder {
 public:
  explicit RunRecorder(std::string artifact)
      : artifact_(std::move(artifact)),
        record_out_(obs::run_record_path(artifact_)) {
    session_.install();
    repeats_.push_back(std::make_unique<obs::Registry>());
    metrics().gauge("bench.schema_version").set(1.0);
  }

  ~RunRecorder() { session_.uninstall(); }

  void add_flags(core::Cli& cli) {
    cli.flag("trace-out", trace_out_,
             "write a Chrome/Perfetto trace-event JSON file");
    cli.flag("metrics-out", metrics_out_,
             "write run metrics (JSON, or CSV when the path ends in .csv)");
    cli.flag("record-out", record_out_,
             "run-record path (empty disables writing)");
    cli.flag("profile-out", profile_out_,
             "kernel-profile record path (empty disables writing)");
    cli.flag("repeat", repeat_,
             "measurement repetitions aggregated into the run record");
    cli.flag("baseline", baseline_,
             "baseline run record to gate this run against");
    cli.flag("update-baseline", update_baseline_,
             "rewrite --baseline from this run instead of gating");
    cli.flag("variant", variant_,
             "configuration variant stamped into the run record");
  }

  /// Effective repetition count (>= 1 regardless of the flag value).
  int repeats() const { return repeat_ < 1 ? 1 : repeat_; }

  /// Registry of the current repeat. Call sites that don't loop keep
  /// publishing into repeat 0, exactly the pre-repeat behavior.
  obs::Registry& metrics() { return *repeats_.back(); }
  obs::TraceSession& trace() { return session_; }
  /// Kernel profiler collecting every launch on this thread (the
  /// collection scope lives as long as the recorder).
  obs::KernelProfiler& profiler() { return profiler_; }

  /// Starts measurement repetition `rep` (0-based): rep 0 reuses the
  /// registry that exists from construction, later reps get a fresh one
  /// so counters/gauges are per-repeat samples. Benches typically print
  /// their tables only when rep == 0.
  void begin_repeat(int rep) {
    FDET_CHECK(rep == static_cast<int>(repeats_.size()) - 1 || rep == static_cast<int>(repeats_.size()))
        << "begin_repeat(" << rep << ") out of order";
    if (rep == 0) {
      return;
    }
    if (rep == static_cast<int>(repeats_.size())) {
      repeats_.push_back(std::make_unique<obs::Registry>());
      metrics().gauge("bench.schema_version").set(1.0);
    }
  }

  /// True when --trace-out was given; use to skip building large device
  /// tracks no one will read.
  bool trace_enabled() const { return !trace_out_.empty(); }

  void add_timeline(const std::string& label, const vgpu::Timeline& tl) {
    if (trace_enabled()) {
      session_.add_timeline(label, tl);
    }
  }

  /// Writes the requested artifacts (validating each by re-parsing) and
  /// runs the baseline gate. Returns the process exit code: 0; 2 when
  /// --baseline comparison found a regressed or missing metric; 3 when
  /// the --baseline file is missing or corrupt (distinct from a gate
  /// failure so CI can tell "perf regressed" from "baseline is broken").
  int finish() {
    // A bench that accepts --repeat but never runs the begin_repeat()
    // loop would silently write a 1-repeat record claiming fewer
    // samples than the user asked for; refuse instead.
    FDET_CHECK(static_cast<int>(repeats_.size()) == repeats())
        << "--repeat=" << repeat_ << " requested but " << artifact_
        << " recorded " << repeats_.size()
        << " repeat(s); this bench does not implement the repeat loop";
    metrics().gauge("bench.wall_seconds").set(watch_.elapsed_seconds());
    if (!trace_out_.empty()) {
      session_.write_file(trace_out_);
      const obs::json::Value trace = obs::json::parse_file(trace_out_);
      FDET_CHECK(!trace.at("traceEvents").as_array().empty())
          << "trace '" << trace_out_ << "' has no events";
      std::printf("\n[%s] trace written to %s (%zu events)\n",
                  artifact_.c_str(), trace_out_.c_str(),
                  trace.at("traceEvents").as_array().size());
    }
    if (!metrics_out_.empty()) {
      metrics().write_file(metrics_out_);
      if (metrics_out_.size() < 4 ||
          metrics_out_.compare(metrics_out_.size() - 4, 4, ".csv") != 0) {
        const obs::json::Value doc = obs::json::parse_file(metrics_out_);
        FDET_CHECK(!doc.at("metrics").as_array().empty())
            << "metrics '" << metrics_out_ << "' is empty";
      }
      std::printf("[%s] metrics written to %s (%zu series)\n",
                  artifact_.c_str(), metrics_out_.c_str(), metrics().size());
    }

    if (!profile_out_.empty()) {
      const obs::ProfileRecord profile =
          profiler_.snapshot(artifact_, variant_);
      profile.write_file(profile_out_);
      const obs::ProfileRecord reparsed =
          obs::ProfileRecord::load_file(profile_out_);
      std::printf("[%s] kernel profile written to %s "
                  "(%zu kernels, %llu launches)\n",
                  artifact_.c_str(), profile_out_.c_str(),
                  reparsed.kernels.size(),
                  static_cast<unsigned long long>(reparsed.launches));
    }

    std::vector<const obs::Registry*> registries;
    for (const auto& registry : repeats_) {
      registries.push_back(registry.get());
    }
    const obs::RunRecord record =
        obs::build_run_record(artifact_, variant_, {}, registries);
    if (!record_out_.empty()) {
      record.write_file(record_out_);
      const obs::RunRecord reparsed = obs::RunRecord::load_file(record_out_);
      FDET_CHECK(!reparsed.metrics.empty())
          << "run record '" << record_out_ << "' has no series";
      std::printf("[%s] run record written to %s (%zu series, %d repeat%s)\n",
                  artifact_.c_str(), record_out_.c_str(),
                  reparsed.metrics.size(), reparsed.repeats,
                  reparsed.repeats == 1 ? "" : "s");
    }
    if (update_baseline_) {
      FDET_CHECK(!baseline_.empty()) << "--update-baseline needs --baseline";
      record.write_file(baseline_);
      std::printf("[%s] baseline updated: %s\n", artifact_.c_str(),
                  baseline_.c_str());
      return 0;
    }
    if (!baseline_.empty()) {
      obs::RunRecord baseline;
      try {
        baseline = obs::RunRecord::load_file(baseline_);
      } catch (const core::CheckError& error) {
        std::fprintf(stderr,
                     "[%s] cannot load baseline: %s\n"
                     "[%s] run with --baseline=%s --update-baseline to "
                     "(re)create it\n",
                     artifact_.c_str(), error.what(), artifact_.c_str(),
                     baseline_.c_str());
        return 3;
      }
      const obs::CompareReport report = obs::compare_runs(baseline, record);
      std::printf("\n[%s] baseline gate vs %s:\n%s", artifact_.c_str(),
                  baseline_.c_str(),
                  obs::render_text_report(report).c_str());
      return report.ok() ? 0 : 2;
    }
    return 0;
  }

 private:
  std::string artifact_;
  std::string variant_ = "default";
  std::string trace_out_;
  std::string metrics_out_;
  std::string record_out_;
  std::string profile_out_;
  std::string baseline_;
  bool update_baseline_ = false;
  int repeat_ = 1;
  std::vector<std::unique_ptr<obs::Registry>> repeats_;
  obs::TraceSession session_;
  obs::KernelProfiler profiler_;
  obs::ScopedProfileCollection profile_scope_{profiler_};
  core::Stopwatch watch_;
};

}  // namespace fdet::bench
