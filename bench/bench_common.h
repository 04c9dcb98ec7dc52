// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures. Every binary prints the paper's reference values
// next to the measured ones so EXPERIMENTS.md can be assembled directly
// from bench output.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/cli.h"
#include "core/stopwatch.h"
#include "core/table.h"
#include "detect/pipeline.h"
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

/// Machine-readable run record shared by every bench binary: one metrics
/// registry plus an ambient trace session. Construct before parsing,
/// register flags via add_flags, and return finish()'s exit code after
/// the printed tables:
///
///   bench::RunRecorder run("fig6");
///   core::Cli cli("bench_fig6_kernel_trace");
///   run.add_flags(cli);
///   ...
///   obs::publish_timeline(run.metrics(), tl, {{"mode", "concurrent"}});
///   run.add_timeline("concurrent", tl);
///   return run.finish();
///
/// Artifacts:
///   --trace-out         Chrome/Perfetto trace (ambient TraceSession; the
///                       binary's lifetime, so library-internal spans land
///                       automatically)
///   --metrics-out       the metrics registry (JSON)
///   --profile-out       kernel profile (an obs::RunRecord of profile.*
///                       series, obs/profile.h) aggregated over every
///                       launch of the binary's lifetime — the collector
///                       is installed from construction
///   --record-out        obs::RunRecord of the registry, one value per
///                       series; defaults to BENCH_<artifact>.json in the
///                       working directory, empty disables
///   --variant           configuration variant stamped into both records
///
/// Every recorded series is on the deterministic modeled clock, so one
/// run is the measurement. Gating is `fdet_report diff <baseline>
/// <record>`, on the files these flags write. finish() re-parses
/// whatever it wrote — an invalid artifact fails loudly, which is what
/// the ctest smoke targets rely on.
class RunRecorder {
 public:
  explicit RunRecorder(std::string artifact)
      : artifact_(std::move(artifact)),
        record_out_(obs::run_record_path(artifact_)) {
    session_.install();
    metrics_.gauge("bench.schema_version").set(1.0);
  }

  ~RunRecorder() { session_.uninstall(); }

  void add_flags(core::Cli& cli) {
    cli.flag("trace-out", trace_out_,
             "write a Chrome/Perfetto trace-event JSON file");
    cli.flag("metrics-out", metrics_out_, "write run metrics (JSON)");
    cli.flag("record-out", record_out_,
             "run-record path (empty disables writing)");
    cli.flag("profile-out", profile_out_,
             "kernel-profile record path (empty disables writing)");
    cli.flag("variant", variant_,
             "configuration variant stamped into the run record");
  }

  obs::Registry& metrics() { return metrics_; }
  obs::TraceSession& trace() { return session_; }
  /// Kernel profiler collecting every launch on this thread (the
  /// collection scope lives as long as the recorder).
  obs::KernelProfiler& profiler() { return profiler_; }

  /// True when --trace-out was given; use to skip building large device
  /// tracks no one will read.
  bool trace_enabled() const { return !trace_out_.empty(); }

  void add_timeline(const std::string& label, const vgpu::Timeline& tl) {
    if (trace_enabled()) {
      session_.add_timeline(label, tl);
    }
  }

  /// Writes the requested artifacts, validating each by re-parsing.
  /// Returns the process exit code, 0.
  int finish() {
    // Host wall time is printed, not recorded: the records hold the
    // deterministic modeled clock, and perfbench owns the host clock.
    std::printf("\n[%s] bench.wall_seconds %.3f\n", artifact_.c_str(),
                watch_.elapsed_seconds());
    if (!trace_out_.empty()) {
      session_.write_file(trace_out_);
      const obs::json::Value trace = obs::json::parse_file(trace_out_);
      FDET_CHECK(!trace.at("traceEvents").as_array().empty())
          << "trace '" << trace_out_ << "' has no events";
      std::printf("[%s] trace written to %s (%zu events)\n",
                  artifact_.c_str(), trace_out_.c_str(),
                  trace.at("traceEvents").as_array().size());
    }
    if (!metrics_out_.empty()) {
      metrics_.write_file(metrics_out_);
      const obs::json::Value doc = obs::json::parse_file(metrics_out_);
      FDET_CHECK(!doc.at("metrics").as_array().empty())
          << "metrics '" << metrics_out_ << "' is empty";
      std::printf("[%s] metrics written to %s (%zu series)\n",
                  artifact_.c_str(), metrics_out_.c_str(), metrics_.size());
    }

    if (!profile_out_.empty()) {
      profiler_.snapshot(artifact_, variant_).write_file(profile_out_);
      const obs::RunRecord reparsed = obs::RunRecord::load_file(profile_out_);
      std::printf("[%s] kernel profile written to %s (%zu series)\n",
                  artifact_.c_str(), profile_out_.c_str(),
                  reparsed.metrics.size());
    }

    if (!record_out_.empty()) {
      obs::build_run_record(artifact_, variant_, {}, metrics_)
          .write_file(record_out_);
      const obs::RunRecord reparsed = obs::RunRecord::load_file(record_out_);
      FDET_CHECK(!reparsed.metrics.empty())
          << "run record '" << record_out_ << "' has no series";
      std::printf("[%s] run record written to %s (%zu series)\n",
                  artifact_.c_str(), record_out_.c_str(),
                  reparsed.metrics.size());
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
  obs::Registry metrics_;
  obs::TraceSession session_;
  obs::KernelProfiler profiler_;
  obs::ScopedProfileCollection profile_scope_{profiler_};
  core::Stopwatch watch_;
};

}  // namespace fdet::bench
