#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>
#include <utility>

#include "core/check.h"
#include "obs/trace.h"

namespace fdet::serve {

namespace {

/// Flight-recorder ring size.
constexpr std::size_t kRecorderCapacity = 8192;
/// Virtual seconds of history each anomaly dump snapshots.
constexpr double kDumpWindowS = 2.0;
/// Cap on dump files per run.
constexpr int kMaxDumps = 64;

}  // namespace

StreamingService::StreamingService(const vgpu::DeviceSpec& spec,
                                   haar::Cascade cascade,
                                   detect::PipelineOptions base,
                                   ServiceOptions options,
                                   obs::Registry* registry)
    : options_(options),
      executor_(spec, std::move(cascade), base, registry,
                options_.obs.flight_recorder ? kRecorderCapacity : 0),
      stream_(options_.retry, options_.seed) {
  FDET_CHECK(options_.fps > 0.0) << "service fps must be positive";
  FDET_CHECK(options_.deadline_ms > 0.0) << "deadline budget must be positive";
}

void StreamingService::write_dumps(const ServedFrame& sf, bool breaker_open,
                                   bool ladder_climb, ServiceReport& report) {
  // A failure other than a transient one quarantined the frame (the
  // service rejects nothing). Listed in the order they happen on a frame.
  const bool quarantined =
      sf.error.has_value() && sf.error->cls != ErrorClass::kTransient;
  const std::pair<bool, obs::Anomaly> classes[] = {
      {sf.fault_injected, obs::Anomaly::kFaultInjected},
      {quarantined, obs::Anomaly::kQuarantine},
      {breaker_open, obs::Anomaly::kBreakerOpen},
      {sf.deadline_miss, obs::Anomaly::kDeadlineMiss},
      {ladder_climb, obs::Anomaly::kLadderClimb}};
  for (const auto& [happened, kind] : classes) {
    if (!happened) {
      continue;
    }
    executor_.count("serve.anomalies", {{"kind", obs::anomaly_name(kind)}});
    executor_.flight(obs::FlightEventKind::kAnomaly, sf.index,
                     sf.completion_s * 1e6, 0.0, "anomaly",
                     obs::anomaly_name(kind));
    if (executor_.recorder() == nullptr || options_.obs.dump_dir.empty() ||
        dumps_written_ >= kMaxDumps) {
      continue;
    }
    obs::AnomalyInfo info;
    info.kind = kind;
    info.frame = sf.index;
    info.cause = sf.cause;
    info.trace_id = sf.trace_id;
    // The dump directory may not exist yet (chaos/CI runs point at a
    // fresh path); a missing directory must not crash the serving loop.
    std::error_code ec;
    std::filesystem::create_directories(options_.obs.dump_dir, ec);
    char name[64];
    std::snprintf(name, sizeof(name), "/flight_f%04d_%s.json", sf.index,
                  obs::anomaly_name(kind));
    const std::string path = options_.obs.dump_dir + name;
    try {
      obs::write_flight_dump(
          path, executor_.recorder()->snapshot_window(kDumpWindowS * 1e6),
          info);
    } catch (const std::exception& error) {
      // Observability must never take the serving loop down: a failed
      // dump (disk full, permissions) is counted and the stream goes on.
      executor_.count("serve.dump_failures");
      std::fprintf(stderr, "flight dump failed: %s\n", error.what());
      continue;
    }
    ++dumps_written_;
    report.dumps.push_back({sf.index, kind, sf.cause, path});
  }
}

ServiceReport StreamingService::run(const ingest::FrameSource& source,
                                    int count_frames, const FaultPlan* plan) {
  FDET_CHECK(count_frames >= 1) << "run() needs at least one frame";
  FDET_CHECK(count_frames <= source.frame_count())
      << "run(" << count_frames << ") exceeds the stream's "
      << source.frame_count() << " frames";
  stream_ = StreamRecovery(options_.retry, options_.seed);
  executor_.begin_run(options_.deadline_ms);
  obs::SloEngine& slo = executor_.slo();
  dumps_written_ = 0;

  ServiceReport report;
  report.frames.reserve(static_cast<std::size_t>(count_frames));
  std::vector<double> pending;  ///< completion times of in-flight frames
  double last_completion_s = 0.0;
  int unserved_streak = 0;

  for (int i = 0; i < count_frames; ++i) {
    const double arrival_s = i / options_.fps;
    stream_.on_frame();
    std::erase_if(pending, [&](double done) { return done <= arrival_s; });
    const int depth = static_cast<int>(pending.size());
    executor_.observe_histogram("serve.queue_depth",
                                static_cast<double>(depth));
    slo.observe_queue_depth(static_cast<double>(depth));

    // Causal context for everything this frame does — spans, launches and
    // control decisions all chain back to this id.
    obs::TraceContext context;
    std::optional<obs::ScopedTraceContext> scoped_context;
    if (options_.obs.tracing) {
      context = obs::make_frame_context(options_.seed, i);
      scoped_context.emplace(context);
    }

    // Service start: a frame waits for the previous one to finish.
    const double start_s = std::max(arrival_s, last_completion_s);

    ServedFrame sf;
    sf.index = i;
    sf.degradation_level = stream_.ladder.level();
    const int trips_before = stream_.breaker_trips();
    bool ladder_climb = false;
    // A full queue drops the arrival (backpressure); so does any backlog
    // on the shed-frames rung (load shedding).
    const DegradationStep& step = stream_.ladder.step();
    const bool full = depth >= kServiceQueueCapacity;
    if (full || (step.shed_queued_frames && depth > 0)) {
      const char* reason = full ? "backpressure" : step.name;
      sf.status = FrameStatus::kDropped;
      executor_.count("serve.dropped",
                      {{"reason", full ? "backpressure" : "shed"}});
      trace_instant("serve.drop frame " + std::to_string(i) +
                    (full ? " (queue full)" : " (load shedding)"));
      append_cause(sf, std::string("shed:") + reason);
      executor_.flight(obs::FlightEventKind::kDrop, i, arrival_s * 1e6, 0.0,
                       "drop", reason, static_cast<double>(depth));
    } else {
      stream_.serve_frame(executor_, sf, source, plan, start_s);
    }
    sf.arrival_s = arrival_s;
    sf.queue_depth = depth;
    sf.trace_id = context.trace_id;

    const bool served = sf.status == FrameStatus::kOk ||
                        sf.status == FrameStatus::kDegraded;
    if (sf.status == FrameStatus::kDropped) {
      sf.completion_s = arrival_s;  // dropped instantly, no service time
    } else {
      sf.completion_s =
          start_s + (sf.decode_ms + sf.detect_ms + sf.backoff_ms) * 1e-3;
      pending.push_back(sf.completion_s);
      last_completion_s = sf.completion_s;
    }
    sf.latency_ms = (sf.completion_s - arrival_s) * 1e3;
    sf.settled = true;

    // Frame + stage spans in the flight recorder (virtual time).
    executor_.flight(obs::FlightEventKind::kFrame, i, arrival_s * 1e6,
                     sf.latency_ms * 1e3, "frame",
                     frame_status_name(sf.status), sf.latency_ms);
    if (sf.status != FrameStatus::kDropped) {
      double stage_us = start_s * 1e6;
      for (const auto& [stage, ms] : {std::pair{"decode", sf.decode_ms},
                                      std::pair{"backoff", sf.backoff_ms},
                                      std::pair{"detect", sf.detect_ms}}) {
        if (ms > 0.0) {
          executor_.flight(obs::FlightEventKind::kStage, i, stage_us,
                           ms * 1e3, stage, "", ms);
          stage_us += ms * 1e3;
        }
      }
    }

    if (served) {
      executor_.observe_histogram("serve.latency_ms", sf.latency_ms);
      slo.observe_stage("decode", sf.decode_ms);
      slo.observe_stage("detect", sf.detect_ms);
      if (sf.backoff_ms > 0.0) {
        slo.observe_stage("backoff", sf.backoff_ms);
      }
      if (sf.latency_ms > options_.deadline_ms) {
        ++report.deadline_misses;
        sf.deadline_miss = true;
        executor_.count("serve.deadline_misses");
        append_cause(sf, "deadline-miss");
        executor_.flight(obs::FlightEventKind::kDeadlineMiss, i,
                         sf.completion_s * 1e6, 0.0, "deadline-miss", "",
                         sf.latency_ms);
      }
      const int level_before = stream_.ladder.level();
      // The SLO engine's burn-rate decision drives the ladder.
      const obs::SloDecision decision = slo.observe_frame(sf.latency_ms);
      if (decision.degrade || decision.recover) {
        executor_.flight(
            obs::FlightEventKind::kSlo, i, sf.completion_s * 1e6, 0.0, "slo",
            decision.degrade ? "degrade" : "recover",
            decision.degrade ? decision.fast_burn : decision.slow_burn);
      }
      stream_.ladder.apply(decision.degrade, decision.recover);
      if (stream_.ladder.level() != level_before) {
        stream_.ladder_moved(executor_, i, sf.completion_s * 1e6);
        if (stream_.ladder.level() > level_before) {
          append_cause(sf, std::string("ladder-climb:") +
                               stream_.ladder.step().name);
          ladder_climb = true;
        }
      }
    }

    executor_.count("serve.frames",
                    {{"status", frame_status_name(sf.status)}});
    executor_.gauge("serve.degradation.level",
                    static_cast<double>(stream_.ladder.level()));
    executor_.gauge("serve.breaker.state",
                    static_cast<double>(stream_.decode_breaker.state()),
                    {{"stage", "decode"}});
    executor_.gauge("serve.breaker.state",
                    static_cast<double>(stream_.detect_breaker.state()),
                    {{"stage", "detect"}});

    switch (sf.status) {
      case FrameStatus::kOk: ++report.ok; break;
      case FrameStatus::kDegraded: ++report.degraded; break;
      case FrameStatus::kFailed: ++report.failed; break;
      // A single-stream service admits everything: only the fleet rejects.
      case FrameStatus::kDropped:
      case FrameStatus::kAdmissionRejected: ++report.dropped; break;
    }
    report.retries += sf.retries;
    report.faults_injected += sf.fault_injected ? 1 : 0;
    if (sf.error.has_value() && sf.error->cls == ErrorClass::kMalformed) {
      ++report.ingest_rejects;
    }
    report.max_latency_ms = std::max(report.max_latency_ms, sf.latency_ms);
    unserved_streak = served ? 0 : unserved_streak + 1;
    report.max_consecutive_unserved =
        std::max(report.max_consecutive_unserved, unserved_streak);
    write_dumps(sf, stream_.breaker_trips() != trips_before, ladder_climb,
                report);
    report.frames.push_back(std::move(sf));
  }

  report.breaker_trips = stream_.breaker_trips();
  report.degradation_shifts = stream_.ladder.shifts();
  report.final_degradation_level = stream_.ladder.level();
  report.slo = slo.snapshot();
  if (executor_.registry() != nullptr) {
    slo.publish(*executor_.registry());
  }
  return report;
}

}  // namespace fdet::serve
