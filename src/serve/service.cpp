#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "core/check.h"
#include "obs/trace.h"

namespace fdet::serve {

namespace {

/// Appends one token to the frame's causal chain: "a -> b -> c".
void append_cause(ServedFrame& sf, const std::string& token) {
  if (!sf.cause.empty()) {
    sf.cause += " -> ";
  }
  sf.cause += token;
}

std::string dump_filename(int frame, obs::Anomaly kind) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "flight_f%04d_", frame);
  return std::string(buffer) + obs::anomaly_name(kind) + ".json";
}

}  // namespace

const char* frame_status_name(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kDegraded: return "degraded";
    case FrameStatus::kDropped: return "dropped";
    case FrameStatus::kFailed: return "failed";
    case FrameStatus::kAdmissionRejected: return "admission-rejected";
  }
  return "?";
}

StreamingService::StreamingService(const vgpu::DeviceSpec& spec,
                                   haar::Cascade cascade,
                                   detect::PipelineOptions base,
                                   ServiceOptions options,
                                   obs::Registry* registry)
    : spec_(spec), cascade_(std::move(cascade)), base_(base),
      options_(options), registry_(registry),
      decode_breaker_(options_.breaker), detect_breaker_(options_.breaker),
      jitter_rng_(options_.seed) {
  FDET_CHECK(options_.fps > 0.0) << "service fps must be positive";
  FDET_CHECK(options_.deadline_ms > 0.0) << "deadline budget must be positive";
  FDET_CHECK(options_.queue_capacity >= 1)
      << "queue capacity must be >= 1, got " << options_.queue_capacity;
  FDET_CHECK(options_.retry.max_attempts >= 1)
      << "retry.max_attempts must be >= 1";
  if (options_.obs.flight_recorder) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        options_.obs.recorder_capacity);
  }
}

void StreamingService::count(const char* name, const obs::Labels& labels,
                             double delta) {
  if (registry_ != nullptr) {
    registry_->counter(name, labels).add(delta);
  }
}

void StreamingService::gauge(const char* name, double value,
                             const obs::Labels& labels) {
  if (registry_ != nullptr) {
    registry_->gauge(name, labels).set(value);
  }
}

void StreamingService::observe_histogram(const char* name,
                                         std::vector<double> bounds,
                                         double value) {
  if (registry_ != nullptr) {
    registry_->histogram(name, std::move(bounds)).observe(value);
  }
}

void StreamingService::trace_instant(const std::string& text) {
  if (obs::TraceSession* session = obs::TraceSession::current()) {
    session->instant(text);
  }
}

void StreamingService::flight(obs::FlightEventKind kind, int frame,
                              double ts_us, double dur_us, const char* name,
                              const char* detail, double value) {
  if (!recorder_) {
    return;
  }
  obs::FlightEvent event;
  event.kind = kind;
  event.frame = frame;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.value = value;
  event.set_name(name);
  event.set_detail(detail);
  if (const obs::TraceContext* context = obs::current_trace_context()) {
    event.set_context(*context);
  }
  recorder_->record(event);
}

/// Stamps every scheduled kernel launch of one detect attempt into the
/// flight recorder, in virtual time relative to the attempt's start.
class StreamingService::LaunchStamps final : public vgpu::LaunchObserver {
 public:
  LaunchStamps(StreamingService& service, int frame, double base_us)
      : service_(service), frame_(frame), base_us_(base_us) {}

  void on_scheduled(const vgpu::LaunchRecord& record) override {
    service_.flight(obs::FlightEventKind::kLaunch, frame_,
                    base_us_ + record.start_s * 1e6,
                    record.duration_s() * 1e6, record.name.c_str(), "",
                    static_cast<double>(record.blocks));
  }

 private:
  StreamingService& service_;
  int frame_;
  double base_us_;
};

void StreamingService::note_anomaly(ServedFrame& sf, obs::Anomaly kind) {
  (void)sf;
  if (std::find(frame_anomalies_.begin(), frame_anomalies_.end(), kind) ==
      frame_anomalies_.end()) {
    frame_anomalies_.push_back(kind);
  }
}

void StreamingService::write_dumps(const ServedFrame& sf,
                                   ServiceReport& report) {
  for (const obs::Anomaly kind : frame_anomalies_) {
    if (kind == obs::Anomaly::kFaultInjected && !options_.obs.dump_on_fault) {
      continue;
    }
    count("serve.anomalies", {{"kind", obs::anomaly_name(kind)}});
    flight(obs::FlightEventKind::kAnomaly, sf.index, sf.completion_s * 1e6,
           0.0, "anomaly", obs::anomaly_name(kind));
    if (!recorder_ || options_.obs.dump_dir.empty() ||
        dumps_written_ >= options_.obs.max_dumps) {
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
    const std::string path =
        options_.obs.dump_dir + "/" + dump_filename(sf.index, kind);
    try {
      obs::write_flight_dump(
          path, recorder_->snapshot_window(options_.obs.dump_window_s * 1e6),
          info);
    } catch (const std::exception& error) {
      // Observability must never take the serving loop down: a failed
      // dump (disk full, permissions) is counted and the stream goes on.
      count("serve.dump_failures");
      std::fprintf(stderr, "flight dump failed: %s\n", error.what());
      continue;
    }
    ++dumps_written_;
    report.dumps.push_back({sf.index, kind, sf.cause, path});
  }
}

const detect::Pipeline& StreamingService::pipeline_for_level(int level) {
  auto it = pipelines_.find(level);
  if (it == pipelines_.end()) {
    const DegradationStep& step = DegradationLadder::step_at(level);
    detect::PipelineOptions options = base_;
    options.skip_finest_levels = base_.skip_finest_levels +
                                 step.skip_finest_levels;
    options.min_neighbors = base_.min_neighbors + step.min_neighbors_boost;
    if (step.serial_exec) {
      options.mode = vgpu::ExecMode::kSerial;
    }
    it = pipelines_
             .emplace(level, std::make_unique<detect::Pipeline>(
                                 spec_, cascade_, options))
             .first;
  }
  return *it->second;
}

void StreamingService::reset() {
  ladder_ = DegradationLadder();
  decode_breaker_ = CircuitBreaker(options_.breaker);
  detect_breaker_ = CircuitBreaker(options_.breaker);
  jitter_rng_ = core::Rng(options_.seed);
  // The SLO engine always judges the service's actual budget and mirrors
  // the ladder's recovery tuning, whatever the caller put in obs.slo.
  obs::SloOptions slo = options_.obs.slo;
  slo.deadline_ms = options_.deadline_ms;
  slo.recover_fraction = options_.degrade.recover_fraction;
  slo.recover_after = options_.degrade.recover_after;
  slo_ = std::make_unique<obs::SloEngine>(slo);
  dumps_written_ = 0;
  frame_anomalies_.clear();
}

ServedFrame StreamingService::serve_frame(
    const ingest::FrameSource& source, int index, const FaultPlan* plan,
    double start_s) {
  ServedFrame sf;
  sf.index = index;
  sf.degradation_level = ladder_.level();

  // Virtual "now" within this frame: start plus everything charged so far.
  const auto now_us = [&] {
    return start_s * 1e6 +
           (sf.decode_ms + sf.detect_ms + sf.backoff_ms) * 1e3;
  };

  const auto fail = [&](const char* stage, ErrorClass cls,
                        const std::string& message, int attempts,
                        CircuitBreaker& breaker) {
    sf.status = FrameStatus::kFailed;
    sf.error = FrameError{index, stage, cls, message, attempts};
    count("serve.frame_errors", {{"stage", stage},
                                 {"class", error_class_name(cls)}});
    if (cls == ErrorClass::kResource || cls == ErrorClass::kMalformed ||
        cls == ErrorClass::kFatal) {
      append_cause(sf, std::string("quarantine:") + stage + "/" +
                           error_class_name(cls));
      note_anomaly(sf, obs::Anomaly::kQuarantine);
      flight(obs::FlightEventKind::kQuarantine, index, now_us(), 0.0,
             "quarantine", (std::string(stage) + ": " + message).c_str());
    } else {
      append_cause(sf, std::string("failed:") + stage);
    }
    const int trips_before = breaker.trips();
    breaker.record_failure();
    if (breaker.trips() != trips_before) {
      count("serve.breaker.trips", {{"stage", stage}});
      trace_instant(std::string("serve.breaker ") + stage + " open");
      append_cause(sf, std::string("breaker-open:") + stage);
      note_anomaly(sf, obs::Anomaly::kBreakerOpen);
      flight(obs::FlightEventKind::kBreaker, index, now_us(), 0.0,
             "breaker-open", stage);
      // A tripped stage is unhealthy: the simplest failure domain while it
      // cools down is the serial-exec rung of the ladder.
      const int before = ladder_.level();
      ladder_.force_serial_fallback();
      if (slo_) {
        slo_->reset_recovery();
      }
      if (ladder_.level() != before) {
        count("serve.degradation.shifts");
        trace_instant("serve.degrade -> level " +
                      std::to_string(ladder_.level()) + " (" +
                      ladder_.step().name + ")");
        flight(obs::FlightEventKind::kLadder, index, now_us(), 0.0,
               "ladder", ladder_.step().name,
               static_cast<double>(ladder_.level()));
      }
    }
  };

  const auto backoff = [&](const char* stage, int retry) {
    const double wait = retry_backoff_ms(options_.retry, retry, jitter_rng_);
    flight(obs::FlightEventKind::kRetry, index, now_us(), 0.0, "retry",
           stage, wait);
    sf.backoff_ms += wait;
    ++sf.retries;
    count("serve.retries", {{"stage", stage}});
    observe_histogram("serve.backoff_ms", {0.5, 1, 2, 4, 8, 16, 32, 64},
                      wait);
    trace_instant(std::string("serve.retry ") + stage + " frame " +
                  std::to_string(index) + " retry " + std::to_string(retry));
    append_cause(sf, std::string("retry:") + stage);
  };

  const auto fault_injected = [&](const char* kind) {
    count("serve.faults.injected", {{"kind", kind}});
    sf.fault_injected = true;
    append_cause(sf, std::string("fault:") + kind);
    note_anomaly(sf, obs::Anomaly::kFaultInjected);
    flight(obs::FlightEventKind::kFault, index, now_us(), 0.0, "fault",
           kind);
  };

  // ---- Decode stage: bounded retry behind its circuit breaker. ----
  if (!decode_breaker_.allows()) {
    fail("decode", ErrorClass::kTransient, "decode circuit breaker open", 0,
         decode_breaker_);
    // Rejected without running: does not touch the breaker's cooldown
    // counters beyond the frame clock (run() advances it).
    sf.error->message = "decode circuit breaker open";
    return sf;
  }
  video::DecodedFrame decoded;
  {
    const obs::ScopedSpan span("serve.decode");
    const std::string& format = source.info().format;
    int attempt = 0;
    while (true) {
      try {
        if (plan != nullptr &&
            plan->fires(FaultKind::kDecodeFail, index, attempt)) {
          fault_injected("decode");
          throw DecodeError("injected decode failure (frame " +
                            std::to_string(index) + ", attempt " +
                            std::to_string(attempt) + ")");
        }
        if (plan != nullptr &&
            plan->fires(FaultKind::kBitstream, index, attempt)) {
          fault_injected("bitstream");
          throw ingest::IngestError(
              ingest::IngestErrorKind::kInjected, format, 0,
              "injected bitstream damage (frame " + std::to_string(index) +
                  ")");
        }
        decoded = source.decode(index);
        sf.decode_ms += decoded.decode_ms;
        count("ingest.frames", {{"format", format}});
        observe_histogram("ingest.decode_ms",
                          {0.5, 1, 2, 4, 8, 12, 16, 24, 32},
                          decoded.decode_ms);
        break;
      } catch (const ingest::IngestError& error) {
        if (error.kind() == ingest::IngestErrorKind::kMissingFrame) {
          // A delivery gap: the frame never arrived, nothing was
          // malformed. Typed drop — no quarantine, and the decode
          // breaker stays untouched (the decoder is healthy; the
          // transport lost a frame).
          sf.status = FrameStatus::kDropped;
          sf.missing = true;
          append_cause(sf, "missing-frame");
          count("serve.dropped", {{"reason", "missing-frame"}});
          count("ingest.missing", {{"format", format}});
          flight(obs::FlightEventKind::kDrop, index, now_us(), 0.0, "drop",
                 "missing-frame");
          return sf;
        }
        // Malformed bytes fail every attempt identically: quarantine the
        // frame instead of retrying, and let the decode breaker see the
        // failure so a malformed burst sheds via the ladder.
        count("ingest.rejects",
              {{"format", format},
               {"kind", ingest::ingest_error_kind_name(error.kind())}});
        fail("decode", ErrorClass::kMalformed, error.what(), attempt + 1,
             decode_breaker_);
        return sf;
      } catch (const DecodeError& error) {
        sf.decode_ms += source.decode_latency_ms(index);
        if (attempt + 1 >= options_.retry.max_attempts) {
          fail("decode", ErrorClass::kTransient,
               std::string(error.what()) + " (retries exhausted)",
               attempt + 1, decode_breaker_);
          return sf;
        }
        backoff("decode", ++attempt);
      }
    }
    decode_breaker_.record_success();
    if (sf.retries > 0) {
      count("serve.faults.recovered", {{"stage", "decode"}});
    }
  }
  // Delivery-order bookkeeping: a lossy transport can deliver frames
  // late or twice. Both decode fine and are served normally — the
  // service counts and cause-tags them so downstream consumers can see
  // the disorder without the stream dying.
  sf.arrival = source.arrival_kind(index);
  if (sf.arrival == ingest::FrameArrival::kOutOfOrder) {
    append_cause(sf, "out-of-order");
    count("ingest.out_of_order", {{"format", source.info().format}});
  } else if (sf.arrival == ingest::FrameArrival::kDuplicate) {
    append_cause(sf, "duplicate-frame");
    count("ingest.duplicates", {{"format", source.info().format}});
  }
  if (plan != nullptr && plan->fires(FaultKind::kCorruptLuma, index)) {
    // Undetectable input damage: flows through like real bitstream
    // corruption would — the service must survive it, not spot it.
    fault_injected("corrupt");
    corrupt_luma(decoded.frame.luma(),
                 core::hash_combine(plan->seed(),
                                    static_cast<std::uint64_t>(index)));
  }

  // ---- Detect stage: retry transient launch faults, quarantine hard ones. ----
  if (!detect_breaker_.allows()) {
    fail("detect", ErrorClass::kTransient, "detect circuit breaker open", 0,
         detect_breaker_);
    return sf;
  }
  const detect::Pipeline& pipeline = pipeline_for_level(sf.degradation_level);
  const obs::ScopedSpan span("serve.detect");
  const int detect_retries_before = sf.retries;
  int attempt = 0;
  while (true) {
    // This attempt's launch observers: the plan's armed launch faults, and
    // flight-recorder stamps for every scheduled launch.
    std::optional<LaunchFaultInjector> faults;
    std::optional<vgpu::LaunchObserverScope> fault_scope;
    if (plan != nullptr) {
      faults.emplace(*plan, index, attempt);
      if (faults->armed()) {
        fault_scope.emplace(*faults);
      }
    }
    std::optional<LaunchStamps> stamps;
    std::optional<vgpu::LaunchObserverScope> stamp_scope;
    if (recorder_) {
      stamps.emplace(*this, index, now_us());
      stamp_scope.emplace(*stamps);
    }
    try {
      detect::FrameResult result = pipeline.process(decoded.frame.luma());
      sf.detect_ms = result.detect_ms;
      sf.detections = std::move(result.detections);
      break;
    } catch (const vgpu::LaunchError& error) {
      if (error.transient()) {
        fault_injected("launch");
        if (attempt + 1 >= options_.retry.max_attempts) {
          fail("detect", ErrorClass::kTransient,
               std::string(error.what()) + " (retries exhausted)",
               attempt + 1, detect_breaker_);
          return sf;
        }
        backoff("detect", ++attempt);
        continue;
      }
      // Hard resource fault: retrying would fail identically. Quarantine.
      const bool constant =
          plan != nullptr &&
          plan->fires(FaultKind::kConstantOverflow, index, attempt);
      fault_injected(constant ? "const" : "shared");
      fail("detect", ErrorClass::kResource, error.what(), attempt + 1,
           detect_breaker_);
      return sf;
    } catch (const std::exception& error) {
      // Anything unexpected from a stage: quarantine the frame, keep the
      // service alive.
      fail("detect", ErrorClass::kFatal, error.what(), attempt + 1,
           detect_breaker_);
      return sf;
    }
  }
  detect_breaker_.record_success();
  if (sf.retries > detect_retries_before) {
    count("serve.faults.recovered", {{"stage", "detect"}});
  }

  sf.status = sf.degradation_level > 0 ? FrameStatus::kDegraded
                                       : FrameStatus::kOk;
  return sf;
}

ServiceReport StreamingService::run(const ingest::FrameSource& source,
                                    int count_frames, const FaultPlan* plan) {
  FDET_CHECK(count_frames >= 1) << "run() needs at least one frame";
  FDET_CHECK(count_frames <= source.frame_count())
      << "run(" << count_frames << ") exceeds the stream's "
      << source.frame_count() << " frames";
  reset();

  ServiceReport report;
  report.frames.reserve(static_cast<std::size_t>(count_frames));
  std::vector<double> pending;  ///< completion times of in-flight frames
  double last_completion_s = 0.0;
  int unserved_streak = 0;

  for (int i = 0; i < count_frames; ++i) {
    const double arrival_s = i / options_.fps;
    decode_breaker_.on_frame();
    detect_breaker_.on_frame();
    std::erase_if(pending, [&](double done) { return done <= arrival_s; });
    const int depth = static_cast<int>(pending.size());
    observe_histogram(
        "serve.queue_depth",
        obs::linear_buckets(0.0, 1.0, options_.queue_capacity + 1),
        static_cast<double>(depth));
    slo_->observe_queue_depth(static_cast<double>(depth));

    // Causal context for everything this frame does — spans, launches and
    // control decisions all chain back to this id.
    obs::TraceContext context;
    std::optional<obs::ScopedTraceContext> scoped_context;
    if (options_.obs.tracing) {
      context = obs::make_frame_context(options_.seed, i);
      scoped_context.emplace(context);
    }
    frame_anomalies_.clear();

    // Service start: a frame waits for the previous one to finish.
    const double start_s = std::max(arrival_s, last_completion_s);

    ServedFrame sf;
    const DegradationStep& step = ladder_.step();
    if (depth >= options_.queue_capacity) {
      sf.index = i;
      sf.status = FrameStatus::kDropped;
      sf.degradation_level = ladder_.level();
      count("serve.dropped", {{"reason", "backpressure"}});
      trace_instant("serve.drop frame " + std::to_string(i) +
                    " (queue full)");
      append_cause(sf, "shed:backpressure");
      flight(obs::FlightEventKind::kDrop, i, arrival_s * 1e6, 0.0, "drop",
             "backpressure", static_cast<double>(depth));
    } else if (step.shed_queued_frames && depth > 0) {
      sf.index = i;
      sf.status = FrameStatus::kDropped;
      sf.degradation_level = ladder_.level();
      count("serve.dropped", {{"reason", "shed"}});
      trace_instant("serve.drop frame " + std::to_string(i) +
                    " (load shedding)");
      append_cause(sf, std::string("shed:") + step.name);
      flight(obs::FlightEventKind::kDrop, i, arrival_s * 1e6, 0.0, "drop",
             step.name, static_cast<double>(depth));
    } else {
      sf = serve_frame(source, i, plan, start_s);
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

    // Frame + stage spans in the flight recorder (virtual time).
    flight(obs::FlightEventKind::kFrame, i, arrival_s * 1e6,
           sf.latency_ms * 1e3, "frame", frame_status_name(sf.status),
           sf.latency_ms);
    if (sf.status != FrameStatus::kDropped) {
      double stage_us = start_s * 1e6;
      if (sf.decode_ms > 0.0) {
        flight(obs::FlightEventKind::kStage, i, stage_us, sf.decode_ms * 1e3,
               "decode", "", sf.decode_ms);
        stage_us += sf.decode_ms * 1e3;
      }
      if (sf.backoff_ms > 0.0) {
        flight(obs::FlightEventKind::kStage, i, stage_us,
               sf.backoff_ms * 1e3, "backoff", "", sf.backoff_ms);
        stage_us += sf.backoff_ms * 1e3;
      }
      if (sf.detect_ms > 0.0) {
        flight(obs::FlightEventKind::kStage, i, stage_us, sf.detect_ms * 1e3,
               "detect", "", sf.detect_ms);
      }
    }

    if (served) {
      observe_histogram("serve.latency_ms",
                        {1, 2, 5, 10, 20, 30, 40, 50, 75, 100, 150, 200},
                        sf.latency_ms);
      slo_->observe_stage("decode", sf.decode_ms);
      slo_->observe_stage("detect", sf.detect_ms);
      if (sf.backoff_ms > 0.0) {
        slo_->observe_stage("backoff", sf.backoff_ms);
      }
      if (sf.latency_ms > options_.deadline_ms) {
        ++report.deadline_misses;
        count("serve.deadline_misses");
        append_cause(sf, "deadline-miss");
        note_anomaly(sf, obs::Anomaly::kDeadlineMiss);
        flight(obs::FlightEventKind::kDeadlineMiss, i, sf.completion_s * 1e6,
               0.0, "deadline-miss", "", sf.latency_ms);
      }
      const int level_before = ladder_.level();
      // The SLO engine's burn-rate decision drives the ladder.
      const obs::SloDecision decision = slo_->observe_frame(sf.latency_ms);
      if (decision.degrade || decision.recover) {
        flight(obs::FlightEventKind::kSlo, i, sf.completion_s * 1e6, 0.0,
               "slo", decision.degrade ? "degrade" : "recover",
               decision.degrade ? decision.fast_burn : decision.slow_burn);
      }
      ladder_.apply(decision.degrade, decision.recover,
                    decision.degrade ? "slo-burn" : "slo-recover");
      if (ladder_.level() != level_before) {
        count("serve.degradation.shifts");
        trace_instant("serve.degrade -> level " +
                      std::to_string(ladder_.level()) + " (" +
                      ladder_.step().name + ")");
        flight(obs::FlightEventKind::kLadder, i, sf.completion_s * 1e6, 0.0,
               "ladder", ladder_.step().name,
               static_cast<double>(ladder_.level()));
        if (ladder_.level() > level_before) {
          append_cause(sf, std::string("ladder-climb:") +
                               ladder_.step().name);
          note_anomaly(sf, obs::Anomaly::kLadderClimb);
        }
      }
    }

    count("serve.frames", {{"status", frame_status_name(sf.status)}});
    gauge("serve.degradation.level", static_cast<double>(ladder_.level()));
    gauge("serve.breaker.state",
          static_cast<double>(decode_breaker_.state()),
          {{"stage", "decode"}});
    gauge("serve.breaker.state",
          static_cast<double>(detect_breaker_.state()),
          {{"stage", "detect"}});

    switch (sf.status) {
      case FrameStatus::kOk: ++report.ok; break;
      case FrameStatus::kDegraded: ++report.degraded; break;
      case FrameStatus::kDropped: ++report.dropped; break;
      case FrameStatus::kFailed: ++report.failed; break;
      // A single-stream service has no admission control; the status
      // exists for the fleet layer (serve/fleet.h).
      case FrameStatus::kAdmissionRejected: ++report.dropped; break;
    }
    report.retries += sf.retries;
    report.faults_injected += sf.fault_injected ? 1 : 0;
    if (sf.error.has_value() && sf.error->cls == ErrorClass::kMalformed) {
      ++report.ingest_rejects;
    }
    report.missing_frames += sf.missing ? 1 : 0;
    report.out_of_order +=
        sf.arrival == ingest::FrameArrival::kOutOfOrder ? 1 : 0;
    report.duplicates +=
        sf.arrival == ingest::FrameArrival::kDuplicate ? 1 : 0;
    report.max_latency_ms = std::max(report.max_latency_ms, sf.latency_ms);
    unserved_streak = served ? 0 : unserved_streak + 1;
    report.max_consecutive_unserved =
        std::max(report.max_consecutive_unserved, unserved_streak);
    write_dumps(sf, report);
    report.frames.push_back(std::move(sf));
  }

  report.breaker_trips = decode_breaker_.trips() + detect_breaker_.trips();
  report.degradation_shifts = ladder_.shifts();
  report.final_degradation_level = ladder_.level();
  report.slo = slo_->snapshot();
  if (registry_ != nullptr) {
    slo_->publish(*registry_);
  }
  return report;
}

}  // namespace fdet::serve
