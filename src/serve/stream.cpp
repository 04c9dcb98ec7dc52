#include "serve/stream.h"

#include <cstdio>
#include <utility>

#include "core/check.h"
#include "obs/trace.h"
#include "vgpu/kernel.h"

namespace fdet::serve {

namespace {

/// 64-bit FNV-1a over a luma plane — the memo's detection-identity key
/// (CRC32's collision odds are too thin once hundreds of streams share
/// frames).
std::uint64_t luma_digest(const img::ImageU8& luma) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t px : luma.pixels()) {
    h ^= px;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Stamps every scheduled kernel launch of one detect attempt into the
/// flight recorder, in virtual time relative to the attempt's start.
struct LaunchStamps final : vgpu::LaunchObserver {
  LaunchStamps(const FrameExecutor& e, int s, int f, double us)
      : executor(e), stream(s), frame(f), base_us(us) {}

  void on_scheduled(const vgpu::LaunchRecord& record) override {
    executor.flight(obs::FlightEventKind::kLaunch, frame,
                    base_us + record.start_s * 1e6, record.duration_s() * 1e6,
                    record.name.c_str(), "",
                    static_cast<double>(record.blocks), stream);
  }

  const FrameExecutor& executor;
  int stream;
  int frame;
  double base_us;
};

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

void append_cause(ServedFrame& sf, const std::string& token) {
  if (!sf.cause.empty()) {
    sf.cause += " -> ";
  }
  sf.cause += token;
}

void trace_instant(const std::string& text) {
  if (obs::TraceSession* session = obs::TraceSession::current()) {
    session->instant(text);
  }
}

// ---------------------------------------------------------------------------

FrameExecutor::FrameExecutor(const vgpu::DeviceSpec& spec,
                             haar::Cascade cascade,
                             detect::PipelineOptions base,
                             obs::Registry* registry,
                             std::size_t recorder_capacity)
    : spec_(spec), cascade_(std::move(cascade)), base_(base),
      registry_(registry) {
  if (recorder_capacity > 0) {
    recorder_ = std::make_unique<obs::FlightRecorder>(recorder_capacity);
  }
}

const detect::Pipeline& FrameExecutor::pipeline(int level) {
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

void FrameExecutor::begin_run(double deadline_ms) {
  slo_.emplace(deadline_ms);
  decoded_.clear();
  detected_.clear();
  if (recorder_) {
    recorder_->clear();
  }
}

void FrameExecutor::count(const char* name, const obs::Labels& labels,
                          double delta) const {
  if (registry_ != nullptr) {
    registry_->counter(name, labels).add(delta);
  }
}

void FrameExecutor::gauge(const char* name, double value,
                          const obs::Labels& labels) const {
  if (registry_ != nullptr) {
    registry_->gauge(name, labels).set(value);
  }
}

void FrameExecutor::observe_histogram(const char* name, double value) const {
  if (registry_ != nullptr) {
    registry_->histogram(name).observe(value);
  }
}

void FrameExecutor::flight(obs::FlightEventKind kind, int frame, double ts_us,
                           double dur_us, const char* name,
                           const char* detail, double value,
                           int stream) const {
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
  char tagged[sizeof(event.detail) + 16];
  if (stream >= 0) {
    std::snprintf(tagged, sizeof(tagged), *detail == '\0' ? "s%d%s" : "s%d:%s",
                  stream, detail);
    detail = tagged;
  }
  event.set_detail(detail);
  if (const obs::TraceContext* context = obs::current_trace_context()) {
    event.set_context(*context);
  }
  recorder_->record(event);
}

// ---------------------------------------------------------------------------

StreamRecovery::StreamRecovery(RetryOptions retry, std::uint64_t seed,
                               int stream)
    : retry_(retry), jitter_(seed), stream_(stream) {}

void StreamRecovery::on_frame() {
  decode_breaker.on_frame();
  detect_breaker.on_frame();
}

void StreamRecovery::ladder_moved(const FrameExecutor& executor, int frame,
                                  double ts_us) const {
  executor.count("serve.degradation.shifts");
  trace_instant("serve.degrade -> level " + std::to_string(ladder.level()) +
                " (" + ladder.step().name + ")");
  executor.flight(obs::FlightEventKind::kLadder, frame, ts_us, 0.0, "ladder",
                  ladder.step().name, static_cast<double>(ladder.level()),
                  stream_);
}

void StreamRecovery::serve_frame(FrameExecutor& executor, ServedFrame& sf,
                                 const ingest::FrameSource& source,
                                 const FaultPlan* plan, double start_s) {
  const int index = sf.index;
  // A failed-over frame is served afresh; only its cause chain and fault
  // flag carry over from the attempt its device lost.
  sf.degradation_level = ladder.level();
  sf.retries = 0;
  sf.decode_ms = sf.detect_ms = sf.backoff_ms = 0.0;
  sf.detections.clear();

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
    executor.count("serve.frame_errors",
                   {{"stage", stage}, {"class", error_class_name(cls)}});
    if (cls == ErrorClass::kResource || cls == ErrorClass::kMalformed ||
        cls == ErrorClass::kFatal) {
      append_cause(sf, std::string("quarantine:") + stage + "/" +
                           error_class_name(cls));
      executor.flight(obs::FlightEventKind::kQuarantine, index, now_us(), 0.0,
                      "quarantine",
                      (std::string(stage) + ": " + message).c_str(), 0.0,
                      stream_);
    } else {
      append_cause(sf, std::string("failed:") + stage);
    }
    const int trips_before = breaker.trips();
    breaker.record_failure();
    if (breaker.trips() != trips_before) {
      executor.count("serve.breaker.trips", {{"stage", stage}});
      trace_instant(std::string("serve.breaker ") + stage + " open");
      append_cause(sf, std::string("breaker-open:") + stage);
      executor.flight(obs::FlightEventKind::kBreaker, index, now_us(), 0.0,
                      "breaker-open", stage, 0.0, stream_);
      // A tripped stage is unhealthy: the simplest failure domain while it
      // cools down is the serial-exec rung of the ladder.
      const int before = ladder.level();
      ladder.force_serial_fallback();
      executor.slo().reset_recovery();
      if (ladder.level() != before) {
        ladder_moved(executor, index, now_us());
      }
    }
  };

  const auto backoff = [&](const char* stage, int retry) {
    const double wait = retry_backoff_ms(retry_, retry, jitter_);
    executor.flight(obs::FlightEventKind::kRetry, index, now_us(), 0.0,
                    "retry", stage, wait, stream_);
    sf.backoff_ms += wait;
    ++sf.retries;
    executor.count("serve.retries", {{"stage", stage}});
    executor.observe_histogram("serve.backoff_ms", wait);
    trace_instant(std::string("serve.retry ") + stage + " frame " +
                  std::to_string(index) + " retry " + std::to_string(retry));
    append_cause(sf, std::string("retry:") + stage);
  };

  const auto fault_injected = [&](const char* kind) {
    executor.count("serve.faults.injected", {{"kind", kind}});
    sf.fault_injected = true;
    append_cause(sf, std::string("fault:") + kind);
    executor.flight(obs::FlightEventKind::kFault, index, now_us(), 0.0,
                    "fault", kind, 0.0, stream_);
  };

  // ---- Decode stage: bounded retry behind its circuit breaker. ----
  if (!decode_breaker.allows()) {
    // Rejected without running: does not touch the breaker's cooldown
    // counters beyond the frame clock (on_frame advances it).
    fail("decode", ErrorClass::kTransient, "decode circuit breaker open", 0,
         decode_breaker);
    return;
  }
  // A decode this run already did is answered from the memo. Pixels are
  // fetched only when corruption or a detect attempt needs them.
  const auto known = executor.decoded_.find({&source, index});
  const bool decode_known = known != executor.decoded_.end();
  std::optional<video::DecodedFrame> decoded;
  std::uint64_t digest = 0;
  {
    std::optional<obs::ScopedSpan> span;
    if (!decode_known || plan != nullptr) {
      span.emplace("serve.decode");
    }
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
        if (decode_known) {
          sf.decode_ms += known->second.decode_ms;
          digest = known->second.digest;
          break;
        }
        decoded = source.decode(index);
        sf.decode_ms += decoded->decode_ms;
        executor.count("ingest.frames", {{"format", format}});
        executor.observe_histogram("ingest.decode_ms", decoded->decode_ms);
        digest = luma_digest(decoded->frame.luma());
        executor.decoded_.emplace(
            std::make_pair(&source, index),
            FrameExecutor::Decoded{decoded->decode_ms, digest});
        break;
      } catch (const ingest::IngestError& error) {
        // Malformed bytes fail every attempt identically: quarantine the
        // frame instead of retrying, and let the decode breaker see the
        // failure so a malformed burst sheds via the ladder.
        executor.count(
            "ingest.rejects",
            {{"format", format},
             {"kind", ingest::ingest_error_kind_name(error.kind())}});
        fail("decode", ErrorClass::kMalformed, error.what(), attempt + 1,
             decode_breaker);
        return;
      } catch (const DecodeError& error) {
        sf.decode_ms += source.decode_latency_ms(index);
        if (attempt + 1 >= kRetryMaxAttempts) {
          fail("decode", ErrorClass::kTransient,
               std::string(error.what()) + " (retries exhausted)",
               attempt + 1, decode_breaker);
          return;
        }
        backoff("decode", ++attempt);
      }
    }
    decode_breaker.record_success();
    if (sf.retries > 0) {
      executor.count("serve.faults.recovered", {{"stage", "decode"}});
    }
  }
  if (plan != nullptr && plan->fires(FaultKind::kCorruptLuma, index)) {
    // Undetectable input damage: flows through like real bitstream
    // corruption would — the stream must survive it, not spot it.
    fault_injected("corrupt");
    if (!decoded) {
      decoded = source.decode(index);
    }
    corrupt_luma(decoded->frame.luma(),
                 core::hash_combine(plan->seed(),
                                    static_cast<std::uint64_t>(index)));
    digest = luma_digest(decoded->frame.luma());
  }

  // ---- Detect stage: retry transient launch faults, quarantine hard ones. ----
  if (!detect_breaker.allows()) {
    fail("detect", ErrorClass::kTransient, "detect circuit breaker open", 0,
         detect_breaker);
    return;
  }
  const std::pair<std::uint64_t, int> detect_key{digest,
                                                 sf.degradation_level};
  std::optional<obs::ScopedSpan> span;
  const int detect_retries_before = sf.retries;
  int attempt = 0;
  while (true) {
    std::optional<LaunchFaultInjector> faults;
    if (plan != nullptr) {
      faults.emplace(*plan, index, attempt);
    }
    // An armed attempt must reach its launches, so it never reads the memo.
    const bool armed = faults.has_value() && faults->armed();
    if (!armed) {
      const auto hit = executor.detected_.find(detect_key);
      if (hit != executor.detected_.end()) {
        sf.detect_ms = hit->second.detect_ms;
        sf.detections = hit->second.detections;
        break;
      }
    }
    const detect::Pipeline& pipeline =
        executor.pipeline(sf.degradation_level);
    if (!span) {
      span.emplace("serve.detect");
    }
    if (!decoded) {
      decoded = source.decode(index);
    }
    // This attempt's launch observers: the plan's armed launch faults, and
    // flight-recorder stamps for every scheduled launch.
    std::optional<vgpu::LaunchObserverScope> fault_scope;
    if (armed) {
      fault_scope.emplace(*faults);
    }
    std::optional<LaunchStamps> stamps;
    std::optional<vgpu::LaunchObserverScope> stamp_scope;
    if (executor.recorder_) {
      stamps.emplace(executor, stream_, index, now_us());
      stamp_scope.emplace(*stamps);
    }
    try {
      detect::FrameResult result = pipeline.process(decoded->frame.luma());
      sf.detect_ms = result.detect_ms;
      executor.detected_.emplace(
          detect_key,
          FrameExecutor::Detected{result.detect_ms, result.detections});
      sf.detections = std::move(result.detections);
      break;
    } catch (const vgpu::LaunchError& error) {
      if (error.transient()) {
        fault_injected("launch");
        if (attempt + 1 >= kRetryMaxAttempts) {
          fail("detect", ErrorClass::kTransient,
               std::string(error.what()) + " (retries exhausted)",
               attempt + 1, detect_breaker);
          return;
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
           detect_breaker);
      return;
    } catch (const std::exception& error) {
      // Anything unexpected from a stage: quarantine the frame, keep the
      // stream alive.
      fail("detect", ErrorClass::kFatal, error.what(), attempt + 1,
           detect_breaker);
      return;
    }
  }
  detect_breaker.record_success();
  if (sf.retries > detect_retries_before) {
    executor.count("serve.faults.recovered", {{"stage", "detect"}});
  }

  sf.status = sf.degradation_level > 0 ? FrameStatus::kDegraded
                                       : FrameStatus::kOk;
}

}  // namespace fdet::serve
