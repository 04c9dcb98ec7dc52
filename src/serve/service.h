// Fault-tolerant streaming detection service (the serving layer of
// ROADMAP's "heavy traffic" north star).
//
// StreamingService wraps ingest::FrameSource -> detect::Pipeline behind a
// bounded frame queue with backpressure and a per-frame deadline budget,
// all in *virtual* time: frames arrive at the stream fps, service
// occupancy is the modeled decode + detect (+ retry backoff) latency, and
// the queue depth is derived from arrivals vs completions —
// deterministic, like the rest of the simulator, so chaos runs are
// exactly reproducible. Any frame source serves identically: the mock
// hardware H.264 decoder (through ingest::H264FrameSource) or the
// validating byte-stream container parsers of src/ingest/.
//
// Each frame is served by the per-frame path of serve/stream.h, the one
// FleetScheduler serves through too: retry with backoff, breakers and
// quarantine by error class (serve/policy.h). This file is the
// single-stream engine around it: the virtual-time queue, the SLO-driven
// degradation ladder (a deadline miss sheds a rung — finest scales, then
// min_neighbors, serial exec, queued frames — and sustained in-budget
// frames climb back) and the anomaly dumps.
//
// Everything is observable: serve.* metrics in an obs::Registry and trace
// spans/instants per recovery action on the ambient obs::TraceSession.
#pragma once

#include <string>
#include <vector>

#include "obs/slo.h"
#include "serve/stream.h"

namespace fdet::serve {

/// Knobs of the observability layer threaded through the serving loop.
/// Recorder size and dump limits are constants of service.cpp
/// (kRecorderCapacity, kDumpWindowS, kMaxDumps).
struct ObservabilityOptions {
  /// Install a per-frame TraceContext (trace ids on every span/event).
  bool tracing = true;
  /// Record frames/stages/launches/decisions into the flight recorder.
  bool flight_recorder = true;
  /// Directory for dump-on-anomaly files ("" = keep the ring in memory
  /// but write nothing). Files are `flight_f<frame>_<anomaly>.json`,
  /// written atomically (core::atomic_write_file), first-come, at most one
  /// per frame and anomaly class; injected faults always dump.
  std::string dump_dir;
};

/// Frame backlog the service queues; an arrival beyond it is dropped
/// (backpressure).
inline constexpr int kServiceQueueCapacity = 4;

/// The service's settable values. Retry attempts, breaker thresholds
/// (serve/policy.h) and the SLO rule (obs/slo.h) are constants.
struct ServiceOptions {
  double fps = 24.0;          ///< stream arrival rate
  double deadline_ms = 40.0;  ///< per-frame latency budget (24 fps display)
  RetryOptions retry;
  ObservabilityOptions obs;
  std::uint64_t seed = 0x5e12e;  ///< backoff-jitter stream
};

/// One flight-recorder dump written during a run.
struct AnomalyDump {
  int frame = -1;
  obs::Anomaly kind = obs::Anomaly::kDeadlineMiss;
  std::string cause;
  std::string path;
};

/// Aggregate of one run(): the per-frame records plus the summary the
/// chaos harness asserts on.
struct ServiceReport {
  std::vector<ServedFrame> frames;
  int ok = 0;
  int degraded = 0;
  int dropped = 0;
  int failed = 0;
  int deadline_misses = 0;
  int retries = 0;
  int faults_injected = 0;
  int breaker_trips = 0;
  int degradation_shifts = 0;
  int final_degradation_level = 0;
  /// Frames whose bytes the ingest layer rejected with a typed
  /// IngestError (ErrorClass::kMalformed; subset of `failed`).
  int ingest_rejects = 0;
  /// Longest streak of frames that produced no detections output
  /// (dropped or failed) — the chaos harness bounds this.
  int max_consecutive_unserved = 0;
  double max_latency_ms = 0.0;
  /// Flight-recorder dumps written during the run (dump_dir set).
  std::vector<AnomalyDump> dumps;
  /// End-of-run SLO state (percentiles, miss ratio, burn rates).
  obs::SloSnapshot slo;
};

class StreamingService {
 public:
  /// `base` is the level-0 pipeline configuration; the degradation ladder
  /// derives the shed configurations from it. `registry` may be null
  /// (no metrics).
  StreamingService(const vgpu::DeviceSpec& spec, haar::Cascade cascade,
                   detect::PipelineOptions base, ServiceOptions options,
                   obs::Registry* registry = nullptr);

  /// Serves frames [0, count) of the source's stream under an optional
  /// fault plan (null = fault-free). Resets service state (ladder,
  /// breakers, memo, virtual clock) so consecutive runs are independent.
  ServiceReport run(const ingest::FrameSource& source, int count,
                    const FaultPlan* plan = nullptr);

  const ServiceOptions& options() const { return options_; }
  BreakerState decode_breaker() const {
    return stream_.decode_breaker.state();
  }

 private:
  /// Counts and records the frame's anomaly classes (the served record
  /// plus whether a breaker tripped or the ladder climbed on it), and
  /// writes a flight dump per class.
  void write_dumps(const ServedFrame& sf, bool breaker_open,
                   bool ladder_climb, ServiceReport& report);

  ServiceOptions options_;
  FrameExecutor executor_;
  StreamRecovery stream_;
  int dumps_written_ = 0;
};

}  // namespace fdet::serve
