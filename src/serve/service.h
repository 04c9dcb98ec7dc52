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
// Recovery behavior (serve/policy.h):
//   * transient faults (decode glitches, vgpu launch hiccups) retry with
//     exponential backoff + jitter, bounded by RetryOptions;
//   * repeated per-stage frame failures trip a circuit breaker that
//     rejects the stage for a cooldown and forces the serial-exec rung of
//     the degradation ladder;
//   * hard resource faults (constant/shared overflow), malformed frame
//     bytes (ingest::IngestError — the bytes won't heal, so no retry) and
//     unexpected errors quarantine the frame with a structured
//     FrameError — the service never crashes;
//   * blowing the deadline budget walks the degradation ladder down
//     (shed finest scales -> raise min_neighbors -> serial exec -> shed
//     queued frames); sustained in-budget frames climb back up.
//
// Everything is observable: serve.* metrics in an obs::Registry and trace
// spans/instants per recovery action on the ambient obs::TraceSession.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/pipeline.h"
#include "ingest/frame_source.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/faults.h"
#include "serve/policy.h"
#include "video/decoder.h"

namespace fdet::serve {

enum class FrameStatus {
  kOk,
  kDegraded,
  kDropped,
  kFailed,
  /// Admission control turned the frame away before it entered any
  /// queue. Only the fleet layer (serve/fleet.h) produces this — a
  /// single-stream service admits everything up to queue capacity.
  kAdmissionRejected,
};
const char* frame_status_name(FrameStatus status);

/// Outcome of one frame through the service.
struct ServedFrame {
  int index = 0;
  FrameStatus status = FrameStatus::kOk;
  int degradation_level = 0;  ///< ladder level the frame was served at
  int retries = 0;            ///< retry attempts spent across both stages
  bool fault_injected = false;
  double arrival_s = 0.0;     ///< virtual stream time the frame arrived
  double completion_s = 0.0;  ///< virtual time the service finished it
  double decode_ms = 0.0;
  double detect_ms = 0.0;
  double backoff_ms = 0.0;    ///< total retry backoff charged to the frame
  double latency_ms = 0.0;    ///< end-to-end: completion - arrival
  int queue_depth = 0;        ///< backlog when the frame arrived
  /// Delivery-order classification from the source (lossy transports
  /// deliver late or twice; the service counts both, crashes on neither).
  ingest::FrameArrival arrival = ingest::FrameArrival::kInOrder;
  /// The source reported a delivery gap (IngestErrorKind::kMissingFrame):
  /// a typed drop, distinct from malformed bytes.
  bool missing = false;
  std::uint64_t trace_id = 0; ///< causal trace id of the frame (0 = off)
  /// Causal chain of everything that went wrong on this frame, oldest
  /// first: "fault:launch -> retry:detect -> deadline-miss". Empty for a
  /// clean frame. The same tokens appear in the flight-recorder dump.
  std::string cause;
  std::vector<detect::Detection> detections;  ///< empty unless served
  std::optional<FrameError> error;            ///< kFailed only
};

/// Knobs of the observability layer threaded through the serving loop.
struct ObservabilityOptions {
  /// Install a per-frame TraceContext (trace ids on every span/event).
  bool tracing = true;
  /// Record frames/stages/launches/decisions into the flight recorder.
  bool flight_recorder = true;
  std::size_t recorder_capacity = 8192;
  /// Directory for dump-on-anomaly files ("" = keep the ring in memory
  /// but write nothing). Files are `flight_f<frame>_<anomaly>.json`,
  /// written atomically (core::atomic_write_file).
  std::string dump_dir;
  /// Virtual seconds of history each dump snapshots.
  double dump_window_s = 2.0;
  /// Cap on dump files per run (first-come, at most one per frame and
  /// anomaly class).
  int max_dumps = 64;
  /// Also dump on injected faults that caused no other anomaly (chaos
  /// runs demand a causal record for *every* injected fault).
  bool dump_on_fault = true;
  /// SLO engine configuration; its burn-rate decisions drive the
  /// DegradationLadder. deadline_ms, recover_fraction and
  /// recover_after are overridden from ServiceOptions at run start so the
  /// engine always judges the service's actual budget.
  obs::SloOptions slo;
};

struct ServiceOptions {
  double fps = 24.0;          ///< stream arrival rate
  double deadline_ms = 40.0;  ///< per-frame latency budget (24 fps display)
  int queue_capacity = 4;     ///< arrivals beyond this backlog are dropped
  RetryOptions retry;
  BreakerOptions breaker;
  DegradeOptions degrade;
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
  /// Delivery gaps (kMissingFrame drops; subset of `dropped`).
  int missing_frames = 0;
  /// Frames delivered after a successor (served, cause-tagged).
  int out_of_order = 0;
  /// Frames delivered more than once (served, cause-tagged).
  int duplicates = 0;
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
  /// breakers, virtual clock) so consecutive runs are independent.
  ServiceReport run(const ingest::FrameSource& source, int count,
                    const FaultPlan* plan = nullptr);

  const ServiceOptions& options() const { return options_; }
  int degradation_level() const { return ladder_.level(); }
  BreakerState decode_breaker() const { return decode_breaker_.state(); }
  BreakerState detect_breaker() const { return detect_breaker_.state(); }
  /// The always-on flight recorder (null when disabled via options).
  const obs::FlightRecorder* recorder() const { return recorder_.get(); }

 private:
  class LaunchStamps;  ///< flight-recorder launch observer (service.cpp)

  const detect::Pipeline& pipeline_for_level(int level);
  /// `start_s` is the virtual time service begins on the frame
  /// (max(arrival, previous completion)) — flight events and vgpu launch
  /// spans are timestamped relative to it.
  ServedFrame serve_frame(const ingest::FrameSource& source, int index,
                          const FaultPlan* plan, double start_s);
  void reset();

  // Metrics helpers; no-ops when registry_ is null.
  void count(const char* name, const obs::Labels& labels = {},
             double delta = 1.0);
  void gauge(const char* name, double value, const obs::Labels& labels = {});
  void observe_histogram(const char* name, std::vector<double> bounds,
                         double value);
  void trace_instant(const std::string& text);

  // Flight-recorder helpers; no-ops when the recorder is disabled.
  void flight(obs::FlightEventKind kind, int frame, double ts_us,
              double dur_us, const char* name, const char* detail,
              double value = 0.0);
  void note_anomaly(ServedFrame& sf, obs::Anomaly kind);
  void write_dumps(const ServedFrame& sf, ServiceReport& report);

  vgpu::DeviceSpec spec_;
  haar::Cascade cascade_;
  detect::PipelineOptions base_;
  ServiceOptions options_;
  obs::Registry* registry_;

  std::map<int, std::unique_ptr<detect::Pipeline>> pipelines_;  ///< per level
  DegradationLadder ladder_;
  CircuitBreaker decode_breaker_;
  CircuitBreaker detect_breaker_;
  core::Rng jitter_rng_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<obs::SloEngine> slo_;
  /// Anomaly classes observed on the frame currently being processed.
  std::vector<obs::Anomaly> frame_anomalies_;
  int dumps_written_ = 0;
};

}  // namespace fdet::serve
