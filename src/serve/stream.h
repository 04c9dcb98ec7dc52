// The one per-frame path of the serving layer (DESIGN.md §6, §12).
//
// Both serving engines — StreamingService (one stream) and FleetScheduler
// (many streams over a device fleet) — serve every frame through
// StreamRecovery::serve_frame: decode, luma corruption and detect under a
// FaultPlan, bounded retry with backoff, the stream's two circuit
// breakers, and the run-scoped memo. The engines differ only in how
// frames reach it (queueing, shedding, admission, devices).
//
// The memo maps (source, frame index) -> (decode_ms, luma digest) and
// (luma digest, ladder rung) -> (detect_ms, detections). It keeps no
// pixels: a detect miss after a decode hit decodes again. An attempt with
// armed launch faults never reads it, so an injected fault fires even when
// another stream already computed the frame, and it lives for one run, so
// two runs never answer each other.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "detect/pipeline.h"
#include "ingest/frame_source.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/faults.h"
#include "serve/policy.h"

namespace fdet::serve {

/// One byte: a fleet run holds a record per stream-frame (199,680 in
/// perfbench's fleet_shared).
enum class FrameStatus : std::uint8_t {
  kOk,
  kDegraded,
  kDropped,
  kFailed,
  /// Admission control turned the frame away before it entered any
  /// queue. Only the fleet produces this — a single-stream service admits
  /// everything up to queue capacity.
  kAdmissionRejected,
};
const char* frame_status_name(FrameStatus status);

/// Outcome of one frame of one stream, from either engine. Fields marked
/// (fleet) keep their defaults in a single-stream service; (service) ones
/// keep theirs in the fleet.
struct ServedFrame {
  int index = 0;
  int stream = 0;  ///< (fleet) stream id
  int tenant = 0;  ///< (fleet) tenant id
  int device = -1; ///< (fleet) device that completed (or last held) the frame
  int degradation_level = 0;  ///< ladder level the frame was served at
  int retries = 0;            ///< retry attempts spent across both stages
  int queue_depth = 0;        ///< (service) backlog when the frame arrived
  int batch_size = 1;         ///< (fleet) dispatch fan-in (1 = served solo)
  FrameStatus status = FrameStatus::kOk;
  bool fault_injected = false;
  bool deadline_miss = false;
  bool failed_over = false;  ///< (fleet) re-dispatched after losing its device
  /// The frame has reached a terminal status. The fleet's chaos harness
  /// asserts this holds for every admitted frame.
  bool settled = false;
  double arrival_s = 0.0;     ///< virtual stream time the frame arrived
  double completion_s = 0.0;  ///< virtual time its service finished
  double decode_ms = 0.0;
  double detect_ms = 0.0;
  double backoff_ms = 0.0;    ///< total retry backoff charged to the frame
  double latency_ms = 0.0;    ///< end-to-end: completion - arrival
  std::uint64_t trace_id = 0; ///< (service) causal trace id (0 = off)
  /// Causal chain of everything that went wrong on this frame, oldest
  /// first: "fault:launch -> retry:detect -> deadline-miss". Empty for a
  /// clean frame. The same tokens appear in the flight-recorder dump.
  std::string cause;
  std::vector<detect::Detection> detections;  ///< empty unless served
  std::optional<FrameError> error;            ///< kFailed / rejected only
};

/// Appends one token to the frame's causal chain: "a -> b -> c".
void append_cause(ServedFrame& sf, const std::string& token);

/// Emits an instant event on the ambient obs::TraceSession, if any.
void trace_instant(const std::string& text);

/// What a serving engine shares across its streams on the per-frame path.
class FrameExecutor {
 public:
  /// `base` is the level-0 pipeline configuration; each ladder rung
  /// derives its own from it. `registry` may be null (no metrics);
  /// `recorder_capacity` 0 means no flight recorder.
  FrameExecutor(const vgpu::DeviceSpec& spec, haar::Cascade cascade,
                detect::PipelineOptions base, obs::Registry* registry,
                std::size_t recorder_capacity);

  /// The pipeline of ladder rung `level`, built on first use.
  const detect::Pipeline& pipeline(int level);

  /// Starts a run: forgets the memo, empties the flight recorder (a
  /// run's dumps hold only its own events; virtual time restarts at 0)
  /// and opens a fresh SLO engine judging frames against `deadline_ms`.
  /// Its recovery hysteresis (obs::kSloRecoverAfter frames under
  /// obs::kSloRecoverFraction x deadline) is the ladder's; a tripped
  /// breaker resets it.
  void begin_run(double deadline_ms);
  obs::SloEngine& slo() { return *slo_; }

  // Instruments; each is a no-op without its registry / recorder.
  obs::Registry* registry() const { return registry_; }
  const obs::FlightRecorder* recorder() const { return recorder_.get(); }
  void count(const char* name, const obs::Labels& labels = {},
             double delta = 1.0) const;
  void gauge(const char* name, double value,
             const obs::Labels& labels = {}) const;
  void observe_histogram(const char* name, double value) const;
  /// Records one flight event, in the ambient trace context if any.
  /// `stream` >= 0 tags the detail "s<stream>:" (fleet events).
  void flight(obs::FlightEventKind kind, int frame, double ts_us,
              double dur_us, const char* name, const char* detail,
              double value = 0.0, int stream = -1) const;

 private:
  friend class StreamRecovery;

  struct Decoded {
    double decode_ms = 0.0;
    std::uint64_t digest = 0;
  };
  struct Detected {
    double detect_ms = 0.0;
    std::vector<detect::Detection> detections;
  };

  vgpu::DeviceSpec spec_;
  haar::Cascade cascade_;
  detect::PipelineOptions base_;
  obs::Registry* registry_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::map<int, std::unique_ptr<detect::Pipeline>> pipelines_;  ///< per rung

  // Run-scoped state (begin_run resets it).
  std::optional<obs::SloEngine> slo_;
  std::map<std::pair<const ingest::FrameSource*, int>, Decoded> decoded_;
  std::map<std::pair<std::uint64_t, int>, Detected> detected_;
};

/// One stream's recovery state: the degradation ladder its frames are
/// served at, the decode and detect circuit breakers, and the jitter
/// stream of its retry backoff.
class StreamRecovery {
 public:
  /// `stream` >= 0 tags this stream's flight events (fleet streams).
  explicit StreamRecovery(RetryOptions retry = {}, std::uint64_t seed = 0,
                          int stream = -1);

  /// Advances both breakers' frame clocks (once per arriving frame).
  void on_frame();

  /// Serves frame `sf.index` of `source` at the current ladder rung under
  /// an optional fault plan, filling `sf`'s service fields: status (ok /
  /// degraded, or a terminal failed with its error), level, retries,
  /// decode / backoff / detect time, detections and cause tokens.
  /// `start_s` is the virtual time service begins; flight events and
  /// launch stamps are timestamped from it.
  void serve_frame(FrameExecutor& executor, ServedFrame& sf,
                   const ingest::FrameSource& source, const FaultPlan* plan,
                   double start_s);

  /// Records that the ladder just moved, on frame `frame` at virtual time
  /// `ts_us`: the shift counter, a trace instant and a flight event.
  void ladder_moved(const FrameExecutor& executor, int frame,
                    double ts_us) const;

  /// Breaker trips so far, both stages.
  int breaker_trips() const {
    return decode_breaker.trips() + detect_breaker.trips();
  }

  DegradationLadder ladder;
  CircuitBreaker decode_breaker;
  CircuitBreaker detect_breaker;

 private:
  RetryOptions retry_;
  core::Rng jitter_;
  int stream_;
};

}  // namespace fdet::serve
