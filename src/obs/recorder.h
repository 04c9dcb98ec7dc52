// Always-on flight recorder for the serving path.
//
// A fixed-size lock-free ring of compact, trivially-copyable events. The
// serving loop records every frame, stage, vgpu launch, and control-plane
// decision (retry, fault, breaker, ladder, shed, quarantine) into the
// ring unconditionally — the write path is a ticket fetch_add plus a
// word-wise seqlock publish, no allocation, no locks, bounded work — and
// the ring simply forgets events older than capacity.
//
// When an anomaly fires (deadline miss, quarantine, breaker-open,
// ladder-climb, or an injected fault), the service snapshots the last N
// virtual seconds of the ring and writes a Perfetto-loadable dump via
// core::atomic_write_file. The dump's root carries an "anomaly" header
// ({kind, frame, cause, trace_id}) and every event carries the causal
// TraceContext of the frame that produced it, so the span chain in the
// dump names the frame, the stage, and the cause (DESIGN.md §8).
//
// Timestamps are *virtual* serving time (the same clock the deadline is
// judged against), not wall-clock: dumps from two runs with the same
// seed are identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.h"

namespace fdet::obs {

enum class FlightEventKind : std::uint8_t {
  kFrame,         ///< one span per served/attempted frame (dur = latency)
  kStage,         ///< decode/detect/backoff span within a frame
  kLaunch,        ///< one vgpu kernel launch (virtual device time)
  kRetry,         ///< a retry decision (detail = stage, value = backoff ms)
  kFault,         ///< an injected fault fired (detail = fault kind)
  kBreaker,       ///< breaker state change (detail = stage:state)
  kLadder,        ///< ladder movement (detail = rung name, value = level)
  kDrop,          ///< frame shed (detail = why)
  kQuarantine,    ///< frame quarantined (detail = stage/class/message)
  kDeadlineMiss,  ///< frame blew the deadline (value = latency ms)
  kSlo,           ///< SLO engine signal (detail = degrade/recover, value = burn)
  kAnomaly,       ///< dump trigger marker (detail = anomaly name)
};
const char* flight_event_kind_name(FlightEventKind kind);

/// Anomaly classes that trigger a dump. kFaultInjected exists so chaos
/// runs can demand a causal dump for *every* injected fault, including
/// ones (luma corruption) that perturb no latency or control decision.
enum class Anomaly : std::uint8_t {
  kDeadlineMiss,
  kQuarantine,
  kBreakerOpen,
  kLadderClimb,
  kFaultInjected,
};
inline constexpr int kAnomalyCount = 5;
const char* anomaly_name(Anomaly anomaly);

/// Compact fixed-size event. Strings are truncating copies — names and
/// details are labels, not payloads.
struct FlightEvent {
  double ts_us = 0.0;   ///< virtual serving time
  double dur_us = 0.0;  ///< spans only (kFrame/kStage/kLaunch)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  double value = 0.0;  ///< kind-specific scalar (latency, level, burn...)
  std::int32_t frame = -1;
  FlightEventKind kind = FlightEventKind::kFrame;
  char name[24] = {};
  char detail[56] = {};

  void set_name(const char* text);
  void set_detail(const char* text);
  /// Copies the context ids; pass current_trace_context() when ambient.
  void set_context(const TraceContext& context);
};
static_assert(std::is_trivially_copyable_v<FlightEvent>);

class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two; default fits several
  /// seconds of serving events (launches dominate at ~10²/frame).
  explicit FlightRecorder(std::size_t capacity = 8192);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Wait-free writer: claims a ticket and publishes the event through a
  /// per-slot seqlock. Never blocks, never allocates.
  void record(const FlightEvent& event);

  /// Consistent snapshot in record order — torn slots (concurrently
  /// overwritten during the read) are skipped, so a snapshot holds at
  /// most capacity() and possibly fewer events.
  std::vector<FlightEvent> snapshot() const;
  /// Snapshot filtered to events whose end (ts + dur) falls within
  /// `window_us` of the newest event end.
  std::vector<FlightEvent> snapshot_window(double window_us) const;

  /// Empties the ring in place: later snapshots hold only events
  /// recorded after this call. Allocates nothing and overwrites no slot
  /// (the ring remembers the first ticket still visible).
  void clear();

  std::size_t capacity() const { return mask_ + 1; }

 private:
  static constexpr std::size_t kSlotWords =
      (sizeof(FlightEvent) + sizeof(std::uint64_t) - 1) /
      sizeof(std::uint64_t);

  struct Slot {
    /// Seqlock stamp: 0 empty, odd = write in progress for ticket
    /// (seq-1)/2, even = ticket (seq-2)/2 published.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kSlotWords];
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> first_visible_{0};  ///< clear() moves it
};

/// Anomaly header attached to a dump at the document root.
struct AnomalyInfo {
  Anomaly kind = Anomaly::kDeadlineMiss;
  int frame = -1;
  std::string cause;  ///< causal chain, e.g. "fault:launch -> retry-exhausted"
  std::uint64_t trace_id = 0;
};

/// Converts flight events to Chrome trace events: spans become 'X' on
/// per-category tracks (frames/stages/launches), decisions become 'i'
/// instants on the control track, all annotated with frame ids, causal
/// trace ids, and details.
std::vector<TraceEvent> flight_trace_events(
    const std::vector<FlightEvent>& events);

/// Perfetto-loadable dump document: trace events plus the root-level
/// "anomaly" header. Valid (empty traceEvents) even with no events.
std::string flight_dump_json(const std::vector<FlightEvent>& events,
                             const AnomalyInfo& anomaly);

/// Writes flight_dump_json via core::atomic_write_file (throws
/// core::ArtifactError on failure).
void write_flight_dump(const std::string& path,
                       const std::vector<FlightEvent>& events,
                       const AnomalyInfo& anomaly);

}  // namespace fdet::obs
