// Perfetto/chrome://tracing-compatible tracing for the virtual GPU.
//
// Two time domains meet here, and the trace keeps them on separate
// process tracks:
//
//   pid 0         host wall-clock spans (TraceSession::span) around the
//                 simulator's own work: pipeline stages, boosting rounds.
//   pid 1, 2, ... one process per added vgpu::Timeline ("vgpu:<label>"),
//                 in *virtual* device time: one thread track per CUDA
//                 stream (the paper's Fig. 6 rows), one per SM, plus
//                 counter tracks for busy SMs and resident warps.
//
// Everything serializes to the Chrome trace-event JSON format
// ({"traceEvents": [...]}), which loads directly in https://ui.perfetto.dev
// or chrome://tracing. Stream/SM intervals come from the same
// Timeline::records_by_stream / Timeline::sm_spans model that backs the
// ASCII render_trace, so the two views can never drift apart.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "vgpu/scheduler.h"

namespace fdet::obs {

/// Causal trace context: every frame gets a trace_id, every stage/launch
/// under it a span_id chained to its parent. Ids are deterministic hashes
/// of (seed, frame, span name), so two runs with the same seed produce
/// identical ids — dumps diff cleanly. trace_id == 0 means "no context".
///
/// Propagation rules (DESIGN.md §8): the serving loop creates one frame
/// context per frame and installs it with ScopedTraceContext; spans opened
/// while a context is installed automatically become children of it, and
/// control-plane decisions (retry, breaker, ladder, shed, quarantine)
/// record the ambient context in their flight-recorder events so an
/// anomaly dump names the exact frame and cause chain.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// Root context for one frame, derived from (seed, frame index).
TraceContext make_frame_context(std::uint64_t seed, int frame);
/// Child context: same trace, parent_span_id = parent.span_id, fresh
/// span_id derived from (parent span, name).
TraceContext child_context(const TraceContext& parent,
                           const std::string& name);
/// 16-digit lowercase hex rendering used in trace args and dump JSON.
std::string hex_id(std::uint64_t id);

/// Installs a trace context for the current thread (stack discipline —
/// contexts nest). Library spans and flight-recorder events pick up the
/// innermost installed context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  const TraceContext& context() const { return context_; }

 private:
  TraceContext context_;
  ScopedTraceContext* prev_;
};

/// Innermost installed context of the current thread, or nullptr.
const TraceContext* current_trace_context();

/// One trace-event JSON entry. `phase` uses the Chrome trace-event
/// phase codes: 'X' complete, 'C' counter, 'i' instant, 'M' metadata.
struct TraceEvent {
  std::string name;
  char phase = 'X';
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< complete events only
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// Serializes events as a Chrome trace-event document. `root_extras` are
/// additional root-level members appended after "traceEvents": each pair
/// is (key, raw JSON value) — Perfetto ignores unknown root keys, so the
/// flight recorder uses this to attach its anomaly header.
std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::vector<std::pair<std::string, std::string>>& root_extras = {});

/// Converts one scheduled timeline into trace events under process `pid`:
/// stream tracks (tid = stream id), SM tracks (tid = kSmTrackBase + sm),
/// and `busy_sms` / `resident_warps` counter tracks. Usable standalone;
/// TraceSession::add_timeline builds on it.
inline constexpr int kSmTrackBase = 1000;
std::vector<TraceEvent> timeline_trace_events(const vgpu::Timeline& timeline,
                                              int pid,
                                              const std::string& label);

/// Collects host spans and device timelines for one run and writes the
/// combined Chrome trace. Host spans are wall-clock microseconds since
/// construction. All methods are thread-safe.
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// RAII host span: records a complete event on the host track when it
  /// goes out of scope. Move-only.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    ~Span();

   private:
    friend class TraceSession;
    Span(TraceSession* session, std::uint64_t token)
        : session_(session), token_(token) {}
    TraceSession* session_;
    std::uint64_t token_;
  };

  /// Opens a span. The span captures the thread's installed TraceContext
  /// (current_trace_context()) as a child context, so the exported event
  /// carries trace_id/span_id/parent_span_id args. Spans still open when
  /// events()/to_json() runs are flushed as `incomplete="true"` events
  /// with the duration observed so far — a crash dump never loses the
  /// stage that was in flight.
  Span span(std::string name);
  /// Zero-duration marker on the host track, annotated with the thread's
  /// installed TraceContext (if any).
  void instant(std::string name);
  /// Wall-clock microseconds since the session started.
  double now_us() const;

  /// Adds a scheduled timeline as a new "vgpu:<label>" trace process and
  /// returns its pid.
  int add_timeline(const std::string& label, const vgpu::Timeline& timeline);

  void add_event(TraceEvent event);

  /// Snapshot: closed events plus one synthesized `incomplete="true"`
  /// event per still-open span. An empty session still serializes to a
  /// valid Perfetto document (process metadata only).
  std::vector<TraceEvent> events() const;
  std::string to_json() const;
  /// Writes to_json() through core::atomic_write_file (a failed write
  /// leaves the previous file intact); throws core::CheckError when the
  /// file cannot be written.
  void write_file(const std::string& path) const;

  /// Ambient session used by library-internal instrumentation
  /// (detect::Pipeline stages, train boosting rounds) via ScopedSpan.
  /// At most one session is ambient at a time; install() replaces the
  /// previous one, uninstall() clears it only if this session holds it.
  /// The destructor uninstalls automatically.
  void install();
  void uninstall();
  static TraceSession* current();

 private:
  struct OpenSpan {
    std::string name;
    double start_us = 0.0;
    TraceContext context;
  };

  void end_span(std::uint64_t token);
  TraceEvent synthesize(const OpenSpan& open, double now) const;

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::map<std::uint64_t, OpenSpan> open_spans_;
  std::uint64_t next_span_token_ = 1;
  int next_pid_ = 1;  // pid 0 is the host process
  std::chrono::steady_clock::time_point epoch_;
};

/// Opens a span on the ambient session; a silent no-op when none is
/// installed, so library code can instrument unconditionally.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name) {
    if (TraceSession* session = TraceSession::current()) {
      span_.emplace(session->span(std::move(name)));
    }
  }

 private:
  std::optional<TraceSession::Span> span_;
};

/// Publishes the scheduler-level metrics of one timeline into `registry`
/// under `labels` — the quantities the paper reads off the CUDA profiler:
/// makespan, SM utilization, branch efficiency, SIMD efficiency, DRAM read
/// throughput, plus launch/block/byte totals and a kernel-duration
/// histogram.
void publish_timeline(Registry& registry, const vgpu::Timeline& timeline,
                      const Labels& labels = {});

}  // namespace fdet::obs
