#include "obs/recorder.h"

#include <algorithm>
#include <utility>

#include "core/artifact.h"
#include "core/check.h"
#include "obs/json.h"

namespace fdet::obs {

namespace {

void copy_label(char* dst, std::size_t size, const char* text) {
  std::size_t i = 0;
  for (; text != nullptr && text[i] != '\0' && i + 1 < size; ++i) {
    dst[i] = text[i];
  }
  dst[i] = '\0';
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFrame: return "frame";
    case FlightEventKind::kStage: return "stage";
    case FlightEventKind::kLaunch: return "launch";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kBreaker: return "breaker";
    case FlightEventKind::kLadder: return "ladder";
    case FlightEventKind::kDrop: return "drop";
    case FlightEventKind::kQuarantine: return "quarantine";
    case FlightEventKind::kDeadlineMiss: return "deadline-miss";
    case FlightEventKind::kSlo: return "slo";
    case FlightEventKind::kAnomaly: return "anomaly";
  }
  return "?";
}

const char* anomaly_name(Anomaly anomaly) {
  switch (anomaly) {
    case Anomaly::kDeadlineMiss: return "deadline-miss";
    case Anomaly::kQuarantine: return "quarantine";
    case Anomaly::kBreakerOpen: return "breaker-open";
    case Anomaly::kLadderClimb: return "ladder-climb";
    case Anomaly::kFaultInjected: return "fault-injected";
  }
  return "?";
}

void FlightEvent::set_name(const char* text) {
  copy_label(name, sizeof(name), text);
}

void FlightEvent::set_detail(const char* text) {
  copy_label(detail, sizeof(detail), text);
}

void FlightEvent::set_context(const TraceContext& context) {
  trace_id = context.trace_id;
  span_id = context.span_id;
  parent_span_id = context.parent_span_id;
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  FDET_CHECK(capacity >= 2) << "flight recorder capacity must be >= 2, got "
                            << capacity;
  const std::size_t rounded = round_up_pow2(capacity);
  slots_ = std::make_unique<Slot[]>(rounded);
  mask_ = rounded - 1;
}

void FlightRecorder::record(const FlightEvent& event) {
  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  slot.seq.store(2 * ticket + 1, std::memory_order_release);
  // Keep the payload stores after the odd (write-in-progress) stamp.
  std::atomic_thread_fence(std::memory_order_release);
  std::uint64_t buffer[kSlotWords] = {};
  std::memcpy(buffer, &event, sizeof(FlightEvent));
  for (std::size_t i = 0; i < kSlotWords; ++i) {
    slot.words[i].store(buffer[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t first =
      first_visible_.load(std::memory_order_acquire);
  std::vector<std::pair<std::uint64_t, FlightEvent>> ordered;
  ordered.reserve(mask_ + 1);
  for (std::size_t i = 0; i <= mask_; ++i) {
    const Slot& slot = slots_[i];
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 == 0 || (seq1 & 1) != 0) {
      continue;  // empty or mid-write
    }
    std::uint64_t buffer[kSlotWords];
    for (std::size_t w = 0; w < kSlotWords; ++w) {
      buffer[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq1) {
      continue;  // torn: overwritten while reading
    }
    const std::uint64_t ticket = (seq1 - 2) / 2;
    if (ticket < first) {
      continue;  // recorded before the last clear()
    }
    FlightEvent event;
    std::memcpy(&event, buffer, sizeof(FlightEvent));
    ordered.emplace_back(ticket, event);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<FlightEvent> events;
  events.reserve(ordered.size());
  for (auto& [ticket, event] : ordered) {
    events.push_back(event);
  }
  return events;
}

std::vector<FlightEvent> FlightRecorder::snapshot_window(
    double window_us) const {
  std::vector<FlightEvent> events = snapshot();
  if (events.empty() || window_us <= 0.0) {
    return events;
  }
  double newest = 0.0;
  for (const FlightEvent& event : events) {
    newest = std::max(newest, event.ts_us + event.dur_us);
  }
  const double cutoff = newest - window_us;
  std::vector<FlightEvent> recent;
  recent.reserve(events.size());
  for (const FlightEvent& event : events) {
    if (event.ts_us + event.dur_us >= cutoff) {
      recent.push_back(event);
    }
  }
  return recent;
}

void FlightRecorder::clear() {
  first_visible_.store(head_.load(std::memory_order_acquire),
                       std::memory_order_release);
}

namespace {

/// Track layout of a dump: one thread per event category so Perfetto
/// shows frames, stages, launches, and control decisions as stacked
/// swimlanes of the same (virtual-time) process.
constexpr int kFrameTrack = 1;
constexpr int kStageTrack = 2;
constexpr int kLaunchTrack = 3;
constexpr int kControlTrack = 4;

int track_for(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFrame: return kFrameTrack;
    case FlightEventKind::kStage: return kStageTrack;
    case FlightEventKind::kLaunch: return kLaunchTrack;
    default: return kControlTrack;
  }
}

bool is_span(FlightEventKind kind) {
  return kind == FlightEventKind::kFrame ||
         kind == FlightEventKind::kStage || kind == FlightEventKind::kLaunch;
}

TraceEvent track_metadata(int tid, const char* label) {
  TraceEvent event;
  event.name = "thread_name";
  event.phase = 'M';
  event.pid = 0;
  event.tid = tid;
  event.str_args.emplace_back("name", label);
  return event;
}

}  // namespace

std::vector<TraceEvent> flight_trace_events(
    const std::vector<FlightEvent>& events) {
  std::vector<TraceEvent> out;
  out.reserve(events.size() + 5);
  TraceEvent process;
  process.name = "process_name";
  process.phase = 'M';
  process.str_args.emplace_back("name", "flight-recorder");
  out.push_back(std::move(process));
  out.push_back(track_metadata(kFrameTrack, "frames"));
  out.push_back(track_metadata(kStageTrack, "stages"));
  out.push_back(track_metadata(kLaunchTrack, "launches"));
  out.push_back(track_metadata(kControlTrack, "control"));

  for (const FlightEvent& event : events) {
    TraceEvent trace;
    trace.name = event.name[0] != '\0'
                     ? std::string(event.name)
                     : std::string(flight_event_kind_name(event.kind));
    trace.phase = is_span(event.kind) ? 'X' : 'i';
    trace.pid = 0;
    trace.tid = track_for(event.kind);
    trace.ts_us = event.ts_us;
    trace.dur_us = event.dur_us;
    trace.str_args.emplace_back("kind", flight_event_kind_name(event.kind));
    if (event.frame >= 0) {
      trace.num_args.emplace_back("frame", static_cast<double>(event.frame));
    }
    if (event.value != 0.0) {
      trace.num_args.emplace_back("value", event.value);
    }
    if (event.detail[0] != '\0') {
      trace.str_args.emplace_back("detail", event.detail);
    }
    TraceContext context{event.trace_id, event.span_id, event.parent_span_id};
    if (context.valid()) {
      trace.str_args.emplace_back("trace_id", hex_id(context.trace_id));
      trace.str_args.emplace_back("span_id", hex_id(context.span_id));
      if (context.parent_span_id != 0) {
        trace.str_args.emplace_back("parent_span_id",
                                    hex_id(context.parent_span_id));
      }
    }
    out.push_back(std::move(trace));
  }
  return out;
}

std::string flight_dump_json(const std::vector<FlightEvent>& events,
                             const AnomalyInfo& anomaly) {
  std::string header = "{\"kind\":\"";
  header += json::escape(anomaly_name(anomaly.kind));
  header += "\",\"frame\":" + std::to_string(anomaly.frame);
  header += ",\"cause\":\"" + json::escape(anomaly.cause) + "\"";
  if (anomaly.trace_id != 0) {
    header += ",\"trace_id\":\"" + hex_id(anomaly.trace_id) + "\"";
  }
  header += ",\"events\":" + std::to_string(events.size());
  header += "}";
  return chrome_trace_json(flight_trace_events(events),
                           {{"anomaly", header}});
}

void write_flight_dump(const std::string& path,
                       const std::vector<FlightEvent>& events,
                       const AnomalyInfo& anomaly) {
  core::atomic_write_file(path, flight_dump_json(events, anomaly));
}

}  // namespace fdet::obs
