#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>

#include "core/artifact.h"
#include "core/check.h"
#include "core/rng.h"
#include "obs/json.h"

namespace fdet::obs {

namespace {

std::atomic<TraceSession*> g_current{nullptr};

thread_local ScopedTraceContext* g_context_top = nullptr;

std::uint64_t nonzero(std::uint64_t id) { return id == 0 ? 1 : id; }

void attach_context(TraceEvent& event, const TraceContext& context) {
  if (!context.valid()) {
    return;
  }
  event.str_args.emplace_back("trace_id", hex_id(context.trace_id));
  event.str_args.emplace_back("span_id", hex_id(context.span_id));
  if (context.parent_span_id != 0) {
    event.str_args.emplace_back("parent_span_id",
                                hex_id(context.parent_span_id));
  }
}

TraceEvent metadata(const char* name, int pid, int tid, std::string value) {
  TraceEvent event;
  event.name = name;
  event.phase = 'M';
  event.pid = pid;
  event.tid = tid;
  event.str_args.emplace_back("name", std::move(value));
  return event;
}

TraceEvent counter(const char* track, int pid, double ts_us, const char* key,
                   double value) {
  TraceEvent event;
  event.name = track;
  event.phase = 'C';
  event.pid = pid;
  event.ts_us = ts_us;
  event.num_args.emplace_back(key, value);
  return event;
}

/// Emits one counter event per change point of a step function given as
/// (time, delta) pairs.
void emit_step_counter(std::vector<TraceEvent>& out,
                       std::vector<std::pair<double, double>> deltas, int pid,
                       const char* track, const char* key) {
  std::sort(deltas.begin(), deltas.end());
  double value = 0.0;
  for (std::size_t i = 0; i < deltas.size();) {
    const double t = deltas[i].first;
    while (i < deltas.size() && deltas[i].first == t) {
      value += deltas[i].second;
      ++i;
    }
    out.push_back(counter(track, pid, t * 1e6, key, value));
  }
}

}  // namespace

TraceContext make_frame_context(std::uint64_t seed, int frame) {
  TraceContext context;
  context.trace_id = nonzero(
      core::hash_combine(seed, static_cast<std::uint64_t>(frame) + 1));
  context.span_id = nonzero(core::hash_combine(context.trace_id, 0));
  context.parent_span_id = 0;
  return context;
}

TraceContext child_context(const TraceContext& parent,
                           const std::string& name) {
  TraceContext context;
  context.trace_id = parent.trace_id;
  context.parent_span_id = parent.span_id;
  context.span_id = nonzero(core::hash_combine(
      parent.span_id, std::hash<std::string>{}(name)));
  return context;
}

std::string hex_id(std::uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return out;
}

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : context_(context), prev_(g_context_top) {
  g_context_top = this;
}

ScopedTraceContext::~ScopedTraceContext() { g_context_top = prev_; }

const TraceContext* current_trace_context() {
  return g_context_top == nullptr ? nullptr : &g_context_top->context();
}

std::string chrome_trace_json(
    const std::vector<TraceEvent>& events,
    const std::vector<std::pair<std::string, std::string>>& root_extras) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\":\"" << json::escape(event.name) << "\",\"ph\":\""
        << event.phase << "\",\"pid\":" << event.pid
        << ",\"tid\":" << event.tid;
    if (event.phase != 'M') {
      out << ",\"ts\":" << json::number(event.ts_us);
    }
    if (event.phase == 'X') {
      out << ",\"dur\":" << json::number(event.dur_us);
    }
    if (event.phase == 'i') {
      out << ",\"s\":\"t\"";
    }
    if (!event.num_args.empty() || !event.str_args.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.num_args) {
        if (!first_arg) out << ",";
        first_arg = false;
        out << "\"" << json::escape(key) << "\":" << json::number(value);
      }
      for (const auto& [key, value] : event.str_args) {
        if (!first_arg) out << ",";
        first_arg = false;
        out << "\"" << json::escape(key) << "\":\"" << json::escape(value)
            << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "]";
  for (const auto& [key, raw_json] : root_extras) {
    out << ",\"" << json::escape(key) << "\":" << raw_json;
  }
  out << "}";
  return out.str();
}

std::vector<TraceEvent> timeline_trace_events(const vgpu::Timeline& timeline,
                                              int pid,
                                              const std::string& label) {
  std::vector<TraceEvent> events;
  events.push_back(metadata("process_name", pid, 0, "vgpu:" + label));

  // Stream tracks: one complete event per launch, annotated with the
  // per-launch profiler statistics.
  for (const auto& [stream, indices] : timeline.records_by_stream()) {
    events.push_back(metadata("thread_name", pid, stream,
                              "stream " + std::to_string(stream)));
    for (const std::size_t i : indices) {
      const vgpu::LaunchRecord& record = timeline.records[i];
      TraceEvent event;
      event.name = record.name;
      event.phase = 'X';
      event.pid = pid;
      event.tid = stream;
      event.ts_us = record.start_s * 1e6;
      event.dur_us = record.duration_s() * 1e6;
      event.num_args.emplace_back("blocks",
                                  static_cast<double>(record.blocks));
      event.num_args.emplace_back("occupancy", record.occupancy.ratio);
      event.num_args.emplace_back("branch_efficiency",
                                  record.counters.branch_efficiency());
      event.num_args.emplace_back("simd_efficiency",
                                  record.counters.simd_efficiency());
      event.num_args.emplace_back(
          "dram_read_gbps",
          record.counters.dram_read_throughput(record.duration_s()) / 1e9);
      events.push_back(std::move(event));
    }
  }

  // SM tracks: merged busy spans, named after the launch they served.
  for (std::size_t sm = 0; sm < timeline.sm_spans.size(); ++sm) {
    const auto& spans = timeline.sm_spans[sm];
    if (spans.empty()) {
      continue;
    }
    const int tid = kSmTrackBase + static_cast<int>(sm);
    events.push_back(
        metadata("thread_name", pid, tid, "sm " + std::to_string(sm)));
    for (const vgpu::SmSpan& span : spans) {
      TraceEvent event;
      event.name =
          timeline.records[static_cast<std::size_t>(span.launch_index)].name;
      event.phase = 'X';
      event.pid = pid;
      event.tid = tid;
      event.ts_us = span.start_s * 1e6;
      event.dur_us = (span.end_s - span.start_s) * 1e6;
      events.push_back(std::move(event));
    }
  }

  // Counter tracks: SMs busy and resident warps over time — the
  // utilization picture behind the paper's serial-vs-concurrent contrast.
  std::vector<std::pair<double, double>> sm_deltas;
  for (const auto& spans : timeline.sm_spans) {
    for (const vgpu::SmSpan& span : spans) {
      sm_deltas.emplace_back(span.start_s, 1.0);
      sm_deltas.emplace_back(span.end_s, -1.0);
    }
  }
  emit_step_counter(events, std::move(sm_deltas), pid, "busy_sms", "sms");

  std::vector<std::pair<double, double>> warp_deltas;
  for (const vgpu::LaunchRecord& record : timeline.records) {
    const double warps = static_cast<double>(record.occupancy.resident_warps);
    warp_deltas.emplace_back(record.start_s, warps);
    warp_deltas.emplace_back(record.end_s, -warps);
  }
  emit_step_counter(events, std::move(warp_deltas), pid, "resident_warps",
                    "warps");
  return events;
}

TraceSession::TraceSession() : epoch_(std::chrono::steady_clock::now()) {
  events_.push_back(metadata("process_name", 0, 0, "host"));
}

TraceSession::~TraceSession() { uninstall(); }

double TraceSession::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceSession::Span::Span(Span&& other) noexcept
    : session_(other.session_), token_(other.token_) {
  other.session_ = nullptr;
}

TraceSession::Span::~Span() {
  if (session_ != nullptr) {
    session_->end_span(token_);
  }
}

TraceSession::Span TraceSession::span(std::string name) {
  OpenSpan open;
  open.start_us = now_us();
  if (const TraceContext* ambient = current_trace_context()) {
    open.context = child_context(*ambient, name);
  }
  open.name = std::move(name);
  std::lock_guard lock(mutex_);
  const std::uint64_t token = next_span_token_++;
  // Distinguish same-named sibling spans (e.g. per-frame stage spans
  // under one ambient context) by folding the token into the span id.
  if (open.context.valid()) {
    open.context.span_id =
        nonzero(core::hash_combine(open.context.span_id, token));
  }
  open_spans_.emplace(token, std::move(open));
  return Span(this, token);
}

void TraceSession::end_span(std::uint64_t token) {
  std::lock_guard lock(mutex_);
  const auto it = open_spans_.find(token);
  if (it == open_spans_.end()) {
    return;
  }
  TraceEvent event;
  event.name = it->second.name;
  event.phase = 'X';
  event.ts_us = it->second.start_us;
  event.dur_us = now_us() - it->second.start_us;
  attach_context(event, it->second.context);
  open_spans_.erase(it);
  events_.push_back(std::move(event));
}

TraceEvent TraceSession::synthesize(const OpenSpan& open, double now) const {
  TraceEvent event;
  event.name = open.name;
  event.phase = 'X';
  event.ts_us = open.start_us;
  event.dur_us = now - open.start_us;
  attach_context(event, open.context);
  event.str_args.emplace_back("incomplete", "true");
  return event;
}

void TraceSession::instant(std::string name) {
  TraceEvent event;
  event.name = std::move(name);
  event.phase = 'i';
  event.ts_us = now_us();
  if (const TraceContext* ambient = current_trace_context()) {
    attach_context(event, *ambient);
  }
  add_event(std::move(event));
}

int TraceSession::add_timeline(const std::string& label,
                               const vgpu::Timeline& timeline) {
  int pid = 0;
  {
    std::lock_guard lock(mutex_);
    pid = next_pid_++;
  }
  std::vector<TraceEvent> events = timeline_trace_events(timeline, pid, label);
  std::lock_guard lock(mutex_);
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
  return pid;
}

void TraceSession::add_event(TraceEvent event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceSession::events() const {
  const double now = now_us();
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> snapshot = events_;
  for (const auto& [token, open] : open_spans_) {
    snapshot.push_back(synthesize(open, now));
  }
  return snapshot;
}

std::string TraceSession::to_json() const { return chrome_trace_json(events()); }

void TraceSession::write_file(const std::string& path) const {
  core::atomic_write_file(path, to_json());
}

void TraceSession::install() { g_current.store(this); }

void TraceSession::uninstall() {
  TraceSession* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

TraceSession* TraceSession::current() { return g_current.load(); }

void publish_timeline(Registry& registry, const vgpu::Timeline& timeline,
                      const Labels& labels) {
  const vgpu::PerfCounters total = timeline.total_counters();
  registry.gauge("vgpu.makespan_ms", labels).set(timeline.makespan_s * 1e3);
  registry.gauge("vgpu.sm_utilization", labels).set(timeline.utilization());
  registry.gauge("vgpu.branch_efficiency", labels)
      .set(total.branch_efficiency());
  registry.gauge("vgpu.simd_efficiency", labels).set(total.simd_efficiency());
  registry.gauge("vgpu.dram_read_gbps", labels)
      .set(total.dram_read_throughput(timeline.makespan_s) / 1e9);
  registry.gauge("vgpu.sm_busy_s", labels).set(timeline.sm_busy_s);

  auto& launches = registry.counter("vgpu.kernel_launches", labels);
  auto& blocks = registry.counter("vgpu.blocks", labels);
  launches.add(static_cast<double>(timeline.records.size()));
  double block_total = 0.0;
  for (const vgpu::LaunchRecord& record : timeline.records) {
    block_total += static_cast<double>(record.blocks);
  }
  blocks.add(block_total);
  registry.counter("vgpu.global_read_bytes", labels)
      .add(static_cast<double>(total.global_read_bytes));
  registry.counter("vgpu.global_write_bytes", labels)
      .add(static_cast<double>(total.global_write_bytes));

  auto& durations = registry.histogram("vgpu.kernel_duration_ms", labels);
  for (const vgpu::LaunchRecord& record : timeline.records) {
    durations.observe(record.duration_s() * 1e3);
  }
}

}  // namespace fdet::obs
