// Trace exporter: Chrome trace-event JSON structure, stream/SM track
// mapping against the scheduler's LaunchRecords, and the TraceSession
// host-span / ambient-session machinery.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "obs/json.h"
#include "obs/runrecord.h"
#include "vgpu/scheduler.h"

namespace fdet::obs {
namespace {

vgpu::Launch make_launch(const vgpu::DeviceSpec& spec, const char* name,
                         int blocks, int alu, int stream) {
  vgpu::KernelConfig config{
      .name = name, .grid = {blocks, 1, 1}, .block = {64, 1, 1}};
  vgpu::LaunchCost cost = execute_kernel(
      spec, config,
      [alu](const vgpu::ThreadCoord&, vgpu::LaneCtx& ctx, vgpu::SharedMem&) {
        ctx.alu(alu);
      });
  return vgpu::Launch{std::move(cost), stream};
}

vgpu::Timeline small_timeline(vgpu::ExecMode mode) {
  vgpu::DeviceSpec spec;
  std::vector<vgpu::Launch> launches;
  launches.push_back(make_launch(spec, "scan", 4, 300, 0));
  launches.push_back(make_launch(spec, "cascade_s0", 2, 500, 1));
  launches.push_back(make_launch(spec, "cascade_s1", 2, 400, 2));
  return schedule(spec, launches, mode);
}

TEST(TraceExporter, JsonParsesWithExpectedTopLevelShape) {
  const auto events =
      timeline_trace_events(small_timeline(vgpu::ExecMode::kConcurrent),
                            /*pid=*/1, "frame");
  const json::Value doc = json::parse(chrome_trace_json(events));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& trace_events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(trace_events.empty());
  for (const json::Value& event : trace_events) {
    const std::string& ph = event.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "C" || ph == "M");
    if (ph != "M") {
      EXPECT_GE(event.at("ts").as_number(), 0.0);
    }
    if (ph == "X") {
      EXPECT_GE(event.at("dur").as_number(), 0.0);
    }
  }
}

TEST(TraceExporter, StreamTrackTidMatchesLaunchRecordStream) {
  const vgpu::Timeline tl = small_timeline(vgpu::ExecMode::kConcurrent);
  const auto events = timeline_trace_events(tl, /*pid=*/1, "frame");

  // Count the kernels the schedule put on each stream...
  std::map<int, int> expected;
  for (const vgpu::LaunchRecord& record : tl.records) {
    ++expected[record.stream];
  }
  // ...and the complete events the exporter put on each stream track.
  std::map<int, int> actual;
  std::map<int, std::string> kernel_name;
  for (const TraceEvent& event : events) {
    if (event.phase == 'X' && event.tid < kSmTrackBase) {
      ++actual[event.tid];
      kernel_name[event.tid] = event.name;
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(kernel_name[1], "cascade_s0");
  EXPECT_EQ(kernel_name[2], "cascade_s1");
}

TEST(TraceExporter, TimestampsMonotonicPerTrack) {
  for (const auto mode :
       {vgpu::ExecMode::kSerial, vgpu::ExecMode::kConcurrent}) {
    const auto events =
        timeline_trace_events(small_timeline(mode), /*pid=*/1, "frame");
    std::map<std::pair<int, int>, double> last_end;
    for (const TraceEvent& event : events) {
      if (event.phase != 'X') {
        continue;
      }
      const std::pair<int, int> track{event.pid, event.tid};
      const auto it = last_end.find(track);
      if (it != last_end.end()) {
        EXPECT_GE(event.ts_us, it->second)
            << "track (" << track.first << "," << track.second
            << ") overlaps itself";
      }
      last_end[track] = event.ts_us + event.dur_us;
    }
  }
}

TEST(TraceExporter, SerialAndConcurrentEmitIdenticalKernelEventCounts) {
  const auto count_kernels = [](const std::vector<TraceEvent>& events) {
    int n = 0;
    for (const TraceEvent& event : events) {
      n += (event.phase == 'X' && event.tid < kSmTrackBase);
    }
    return n;
  };
  const auto serial = timeline_trace_events(
      small_timeline(vgpu::ExecMode::kSerial), 1, "serial");
  const auto concurrent = timeline_trace_events(
      small_timeline(vgpu::ExecMode::kConcurrent), 1, "concurrent");
  EXPECT_EQ(count_kernels(serial), count_kernels(concurrent));
  EXPECT_EQ(count_kernels(serial), 3);
}

TEST(TraceExporter, SmSpansCoverEveryRecordedBusySecond) {
  const vgpu::Timeline tl = small_timeline(vgpu::ExecMode::kConcurrent);
  double span_busy = 0.0;
  for (const auto& spans : tl.sm_spans) {
    for (const vgpu::SmSpan& span : spans) {
      span_busy += span.end_s - span.start_s;
    }
  }
  EXPECT_NEAR(span_busy, tl.sm_busy_s, 1e-12);
}

TEST(TraceExporter, BusySmCounterReturnsToZero) {
  const auto events =
      timeline_trace_events(small_timeline(vgpu::ExecMode::kConcurrent), 1,
                            "frame");
  double last = -1.0;
  bool saw_any = false;
  for (const TraceEvent& event : events) {
    if (event.phase == 'C' && event.name == "busy_sms") {
      saw_any = true;
      ASSERT_EQ(event.num_args.size(), 1u);
      last = event.num_args[0].second;
      EXPECT_GE(last, 0.0);
    }
  }
  ASSERT_TRUE(saw_any);
  EXPECT_DOUBLE_EQ(last, 0.0);  // all SMs idle after the makespan
}

TEST(TraceSessionTest, SpansRecordCompleteEventsOnHostTrack) {
  TraceSession session;
  const std::size_t base = session.events().size();  // process_name metadata
  {
    auto outer = session.span("outer");
    session.instant("marker");
  }
  const auto events = session.events();
  ASSERT_EQ(events.size(), base + 2);
  EXPECT_EQ(events[base].phase, 'i');
  EXPECT_EQ(events[base].name, "marker");
  EXPECT_EQ(events[base + 1].phase, 'X');
  EXPECT_EQ(events[base + 1].name, "outer");
  EXPECT_EQ(events[base + 1].pid, 0);
  EXPECT_GE(events[base + 1].dur_us, 0.0);
}

TEST(TraceSessionTest, ScopedSpanIsNoopWithoutAmbientSession) {
  ASSERT_EQ(TraceSession::current(), nullptr);
  { ScopedSpan span("ignored"); }  // must not crash or record anywhere

  TraceSession session;
  session.install();
  EXPECT_EQ(TraceSession::current(), &session);
  const std::size_t before = session.events().size();
  { ScopedSpan span("captured"); }
  EXPECT_EQ(session.events().size(), before + 1);
  session.uninstall();
  EXPECT_EQ(TraceSession::current(), nullptr);
}

TEST(TraceSessionTest, AddTimelineAssignsFreshPids) {
  TraceSession session;
  const int first =
      session.add_timeline("a", small_timeline(vgpu::ExecMode::kSerial));
  const int second =
      session.add_timeline("b", small_timeline(vgpu::ExecMode::kConcurrent));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  // The full document still parses as valid trace-event JSON.
  const json::Value doc = json::parse(session.to_json());
  EXPECT_GT(doc.at("traceEvents").as_array().size(), 6u);
}

TEST(TraceSessionTest, EmptySessionSerializesAValidPerfettoDocument) {
  const TraceSession session;
  const json::Value doc = json::parse(session.to_json());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  // Process metadata only — ui.perfetto.dev loads it without complaint.
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    EXPECT_EQ(event.at("ph").as_string(), "M");
  }
}

TEST(TraceSessionTest, UnclosedSpansFlushWithIncompleteFlag) {
  TraceSession session;
  const std::size_t base = session.events().size();  // process_name metadata
  auto open = session.span("in-flight");
  {
    auto closed = session.span("done");
  }
  // The snapshot holds the closed span and synthesizes the open one,
  // flagged incomplete.
  const auto events = session.events();
  ASSERT_EQ(events.size(), base + 2);
  const TraceEvent& flushed = events.back();
  EXPECT_EQ(flushed.name, "in-flight");
  EXPECT_EQ(flushed.phase, 'X');
  EXPECT_GE(flushed.dur_us, 0.0);
  bool flagged = false;
  for (const auto& [key, value] : flushed.str_args) {
    flagged |= key == "incomplete" && value == "true";
  }
  EXPECT_TRUE(flagged) << "open span missing the incomplete=\"true\" arg";
  // The closed span must NOT carry the flag.
  for (const TraceEvent& event : events) {
    if (event.name == "done") {
      for (const auto& [key, value] : event.str_args) {
        EXPECT_NE(key, "incomplete");
      }
    }
  }
  // The flushed document still parses as trace-event JSON.
  EXPECT_FALSE(
      json::parse(session.to_json()).at("traceEvents").as_array().empty());
}

TEST(TraceContextTest, FrameContextsAreDeterministicAndDistinct) {
  const TraceContext a = make_frame_context(42, 7);
  const TraceContext b = make_frame_context(42, 7);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_TRUE(a.valid());
  EXPECT_NE(make_frame_context(42, 8).trace_id, a.trace_id);
  EXPECT_NE(make_frame_context(43, 7).trace_id, a.trace_id);

  const TraceContext child = child_context(a, "decode");
  EXPECT_EQ(child.trace_id, a.trace_id);
  EXPECT_EQ(child.parent_span_id, a.span_id);
  EXPECT_NE(child.span_id, a.span_id);
  EXPECT_EQ(child_context(a, "decode").span_id, child.span_id);
  EXPECT_NE(child_context(a, "detect").span_id, child.span_id);
}

TEST(TraceContextTest, HexIdIsSixteenLowercaseDigits) {
  EXPECT_EQ(hex_id(0), "0000000000000000");
  EXPECT_EQ(hex_id(0xabcdef), "0000000000abcdef");
  EXPECT_EQ(hex_id(~0ull), "ffffffffffffffff");
}

TEST(TraceContextTest, ScopedContextNestsAndUnwinds) {
  EXPECT_EQ(current_trace_context(), nullptr);
  const TraceContext frame = make_frame_context(1, 0);
  {
    ScopedTraceContext outer(frame);
    ASSERT_NE(current_trace_context(), nullptr);
    EXPECT_EQ(current_trace_context()->trace_id, frame.trace_id);
    {
      ScopedTraceContext inner(child_context(frame, "stage"));
      EXPECT_EQ(current_trace_context()->parent_span_id, frame.span_id);
    }
    EXPECT_EQ(current_trace_context()->span_id, frame.span_id);
  }
  EXPECT_EQ(current_trace_context(), nullptr);
}

TEST(TraceContextTest, SpansCaptureTheAmbientContext) {
  TraceSession session;
  const std::size_t base = session.events().size();
  const TraceContext frame = make_frame_context(99, 3);
  {
    ScopedTraceContext scope(frame);
    auto span = session.span("traced-stage");
  }
  const auto events = session.events();
  ASSERT_EQ(events.size(), base + 1);
  const TraceEvent& traced = events.back();
  bool has_trace_id = false;
  bool has_parent = false;
  for (const auto& [key, value] : traced.str_args) {
    has_trace_id |= key == "trace_id" && value == hex_id(frame.trace_id);
    has_parent |=
        key == "parent_span_id" && value == hex_id(frame.span_id);
  }
  EXPECT_TRUE(has_trace_id);
  EXPECT_TRUE(has_parent);
}

TEST(TraceExporter, RootExtrasLandAtTheDocumentRoot) {
  const std::string text = chrome_trace_json(
      {}, {{"anomaly", "{\"kind\":\"deadline-miss\",\"frame\":7}"},
           {"note", "\"hello\""}});
  const json::Value doc = json::parse(text);
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
  EXPECT_EQ(doc.at("anomaly").at("kind").as_string(), "deadline-miss");
  EXPECT_DOUBLE_EQ(doc.at("anomaly").at("frame").as_number(), 7.0);
  EXPECT_EQ(doc.at("note").as_string(), "hello");
}

TEST(TracePublish, TimelineMetricsLandInRegistry) {
  Registry registry;
  publish_timeline(registry, small_timeline(vgpu::ExecMode::kConcurrent),
                   {{"mode", "concurrent"}});
  const Labels labels = {{"mode", "concurrent"}};
  EXPECT_GT(registry.gauge("vgpu.makespan_ms", labels).value(), 0.0);
  EXPECT_GT(registry.gauge("vgpu.sm_utilization", labels).value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.counter("vgpu.kernel_launches", labels).value(),
                   3.0);
  const RunRecord record = build_run_record("trace", {}, registry);
  const MetricSeries* durations =
      record.find("vgpu.kernel_duration_ms.count", labels);
  ASSERT_NE(durations, nullptr);
  EXPECT_DOUBLE_EQ(durations->value, 3.0);
}

}  // namespace
}  // namespace fdet::obs
