// Flight recorder: seqlock ring semantics (wraparound, snapshot order,
// window filtering), concurrent writers, and the Perfetto dump document
// with its anomaly header.
#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "obs/json.h"

namespace fdet::obs {
namespace {

FlightEvent make_event(int frame, double ts_us, FlightEventKind kind,
                       const char* name) {
  FlightEvent event;
  event.frame = frame;
  event.ts_us = ts_us;
  event.kind = kind;
  event.set_name(name);
  return event;
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8192).capacity(), 8192u);
  EXPECT_THROW(FlightRecorder(1), core::CheckError);
}

TEST(FlightRecorder, SnapshotPreservesRecordOrderAndFields) {
  FlightRecorder recorder(16);
  for (int i = 0; i < 5; ++i) {
    FlightEvent event = make_event(i, 100.0 * i, FlightEventKind::kStage,
                                   "decode");
    event.dur_us = 7.0;
    event.value = 1.5 * i;
    event.set_detail("stage detail");
    recorder.record(event);
  }
  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].frame, i);
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].ts_us, 100.0 * i);
    EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].value, 1.5 * i);
    EXPECT_STREQ(events[static_cast<std::size_t>(i)].name, "decode");
    EXPECT_STREQ(events[static_cast<std::size_t>(i)].detail, "stage detail");
  }
}

TEST(FlightRecorder, LabelsTruncateInsteadOfOverflowing) {
  FlightRecorder recorder(4);
  FlightEvent event;
  const std::string long_name(200, 'n');
  const std::string long_detail(200, 'd');
  event.set_name(long_name.c_str());
  event.set_detail(long_detail.c_str());
  recorder.record(event);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(), sizeof(event.name) - 1);
  EXPECT_EQ(std::string(events[0].detail).size(), sizeof(event.detail) - 1);
}

TEST(FlightRecorder, RingForgetsEventsOlderThanCapacity) {
  FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.record(make_event(i, 10.0 * i, FlightEventKind::kFrame, "frame"));
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are exactly the newest capacity() events, in order.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].frame, 12 + i);
  }
}

TEST(FlightRecorder, SnapshotWindowKeepsOnlyRecentHistory) {
  FlightRecorder recorder(32);
  // Events ending at 100, 200, ..., 1000 us (spans count their end).
  for (int i = 1; i <= 10; ++i) {
    FlightEvent event = make_event(i, 100.0 * i - 10.0,
                                   FlightEventKind::kStage, "stage");
    event.dur_us = 10.0;
    recorder.record(event);
  }
  const auto recent = recorder.snapshot_window(250.0);  // newest end = 1000
  ASSERT_EQ(recent.size(), 3u);  // ends 800, 900, 1000
  EXPECT_EQ(recent.front().frame, 8);
  EXPECT_EQ(recent.back().frame, 10);
  // A huge window degenerates to the full snapshot.
  EXPECT_EQ(recorder.snapshot_window(1e12).size(), 10u);
}

TEST(FlightRecorder, ClearHidesEarlierEventsWithoutReallocating) {
  // A run that restarts virtual time at 0 must not see the previous
  // run's later timestamps: after clear() the window is cut from the new
  // events alone, in the same ring.
  FlightRecorder recorder(16);
  for (int i = 0; i < 12; ++i) {
    recorder.record(make_event(i, 1000.0 * i, FlightEventKind::kFrame, "old"));
  }
  const std::size_t capacity = recorder.capacity();
  recorder.clear();
  EXPECT_TRUE(recorder.snapshot().empty());
  for (int i = 0; i < 3; ++i) {
    recorder.record(make_event(i, 10.0 * i, FlightEventKind::kFrame, "new"));
  }
  EXPECT_EQ(recorder.capacity(), capacity);
  const auto events = recorder.snapshot_window(15.0);  // newest end = 20
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.front().frame, 1);
  EXPECT_STREQ(events.back().name, "new");
  EXPECT_EQ(recorder.snapshot().size(), 3u);
}

TEST(FlightRecorder, ConcurrentWritersLoseNothingWhenRingIsLargeEnough) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  FlightRecorder recorder(16384);  // > kThreads * kPerThread
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(make_event(t * kPerThread + i, i,
                                   FlightEventKind::kLaunch, "kernel"));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto events = recorder.snapshot();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every recorded frame id appears exactly once.
  std::vector<int> seen(kThreads * kPerThread, 0);
  for (const FlightEvent& event : events) {
    ASSERT_GE(event.frame, 0);
    ASSERT_LT(event.frame, kThreads * kPerThread);
    ++seen[static_cast<std::size_t>(event.frame)];
  }
  for (const int count : seen) {
    EXPECT_EQ(count, 1);
  }
}

TEST(FlightDump, TraceEventsMapSpansAndInstants) {
  std::vector<FlightEvent> events;
  FlightEvent frame = make_event(3, 100.0, FlightEventKind::kFrame, "frame3");
  frame.dur_us = 50.0;
  frame.trace_id = 0xabcdef;
  events.push_back(frame);
  events.push_back(make_event(3, 120.0, FlightEventKind::kRetry, "retry"));

  const std::vector<TraceEvent> trace = flight_trace_events(events);
  int complete = 0;
  int instant = 0;
  for (const TraceEvent& event : trace) {
    complete += event.phase == 'X';
    instant += event.phase == 'i';
  }
  EXPECT_EQ(complete, 1);
  EXPECT_EQ(instant, 1);
}

TEST(FlightDump, JsonCarriesAnomalyHeaderAndParses) {
  std::vector<FlightEvent> events;
  FlightEvent event = make_event(7, 10.0, FlightEventKind::kDeadlineMiss,
                                 "deadline");
  event.trace_id = 0x1234;
  event.set_detail("fault:launch -> deadline-miss");
  events.push_back(event);

  AnomalyInfo anomaly;
  anomaly.kind = Anomaly::kDeadlineMiss;
  anomaly.frame = 7;
  anomaly.cause = "fault:launch -> deadline-miss";
  anomaly.trace_id = 0x1234;

  const json::Value doc = json::parse(flight_dump_json(events, anomaly));
  EXPECT_FALSE(doc.at("traceEvents").as_array().empty());
  const json::Value& header = doc.at("anomaly");
  EXPECT_EQ(header.at("kind").as_string(), "deadline-miss");
  EXPECT_DOUBLE_EQ(header.at("frame").as_number(), 7.0);
  EXPECT_EQ(header.at("cause").as_string(), "fault:launch -> deadline-miss");
  EXPECT_EQ(header.at("trace_id").as_string(), hex_id(0x1234));
}

TEST(FlightDump, EmptyRingStillDumpsAValidDocument) {
  const json::Value doc =
      json::parse(flight_dump_json({}, AnomalyInfo{}));
  // Track metadata only ('M' entries) — still a loadable Perfetto file.
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    EXPECT_EQ(event.at("ph").as_string(), "M");
  }
  EXPECT_EQ(doc.at("anomaly").at("kind").as_string(), "deadline-miss");
  EXPECT_DOUBLE_EQ(doc.at("anomaly").at("events").as_number(), 0.0);
}

TEST(FlightDump, WriteFlightDumpIsAtomicAndReparseable) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fdet_recorder_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "flight_f0001_quarantine.json").string();

  std::vector<FlightEvent> events;
  events.push_back(make_event(1, 5.0, FlightEventKind::kQuarantine, "quar"));
  AnomalyInfo anomaly;
  anomaly.kind = Anomaly::kQuarantine;
  anomaly.frame = 1;
  anomaly.cause = "failed:detect";
  write_flight_dump(path, events, anomaly);

  const json::Value doc = json::parse_file(path);
  EXPECT_EQ(doc.at("anomaly").at("kind").as_string(), "quarantine");
  // 1 payload event + the process/track metadata entries.
  int payload = 0;
  for (const json::Value& event : doc.at("traceEvents").as_array()) {
    payload += event.at("ph").as_string() != "M";
  }
  EXPECT_EQ(payload, 1);
  std::filesystem::remove_all(dir);
}

TEST(FlightEventNames, KindAndAnomalyNamesAreStable) {
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kFrame), "frame");
  EXPECT_STREQ(flight_event_kind_name(FlightEventKind::kLadder), "ladder");
  EXPECT_STREQ(anomaly_name(Anomaly::kDeadlineMiss), "deadline-miss");
  EXPECT_STREQ(anomaly_name(Anomaly::kQuarantine), "quarantine");
  EXPECT_STREQ(anomaly_name(Anomaly::kBreakerOpen), "breaker-open");
  EXPECT_STREQ(anomaly_name(Anomaly::kLadderClimb), "ladder-climb");
  EXPECT_STREQ(anomaly_name(Anomaly::kFaultInjected), "fault-injected");
}

}  // namespace
}  // namespace fdet::obs
