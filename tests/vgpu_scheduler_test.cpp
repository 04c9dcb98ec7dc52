#include "vgpu/scheduler.h"

#include <gtest/gtest.h>

#include <vector>


namespace fdet::vgpu {
namespace {

/// Builds an executed launch with `blocks` blocks of `alu_per_thread` work.
Launch make_launch(const DeviceSpec& spec, const char* name, int blocks,
                   int alu_per_thread, int stream) {
  KernelConfig config{.name = name, .grid = {blocks, 1, 1}, .block = {64, 1, 1}};
  LaunchCost cost = execute_kernel(
      spec, config, [alu_per_thread](const ThreadCoord&, LaneCtx& ctx,
                                     SharedMem&) { ctx.alu(alu_per_thread); });
  return Launch{std::move(cost), stream};
}

TEST(Scheduler, SameStreamLaunchesNeverOverlap) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 4, 100, 0));
  launches.push_back(make_launch(spec, "b", 4, 100, 0));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  ASSERT_EQ(tl.records.size(), 2u);
  EXPECT_GE(tl.records[1].start_s, tl.records[0].end_s);
}

TEST(Scheduler, SerialModeSerializesAcrossStreams) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 2, 100, 0));
  launches.push_back(make_launch(spec, "b", 2, 100, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kSerial);
  EXPECT_GE(tl.records[1].start_s, tl.records[0].end_s);
}

TEST(Scheduler, ConcurrentModeOverlapsSmallKernels) {
  DeviceSpec spec;  // 14 SMs
  std::vector<Launch> launches;
  // Four kernels of 2 blocks each: serial leaves 12 SMs idle per kernel.
  for (int s = 0; s < 4; ++s) {
    launches.push_back(make_launch(spec, "k", 2, 2000, s));
  }
  const Timeline serial = schedule(spec, launches, ExecMode::kSerial);
  const Timeline conc = schedule(spec, launches, ExecMode::kConcurrent);
  // All four fit simultaneously: concurrent should approach 4x.
  EXPECT_LT(conc.makespan_s, serial.makespan_s * 0.35);
  EXPECT_GT(conc.utilization(), serial.utilization());
}

TEST(Scheduler, LargeKernelSaturatesDeviceEitherWay) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  // Heavy blocks so compute dwarfs the one-time launch overhead.
  launches.push_back(make_launch(spec, "big", 280, 500000, 0));
  const Timeline serial = schedule(spec, launches, ExecMode::kSerial);
  const Timeline conc = schedule(spec, launches, ExecMode::kConcurrent);
  EXPECT_NEAR(serial.makespan_s, conc.makespan_s, 1e-12);
  EXPECT_GT(serial.utilization(), 0.95);
}

TEST(Scheduler, LaunchOverheadIsExposedOnlyInSerialMode) {
  DeviceSpec spec;
  // Many dependent-chain streams of tiny kernels: serial pays the launch
  // overhead per kernel; concurrent hides it behind other streams.
  std::vector<Launch> launches;
  for (int s = 0; s < 8; ++s) {
    for (int k = 0; k < 4; ++k) {
      launches.push_back(make_launch(spec, "tiny", 14, 20000, s));
    }
  }
  const Timeline serial = schedule(spec, launches, ExecMode::kSerial);
  const Timeline conc = schedule(spec, launches, ExecMode::kConcurrent);
  const double overhead_total = 32 * spec.launch_overhead_s;
  EXPECT_GT(serial.makespan_s, conc.makespan_s + overhead_total * 0.5);
}

TEST(Scheduler, MakespanCoversAllRecords) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 3, 50, 0));
  launches.push_back(make_launch(spec, "b", 30, 75, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  double max_end = 0.0;
  for (const auto& record : tl.records) {
    EXPECT_LE(record.start_s, record.end_s);
    max_end = std::max(max_end, record.end_s);
  }
  EXPECT_DOUBLE_EQ(tl.makespan_s, max_end);
  EXPECT_LE(tl.utilization(), 1.0 + 1e-12);
}

TEST(Scheduler, CountersAggregateOverLaunches) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 2, 5, 0));
  launches.push_back(make_launch(spec, "b", 2, 5, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  const PerfCounters total = tl.total_counters();
  EXPECT_EQ(total.threads, 2u * 2 * 64);
  EXPECT_EQ(total.alu_ops, 2u * 2 * 64 * 5);
}

TEST(Scheduler, TraceRendersOneRowPerStream) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 2, 100, 0));
  launches.push_back(make_launch(spec, "b", 2, 100, 3));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  const std::string trace = tl.render_trace(60);
  EXPECT_NE(trace.find("stream 0"), std::string::npos);
  EXPECT_NE(trace.find("stream 3"), std::string::npos);
  EXPECT_NE(trace.find('#'), std::string::npos);
}

TEST(Scheduler, EmptyTimelineRendersGracefully) {
  Timeline tl;
  EXPECT_NE(tl.render_trace().find("empty"), std::string::npos);
}

TEST(Scheduler, ReadyStreamsDispatchBeforeLaterDependentWork) {
  // Stream 0: long kernel then a dependent successor. Stream 1: a short
  // kernel issued later. Breadth-first dispatch must start stream 1's
  // kernel alongside stream 0's first kernel, not behind its successor.
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "long_a", 14, 2000000, 0));
  launches.push_back(make_launch(spec, "long_b", 14, 2000000, 0));
  launches.push_back(make_launch(spec, "short", 2, 1000, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  const auto& long_b = tl.records[1];
  const auto& short_k = tl.records[2];
  EXPECT_LT(short_k.start_s, long_b.start_s);
}

TEST(Scheduler, SerialModeFollowsIssueOrderExactly) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 2, 100, 3));
  launches.push_back(make_launch(spec, "b", 2, 100, 1));
  launches.push_back(make_launch(spec, "c", 2, 100, 2));
  const Timeline tl = schedule(spec, launches, ExecMode::kSerial);
  EXPECT_LE(tl.records[0].end_s, tl.records[1].start_s);
  EXPECT_LE(tl.records[1].end_s, tl.records[2].start_s);
}

TEST(Scheduler, RecordsKeepIssueOrderRegardlessOfDispatch) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "first", 14, 500000, 0));
  launches.push_back(make_launch(spec, "second", 1, 10, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  ASSERT_EQ(tl.records.size(), 2u);
  EXPECT_EQ(tl.records[0].name, "first");
  EXPECT_EQ(tl.records[1].name, "second");
}

TEST(Scheduler, BusySecondsSumBlockServiceTimes) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 5, 300, 0));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  double expected = 0.0;
  for (const double c : launches[0].cost.block_service_cycles) {
    expected += spec.cycles_to_seconds(c);
  }
  EXPECT_NEAR(tl.records[0].busy_s, expected, 1e-15);
  EXPECT_NEAR(tl.sm_busy_s, expected, 1e-15);
}

TEST(Scheduler, EmptyLaunchListYieldsDegenerateButFiniteTimeline) {
  DeviceSpec spec;
  const Timeline tl = schedule(spec, {}, ExecMode::kConcurrent);
  EXPECT_TRUE(tl.records.empty());
  EXPECT_DOUBLE_EQ(tl.makespan_s, 0.0);
  EXPECT_DOUBLE_EQ(tl.utilization(), 0.0);  // no 0/0
  EXPECT_TRUE(tl.records_by_stream().empty());
  for (const auto& spans : tl.sm_spans) {
    EXPECT_TRUE(spans.empty());
  }
}

TEST(Scheduler, DefaultTimelineUtilizationIsZero) {
  // A never-scheduled Timeline has sm_count == 0; utilization must not
  // divide by it.
  Timeline tl;
  EXPECT_DOUBLE_EQ(tl.utilization(), 0.0);
}

TEST(Scheduler, SmSpansMatchRecordBounds) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 6, 500, 0));
  launches.push_back(make_launch(spec, "b", 3, 700, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  ASSERT_EQ(tl.sm_spans.size(), static_cast<std::size_t>(spec.sm_count));
  for (const auto& spans : tl.sm_spans) {
    for (const SmSpan& span : spans) {
      ASSERT_GE(span.launch_index, 0);
      ASSERT_LT(static_cast<std::size_t>(span.launch_index),
                tl.records.size());
      const LaunchRecord& record =
          tl.records[static_cast<std::size_t>(span.launch_index)];
      EXPECT_LT(span.start_s, span.end_s);
      EXPECT_GE(span.start_s, record.start_s);
      EXPECT_LE(span.end_s, record.end_s);
    }
  }
}

TEST(Scheduler, RecordsByStreamIndexesEveryRecordOnce) {
  DeviceSpec spec;
  std::vector<Launch> launches;
  launches.push_back(make_launch(spec, "a", 2, 300, 1));
  launches.push_back(make_launch(spec, "b", 2, 300, 0));
  launches.push_back(make_launch(spec, "c", 2, 300, 1));
  const Timeline tl = schedule(spec, launches, ExecMode::kConcurrent);
  const auto by_stream = tl.records_by_stream();
  std::size_t total = 0;
  for (const auto& [stream, indices] : by_stream) {
    double last_start = -1.0;
    for (const std::size_t i : indices) {
      EXPECT_EQ(tl.records[i].stream, stream);
      EXPECT_GE(tl.records[i].start_s, last_start);  // sorted per stream
      last_start = tl.records[i].start_s;
      ++total;
    }
  }
  EXPECT_EQ(total, tl.records.size());
}

TEST(PerfCountersGuards, RatiosStayFiniteOnDegenerateInputs) {
  PerfCounters zero;
  EXPECT_DOUBLE_EQ(zero.branch_efficiency(), 1.0);  // no branches: efficient
  EXPECT_DOUBLE_EQ(zero.simd_efficiency(), 1.0);    // no issued cycles
  EXPECT_DOUBLE_EQ(zero.dram_read_throughput(0.0), 0.0);
  EXPECT_DOUBLE_EQ(zero.dram_read_throughput(-1.0), 0.0);

  PerfCounters inconsistent;
  inconsistent.warp_branches = 2;
  inconsistent.divergent_branches = 5;  // more divergent than total
  EXPECT_DOUBLE_EQ(inconsistent.branch_efficiency(), 0.0);

  PerfCounters overcounted;
  overcounted.warp_issue_cycles = 1.0;
  overcounted.lane_issue_cycles = 64.0;  // > 32 lanes' worth
  EXPECT_DOUBLE_EQ(overcounted.simd_efficiency(), 1.0);

  PerfCounters reads;
  reads.global_read_bytes = 1000;
  EXPECT_DOUBLE_EQ(reads.dram_read_throughput(0.5), 2000.0);
}

}  // namespace
}  // namespace fdet::vgpu
