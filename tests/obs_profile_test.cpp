// Kernel profiler & performance attribution (obs/profile.h): base-name
// rollup, stage/frame attribution with conservation across all three
// axes on a snapshot record that went through write_file/load_file,
// fallback buckets, `fdet_report diff` gating those records directly,
// the text breakdown, and end-to-end stage attribution through
// detect::Pipeline.
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "core/rng.h"
#include "detect/pipeline.h"
#include "haar/profile.h"
#include "obs/compare.h"
#include "obs/trace.h"
#include "vgpu/kernel.h"

namespace fdet::obs {
namespace {

TEST(KernelBaseName, StripsPerScaleSuffixOnly) {
  EXPECT_EQ(kernel_base_name("cascade_s0"), "cascade");
  EXPECT_EQ(kernel_base_name("cascade_s12"), "cascade");
  EXPECT_EQ(kernel_base_name("scan2_s7"), "scan2");
  // No suffix, or a tail that is not `_s<digits>`, passes through.
  EXPECT_EQ(kernel_base_name("scale"), "scale");
  EXPECT_EQ(kernel_base_name("transpose"), "transpose");
  EXPECT_EQ(kernel_base_name("foo_s"), "foo_s");
  EXPECT_EQ(kernel_base_name("foo_stage"), "foo_stage");
  EXPECT_EQ(kernel_base_name("foo_s1x"), "foo_s1x");
}

TEST(StageScope, NestsWithInnermostWinning) {
  EXPECT_EQ(ProfileStageScope::current(), nullptr);
  {
    const ProfileStageScope outer("integral");
    ASSERT_NE(ProfileStageScope::current(), nullptr);
    EXPECT_EQ(*ProfileStageScope::current(), "integral");
    {
      const ProfileStageScope inner("cascade");
      EXPECT_EQ(*ProfileStageScope::current(), "cascade");
    }
    EXPECT_EQ(*ProfileStageScope::current(), "integral");
  }
  EXPECT_EQ(ProfileStageScope::current(), nullptr);
}

/// One tiny launch with a distinguishable amount of work.
vgpu::LaunchCost run_named(const std::string& name, int alu_per_lane) {
  const vgpu::DeviceSpec spec;
  vgpu::KernelConfig config{
      .name = name, .grid = {1, 1, 1}, .block = {32, 1, 1}};
  return vgpu::execute_kernel(
      spec, config, [=](const vgpu::ThreadCoord&, vgpu::LaneCtx& ctx,
                        vgpu::SharedMem&) { ctx.alu(alu_per_lane); });
}

/// The snapshot as a reader sees it: written to disk and loaded back.
RunRecord round_trip(const KernelProfiler& profiler) {
  const std::string path = "profile_roundtrip_tmp.json";
  profiler.snapshot("test").write_file(path);
  RunRecord record = RunRecord::load_file(path);
  std::remove(path.c_str());
  return record;
}

/// Value of series `name{key=value}` (`name` alone with an empty key);
/// NaN when absent.
double value(const RunRecord& record, const std::string& name,
             const std::string& key = "", const std::string& label = "") {
  const MetricSeries* series =
      record.find(name, key.empty() ? Labels{} : Labels{{key, label}});
  return series == nullptr ? std::nan("") : series->value;
}

/// Σ and count of every series named `name`, whatever its labels.
std::pair<double, int> sum_of(const RunRecord& record,
                              const std::string& name) {
  std::pair<double, int> total{0.0, 0};
  for (const MetricSeries& series : record.metrics) {
    if (series.name == name) {
      total.first += series.value;
      ++total.second;
    }
  }
  return total;
}

TEST(KernelProfiler, ConservesCyclesAcrossAllThreeAxes) {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    const ScopedTraceContext frame0(make_frame_context(42, 0));
    {
      const ProfileStageScope stage("integral");
      run_named("scan_s0", 8);
      run_named("transpose_s0", 4);
    }
    {
      const ProfileStageScope stage("cascade");
      run_named("cascade_s0", 16);
      run_named("cascade_s1", 16);
    }
  }
  {
    const ScopedProfileCollection collection(profiler);
    const ScopedTraceContext frame1(make_frame_context(42, 1));
    const ProfileStageScope stage("cascade");
    run_named("cascade_s0", 16);
  }

  EXPECT_EQ(profiler.launches(), 5u);
  const RunRecord record = round_trip(profiler);
  EXPECT_EQ(value(record, "profile.launches"), 5.0);
  const double total = value(record, "profile.total_cycles");
  ASSERT_GT(total, 0.0);

  // Every bucket sums the same per-launch service cycles, so kernel,
  // stage, and frame totals all equal the grand total.
  const double tol = total * 1e-9;
  EXPECT_NEAR(sum_of(record, "profile.kernel.cycles").first, total, tol);
  EXPECT_NEAR(sum_of(record, "profile.stage.cycles").first, total, tol);
  EXPECT_NEAR(sum_of(record, "profile.frame.cycles").first, total, tol);
  EXPECT_EQ(sum_of(record, "profile.frame.launches").first, 5.0);

  // The per-scale cascade launches rolled up under one base name.
  EXPECT_EQ(value(record, "profile.kernel.launches", "kernel", "cascade"),
            3.0);
  EXPECT_EQ(record.find("profile.kernel.cycles", {{"kernel", "cascade_s0"}}),
            nullptr);

  // Two stages, two frames, keyed as installed.
  EXPECT_EQ(sum_of(record, "profile.stage.cycles").second, 2);
  EXPECT_EQ(value(record, "profile.stage.launches", "stage", "integral"),
            2.0);
  EXPECT_EQ(sum_of(record, "profile.frame.cycles").second, 2);
  for (const int frame : {0, 1}) {
    EXPECT_NE(record.find("profile.frame.cycles",
                          {{"frame",
                            hex_id(make_frame_context(42, frame).trace_id)}}),
              nullptr);
  }
}

TEST(KernelProfiler, FallbackBucketsCatchUnscopedLaunches) {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    run_named("orphan", 4);  // no stage scope, no trace context
  }
  const RunRecord record = round_trip(profiler);
  EXPECT_EQ(sum_of(record, "profile.stage.cycles").second, 1);
  EXPECT_EQ(sum_of(record, "profile.frame.cycles").second, 1);
  // Fallback launches still count toward the conserved total.
  EXPECT_NEAR(value(record, "profile.stage.cycles", "stage",
                    kUnattributedStage),
              value(record, "profile.total_cycles"), 1e-9);
  EXPECT_NEAR(value(record, "profile.frame.cycles", "frame", kNoFrame),
              value(record, "profile.total_cycles"), 1e-9);
}

TEST(KernelProfiler, NestedCollectionsBothObserve) {
  // Every observer on the launch chain sees every launch: an inner
  // collection window does not hide launches from an outer one.
  KernelProfiler outer;
  const ScopedProfileCollection collection(outer);
  run_named("seen", 4);
  {
    KernelProfiler inner;
    const ScopedProfileCollection nested(inner);
    run_named("nested", 4);
    EXPECT_EQ(inner.launches(), 1u);
  }
  run_named("seen", 4);
  EXPECT_EQ(outer.launches(), 3u);
  const RunRecord record = outer.snapshot("test");
  EXPECT_EQ(value(record, "profile.kernel.launches", "kernel", "nested"), 1.0);
  EXPECT_EQ(value(record, "profile.kernel.launches", "kernel", "seen"), 2.0);
}

TEST(KernelProfileDerived, RatiosAndRooflineClassification) {
  KernelProfile k;
  // Degenerate kernel: no cycles, no branches, no traffic.
  EXPECT_DOUBLE_EQ(k.achieved_occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(k.branch_efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(k.simd_efficiency(), 1.0);
  EXPECT_STREQ(k.roofline_bound(4.0), "compute");  // no traffic

  k.total_cycles = 100.0;
  k.occupancy_cycles = 50.0;
  k.warp_branches = 10;
  k.divergent_branches = 1;
  k.arithmetic_ops = 100;
  k.global_bytes = 50;  // intensity 2 < ridge 4
  EXPECT_DOUBLE_EQ(k.achieved_occupancy(), 0.5);
  EXPECT_DOUBLE_EQ(k.branch_efficiency(), 0.9);
  EXPECT_DOUBLE_EQ(k.arithmetic_intensity(), 2.0);
  EXPECT_STREQ(k.roofline_bound(4.0), "memory");
  EXPECT_STREQ(k.roofline_bound(1.0), "compute");
}

/// A written-and-reloaded profile of one `cascade` stage with a few
/// launches, plus per-kernel derived ratios, for the diff tests.
RunRecord cascade_record() {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    const ScopedTraceContext frame(make_frame_context(7, 0));
    const ProfileStageScope stage("cascade");
    run_named("cascade_s0", 16);
    run_named("cascade_s1", 8);
  }
  return round_trip(profiler);
}

/// `record` with series `name{kernel=cascade}` set to `v`.
RunRecord with_cascade(RunRecord record, const std::string& name, double v) {
  for (MetricSeries& series : record.metrics) {
    if (series.name == name && format_labels(series.labels) == "kernel=cascade") {
      series.value = v;
      return record;
    }
  }
  ADD_FAILURE() << "no series " << name << "{kernel=cascade}";
  return record;
}

/// Expects `moved` to fail the gate against `baseline` with exactly one
/// drifted series, and the same the other way round: a profile has no
/// good direction, so any drift means the committed profile is re-pinned.
void expect_drift_either_way(const RunRecord& baseline,
                             const RunRecord& moved) {
  for (const CompareReport& report :
       {compare_runs(baseline, moved), compare_runs(moved, baseline)}) {
    EXPECT_EQ(report.drifted, 1);
    EXPECT_EQ(report.missing + report.added, 0);
    EXPECT_FALSE(report.ok());
  }
}

TEST(ProfileDiff, CycleDriftFailsEitherWay) {
  const RunRecord baseline = cascade_record();
  const double cycles =
      value(baseline, "profile.kernel.cycles", "kernel", "cascade");
  expect_drift_either_way(
      baseline, with_cascade(baseline, "profile.kernel.cycles", cycles * 1.5));
}

TEST(ProfileDiff, OccupancyLimitedCycleDriftFailsEitherWay) {
  const RunRecord baseline = cascade_record();
  const double limited = value(baseline, "profile.kernel.occupancy_limited_cycles",
                               "kernel", "cascade");
  expect_drift_either_way(
      baseline, with_cascade(baseline, "profile.kernel.occupancy_limited_cycles",
                             limited * 8.0 + 1.0));
}

TEST(ProfileDiff, ConflictAndOccupancyDriftFailEitherWay) {
  const RunRecord baseline = cascade_record();
  expect_drift_either_way(
      baseline, with_cascade(baseline, "profile.kernel.bank_conflicts", 500.0));

  const double occupancy =
      value(baseline, "profile.kernel.achieved_occupancy", "kernel", "cascade");
  expect_drift_either_way(
      baseline, with_cascade(baseline, "profile.kernel.achieved_occupancy",
                             occupancy * 0.5));
}

TEST(ProfileDiff, IdenticalRecordsPass) {
  const RunRecord record = cascade_record();
  const CompareReport report = compare_runs(record, record);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.drifted, 0);
  EXPECT_EQ(report.unchanged, static_cast<int>(record.metrics.size()));
}

TEST(ProfileRender, TextNamesKernelsStagesAndCoverage) {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    const ScopedTraceContext frame(make_frame_context(7, 0));
    const ProfileStageScope stage("integral");
    run_named("scan_s0", 8);
    run_named("scan_s1", 6);
    run_named("transpose", 3);
  }
  const std::string text = render_profile_text(round_trip(profiler));
  EXPECT_NE(text.find("PROFILE test"), std::string::npos);
  EXPECT_NE(text.find("scan                2"), std::string::npos);
  EXPECT_NE(text.find("stage breakdown"), std::string::npos);
  EXPECT_NE(text.find("integral"), std::string::npos);
  EXPECT_NE(text.find("attribution:"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
  EXPECT_NE(text.find("in 1 frames"), std::string::npos);
}

// --- pipeline integration ----------------------------------------------

TEST(PipelineAttribution, StagesCoverTimelineBusyCycles) {
  // A cheap un-calibrated profile cascade is enough: attribution only
  // cares that the pipeline's kernels run under their stage scopes.
  const vgpu::DeviceSpec spec;
  haar::Cascade cascade = haar::build_profile_cascade(
      "profile-test", std::vector<int>{8, 8, 8}, 99);
  detect::PipelineOptions options;
  options.min_neighbors = 1;
  const detect::Pipeline pipeline(spec, std::move(cascade), options);

  core::Rng rng(17);
  img::ImageU8 frame(96, 72);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }

  KernelProfiler profiler;
  detect::FrameResult result;
  {
    const ScopedProfileCollection collection(profiler);
    const ScopedTraceContext frame_ctx(make_frame_context(2012, 0));
    result = pipeline.process(frame);
  }
  ASSERT_GT(profiler.launches(), 0u);
  const RunRecord record = round_trip(profiler);

  // Stage scopes installed by the pipeline cover every launch: nothing
  // lands in the fallback bucket, and the expected stages are present.
  EXPECT_EQ(record.find("profile.stage.cycles", {{"stage", kUnattributedStage}}),
            nullptr);
  for (const char* stage : {"scale", "integral", "cascade"}) {
    EXPECT_NE(record.find("profile.stage.cycles", {{"stage", stage}}), nullptr)
        << stage;
  }

  // All cycles land in the frame's trace bucket.
  const double total = value(record, "profile.total_cycles");
  EXPECT_EQ(sum_of(record, "profile.frame.cycles").second, 1);
  EXPECT_DOUBLE_EQ(
      value(record, "profile.frame.cycles", "frame",
            hex_id(make_frame_context(2012, 0).trace_id)),
      total);

  // Conservation against the scheduler: the profiler's grand total is
  // exactly the busy SM time the timeline accounts for this frame.
  EXPECT_NEAR(spec.cycles_to_seconds(total), result.timeline.sm_busy_s,
              result.timeline.sm_busy_s * 1e-9);

  // The paper's headline attribution is expressible from the record: the
  // integral stage is a meaningful but minority share of detection time.
  const double integral_share =
      value(record, "profile.stage.cycles", "stage", "integral") / total;
  EXPECT_GT(integral_share, 0.0);
  EXPECT_LT(integral_share, 0.9);
}

}  // namespace
}  // namespace fdet::obs
