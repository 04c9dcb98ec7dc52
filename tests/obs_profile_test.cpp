// Kernel profiler & performance attribution (obs/profile.h): base-name
// rollup, stage/frame attribution with conservation across all three
// axes, fallback buckets, the validating JSON round-trip, the RunRecord
// projection feeding `fdet_report profile diff`, and end-to-end stage
// attribution through detect::Pipeline.
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/check.h"
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

double sum_kernel_cycles(const ProfileRecord& record) {
  double sum = 0.0;
  for (const KernelProfile& k : record.kernels) {
    sum += k.total_cycles;
  }
  return sum;
}

double sum_bucket_cycles(const std::vector<AttributionBucket>& buckets) {
  double sum = 0.0;
  for (const AttributionBucket& b : buckets) {
    sum += b.cycles;
  }
  return sum;
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
  const ProfileRecord record = profiler.snapshot("test");
  EXPECT_EQ(record.launches, 5u);
  ASSERT_GT(record.total_cycles, 0.0);

  // Every bucket sums the same per-launch service cycles, so kernel,
  // stage, and frame totals all equal the grand total.
  const double tol = record.total_cycles * 1e-9;
  EXPECT_NEAR(sum_kernel_cycles(record), record.total_cycles, tol);
  EXPECT_NEAR(sum_bucket_cycles(record.stages), record.total_cycles, tol);
  EXPECT_NEAR(sum_bucket_cycles(record.frames), record.total_cycles, tol);

  // The per-scale cascade launches rolled up under one base name.
  const KernelProfile* cascade = record.find_kernel("cascade");
  ASSERT_NE(cascade, nullptr);
  EXPECT_EQ(cascade->launches, 3u);
  EXPECT_EQ(record.find_kernel("cascade_s0"), nullptr);

  // Two stages, two frames, keyed as installed.
  ASSERT_EQ(record.stages.size(), 2u);
  const AttributionBucket* integral = record.find_stage("integral");
  ASSERT_NE(integral, nullptr);
  EXPECT_EQ(integral->launches, 2u);
  ASSERT_EQ(record.frames.size(), 2u);
  // Frames sort by name (hex trace id); both installed contexts appear.
  const auto has_frame = [&](std::uint64_t trace_id) {
    const std::string id = hex_id(trace_id);
    for (const AttributionBucket& f : record.frames) {
      if (f.name == id) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_frame(make_frame_context(42, 0).trace_id));
  EXPECT_TRUE(has_frame(make_frame_context(42, 1).trace_id));
}

TEST(KernelProfiler, FallbackBucketsCatchUnscopedLaunches) {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    run_named("orphan", 4);  // no stage scope, no trace context
  }
  const ProfileRecord record = profiler.snapshot("test");
  ASSERT_EQ(record.stages.size(), 1u);
  EXPECT_EQ(record.stages[0].name, kUnattributedStage);
  ASSERT_EQ(record.frames.size(), 1u);
  EXPECT_EQ(record.frames[0].name, kNoFrame);
  // Fallback launches still count toward the conserved total.
  EXPECT_NEAR(record.stages[0].cycles, record.total_cycles, 1e-9);
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
  const ProfileRecord record = outer.snapshot("test");
  ASSERT_NE(record.find_kernel("nested"), nullptr);
  ASSERT_NE(record.find_kernel("seen"), nullptr);
  EXPECT_EQ(record.find_kernel("seen")->launches, 2u);
}

TEST(KernelProfiler, ResetDiscardsCollectedLaunches) {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    run_named("k", 4);
  }
  EXPECT_EQ(profiler.launches(), 1u);
  profiler.reset();
  EXPECT_EQ(profiler.launches(), 0u);
  EXPECT_DOUBLE_EQ(profiler.total_cycles(), 0.0);
  EXPECT_TRUE(profiler.snapshot("test").kernels.empty());
}

ProfileRecord sample_record() {
  KernelProfiler profiler;
  {
    const ScopedProfileCollection collection(profiler);
    const ScopedTraceContext frame(make_frame_context(7, 0));
    const ProfileStageScope stage("integral");
    run_named("scan_s0", 8);
    run_named("scan_s1", 6);
    run_named("transpose", 3);
  }
  return profiler.snapshot("roundtrip", "ours", {{"host", "test"}});
}

TEST(ProfileRecordJson, DumpParsesBackIdentically) {
  const ProfileRecord record = sample_record();
  const ProfileRecord reparsed = ProfileRecord::parse(record.dump());

  EXPECT_EQ(reparsed.schema_version, kProfileSchemaVersion);
  EXPECT_EQ(reparsed.artifact, "roundtrip");
  EXPECT_EQ(reparsed.variant, "ours");
  EXPECT_EQ(format_labels(reparsed.labels), "host=test");
  EXPECT_EQ(reparsed.launches, record.launches);
  EXPECT_DOUBLE_EQ(reparsed.total_cycles, record.total_cycles);
  EXPECT_DOUBLE_EQ(reparsed.ridge_ops_per_byte, record.ridge_ops_per_byte);

  ASSERT_EQ(reparsed.kernels.size(), record.kernels.size());
  for (std::size_t i = 0; i < record.kernels.size(); ++i) {
    const KernelProfile& a = record.kernels[i];
    const KernelProfile& b = reparsed.kernels[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.launches, b.launches);
    EXPECT_DOUBLE_EQ(a.total_cycles, b.total_cycles);
    EXPECT_DOUBLE_EQ(a.issue_cycles, b.issue_cycles);
    EXPECT_DOUBLE_EQ(a.stall_cycles, b.stall_cycles);
    EXPECT_DOUBLE_EQ(a.divergence_cycles, b.divergence_cycles);
    EXPECT_DOUBLE_EQ(a.bank_conflict_cycles, b.bank_conflict_cycles);
    EXPECT_DOUBLE_EQ(a.occupancy_limited_cycles, b.occupancy_limited_cycles);
    EXPECT_DOUBLE_EQ(a.occupancy_cycles, b.occupancy_cycles);
    EXPECT_EQ(a.arithmetic_ops, b.arithmetic_ops);
    EXPECT_EQ(a.global_bytes, b.global_bytes);
  }
  ASSERT_EQ(reparsed.stages.size(), record.stages.size());
  ASSERT_EQ(reparsed.frames.size(), record.frames.size());
  EXPECT_EQ(reparsed.frames[0].name, record.frames[0].name);
}

TEST(ProfileRecordJson, FileRoundTripThroughWriteAndLoad) {
  const ProfileRecord record = sample_record();
  const std::string path = "profile_roundtrip_tmp.json";
  record.write_file(path);
  const ProfileRecord loaded = ProfileRecord::load_file(path);
  EXPECT_EQ(loaded.artifact, "roundtrip");
  EXPECT_DOUBLE_EQ(loaded.total_cycles, record.total_cycles);
  std::remove(path.c_str());
}

TEST(ProfileRecordJson, RejectsSchemaMismatchAndMissingFields) {
  const ProfileRecord record = sample_record();
  json::Value::Object members = record.to_json().as_object();
  for (auto& [key, value] : members) {
    if (key == "schema_version") {
      value = json::Value::make_number(kProfileSchemaVersion + 1);
    }
  }
  const json::Value wrong_schema = json::Value::make_object(members);
  EXPECT_THROW(ProfileRecord::from_json(wrong_schema), core::CheckError);

  EXPECT_THROW(ProfileRecord::parse("{}"), core::CheckError);
  EXPECT_THROW(ProfileRecord::parse("not json"), core::CheckError);
  EXPECT_THROW(ProfileRecord::load_file("no_such_profile.json"),
               core::CheckError);
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

/// Hand-built single-kernel record for direction-sensitive diff tests.
ProfileRecord synthetic_record(double cascade_cycles, double occ_limited,
                               std::uint64_t conflicts, double occupancy) {
  ProfileRecord r;
  r.artifact = "synthetic";
  r.ridge_ops_per_byte = 4.0;
  KernelProfile k;
  k.name = "cascade";
  k.launches = 10;
  k.total_cycles = cascade_cycles;
  k.issue_cycles = cascade_cycles * 0.8;
  k.stall_cycles = cascade_cycles * 0.2;
  k.occupancy_limited_cycles = occ_limited;
  k.occupancy_cycles = cascade_cycles * occupancy;
  k.bank_conflicts = conflicts;
  k.global_transactions = 1000;
  k.warp_branches = 100;
  r.kernels.push_back(k);
  AttributionBucket stage;
  stage.name = "cascade";
  stage.launches = 10;
  stage.cycles = cascade_cycles;
  r.stages.push_back(stage);
  r.launches = 10;
  r.total_cycles = cascade_cycles;
  return r;
}

TEST(ProfileDiff, CycleGrowthRegressesThroughRunRecordProjection) {
  const ProfileRecord baseline = synthetic_record(1000.0, 50.0, 10, 0.6);
  const ProfileRecord slower = synthetic_record(1500.0, 50.0, 10, 0.6);
  const CompareReport report =
      compare_runs(baseline.to_run_record(), slower.to_run_record());
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.regressed, 0);
  // The reverse direction reads "improved" rather than "regressed" — yet
  // a profile series is deterministic, so the gate still fails until the
  // committed profile is re-pinned.
  const CompareReport reverse =
      compare_runs(slower.to_run_record(), baseline.to_run_record());
  EXPECT_EQ(reverse.regressed, 0);
  EXPECT_GT(reverse.improved, 0);
  EXPECT_EQ(reverse.drifted, reverse.improved);
  EXPECT_FALSE(reverse.ok());
}

TEST(ProfileDiff, OccupancyLimitedCyclesGateAsLowerIsBetter) {
  // "occupancy_limited_cycles" contains both "occupancy" (higher is
  // better) and "cycles" (lower is better); the cycles rule must win,
  // so growth regresses.
  const ProfileRecord baseline = synthetic_record(1000.0, 50.0, 10, 0.6);
  const ProfileRecord worse = synthetic_record(1000.0, 400.0, 10, 0.6);
  const CompareReport report =
      compare_runs(baseline.to_run_record(), worse.to_run_record());
  EXPECT_FALSE(report.ok());
}

TEST(ProfileDiff, ConflictGrowthAndOccupancyDropRegress) {
  const ProfileRecord baseline = synthetic_record(1000.0, 50.0, 10, 0.6);
  const ProfileRecord conflicted = synthetic_record(1000.0, 50.0, 500, 0.6);
  EXPECT_FALSE(
      compare_runs(baseline.to_run_record(), conflicted.to_run_record()).ok());

  const ProfileRecord less_occupied = synthetic_record(1000.0, 50.0, 10, 0.3);
  EXPECT_FALSE(compare_runs(baseline.to_run_record(),
                            less_occupied.to_run_record())
                   .ok());
}

TEST(ProfileDiff, IdenticalRecordsPass) {
  const ProfileRecord record = synthetic_record(1000.0, 50.0, 10, 0.6);
  const CompareReport report =
      compare_runs(record.to_run_record(), record.to_run_record());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressed, 0);
}

TEST(ProfileRender, TextNamesKernelsStagesAndCoverage) {
  const ProfileRecord record = sample_record();
  const std::string text = render_profile_text(record);
  EXPECT_NE(text.find("PROFILE roundtrip"), std::string::npos);
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("stage breakdown"), std::string::npos);
  EXPECT_NE(text.find("integral"), std::string::npos);
  EXPECT_NE(text.find("attribution:"), std::string::npos);
  EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST(ProfilePath, CanonicalArtifactName) {
  EXPECT_EQ(profile_record_path("fig5"), "PROFILE_fig5.json");
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
  const ProfileRecord record = profiler.snapshot("pipeline");

  // Stage scopes installed by the pipeline cover every launch: nothing
  // lands in the fallback bucket, and the expected stages are present.
  EXPECT_EQ(record.find_stage(kUnattributedStage), nullptr);
  ASSERT_NE(record.find_stage("scale"), nullptr);
  ASSERT_NE(record.find_stage("integral"), nullptr);
  ASSERT_NE(record.find_stage("cascade"), nullptr);

  // All cycles land in the frame's trace bucket.
  ASSERT_EQ(record.frames.size(), 1u);
  EXPECT_EQ(record.frames[0].name,
            hex_id(make_frame_context(2012, 0).trace_id));

  // Conservation against the scheduler: the profiler's grand total is
  // exactly the busy SM time the timeline accounts for this frame.
  EXPECT_NEAR(spec.cycles_to_seconds(record.total_cycles),
              result.timeline.sm_busy_s,
              result.timeline.sm_busy_s * 1e-9);

  // The paper's headline attribution is expressible from the record: the
  // integral stage is a meaningful but minority share of detection time.
  const AttributionBucket* integral = record.find_stage("integral");
  const double integral_share = integral->cycles / record.total_cycles;
  EXPECT_GT(integral_share, 0.0);
  EXPECT_LT(integral_share, 0.9);
}

}  // namespace
}  // namespace fdet::obs
