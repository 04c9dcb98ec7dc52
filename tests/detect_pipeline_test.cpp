#include "detect/pipeline.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "facegen/dataset.h"
#include "haar/profile.h"
#include "ingest/registry.h"
#include "train/boost.h"
#include "video/trailer.h"

namespace fdet::detect {
namespace {

/// Small trained cascade shared by the pipeline tests (trained once).
const haar::Cascade& test_cascade() {
  static const haar::Cascade cascade = [] {
    const auto set = facegen::build_training_set(250, 40, 64, 2024);
    train::TrainOptions options;
    options.stage_sizes = {6, 10, 14, 18};
    options.feature_pool = 400;
    options.negatives_per_stage = 300;
    options.stage_hit_target = 0.99;
    options.seed = 11;
    return train::train_cascade(set, options, "pipeline-test").cascade;
  }();
  return cascade;
}

PipelineOptions fast_options(vgpu::ExecMode mode) {
  PipelineOptions options;
  options.mode = mode;
  options.pyramid_step = 1.25;
  return options;
}

TEST(Pipeline, DetectsSyntheticMugshots) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kConcurrent));
  const auto bench = facegen::build_mugshot_benchmark(6, 0, 96, 77);

  int hits = 0;
  for (const auto& shot : bench.mugshots) {
    const FrameResult result = pipeline.process(shot.image);
    for (const Detection& det : result.detections) {
      if (s_square(det.box, shot.face) > 0.3) {
        ++hits;
        break;
      }
    }
  }
  // The shared test cascade is deliberately small (4 stages); the full
  // 25-stage trained cascades do substantially better (see Fig. 9 bench).
  EXPECT_GE(hits, 3) << "detector should find at least half the mugshots";
}

TEST(Pipeline, ProducesAllPyramidScaleStats) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kConcurrent));
  core::Rng rng(5);
  img::ImageU8 frame(120, 90);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const FrameResult result = pipeline.process(frame);

  const auto plan = img::plan_pyramid(120, 90, 1.25, haar::kWindowSize);
  ASSERT_EQ(result.scales.size(), plan.levels.size());
  for (std::size_t i = 0; i < result.scales.size(); ++i) {
    EXPECT_EQ(result.scales[i].scale_index, static_cast<int>(i));
    // Histogram covers depths 0..stage_count and counts every valid window.
    std::int64_t total = 0;
    for (const auto count : result.scales[i].depth_histogram) {
      total += count;
    }
    const auto& level = plan.levels[i];
    EXPECT_EQ(total,
              static_cast<std::int64_t>(level.width - haar::kWindowSize + 1) *
                  (level.height - haar::kWindowSize + 1));
  }
}

TEST(Pipeline, ConcurrentBeatsSerialOnManyScales) {
  const vgpu::DeviceSpec spec;
  const Pipeline concurrent(spec, test_cascade(),
                            fast_options(vgpu::ExecMode::kConcurrent));
  const Pipeline serial(spec, test_cascade(),
                        fast_options(vgpu::ExecMode::kSerial));
  core::Rng rng(6);
  img::ImageU8 frame(160, 120);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const double conc_ms = concurrent.process(frame).detect_ms;
  const double serial_ms = serial.process(frame).detect_ms;
  EXPECT_LT(conc_ms, serial_ms);
}

TEST(Pipeline, TimelineContainsPerScaleStreams) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kConcurrent));
  core::Rng rng(7);
  img::ImageU8 frame(100, 80);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const FrameResult result = pipeline.process(frame);

  std::set<int> streams;
  bool saw_cascade = false;
  bool saw_scan = false;
  bool saw_scale = false;
  for (const auto& record : result.timeline.records) {
    streams.insert(record.stream);
    saw_cascade |= record.name.rfind("cascade", 0) == 0;
    saw_scan |= record.name.rfind("scan", 0) == 0;
    saw_scale |= record.name.rfind("scale", 0) == 0;
  }
  EXPECT_EQ(streams.size(), result.scales.size());
  EXPECT_TRUE(saw_cascade);
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_scale);
  EXPECT_GT(result.detect_ms, 0.0);
}

TEST(Pipeline, BusyShareSplitsKernelFamilies) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kConcurrent));
  core::Rng rng(8);
  img::ImageU8 frame(100, 80);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const FrameResult result = pipeline.process(frame);
  const double integral_share = result.busy_share("scan");
  const double cascade_share = result.busy_share("cascade");
  EXPECT_GT(integral_share, 0.0);
  EXPECT_GT(cascade_share, 0.0);
  EXPECT_LE(integral_share + cascade_share, 1.0 + 1e-9);
}

TEST(Pipeline, DisplayOverlayMarksDetections) {
  const vgpu::DeviceSpec spec;
  PipelineOptions options = fast_options(vgpu::ExecMode::kConcurrent);
  options.run_display = true;
  const Pipeline pipeline(spec, test_cascade(), options);
  const auto bench = facegen::build_mugshot_benchmark(1, 0, 96, 12);
  const FrameResult result = pipeline.process(bench.mugshots[0].image);
  EXPECT_EQ(result.display.width(), 96);
  if (!result.raw_detections.empty()) {
    int bright = 0;
    for (const auto p : result.display.pixels()) {
      bright += (p == 255);
    }
    EXPECT_GT(bright, 0);
  }
}

TEST(Pipeline, RejectsEmptyCascade) {
  const vgpu::DeviceSpec spec;
  EXPECT_THROW(Pipeline(spec, haar::Cascade("empty"),
                        fast_options(vgpu::ExecMode::kSerial)),
               core::CheckError);
}

TEST(Pipeline, RejectsEmptyFrame) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kSerial));
  EXPECT_THROW(pipeline.process(img::ImageU8()), core::CheckError);
}

TEST(Pipeline, RejectsFramesSmallerThanTheWindowNamingTheGeometry) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kSerial));
  try {
    pipeline.process(img::ImageU8(haar::kWindowSize - 1, haar::kWindowSize));
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(std::to_string(haar::kWindowSize - 1) + "x" +
                        std::to_string(haar::kWindowSize)),
              std::string::npos)
        << what;
  }
  // A window-sized frame is the boundary: exactly one valid position.
  const FrameResult result =
      pipeline.process(img::ImageU8(haar::kWindowSize, haar::kWindowSize, 90));
  ASSERT_EQ(result.scales.size(), 1u);
  std::int64_t windows = 0;
  for (const auto count : result.scales[0].depth_histogram) {
    windows += count;
  }
  EXPECT_EQ(windows, 1);
}

TEST(Pipeline, SkipFinestLevelsShedsTheNativeScale) {
  const vgpu::DeviceSpec spec;
  PipelineOptions options = fast_options(vgpu::ExecMode::kConcurrent);
  options.skip_finest_levels = 1;
  const Pipeline degraded(spec, test_cascade(), options);
  core::Rng rng(9);
  img::ImageU8 frame(120, 90);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const FrameResult result = degraded.process(frame);

  const auto plan = img::plan_pyramid(120, 90, 1.25, haar::kWindowSize);
  ASSERT_EQ(result.scales.size(), plan.levels.size() - 1);
  for (const auto& stats : result.scales) {
    EXPECT_GE(stats.scale_index, 1);
  }
  for (const Detection& det : result.raw_detections) {
    EXPECT_GE(det.scale_index, 1);
  }
}

TEST(Pipeline, AbsurdSkipClampsSoTheCoarsestLevelStillRuns) {
  const vgpu::DeviceSpec spec;
  PipelineOptions options = fast_options(vgpu::ExecMode::kSerial);
  options.skip_finest_levels = 1000;
  const Pipeline degraded(spec, test_cascade(), options);
  const FrameResult result = degraded.process(img::ImageU8(120, 90, 120));

  const auto plan = img::plan_pyramid(120, 90, 1.25, haar::kWindowSize);
  ASSERT_EQ(result.scales.size(), 1u);
  EXPECT_EQ(result.scales[0].scale_index,
            static_cast<int>(plan.levels.size()) - 1);
}

TEST(Pipeline, ProcessesFramesStraightFromAnIngestSource) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kConcurrent));
  video::TrailerSpec trailer_spec;
  trailer_spec.title = "pipeline-ingest";
  trailer_spec.width = 120;
  trailer_spec.height = 90;
  trailer_spec.frames = 2;
  trailer_spec.shot_frames = 2;
  trailer_spec.seed = 31;
  const video::SyntheticTrailer trailer(trailer_spec);
  const auto source = ingest::open_stream(
      ingest::encode_stream(ingest::Format::kRaw, trailer));

  // The FrameSource overload is exactly decode + the luma overload.
  const FrameResult via_source = pipeline.process(*source, 1);
  const FrameResult via_luma =
      pipeline.process(source->decode(1).frame.luma());
  EXPECT_EQ(via_source.raw_detections.size(), via_luma.raw_detections.size());
  EXPECT_DOUBLE_EQ(via_source.detect_ms, via_luma.detect_ms);

  // Ingest's typed taxonomy propagates to batch callers too.
  EXPECT_THROW(pipeline.process(*source, 2), ingest::IngestError);
  EXPECT_THROW(pipeline.process(*source, -1), ingest::IngestError);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, test_cascade(),
                          fast_options(vgpu::ExecMode::kConcurrent));
  const auto bench = facegen::build_mugshot_benchmark(1, 0, 96, 13);
  const FrameResult a = pipeline.process(bench.mugshots[0].image);
  const FrameResult b = pipeline.process(bench.mugshots[0].image);
  EXPECT_EQ(a.raw_detections.size(), b.raw_detections.size());
  EXPECT_DOUBLE_EQ(a.detect_ms, b.detect_ms);
}

}  // namespace
}  // namespace fdet::detect
