// Additional detect-module edge cases: pipeline on minimal frames,
// busy-share bookkeeping, min-neighbors pruning and display options.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "detect/pipeline.h"
#include "facegen/dataset.h"
#include "haar/profile.h"

namespace fdet::detect {
namespace {

haar::Cascade tiny_calibrated_cascade(std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 scene(120, 100);
  for (auto& p : scene.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const auto ii = integral::integral_cpu(scene);
  haar::Cascade cascade = haar::build_profile_cascade(
      "tiny", std::vector<int>{8, 8}, seed);
  haar::calibrate_stage_thresholds(cascade, {&ii},
                                   std::vector<double>{0.3, 0.5}, 2);
  return cascade;
}

TEST(PipelineEdge, WindowSizedFrameHasExactlyOneScaleAndWindow) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, tiny_calibrated_cascade(1), {});
  img::ImageU8 frame(haar::kWindowSize, haar::kWindowSize);
  frame.fill(128);
  const FrameResult result = pipeline.process(frame);
  ASSERT_EQ(result.scales.size(), 1u);
  std::int64_t windows = 0;
  for (const auto count : result.scales[0].depth_histogram) {
    windows += count;
  }
  EXPECT_EQ(windows, 1);  // exactly one valid anchor
}

TEST(PipelineEdge, FrameSmallerThanWindowIsRejected) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, tiny_calibrated_cascade(2), {});
  img::ImageU8 tiny(16, 16);
  EXPECT_THROW(pipeline.process(tiny), core::CheckError);
}

TEST(PipelineEdge, BusySharesArePartitionOfUnity) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, tiny_calibrated_cascade(3), {});
  core::Rng rng(5);
  img::ImageU8 frame(90, 70);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const FrameResult result = pipeline.process(frame);
  const double total = result.busy_share("scan") +
                       result.busy_share("cascade") +
                       result.busy_share("scale") +
                       result.busy_share("filter");
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(result.busy_share("nonexistent"), 0.0);
}

TEST(PipelineEdge, MinNeighborsPrunesSingletons) {
  const vgpu::DeviceSpec spec;
  PipelineOptions keep_all;
  PipelineOptions pruned;
  pruned.min_neighbors = 2;
  const haar::Cascade cascade = tiny_calibrated_cascade(4);
  const Pipeline loose(spec, cascade, keep_all);
  const Pipeline strict(spec, cascade, pruned);

  core::Rng rng(6);
  img::ImageU8 frame(100, 80);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const FrameResult all = loose.process(frame);
  const FrameResult few = strict.process(frame);
  EXPECT_LE(few.detections.size(), all.detections.size());
  for (const Detection& d : few.detections) {
    EXPECT_GE(d.neighbors, 2);
  }
  // Raw windows are unaffected by grouping options.
  EXPECT_EQ(few.raw_detections.size(), all.raw_detections.size());
}

TEST(PipelineEdge, DisplayDisabledLeavesOverlayEmpty) {
  const vgpu::DeviceSpec spec;
  const Pipeline pipeline(spec, tiny_calibrated_cascade(7), {});
  img::ImageU8 frame(64, 64);
  frame.fill(100);
  const FrameResult result = pipeline.process(frame);
  EXPECT_TRUE(result.display.empty());
}

TEST(PipelineEdge, StepControlsPyramidDepth) {
  const vgpu::DeviceSpec spec;
  PipelineOptions coarse;
  coarse.pyramid_step = 2.0;
  PipelineOptions fine;
  fine.pyramid_step = 1.1;
  const haar::Cascade cascade = tiny_calibrated_cascade(8);
  img::ImageU8 frame(200, 160);
  frame.fill(90);
  const auto coarse_scales =
      Pipeline(spec, cascade, coarse).process(frame).scales.size();
  const auto fine_scales =
      Pipeline(spec, cascade, fine).process(frame).scales.size();
  EXPECT_GT(fine_scales, coarse_scales);
}

}  // namespace
}  // namespace fdet::detect
