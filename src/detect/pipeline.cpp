#include "detect/pipeline.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "integral/gpu.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace fdet::detect {

double FrameResult::busy_share(const std::string& prefix) const {
  double matched = 0.0;
  double total = 0.0;
  for (const auto& record : timeline.records) {
    total += record.busy_s;
    if (record.name.rfind(prefix, 0) == 0) {
      matched += record.busy_s;
    }
  }
  return total == 0.0 ? 0.0 : matched / total;
}

void FrameResult::publish_metrics(obs::Registry& registry,
                                  const obs::Labels& labels) const {
  obs::publish_timeline(registry, timeline, labels);

  registry.counter("detect.frames", labels).increment();
  registry.counter("detect.raw_detections", labels)
      .add(static_cast<double>(raw_detections.size()));
  registry.counter("detect.detections", labels)
      .add(static_cast<double>(detections.size()));
  registry.histogram("detect.frame_latency_ms", labels).observe(detect_ms);

  // Cascade-evaluation profiler ratios: the numbers the paper quotes from
  // the CUDA compute profiler (98.9 % branch efficiency).
  registry.gauge("detect.cascade_branch_efficiency", labels)
      .set(cascade_counters.branch_efficiency());
  registry.gauge("detect.cascade_simd_efficiency", labels)
      .set(cascade_counters.simd_efficiency());

  // Where the SM-seconds go, by pipeline stage ("integral images are
  // ~20 % of the computation").
  for (const char* stage :
       {"scale", "filter", "scan", "cascade"}) {
    obs::Labels stage_labels = labels;
    stage_labels.emplace_back("stage", stage);
    registry.gauge("detect.busy_share", stage_labels).set(busy_share(stage));
  }

  // Fig. 7: how deep windows travel into the cascade before rejection,
  // per pyramid scale (an observation of depth d = the deepest stage
  // reached; d = stage count means accepted).
  for (const ScaleStats& stats : scales) {
    if (stats.depth_histogram.empty()) {
      continue;
    }
    obs::Labels scale_labels = labels;
    scale_labels.emplace_back("scale", std::to_string(stats.scale_index));
    auto& histogram =
        registry.histogram("detect.rejection_depth", scale_labels);
    for (std::size_t depth = 0; depth < stats.depth_histogram.size();
         ++depth) {
      const auto count = stats.depth_histogram[depth];
      if (count > 0) {
        histogram.observe(static_cast<double>(depth),
                          static_cast<double>(count));
      }
    }
  }
}

Pipeline::Pipeline(const vgpu::DeviceSpec& spec, haar::Cascade cascade,
                   PipelineOptions options)
    : spec_(spec), cascade_(std::move(cascade)),
      bank_(haar::ConstantBank::build(cascade_)), options_(options) {
  FDET_CHECK(!cascade_.empty()) << "pipeline needs a non-empty cascade";
  if (options_.kernel.constant_memory) {
    FDET_CHECK(bank_.fits_constant_memory(
        static_cast<std::size_t>(spec_.constant_mem_bytes)))
        << "cascade does not fit the device constant memory ("
        << bank_.bytes_compressed() << " bytes)";
  }
}

Pipeline::Built Pipeline::build(const img::ImageU8& luma) const {
  const obs::ScopedSpan build_span("pipeline.build");
  FDET_CHECK(!luma.empty()) << "detect::Pipeline: empty input frame "
                            << "(expected a decoded luma plane)";
  FDET_CHECK(luma.width() >= haar::kWindowSize &&
             luma.height() >= haar::kWindowSize)
      << "detect::Pipeline: frame " << luma.width() << "x" << luma.height()
      << " is smaller than the " << haar::kWindowSize << "x"
      << haar::kWindowSize << " detection window";
  const img::PyramidPlan plan = img::plan_pyramid(
      luma.width(), luma.height(), options_.pyramid_step, haar::kWindowSize);
  // Degradation: shed the finest (most expensive) levels first, but never
  // all of them — the coarsest level always runs.
  const int skip = std::clamp(options_.skip_finest_levels, 0,
                              static_cast<int>(plan.levels.size()) - 1);
  const int stage_count = cascade_.stage_count();

  Built built;
  FrameResult& result = built.base;
  std::vector<vgpu::Launch>& launches = built.launches;
  std::vector<CascadeKernelOutput> outputs(plan.levels.size());

  if (options_.run_display) {
    result.display = luma;
  }

  for (const img::PyramidLevel& level : plan.levels) {
    if (level.index < skip) {
      continue;
    }
    const int stream = level.index;
    const std::string suffix = "_s" + std::to_string(level.index);

    // Scaling + filtering (level 0 is the native frame: neither applies).
    img::ImageU8 level_image;
    if (level.index == 0) {
      level_image = luma;
    } else {
      const obs::ScopedSpan span("pipeline.pyramid" + suffix);
      const obs::ProfileStageScope stage("scale");
      img::ImageU8 scaled(level.width, level.height);
      launches.push_back(
          {scale_kernel(spec_, luma, scaled, "scale" + suffix), stream});
      img::ImageU8 blurred_h(level.width, level.height);
      launches.push_back(
          {filter_kernel(spec_, scaled, blurred_h, /*horizontal=*/true,
                         "filter_h" + suffix),
           stream});
      level_image = img::ImageU8(level.width, level.height);
      launches.push_back(
          {filter_kernel(spec_, blurred_h, level_image, /*horizontal=*/false,
                         "filter_v" + suffix),
           stream});
    }

    // Integral image: row pass, then column pass.
    integral::GpuIntegralResult ii = [&] {
      const obs::ScopedSpan span("pipeline.integral" + suffix);
      const obs::ProfileStageScope stage("integral");
      return integral::integral_gpu(spec_, level_image);
    }();
    for (vgpu::LaunchCost& cost : ii.launches) {
      cost.config.name += suffix;
      launches.push_back({std::move(cost), stream});
    }

    // Cascade evaluation.
    CascadeKernelOutput& out = outputs[static_cast<std::size_t>(level.index)];
    {
      const obs::ScopedSpan span("pipeline.cascade" + suffix);
      const obs::ProfileStageScope stage("cascade");
      launches.push_back({cascade_kernel(spec_, bank_, ii.integral, out,
                                         options_.kernel, "cascade" + suffix),
                          stream});
    }
    result.cascade_counters += launches.back().cost.counters;

    if (options_.run_display) {
      const obs::ProfileStageScope stage("display");
      launches.push_back({display_kernel(spec_, out.depth, stage_count,
                                         level.factor, result.display,
                                         "display" + suffix),
                          stream});
    }

    // Collect statistics and raw detections from the depth map.
    ScaleStats stats;
    stats.scale_index = level.index;
    stats.factor = level.factor;
    stats.depth_histogram.assign(static_cast<std::size_t>(stage_count) + 1, 0);
    const auto& depth = out.depth;
    for (int y = 0; y + haar::kWindowSize <= level.height; ++y) {
      for (int x = 0; x + haar::kWindowSize <= level.width; ++x) {
        const std::int32_t d = depth(x, y);
        ++stats.depth_histogram[static_cast<std::size_t>(d)];
        if (d == stage_count) {
          Detection det;
          det.box = img::Rect{
              static_cast<int>(std::lround(x * level.factor)),
              static_cast<int>(std::lround(y * level.factor)),
              static_cast<int>(std::lround(haar::kWindowSize * level.factor)),
              static_cast<int>(std::lround(haar::kWindowSize * level.factor))};
          det.score = out.score(x, y);
          det.scale_index = level.index;
          result.raw_detections.push_back(det);
        }
      }
    }
    result.scales.push_back(std::move(stats));
  }

  const obs::ScopedSpan group_span("pipeline.grouping");
  const obs::ProfileStageScope group_stage("grouping");
  result.detections =
      group_detections(result.raw_detections, options_.group_eyes_threshold);
  if (options_.min_neighbors > 1) {
    std::erase_if(result.detections, [this](const Detection& d) {
      return d.neighbors < options_.min_neighbors;
    });
  }
  return built;
}

FrameResult Pipeline::finalize(const Built& built, vgpu::ExecMode mode) const {
  const obs::ScopedSpan span(mode == vgpu::ExecMode::kSerial
                                 ? "pipeline.schedule.serial"
                                 : "pipeline.schedule.concurrent");
  FrameResult result = built.base;
  result.timeline = vgpu::schedule(spec_, built.launches, mode);
  result.detect_ms = result.timeline.makespan_s * 1e3;
  if (const obs::TraceContext* context = obs::current_trace_context()) {
    result.trace_id = context->trace_id;
  }
  return result;
}

FrameResult Pipeline::process(const img::ImageU8& luma) const {
  return finalize(build(luma), options_.mode);
}

std::pair<FrameResult, FrameResult> Pipeline::process_dual(
    const img::ImageU8& luma) const {
  const Built built = build(luma);
  return {finalize(built, vgpu::ExecMode::kConcurrent),
          finalize(built, vgpu::ExecMode::kSerial)};
}

}  // namespace fdet::detect
