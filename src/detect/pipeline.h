// The full GPU face-detection pipeline of paper Fig. 1:
//
//   (decoded luma) -> scaling -> filtering -> integral image
//   (row scan, then in-place column scan) -> cascade evaluation -> [display]
//
// Every pyramid level runs its kernels in its own CUDA stream; the
// scheduler then executes the issue sequence either serially (the paper's
// "Serial Kernel Execution" baseline) or with concurrent kernel execution,
// which overlaps the small-scale kernels that cannot fill the device on
// their own — the paper's headline optimization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/grouping.h"
#include "detect/kernels.h"
#include "haar/cascade.h"
#include "img/pyramid.h"
#include "ingest/frame_source.h"
#include "obs/metrics.h"
#include "vgpu/scheduler.h"

namespace fdet::detect {

struct PipelineOptions {
  double pyramid_step = 1.25;
  vgpu::ExecMode mode = vgpu::ExecMode::kConcurrent;
  CascadeKernelOptions kernel;
  double group_eyes_threshold = 0.5;
  /// Grouped detections with fewer merged raw windows than this are
  /// dropped (OpenCV's classic min-neighbors filter; 1 keeps everything).
  int min_neighbors = 1;
  bool run_display = false;  ///< draw accepted windows into FrameResult::display
  /// Load-shedding hook for the serving layer's degradation ladder
  /// (serve/policy.h): skip the N finest pyramid levels — the largest,
  /// most expensive scales, which detect the smallest faces. Clamped so
  /// at least one level always runs. 0 = full pyramid.
  int skip_finest_levels = 0;
};

/// Per-scale statistics for the Fig. 7 rejection study.
struct ScaleStats {
  int scale_index = 0;
  double factor = 1.0;
  /// depth_histogram[d] = windows whose deepest reached stage is d
  /// (d = stage_count means accepted). Border anchors are excluded.
  std::vector<std::int64_t> depth_histogram;
};

struct FrameResult {
  std::vector<Detection> raw_detections;  ///< frame coordinates
  std::vector<Detection> detections;      ///< grouped
  vgpu::Timeline timeline;
  double detect_ms = 0.0;  ///< virtual makespan of all kernels
  /// Causal trace id of the frame this result belongs to — stamped from
  /// the ambient obs::TraceContext at finalize time (0 when the caller
  /// installed none). Lets offline consumers join a FrameResult back to
  /// serving spans and flight-recorder dumps.
  std::uint64_t trace_id = 0;
  std::vector<ScaleStats> scales;
  vgpu::PerfCounters cascade_counters;  ///< cascade-evaluation kernels only
  img::ImageU8 display;                 ///< only when run_display

  /// Σ busy SM-seconds of launches whose name starts with `prefix`,
  /// divided by the total — e.g. share("scan") (scan_rows + scan_cols) is
  /// the paper's "integral images are ~20 % of the computation".
  double busy_share(const std::string& prefix) const;

  /// Publishes this frame into `registry` under `labels`: the timeline's
  /// profiler metrics (obs::publish_timeline), cascade-kernel branch/SIMD
  /// efficiency, detection counts, per-stage busy shares and the Fig. 7
  /// per-scale rejection-depth histograms (`detect.rejection_depth`,
  /// labeled scale=N). Counters accumulate across frames; gauges keep the
  /// last frame's value.
  void publish_metrics(obs::Registry& registry,
                       const obs::Labels& labels = {}) const;
};

class Pipeline {
 public:
  /// The cascade is re-encoded into the constant bank once; it must fit
  /// the device's constant memory (throws otherwise, as on real hardware).
  Pipeline(const vgpu::DeviceSpec& spec, haar::Cascade cascade,
           PipelineOptions options);

  /// Runs the whole pipeline on one decoded luma plane. The frame must be
  /// at least the 24x24 detection window in both dimensions (throws
  /// core::CheckError with the offending geometry otherwise — undersized
  /// or empty frames cannot host a single detection window).
  FrameResult process(const img::ImageU8& luma) const;

  /// Decodes frame `index` from the ingest source and runs the pipeline
  /// on its luma plane. Ingest errors (malformed bytes, bad index)
  /// propagate as ingest::IngestError — batch callers without a serving
  /// layer get the same typed taxonomy the service quarantines on.
  FrameResult process(const ingest::FrameSource& source, int index) const;

  /// Runs the functional pipeline once and schedules it under both
  /// execution modes: {concurrent, serial}. Detections and statistics are
  /// identical in both results; only the timelines differ. This is the
  /// cheap way to produce the paper's serial-vs-concurrent comparisons.
  std::pair<FrameResult, FrameResult> process_dual(
      const img::ImageU8& luma) const;

  const haar::Cascade& cascade() const { return cascade_; }
  const PipelineOptions& options() const { return options_; }
  const vgpu::DeviceSpec& device() const { return spec_; }

 private:
  /// Mode-independent output of the functional pass.
  struct Built {
    std::vector<vgpu::Launch> launches;
    FrameResult base;  ///< everything except timeline/detect_ms
  };
  Built build(const img::ImageU8& luma) const;
  FrameResult finalize(const Built& built, vgpu::ExecMode mode) const;

  vgpu::DeviceSpec spec_;
  haar::Cascade cascade_;
  haar::ConstantBank bank_;
  PipelineOptions options_;
};

}  // namespace fdet::detect
