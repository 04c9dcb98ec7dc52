// Quickstart: train a small face cascade on synthetic data, detect faces
// in a synthetic group photo on the virtual GPU, and write the annotated
// result to quickstart_out.ppm. Self-contained — runs in ~30 s.
//
//   ./example_quickstart [--faces 300] [--out quickstart_out.ppm]
#include <cstdio>

#include "core/cli.h"
#include "core/stopwatch.h"
#include "detect/pipeline.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runrecord.h"
#include "obs/trace.h"
#include "facegen/dataset.h"
#include "img/draw.h"
#include "img/io.h"
#include "train/boost.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int faces = 300;
  std::string out = "quickstart_out.ppm";
  std::string trace_out;
  std::string record_out;
  std::string profile_out;
  core::Cli cli("quickstart");
  cli.flag("faces", faces, "training faces");
  cli.flag("out", out, "annotated output image (PPM)");
  cli.flag("trace-out", trace_out, "write a Perfetto trace-event JSON file");
  cli.flag("record-out", record_out, "write the run record (JSON)");
  cli.flag("profile-out", profile_out, "write a kernel profile (JSON)");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  // With tracing on, host-side spans from training and detection land in
  // the trace automatically via the ambient session.
  obs::TraceSession session;
  if (!trace_out.empty()) {
    session.install();
  }
  // With profiling on, every vgpu launch of this thread is attributed to
  // its pipeline stage.
  obs::KernelProfiler profiler;
  const obs::ScopedProfileCollection profile_scope(profiler);

  // 1. Synthesize a training set and boost a small cascade.
  std::printf("[1/3] training a 5-stage GentleBoost cascade on %d synthetic "
              "faces...\n", faces);
  core::Stopwatch watch;
  const facegen::TrainingSet set =
      facegen::build_training_set(faces, 60, 64, /*seed=*/7);
  train::TrainOptions options;
  options.stage_sizes = {4, 8, 12, 16, 20};
  options.feature_pool = 400;
  options.negatives_per_stage = 400;
  options.seed = 7;
  const train::TrainResult trained =
      train::train_cascade(set, options, "quickstart");
  std::printf("      trained %d weak classifiers in %.1f s; per-stage hit "
              "rates:", trained.cascade.classifier_count(),
              watch.elapsed_seconds());
  for (const auto& stage : trained.stages) {
    std::printf(" %.3f", stage.hit_rate);
  }
  std::printf("\n");

  // 2. Compose a "group photo": several faces over a cluttered backdrop.
  std::printf("[2/3] rendering a synthetic group photo...\n");
  core::Rng rng(99);
  img::ImageU8 photo = facegen::render_background(480, 360, rng);
  std::vector<img::Rect> truth;
  for (int i = 0; i < 4; ++i) {
    const int size = rng.uniform_int(60, 110);
    const int x = (i % 2) * 240 + rng.uniform_int(10, 100);
    const int y = (i / 2) * 180 + rng.uniform_int(10, 40);
    const facegen::FaceInstance face =
        facegen::render_face(facegen::FaceParams::random(rng), size);
    for (int py = 0; py < size; ++py) {
      for (int px = 0; px < size; ++px) {
        photo(x + px, y + py) = face.image(px, py);
      }
    }
    truth.push_back({x, y, size, size});
  }

  // 3. Detect on the virtual GPU and annotate.
  std::printf("[3/3] running the detection pipeline on the virtual GPU...\n");
  const vgpu::DeviceSpec device;
  const detect::Pipeline pipeline(device, trained.cascade, {});
  const detect::FrameResult result = pipeline.process(photo);

  std::printf("      %zu raw windows -> %zu grouped detections in %.2f "
              "virtual ms (%.0f%% SM utilization)\n",
              result.raw_detections.size(), result.detections.size(),
              result.detect_ms, 100.0 * result.timeline.utilization());
  for (const detect::Detection& d : result.detections) {
    std::printf("      face at (%d, %d) size %d, score %.2f, %d neighbors\n",
                d.box.x, d.box.y, d.box.w, d.score, d.neighbors);
  }

  img::ImageU8 r = photo;
  img::ImageU8 g = photo;
  img::ImageU8 b = photo;
  for (const img::Rect& t : truth) {
    img::draw_rect(g, t, 255, 1);  // ground truth: green
  }
  for (const detect::Detection& d : result.detections) {
    img::draw_rect(r, d.box, 255, 2);  // detections: red
  }
  img::write_ppm(out, r, g, b);
  std::printf("wrote %s (red = detections, green = ground truth)\n",
              out.c_str());

  if (!trace_out.empty()) {
    session.add_timeline("detect", result.timeline);
    session.write_file(trace_out);
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  if (!record_out.empty()) {
    obs::Registry registry;
    result.publish_metrics(registry);
    obs::build_run_record("quickstart", {}, registry).write_file(record_out);
    std::printf("run record written to %s\n", record_out.c_str());
  }
  if (!profile_out.empty()) {
    profiler.snapshot("quickstart").write_file(profile_out);
    std::printf("kernel profile written to %s (inspect with "
                "`fdet_report show %s`)\n",
                profile_out.c_str(), profile_out.c_str());
  }
  return 0;
}
