// Fig. 5: per-frame face-detection latency for the "50/50" trailer,
// serial vs concurrent kernel execution, OpenCV-style cascade vs ours.
// The paper's headline observation: the OpenCV cascade under serial
// execution repeatedly violates the 40 ms display deadline (24 fps),
// while our cascade under concurrent execution stays far below it.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int frames = 36;
  int width = 1920;
  int height = 1080;
  std::string cache_dir = bench::kDefaultCacheDir;
  bench::RunRecorder run("fig5");
  core::Cli cli("bench_fig5_frame_latency");
  cli.flag("frames", frames, "frames of the 50/50 preset to process");
  cli.flag("width", width, "frame width");
  cli.flag("height", height, "frame height");
  cli.flag("cache-dir", cache_dir, "trained-cascade cache directory");
  run.add_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  bench::print_header("Fig. 5", "per-frame detection latency, 50/50 trailer");

  const train::CascadePair pair = bench::load_cascades(cache_dir);
  const vgpu::DeviceSpec spec;
  const detect::Pipeline ours(spec, pair.ours, {});
  const detect::Pipeline opencv(spec, pair.opencv_like, {});

  video::TrailerSpec preset = video::table2_trailers(frames, width, height)[1];
  // ~6 shots across the sampled window: per-frame latency then shows the
  // shot-to-shot variability of paper Fig. 5.
  preset.shot_frames = std::max(1, frames / 6);
  const video::SyntheticTrailer trailer(preset);
  const video::MockH264Decoder decoder(trailer);

  constexpr double kDeadlineMs = 40.0;  // 24 fps display deadline
  core::Table table({"frame", "faces", "ours-conc", "ours-serial",
                     "ocv-conc", "ocv-serial"});
  int violations_ocv_serial = 0;
  int violations_ours_conc = 0;
  double peak[4] = {0, 0, 0, 0};

  for (int f = 0; f < frames; ++f) {
    // One frame context per source frame, so each frame gets its own
    // profile bucket; launches of both cascades attribute to it.
    const obs::ScopedTraceContext frame_context(
        obs::make_frame_context(/*seed=*/5050, f));
    const video::DecodedFrame frame = decoder.decode(f);
    const auto [oc, os] = ours.process_dual(frame.frame.luma());
    const auto [cc, cs] = opencv.process_dual(frame.frame.luma());
    oc.publish_metrics(run.metrics(), {{"cascade", "ours"},
                                       {"mode", "concurrent"}});
    os.publish_metrics(run.metrics(), {{"cascade", "ours"},
                                       {"mode", "serial"}});
    cc.publish_metrics(run.metrics(), {{"cascade", "opencv"},
                                       {"mode", "concurrent"}});
    cs.publish_metrics(run.metrics(), {{"cascade", "opencv"},
                                       {"mode", "serial"}});
    if (f == 0) {
      run.add_timeline("ours:concurrent:frame0", oc.timeline);
      run.add_timeline("ours:serial:frame0", os.timeline);
    }
    const double ms[4] = {oc.detect_ms, os.detect_ms, cc.detect_ms,
                          cs.detect_ms};
    for (int i = 0; i < 4; ++i) {
      peak[i] = std::max(peak[i], ms[i]);
    }
    // The paper's deadline discussion includes the decode latency for the
    // serial OpenCV configuration.
    violations_ocv_serial += (cs.detect_ms + frame.decode_ms > kDeadlineMs);
    violations_ours_conc += (oc.detect_ms + frame.decode_ms > kDeadlineMs);
    table.add_row({std::to_string(f),
                   std::to_string(frame.ground_truth.size()),
                   core::Table::num(ms[0]), core::Table::num(ms[1]),
                   core::Table::num(ms[2]), core::Table::num(ms[3])});
  }
  table.print(std::cout);

  std::printf("\npeak latency (ms): ours-conc %.2f, ours-serial %.2f, "
              "ocv-conc %.2f, ocv-serial %.2f\n",
              peak[0], peak[1], peak[2], peak[3]);
  std::printf("40 ms deadline violations incl. decode: ocv-serial %d/%d, "
              "ours-conc %d/%d\n",
              violations_ocv_serial, frames, violations_ours_conc, frames);
  std::printf("(paper: the serial OpenCV configuration violates the "
              "deadline several times; ours never does)\n");

  run.metrics().gauge("bench.deadline_violations", {{"config", "ocv-serial"}})
      .set(violations_ocv_serial);
  run.metrics().gauge("bench.deadline_violations",
                      {{"config", "ours-concurrent"}})
      .set(violations_ours_conc);
  return run.finish();
}
