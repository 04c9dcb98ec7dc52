// Sec. III-B study: integral-image computation, GPU vs CPU across
// resolutions. Paper: "For small resolutions a naive sequential O(n*m)
// CPU implementation beats the GPU due to the fact that the whole image
// fits in the L2 cache. However, the GPU implementation is 2.5 times
// faster on average for high resolution images."
#include "bench_common.h"
#include "core/rng.h"
#include "integral/cpu_model.h"
#include "integral/gpu.h"

int main(int argc, char** argv) {
  using namespace fdet;
  bench::RunRecorder run("integral");
  core::Cli cli("bench_integral_image");
  run.add_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  bench::print_header("Sec. III-B", "integral image: GPU vs CPU");

  const vgpu::DeviceSpec spec;
  const integral::CpuModel cpu_model;
  core::Rng rng(1);

  const std::pair<int, int> sizes[] = {{160, 120}, {320, 240},  {640, 480},
                                       {960, 540}, {1280, 720}, {1920, 1080},
                                       {2560, 1440}};
  core::Table table({"resolution", "GPU virtual (ms)", "CPU model (ms)",
                     "GPU/CPU", "host wall CPU (ms)"});
  double hd_ratio = 0.0;
  for (const auto& [w, h] : sizes) {
    img::ImageU8 image(w, h);
    for (auto& p : image.pixels()) {
      p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    // GPU pipeline: schedule the row and column passes on an
    // otherwise idle device.
    const integral::GpuIntegralResult gpu =
        integral::integral_gpu(spec, image);
    std::vector<vgpu::Launch> launches;
    for (const auto& cost : gpu.launches) {
      launches.push_back({cost, 0});
    }
    const vgpu::Timeline tl =
        vgpu::schedule(spec, launches, vgpu::ExecMode::kConcurrent);
    const double gpu_ms = tl.makespan_s * 1e3;
    const double cpu_ms = cpu_model.integral_ms(w, h);

    char res_label[32];
    std::snprintf(res_label, sizeof(res_label), "%dx%d", w, h);
    obs::publish_timeline(run.metrics(), tl, {{"resolution", res_label}});
    run.metrics()
        .gauge("integral.cpu_model_ms", {{"resolution", res_label}})
        .set(cpu_ms);
    run.add_timeline(res_label, tl);

    // Host wall time is printed only; the run record keeps the
    // deterministic modeled series.
    core::Stopwatch watch;
    const auto host = integral::integral_cpu(image);
    const double host_ms = watch.elapsed_ms();
    (void)host;

    if (w == 1920) {
      hd_ratio = cpu_ms / gpu_ms;
    }
    table.add_row({res_label, core::Table::num(gpu_ms, 3),
                   core::Table::num(cpu_ms, 3),
                   core::Table::num(gpu_ms / cpu_ms, 2),
                   core::Table::num(host_ms, 3)});
  }
  table.print(std::cout);
  std::printf("\nGPU advantage at 1080p: %.2fx (paper ~2.5x); the "
              "modeled\nCPU wins below the cache-residency crossover.\n",
              hd_ratio);
  run.metrics().gauge("integral.gpu_advantage_1080p").set(hd_ratio);
  return run.finish();
}
