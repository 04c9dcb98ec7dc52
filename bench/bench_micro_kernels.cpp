// Google-benchmark microbenchmarks of the library's host-side hot paths:
// functional kernel execution throughput, the SIMD dataset-matrix row
// arithmetic (the paper's SSE4 inner loop), stump fitting, synthetic
// rendering and detection grouping. These measure the *simulator's* wall
// cost, not virtual GPU time — useful for keeping the reproduction fast.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "core/rng.h"
#include "detect/grouping.h"
#include "detect/kernels.h"
#include "facegen/dataset.h"
#include "haar/profile.h"
#include "integral/gpu.h"
#include "train/dataset_matrix.h"
#include "train/stump.h"
#include "video/trailer.h"

namespace {

using namespace fdet;

img::ImageU8 random_image(int w, int h, std::uint64_t seed) {
  core::Rng rng(seed);
  img::ImageU8 im(w, h);
  for (auto& p : im.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return im;
}

void BM_IntegralCpu(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const img::ImageU8 image = random_image(side, side, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(integral::integral_cpu(image));
  }
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_IntegralCpu)->Arg(256)->Arg(512)->Arg(1024);

void BM_GpuIntegralFunctional(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(side, side, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(integral::integral_gpu(spec, image));
  }
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_GpuIntegralFunctional)->Arg(256)->Arg(512);

void BM_CascadeKernelFunctional(benchmark::State& state) {
  const vgpu::DeviceSpec spec;
  const img::ImageU8 image = random_image(256, 256, 2);
  const auto ii = integral::integral_cpu(image);
  haar::Cascade cascade = haar::build_profile_cascade(
      "bench", haar::compact_profile(), 3);
  haar::calibrate_stage_thresholds(cascade, {&ii},
                                   haar::paper_pass_profile(25), 4);
  const haar::ConstantBank bank = haar::ConstantBank::build(cascade);
  detect::CascadeKernelOutput out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::cascade_kernel(
        spec, bank, ii, out, detect::CascadeKernelOptions{}, "bench"));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_CascadeKernelFunctional);

void BM_DatasetMatrixEvaluate(benchmark::State& state) {
  const int cols = static_cast<int>(state.range(0));
  core::Rng rng(4);
  train::DatasetMatrix matrix(cols);
  for (int i = 0; i < cols; ++i) {
    matrix.add_window(random_image(24, 24, static_cast<std::uint64_t>(i)));
  }
  const haar::HaarFeature feature{haar::HaarType::kLine, false, 2, 4, 5, 8};
  const auto terms = train::DatasetMatrix::feature_terms(feature);
  std::vector<std::int32_t> out(static_cast<std::size_t>(cols));
  for (auto _ : state) {
    matrix.evaluate_terms(terms, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * cols);
}
BENCHMARK(BM_DatasetMatrixEvaluate)->Arg(1000)->Arg(4000);

void BM_GentleStumpFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Rng rng(5);
  std::vector<std::int32_t> responses(static_cast<std::size_t>(n));
  std::vector<float> targets(static_cast<std::size_t>(n));
  std::vector<double> weights(static_cast<std::size_t>(n), 1.0 / n);
  for (int i = 0; i < n; ++i) {
    responses[static_cast<std::size_t>(i)] = rng.uniform_int(-10000, 10000);
    targets[static_cast<std::size_t>(i)] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        train::fit_gentle_stump(responses, targets, weights));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GentleStumpFit)->Arg(1000)->Arg(4000);

void BM_FaceRender(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  core::Rng rng(6);
  const facegen::FaceParams params = facegen::FaceParams::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(facegen::render_face(params, size));
  }
}
BENCHMARK(BM_FaceRender)->Arg(24)->Arg(96);

void BM_TrailerFrameRender(benchmark::State& state) {
  video::TrailerSpec spec;
  spec.width = 1920;
  spec.height = 1080;
  spec.frames = 8;
  spec.face_density = 4.0;
  spec.seed = 7;
  const video::SyntheticTrailer trailer(spec);
  int frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trailer.render_luma(frame));
    frame = (frame + 1) % 8;
  }
}
BENCHMARK(BM_TrailerFrameRender);

void BM_GroupDetections(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  core::Rng rng(8);
  std::vector<detect::Detection> raw;
  for (int i = 0; i < n; ++i) {
    const int cx = rng.uniform_int(0, 1800);
    const int cy = rng.uniform_int(0, 1000);
    raw.push_back({{cx, cy, 48, 48}, 1.0f, 1, 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::group_detections(raw));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupDetections)->Arg(50)->Arg(400);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the RunRecorder's
// output flags with parse_known and hand everything else (including
// --benchmark_* flags) to google-benchmark untouched.
int main(int argc, char** argv) {
  fdet::bench::RunRecorder run("micro");
  fdet::core::Cli cli("bench_micro_kernels");
  run.add_flags(cli);
  std::vector<std::string> remaining;
  if (!cli.parse_known(argc, argv, remaining)) {
    return 1;
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(remaining.size());
  for (auto& arg : remaining) {
    bench_argv.push_back(arg.data());
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  {
    fdet::obs::ScopedSpan span("micro.run_benchmarks");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return run.finish();
}
