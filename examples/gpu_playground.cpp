// Virtual-GPU playground: the simulator is a reusable library, not just
// the face detector's substrate. This example writes a custom two-phase
// kernel (block-wise shared-memory reduction), launches it across several
// CUDA-style streams, and contrasts serial vs concurrent scheduling — a
// miniature of the paper's core systems idea.
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/cli.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "vgpu/scheduler.h"
#include "vgpu/warp.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int streams = 6;
  int blocks_per_kernel = 3;
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;
  core::Cli cli("gpu_playground");
  cli.flag("streams", streams, "concurrent streams");
  cli.flag("blocks", blocks_per_kernel, "blocks per kernel");
  cli.flag("trace-out", trace_out, "write a Perfetto trace-event JSON file");
  cli.flag("metrics-out", metrics_out, "write run metrics (JSON)");
  cli.flag("profile-out", profile_out, "write a kernel profile (JSON)");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  // The profiler sees every execute_kernel below; the per-stream
  // "reduce_s<N>" launches roll up into one "reduce" row.
  obs::KernelProfiler profiler;
  const obs::ScopedProfileCollection profile_scope(profiler);

  const vgpu::DeviceSpec device;
  std::printf("device: %s — %d SMs, %d-lane warps, %.3f GHz, %d KiB shared "
              "per SM\n\n",
              device.name, device.sm_count, vgpu::kWarpSize, device.clock_ghz,
              device.shared_mem_per_sm / 1024);

  constexpr int kThreads = 256;
  const int n = blocks_per_kernel * kThreads;

  // One reduction kernel per stream, each summing its own array.
  std::vector<std::vector<int>> inputs;
  std::vector<std::vector<int>> partials;
  std::vector<vgpu::Launch> launches;
  for (int s = 0; s < streams; ++s) {
    inputs.emplace_back(static_cast<std::size_t>(n));
    std::iota(inputs.back().begin(), inputs.back().end(), s);
    partials.emplace_back(static_cast<std::size_t>(blocks_per_kernel), 0);
    auto& input = inputs.back();
    auto& partial = partials.back();

    vgpu::KernelConfig config{
        .name = "reduce_s" + std::to_string(s),
        .grid = {blocks_per_kernel, 1, 1},
        .block = {kThreads, 1, 1},
        .shared_bytes = kThreads * static_cast<int>(sizeof(int)),
    };
    // Phase 1: load to shared. Phase 2: tree reduction (lane 0 finishes).
    vgpu::LaunchCost cost = execute_kernel(
        device, config,
        [&input](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                 vgpu::SharedMem& shared) {
          auto tile = shared.array<int>(kThreads);
          const int idx = static_cast<int>(t.flat_block()) * kThreads +
                          t.thread.x;
          int& slot = tile[static_cast<std::size_t>(t.thread.x)];
          slot = input[static_cast<std::size_t>(idx)];
          ctx.global_load(static_cast<std::uint64_t>(idx) * 4, 4);
          ctx.shared_store_at(shared, slot);
        },
        [&partial](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                   vgpu::SharedMem& shared) {
          auto tile = shared.array<int>(kThreads);
          // Lane 0 walks the tile (divergent on purpose: see the SIMD
          // efficiency it reports).
          ctx.branch(t.thread.x == 0);
          if (t.thread.x != 0) {
            return;
          }
          int acc = 0;
          for (int i = 0; i < kThreads; ++i) {
            acc += tile[static_cast<std::size_t>(i)];
            ctx.shared_load_at(shared, tile[static_cast<std::size_t>(i)]);
            ctx.alu();
          }
          partial[static_cast<std::size_t>(t.flat_block())] = acc;
          ctx.global_store(static_cast<std::uint64_t>(t.flat_block()) * 4, 4);
        });
    launches.push_back({std::move(cost), s});
  }

  // Verify the functional results.
  for (int s = 0; s < streams; ++s) {
    const long long expected =
        std::accumulate(inputs[static_cast<std::size_t>(s)].begin(),
                        inputs[static_cast<std::size_t>(s)].end(), 0LL);
    const long long got =
        std::accumulate(partials[static_cast<std::size_t>(s)].begin(),
                        partials[static_cast<std::size_t>(s)].end(), 0LL);
    std::printf("stream %d: sum = %lld (%s)\n", s, got,
                got == expected ? "correct" : "WRONG");
  }

  const vgpu::Timeline serial =
      schedule(device, launches, vgpu::ExecMode::kSerial);
  const vgpu::Timeline concurrent =
      schedule(device, launches, vgpu::ExecMode::kConcurrent);

  std::printf("\nserial    : %.1f us makespan, %.0f%% utilization\n",
              serial.makespan_s * 1e6, 100.0 * serial.utilization());
  std::printf("concurrent: %.1f us makespan, %.0f%% utilization (%.2fx)\n",
              concurrent.makespan_s * 1e6, 100.0 * concurrent.utilization(),
              serial.makespan_s / concurrent.makespan_s);

  const vgpu::PerfCounters totals = concurrent.total_counters();
  std::printf("\ncounters: %llu threads, %llu transactions, SIMD efficiency "
              "%.1f%% (lane-0 reduction is deliberately divergent)\n",
              static_cast<unsigned long long>(totals.threads),
              static_cast<unsigned long long>(totals.global_transactions),
              100.0 * totals.simd_efficiency());
  std::printf("\n%s\n", concurrent.render_trace(80).c_str());

  if (!trace_out.empty()) {
    obs::TraceSession session;
    session.add_timeline("serial", serial);
    session.add_timeline("concurrent", concurrent);
    session.write_file(trace_out);
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::Registry registry;
    obs::publish_timeline(registry, serial, {{"mode", "serial"}});
    obs::publish_timeline(registry, concurrent, {{"mode", "concurrent"}});
    registry.write_file(metrics_out);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!profile_out.empty()) {
    profiler.snapshot("playground").write_file(profile_out);
    std::printf("kernel profile written to %s (inspect with "
                "`fdet_report show %s`)\n",
                profile_out.c_str(), profile_out.c_str());
  }
  return 0;
}
