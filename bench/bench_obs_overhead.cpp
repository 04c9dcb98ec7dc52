// Observability overhead gate: serves the same faulted stream twice —
// once with the full observability layer (tracing, flight recorder, SLO
// engine, metrics) and once with all of it off — and gates the median
// virtual per-frame latency delta under 5%. A second arm repeats the
// contrast for the kernel profiler (obs/profile.h): collection scope on
// vs. no profiler observing, same budget.
//
// The observability layer charges no virtual time, so on the simulator
// the delta is deterministically 0: this gate fires if instrumentation
// ever perturbs the modeled latencies (e.g. an anomaly hook that charges
// time or reorders service work). Host wall time for each pass is
// recorded as informational `obs.overhead.host_wall_*` series, which the
// baseline comparator ignores by name.
#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "ingest/frame_source.h"
#include "serve/service.h"

namespace {

/// Runs `body` on a fresh thread and waits for it, rethrowing what it
/// threw. The thread's launch-observer chain (vgpu/observer.h) starts
/// empty, so none of the observers installed on the calling thread —
/// RunRecorder's ambient profiler included — see its launches.
template <typename Body>
void run_unobserved(const Body& body) {
  std::exception_ptr error;
  std::thread worker([&body, &error] {
    try {
      body();
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) {
    std::rethrow_exception(error);
  }
}

double median(std::vector<double> values) {
  FDET_CHECK(!values.empty()) << "no latency samples";
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fdet;
  int frames = 72;
  int width = 320;
  int height = 240;
  double deadline_ms = 40.0;
  std::string faults =
      "decode@6x2,corrupt@12,launch@18x2,const@26,shared@34,"
      "decode@44x3,decode@45x3,decode@46x3";
  double seed = 20120926;
  double budget_pct = 5.0;
  std::string cache_dir = bench::kDefaultCacheDir;
  bench::RunRecorder run("obs_overhead");
  core::Cli cli("bench_obs_overhead");
  cli.flag("frames", frames, "frames to stream through the service");
  cli.flag("width", width, "trailer width");
  cli.flag("height", height, "trailer height");
  cli.flag("deadline-ms", deadline_ms, "per-frame latency budget");
  cli.flag("faults", faults, "fault plan spec (see serve/faults.h)");
  cli.flag("seed", seed, "fault-plan + jitter seed");
  cli.flag("budget-pct", budget_pct,
           "gate: tolerated median virtual-latency delta, percent");
  cli.flag("cache-dir", cache_dir, "trained-cascade cache directory");
  run.add_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  bench::print_header("obs overhead",
                      "recorder+SLO cost on the serving path, gated <5%");

  const train::CascadePair pair = bench::load_cascades(cache_dir);
  const vgpu::DeviceSpec spec;

  // Same 50/50 trailer preset as bench_fig5_frame_latency: the overhead
  // is measured on the paper's per-frame latency workload.
  video::TrailerSpec preset = video::table2_trailers(frames, width, height)[1];
  preset.shot_frames = std::max(1, frames / 6);
  const video::SyntheticTrailer trailer(preset);
  const video::MockH264Decoder decoder(trailer);
  const ingest::H264FrameSource source(decoder);
  const auto plan =
      serve::FaultPlan::parse(faults, static_cast<std::uint64_t>(seed));

  serve::ServiceOptions on_opts;
  on_opts.deadline_ms = deadline_ms;
  on_opts.seed = static_cast<std::uint64_t>(seed);

  serve::ServiceOptions off_opts = on_opts;
  off_opts.obs.tracing = false;
  off_opts.obs.flight_recorder = false;

  for (int rep = 0; rep < run.repeats(); ++rep) {
    run.begin_repeat(rep);

    core::Stopwatch on_watch;
    serve::StreamingService on(spec, pair.ours, {}, on_opts, &run.metrics());
    const serve::ServiceReport with_obs = on.run(source, frames, &plan);
    const double on_host_s = on_watch.elapsed_seconds();

    core::Stopwatch off_watch;
    serve::StreamingService off(spec, pair.ours, {}, off_opts, nullptr);
    const serve::ServiceReport without_obs = off.run(source, frames, &plan);
    const double off_host_s = off_watch.elapsed_seconds();

    FDET_CHECK(with_obs.frames.size() == without_obs.frames.size())
        << "obs-on and obs-off runs served different frame counts";
    std::vector<double> on_ms;
    std::vector<double> off_ms;
    double max_frame_delta_ms = 0.0;
    for (std::size_t i = 0; i < with_obs.frames.size(); ++i) {
      on_ms.push_back(with_obs.frames[i].latency_ms);
      off_ms.push_back(without_obs.frames[i].latency_ms);
      max_frame_delta_ms =
          std::max(max_frame_delta_ms,
                   std::abs(on_ms.back() - off_ms.back()));
    }
    const double on_median = median(on_ms);
    const double off_median = median(off_ms);
    const double delta_pct =
        100.0 * std::abs(on_median - off_median) / off_median;

    if (rep == 0) {
      core::Table table({"quantity", "obs on", "obs off"});
      table.add_row({"median latency (ms)", core::Table::num(on_median),
                     core::Table::num(off_median)});
      table.add_row({"max latency (ms)",
                     core::Table::num(with_obs.max_latency_ms),
                     core::Table::num(without_obs.max_latency_ms)});
      table.add_row({"deadline misses",
                     std::to_string(with_obs.deadline_misses),
                     std::to_string(without_obs.deadline_misses)});
      table.add_row({"host wall (s)", core::Table::num(on_host_s),
                     core::Table::num(off_host_s)});
      table.print(std::cout);
      std::printf("\nmedian virtual-latency delta: %.6f%% (budget %.1f%%), "
                  "max per-frame delta %.6f ms\n",
                  delta_pct, budget_pct, max_frame_delta_ms);
    }

    run.metrics().gauge("obs.overhead.median_latency_delta_pct")
        .set(delta_pct);
    run.metrics().gauge("obs.overhead.max_frame_delta_ms")
        .set(max_frame_delta_ms);
    run.metrics().gauge("obs.overhead.host_wall_s", {{"obs", "on"}})
        .set(on_host_s);
    run.metrics().gauge("obs.overhead.host_wall_s", {{"obs", "off"}})
        .set(off_host_s);

    FDET_CHECK(delta_pct < budget_pct)
        << "observability layer perturbs virtual latency: median delta "
        << delta_pct << "% exceeds the " << budget_pct << "% budget";

    // Kernel-profiler arm of the same gate: the obs-off service once
    // under an explicit collection scope, once with no profiler observing.
    // Both run on fresh threads, so RunRecorder's ambient profiler sees
    // neither. The profiler observes launches strictly after their cost is
    // computed, so the virtual latencies must be bit-identical.
    obs::KernelProfiler profiler;
    std::vector<double> prof_on_ms;
    run_unobserved([&] {
      const obs::ScopedProfileCollection prof_scope(profiler);
      serve::StreamingService svc(spec, pair.ours, {}, off_opts, nullptr);
      const serve::ServiceReport r = svc.run(source, frames, &plan);
      for (const serve::ServedFrame& frame : r.frames) {
        prof_on_ms.push_back(frame.latency_ms);
      }
    });
    std::vector<double> prof_off_ms;
    run_unobserved([&] {
      serve::StreamingService svc(spec, pair.ours, {}, off_opts, nullptr);
      const serve::ServiceReport r = svc.run(source, frames, &plan);
      for (const serve::ServedFrame& frame : r.frames) {
        prof_off_ms.push_back(frame.latency_ms);
      }
    });
    FDET_CHECK(profiler.launches() > 0)
        << "profiler-on pass observed no kernel launches";
    const double prof_on_median = median(prof_on_ms);
    const double prof_off_median = median(prof_off_ms);
    const double prof_delta_pct =
        100.0 * std::abs(prof_on_median - prof_off_median) / prof_off_median;
    if (rep == 0) {
      std::printf("profiler on/off median latency: %.4f / %.4f ms, delta "
                  "%.6f%% (budget %.1f%%; %llu launches profiled)\n",
                  prof_on_median, prof_off_median, prof_delta_pct, budget_pct,
                  static_cast<unsigned long long>(profiler.launches()));
    }
    run.metrics().gauge("obs.overhead.profiler_latency_delta_pct")
        .set(prof_delta_pct);
    FDET_CHECK(prof_delta_pct < budget_pct)
        << "kernel profiler perturbs virtual latency: median delta "
        << prof_delta_pct << "% exceeds the " << budget_pct << "% budget";
  }
  return run.finish();
}
