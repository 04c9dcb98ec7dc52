// End-to-end observability smoke: run a real (small) detection frame with
// the trace session installed, write the trace and the run record, and
// re-read both through their loaders — the same validation the
// bench_trace_smoke ctest target performs on bench_fig6_kernel_trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/rng.h"
#include "detect/pipeline.h"
#include "haar/profile.h"
#include "integral/integral.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/runrecord.h"
#include "obs/trace.h"

namespace fdet {
namespace {

haar::Cascade smoke_cascade() {
  core::Rng rng(11);
  img::ImageU8 scene(160, 120);
  for (auto& p : scene.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const auto ii = integral::integral_cpu(scene);
  haar::Cascade cascade = haar::build_profile_cascade(
      "smoke", std::vector<int>{6, 8, 10}, /*seed=*/11);
  haar::calibrate_stage_thresholds(cascade, {&ii},
                                   std::vector<double>{0.3, 0.4, 0.5}, 2);
  return cascade;
}

TEST(ObsSmoke, TracedPipelineFrameWritesValidArtifacts) {
  obs::TraceSession session;
  session.install();

  const vgpu::DeviceSpec spec;
  const detect::Pipeline pipeline(spec, smoke_cascade(), {});
  img::ImageU8 frame(96, 72);
  core::Rng rng(3);
  for (auto& p : frame.pixels()) {
    p = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const auto [concurrent, serial] = pipeline.process_dual(frame);

  // The pipeline's internal ScopedSpans must have landed on the host track.
  int host_spans = 0;
  for (const obs::TraceEvent& event : session.events()) {
    host_spans += (event.pid == 0 && event.phase == 'X');
  }
  EXPECT_GT(host_spans, 0) << "pipeline stages did not hit the ambient session";

  session.add_timeline("concurrent", concurrent.timeline);
  session.add_timeline("serial", serial.timeline);

  obs::Registry metrics;
  concurrent.publish_metrics(metrics, {{"mode", "concurrent"}});
  serial.publish_metrics(metrics, {{"mode", "serial"}});

  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/obs_smoke.trace.json";
  const std::string record_path = dir + "/obs_smoke.record.json";
  session.write_file(trace_path);
  obs::build_run_record("smoke", {}, metrics).write_file(record_path);

  // Trace: parses, and holds both device processes plus host spans.
  const obs::json::Value trace = obs::json::parse_file(trace_path);
  bool saw_host = false, saw_concurrent = false, saw_serial = false;
  for (const obs::json::Value& event : trace.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() == "M" &&
        event.at("name").as_string() == "process_name") {
      const std::string& name = event.at("args").at("name").as_string();
      saw_host |= name == "host";
      saw_concurrent |= name == "vgpu:concurrent";
      saw_serial |= name == "vgpu:serial";
    }
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_concurrent);
  EXPECT_TRUE(saw_serial);

  // Record: loads, and carries the paper's profiler quantities for both
  // execution modes.
  const obs::RunRecord record = obs::RunRecord::load_file(record_path);
  const char* required[] = {"vgpu.branch_efficiency", "vgpu.simd_efficiency",
                            "vgpu.dram_read_gbps", "vgpu.makespan_ms",
                            "vgpu.sm_utilization"};
  for (const char* name : required) {
    for (const char* mode : {"concurrent", "serial"}) {
      EXPECT_NE(record.find(name, {{"mode", mode}}), nullptr)
          << name << " missing for mode=" << mode;
    }
  }

  std::remove(trace_path.c_str());
  std::remove(record_path.c_str());
  session.uninstall();
}

}  // namespace
}  // namespace fdet
