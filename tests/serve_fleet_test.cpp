#include "serve/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/check.h"
#include "facegen/dataset.h"
#include "obs/metrics.h"
#include "train/boost.h"
#include "video/decoder.h"

namespace fdet::serve {
namespace {

/// Small trained cascade shared by the fleet tests (trained once).
const haar::Cascade& fleet_cascade() {
  static const haar::Cascade cascade = [] {
    const auto set = facegen::build_training_set(200, 30, 64, 2024);
    train::TrainOptions options;
    options.stage_sizes = {6, 10, 14};
    options.feature_pool = 300;
    options.negatives_per_stage = 250;
    options.stage_hit_target = 0.99;
    options.seed = 11;
    return train::train_cascade(set, options, "fleet-test").cascade;
  }();
  return cascade;
}

const ingest::H264FrameSource& fleet_source() {
  static const video::SyntheticTrailer trailer = [] {
    video::TrailerSpec spec;
    spec.title = "fleet-test";
    spec.width = 96;
    spec.height = 72;
    spec.frames = 12;
    spec.shot_frames = 6;
    spec.seed = 9;
    return video::SyntheticTrailer(spec);
  }();
  static const video::MockH264Decoder decoder(trailer);
  static const ingest::H264FrameSource source(decoder);
  return source;
}

FleetOptions generous_options() {
  FleetOptions options;
  options.devices = 2;
  options.deadline_ms = 500.0;  // far above the tiny-frame envelope
  return options;
}

/// Builds the standard test fleet: gold + best-effort tenants, three
/// streams each, all over the shared source at 20 fps.
void add_test_streams(FleetScheduler& fleet, int per_tenant = 3,
                      int frames = 10) {
  const int gold = fleet.add_tenant({"gold", QosClass::kGold, {}});
  const int effort =
      fleet.add_tenant({"best-effort", QosClass::kBestEffort, {}});
  for (int i = 0; i < per_tenant; ++i) {
    fleet.add_stream(gold, fleet_source(), 20.0, frames);
    fleet.add_stream(effort, fleet_source(), 20.0, frames);
  }
}

TEST(FleetScheduler, CleanRunServesEveryFrameDeterministically) {
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {},
                       generous_options());
  add_test_streams(fleet);
  const FleetReport a = fleet.run();
  const FleetReport b = fleet.run();

  ASSERT_EQ(a.frames.size(), 60u);
  EXPECT_EQ(a.served, 60);
  EXPECT_EQ(a.dropped + a.failed + a.admission_rejected, 0);
  EXPECT_EQ(a.stranded, 0);
  EXPECT_EQ(a.failovers, 0);
  EXPECT_EQ(a.device_faults, 0);
  EXPECT_EQ(a.deadline_misses, 0);
  // Same-phase streams on the same device fuse into batches.
  EXPECT_GT(a.batches, 0);
  ASSERT_EQ(b.frames.size(), a.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].status, b.frames[i].status);
    EXPECT_DOUBLE_EQ(a.frames[i].latency_ms, b.frames[i].latency_ms);
    ASSERT_EQ(a.frames[i].detections.size(), b.frames[i].detections.size());
  }
  // The (stream, index) lookup works and frames carry their identity.
  const FleetFrame* frame = a.frame(2, 5);
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->stream, 2);
  EXPECT_EQ(frame->index, 5);
  EXPECT_EQ(a.frame(99, 0), nullptr);
}

TEST(FleetScheduler, FrameOrderIsPreservedPerStream) {
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {},
                       generous_options());
  add_test_streams(fleet);
  const FleetReport report = fleet.run();

  std::map<int, double> last_completion;
  for (const FleetFrame& frame : report.frames) {
    if (frame.status != FrameStatus::kOk &&
        frame.status != FrameStatus::kDegraded) {
      continue;
    }
    const auto it = last_completion.find(frame.stream);
    if (it != last_completion.end()) {
      EXPECT_GE(frame.completion_s, it->second)
          << "stream " << frame.stream << " frame " << frame.index
          << " completed before its predecessor";
    }
    last_completion[frame.stream] = frame.completion_s;
  }
}

TEST(FleetScheduler, AdmissionControlRejectsWithTypedError) {
  obs::Registry registry;
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {},
                       generous_options(), &registry);
  TenantSpec throttled{"throttled", QosClass::kSilver, {}};
  throttled.admission.rate_per_s = 2.0;  // stream runs at 20 fps
  throttled.admission.burst = 1.0;
  const int tenant = fleet.add_tenant(throttled);
  fleet.add_stream(tenant, fleet_source(), 20.0, 10);
  const FleetReport report = fleet.run();

  EXPECT_GT(report.admission_rejected, 0);
  EXPECT_EQ(report.admitted + report.admission_rejected, 10);
  EXPECT_EQ(report.stranded, 0);
  const TenantReport& tr = report.tenants[0];
  EXPECT_EQ(tr.admission_rejected, report.admission_rejected);
  int typed = 0;
  for (const FleetFrame& frame : report.frames) {
    if (frame.status != FrameStatus::kAdmissionRejected) {
      continue;
    }
    ++typed;
    ASSERT_TRUE(frame.error.has_value());
    EXPECT_EQ(frame.error->cls, ErrorClass::kRejected);
    EXPECT_EQ(frame.error->stage, "admission");
    EXPECT_TRUE(frame.detections.empty());
  }
  EXPECT_EQ(typed, report.admission_rejected);
  // The rejection reaches the metrics registry, labeled by tenant.
  bool exported = false;
  for (const auto& sample : registry.samples()) {
    if (sample.name != "serve.fleet.admission_rejects") {
      continue;
    }
    exported = true;
    EXPECT_DOUBLE_EQ(sample.value,
                     static_cast<double>(report.admission_rejected));
  }
  EXPECT_TRUE(exported);
}

TEST(FleetScheduler, DeviceLossFailsOverWithIdenticalDetections) {
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {},
                       generous_options());
  add_test_streams(fleet);
  const FleetReport clean = fleet.run();
  // Drop device 0 mid-service of a known dispatch: both runs are
  // identical up to the loss instant, so the midpoint of a clean frame's
  // (arrival, completion) is guaranteed to tear in-flight work.
  const FleetFrame* victim = nullptr;
  for (const FleetFrame& f : clean.frames) {
    if (f.device == 0 && f.status == FrameStatus::kOk && f.index >= 3) {
      victim = &f;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  DeviceFaultSpec spec;
  spec.kind = DeviceFaultKind::kDeviceLost;
  spec.device = 0;
  spec.start_s = 0.5 * (victim->arrival_s + victim->completion_s);
  spec.duration_s = 0.15;
  const DeviceFaultPlan plan(7, {spec});
  const FleetReport faulted = fleet.run(&plan);

  EXPECT_EQ(faulted.device_faults, 1);
  EXPECT_GT(faulted.failovers, 0);
  EXPECT_EQ(faulted.stranded, 0);
  EXPECT_EQ(faulted.failed, 0);
  EXPECT_EQ(clean.failovers, 0);
  ASSERT_EQ(faulted.frames.size(), clean.frames.size());
  int failed_over = 0;
  for (std::size_t i = 0; i < faulted.frames.size(); ++i) {
    const FleetFrame& f = faulted.frames[i];
    const FleetFrame& c = clean.frames[i];
    if (f.failed_over) {
      ++failed_over;
      // Failover re-dispatches solo: never batched across streams.
      EXPECT_EQ(f.batch_size, 1);
    }
    // Detection identity survives failover: both runs served everything
    // at full quality, so every frame must match byte for byte.
    if (f.status != FrameStatus::kOk || c.status != FrameStatus::kOk) {
      continue;
    }
    ASSERT_EQ(f.detections.size(), c.detections.size());
    for (std::size_t d = 0; d < f.detections.size(); ++d) {
      EXPECT_EQ(f.detections[d].box, c.detections[d].box);
      EXPECT_EQ(f.detections[d].score, c.detections[d].score);
      EXPECT_EQ(f.detections[d].neighbors, c.detections[d].neighbors);
      EXPECT_EQ(f.detections[d].scale_index, c.detections[d].scale_index);
    }
  }
  EXPECT_GT(failed_over, 0);
  // The lost device ends in probation or healthy, never stuck lost.
  EXPECT_NE(faulted.devices[0].final_state, DeviceState::kLost);
}

TEST(FleetScheduler, HangIsDeclaredLostByTheWatchdog) {
  FleetOptions options = generous_options();
  options.hang_watchdog_ms = 20.0;
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {}, options);
  add_test_streams(fleet);
  // Hang long enough that the watchdog must fire first.
  const DeviceFaultPlan plan =
      DeviceFaultPlan::parse("device-hang@0:0.1+0.25", 7);
  const FleetReport report = fleet.run(&plan);

  EXPECT_EQ(report.device_faults, 1);
  EXPECT_EQ(report.watchdog_fires, 1);
  EXPECT_EQ(report.stranded, 0);
  EXPECT_NE(report.devices[0].final_state, DeviceState::kLost);
}

TEST(FleetScheduler, DeviceSlowInflatesServiceTime) {
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {},
                       generous_options());
  add_test_streams(fleet);
  const FleetReport clean = fleet.run();
  const DeviceFaultPlan plan =
      DeviceFaultPlan::parse("device-slow@0:0+10*8", 7);
  const FleetReport slowed = fleet.run(&plan);

  EXPECT_EQ(slowed.stranded, 0);
  int slow_frames = 0;
  double clean_max = 0.0;
  double slowed_max = 0.0;
  for (std::size_t i = 0; i < slowed.frames.size(); ++i) {
    slow_frames += slowed.frames[i].fault_injected ? 1 : 0;
    clean_max = std::max(clean_max, clean.frames[i].latency_ms);
    slowed_max = std::max(slowed_max, slowed.frames[i].latency_ms);
  }
  EXPECT_GT(slow_frames, 0);
  EXPECT_GT(slowed_max, clean_max);
}

TEST(FleetScheduler, SheddingDrainsBestEffortBeforeGold) {
  FleetOptions options = generous_options();
  options.deadline_ms = 1e-3;  // unmeetable: sustained overload
  options.shed_cooldown_s = 0.0;
  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {}, options);
  const int gold = fleet.add_tenant({"gold", QosClass::kGold, {}});
  const int silver = fleet.add_tenant({"silver", QosClass::kSilver, {}});
  const int effort =
      fleet.add_tenant({"best-effort", QosClass::kBestEffort, {}});
  for (int i = 0; i < 2; ++i) {
    fleet.add_stream(gold, fleet_source(), 20.0, 8);
    fleet.add_stream(silver, fleet_source(), 20.0, 8);
    fleet.add_stream(effort, fleet_source(), 20.0, 8);
  }
  const FleetReport report = fleet.run();

  EXPECT_GT(report.shed_steps, 0);
  EXPECT_EQ(report.stranded, 0);
  // Shed ordering: lower classes always at least as degraded as higher.
  EXPECT_GE(report.tenants[2].max_shed_level,
            report.tenants[1].max_shed_level);
  EXPECT_GE(report.tenants[1].max_shed_level,
            report.tenants[0].max_shed_level);
  EXPECT_GT(report.tenants[2].max_shed_level, 0);
}

TEST(TokenBucketTest, RefillsAtRateAndCapsAtBurst) {
  AdmissionOptions options;
  options.rate_per_s = 2.0;
  options.burst = 2.0;
  TokenBucket bucket(options);
  EXPECT_TRUE(bucket.try_admit(0.0));   // burst token 1
  EXPECT_TRUE(bucket.try_admit(0.0));   // burst token 2
  EXPECT_FALSE(bucket.try_admit(0.0));  // empty
  EXPECT_FALSE(bucket.try_admit(0.25)); // refilled 0.5, below one token
  EXPECT_TRUE(bucket.try_admit(0.5));   // refilled to 1.0
  // Idle refill caps at burst: two tokens, not twenty.
  EXPECT_TRUE(bucket.try_admit(100.0));
  EXPECT_TRUE(bucket.try_admit(100.0));
  EXPECT_FALSE(bucket.try_admit(100.0));
  // Time never runs backwards for the bucket.
  EXPECT_FALSE(bucket.try_admit(99.0));
}

TEST(FleetParsing, TenantMixRoundTripsAndRejectsGarbage) {
  const auto mix = parse_tenant_mix("gold:2,silver:1,best-effort:5");
  ASSERT_EQ(mix.size(), 3u);
  EXPECT_EQ(mix[0].spec.cls, QosClass::kGold);
  EXPECT_EQ(mix[0].streams, 2);
  EXPECT_EQ(mix[1].spec.cls, QosClass::kSilver);
  EXPECT_EQ(mix[2].spec.cls, QosClass::kBestEffort);
  EXPECT_EQ(mix[2].streams, 5);
  for (const auto& entry : mix) {
    EXPECT_EQ(parse_qos_class(qos_class_name(entry.spec.cls)),
              entry.spec.cls);
  }
  EXPECT_THROW(parse_tenant_mix(""), core::CheckError);
  EXPECT_THROW(parse_tenant_mix("gold"), core::CheckError);
  EXPECT_THROW(parse_tenant_mix("platinum:2"), core::CheckError);
  EXPECT_THROW(parse_tenant_mix("gold:0"), core::CheckError);
  EXPECT_THROW(parse_tenant_mix("gold:x"), core::CheckError);
}

TEST(FleetScheduler, RejectsUnusableConfiguration) {
  FleetOptions no_devices = generous_options();
  no_devices.devices = 0;
  EXPECT_THROW(FleetScheduler(vgpu::DeviceSpec{}, fleet_cascade(), {},
                              no_devices),
               core::CheckError);
  FleetOptions no_deadline = generous_options();
  no_deadline.deadline_ms = 0.0;
  EXPECT_THROW(FleetScheduler(vgpu::DeviceSpec{}, fleet_cascade(), {},
                              no_deadline),
               core::CheckError);

  FleetScheduler fleet(vgpu::DeviceSpec{}, fleet_cascade(), {},
                       generous_options());
  EXPECT_THROW(fleet.add_stream(0, fleet_source(), 20.0, 4),
               core::CheckError);  // no such tenant
  const int tenant = fleet.add_tenant({"t", QosClass::kGold, {}});
  EXPECT_THROW(fleet.add_stream(tenant, fleet_source(), 0.0, 4),
               core::CheckError);  // fps
  EXPECT_THROW(fleet.add_stream(tenant, fleet_source(), 20.0, 99),
               core::CheckError);  // more frames than the source has
  EXPECT_THROW(fleet.run(), core::CheckError);  // no streams
  fleet.add_stream(tenant, fleet_source(), 20.0, 4);
  const DeviceFaultPlan plan =
      DeviceFaultPlan::parse("device-lost@7:1+1", 3);
  EXPECT_THROW(fleet.run(&plan), core::CheckError);  // no device 7
}

}  // namespace
}  // namespace fdet::serve
