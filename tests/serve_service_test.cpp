#include "serve/service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "core/check.h"
#include "facegen/dataset.h"
#include "ingest/frame_source.h"
#include "ingest/lossy.h"
#include "ingest/mutate.h"
#include "ingest/registry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "train/boost.h"
#include "video/decoder.h"

namespace fdet::serve {
namespace {

/// Small trained cascade shared by the service tests (trained once).
const haar::Cascade& service_cascade() {
  static const haar::Cascade cascade = [] {
    const auto set = facegen::build_training_set(200, 30, 64, 2024);
    train::TrainOptions options;
    options.stage_sizes = {6, 10, 14};
    options.feature_pool = 300;
    options.negatives_per_stage = 250;
    options.stage_hit_target = 0.99;
    options.seed = 11;
    return train::train_cascade(set, options, "serve-test").cascade;
  }();
  return cascade;
}

video::MockH264Decoder test_decoder() {
  static const video::SyntheticTrailer trailer = [] {
    video::TrailerSpec spec;
    spec.title = "serve-test";
    spec.width = 160;
    spec.height = 120;
    spec.frames = 24;
    spec.shot_frames = 8;
    spec.face_density = 1.5;
    spec.seed = 9;
    return video::SyntheticTrailer(spec);
  }();
  return video::MockH264Decoder(trailer);
}

ServiceOptions generous_options() {
  ServiceOptions options;
  options.deadline_ms = 50.0;  // far above the tiny-frame latency envelope
  return options;
}

TEST(StreamingService, FaultFreeRunServesEveryFrameDeterministically) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const ServiceReport a = service.run(source, 8);
  const ServiceReport b = service.run(source, 8);

  ASSERT_EQ(a.frames.size(), 8u);
  EXPECT_EQ(a.ok, 8);
  EXPECT_EQ(a.failed + a.dropped + a.degraded, 0);
  EXPECT_EQ(a.faults_injected, 0);
  EXPECT_EQ(a.final_degradation_level, 0);
  ASSERT_EQ(b.frames.size(), a.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].status, b.frames[i].status);
    EXPECT_DOUBLE_EQ(a.frames[i].latency_ms, b.frames[i].latency_ms);
    ASSERT_EQ(a.frames[i].detections.size(), b.frames[i].detections.size());
    for (std::size_t d = 0; d < a.frames[i].detections.size(); ++d) {
      EXPECT_EQ(a.frames[i].detections[d].box, b.frames[i].detections[d].box);
    }
  }
}

/// First modeled field on which two reports disagree ("" when none):
/// per-frame status, latency_ms and detect_ms, and the deadline misses.
/// Exact comparison — the modeled clock is deterministic.
std::string modeled_mismatch(const ServiceReport& a, const ServiceReport& b) {
  if (a.frames.size() != b.frames.size()) {
    return "frame count";
  }
  if (a.deadline_misses != b.deadline_misses) {
    return "deadline_misses";
  }
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    const std::string frame = "frame " + std::to_string(i) + " ";
    if (a.frames[i].status != b.frames[i].status) {
      return frame + "status";
    }
    if (a.frames[i].latency_ms != b.frames[i].latency_ms) {
      return frame + "latency_ms";
    }
    if (a.frames[i].detect_ms != b.frames[i].detect_ms) {
      return frame + "detect_ms";
    }
  }
  return "";
}

TEST(StreamingService, ObservabilityChargesNoModeledTime) {
  // One faulted stream served four ways — tracing and the flight recorder
  // on or off, a KernelProfiler collecting or not — must give the same
  // modeled report bit for bit. (Host overhead is perfbench's
  // obs.host_overhead_ratio.)
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  const FaultPlan plan = FaultPlan::parse("decode@2x2,launch@5,corrupt@8", 1);
  ServiceOptions obs_on;
  obs_on.deadline_ms = 2.0;  // tight enough that retried frames miss
  ServiceOptions obs_off = obs_on;
  obs_off.obs.tracing = false;
  obs_off.obs.flight_recorder = false;

  const auto serve = [&](const ServiceOptions& options) {
    StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                             options);
    return service.run(source, 12, &plan);
  };
  const ServiceReport reference = serve(obs_off);
  ASSERT_EQ(reference.faults_injected, 3);
  ASSERT_GT(reference.deadline_misses, 0);

  EXPECT_EQ(modeled_mismatch(reference, serve(obs_on)), "");
  obs::KernelProfiler profiler;
  {
    const obs::ScopedProfileCollection collect(profiler);
    EXPECT_EQ(modeled_mismatch(reference, serve(obs_off)), "");
    EXPECT_EQ(modeled_mismatch(reference, serve(obs_on)), "");
  }
  EXPECT_GT(profiler.launches(), 0u);

  // The comparison can fail: one ulp on one frame's latency is caught.
  ServiceReport nudged = reference;
  nudged.frames[4].latency_ms =
      std::nextafter(nudged.frames[4].latency_ms, 1e9);
  EXPECT_EQ(modeled_mismatch(reference, nudged), "frame 4 latency_ms");
}

TEST(StreamingService, TransientDecodeFaultRetriesAndRecovers) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const FaultPlan plan = FaultPlan::parse("decode@2x2", 1);
  const ServiceReport report = service.run(source, 6, &plan);

  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.faults_injected, 1);
  const ServedFrame& frame = report.frames[2];
  EXPECT_EQ(frame.status, FrameStatus::kOk);
  EXPECT_EQ(frame.retries, 2);
  EXPECT_GT(frame.backoff_ms, 0.0);
  EXPECT_TRUE(frame.fault_injected);
}

TEST(StreamingService, ExhaustedRetriesQuarantineTheFrame) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  ServiceOptions options = generous_options();
  options.retry.max_attempts = 2;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           options);
  const FaultPlan plan = FaultPlan::parse("decode@1x2", 1);
  const ServiceReport report = service.run(source, 4, &plan);

  const ServedFrame& frame = report.frames[1];
  EXPECT_EQ(frame.status, FrameStatus::kFailed);
  ASSERT_TRUE(frame.error.has_value());
  EXPECT_EQ(frame.error->stage, "decode");
  EXPECT_EQ(frame.error->cls, ErrorClass::kTransient);
  EXPECT_EQ(frame.error->attempts, 2);
  // Quarantine is per frame: the stream carries on.
  EXPECT_EQ(report.frames[2].status, FrameStatus::kOk);
  EXPECT_EQ(report.frames[3].status, FrameStatus::kOk);
}

TEST(StreamingService, HardOverflowFaultQuarantinesWithoutRetry) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const FaultPlan plan = FaultPlan::parse("const@1", 1);
  const ServiceReport report = service.run(source, 4, &plan);

  const ServedFrame& frame = report.frames[1];
  EXPECT_EQ(frame.status, FrameStatus::kFailed);
  ASSERT_TRUE(frame.error.has_value());
  EXPECT_EQ(frame.error->stage, "detect");
  EXPECT_EQ(frame.error->cls, ErrorClass::kResource);
  EXPECT_EQ(frame.retries, 0);  // hard faults are not retried
  EXPECT_EQ(report.frames[2].status, FrameStatus::kOk);
}

TEST(StreamingService, CorruptLumaStillServesTheFrame) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const FaultPlan plan = FaultPlan::parse("corrupt@1", 1);
  const ServiceReport report = service.run(source, 3, &plan);

  EXPECT_EQ(report.frames[1].status, FrameStatus::kOk);
  EXPECT_TRUE(report.frames[1].fault_injected);
  EXPECT_EQ(report.failed, 0);
}

TEST(StreamingService, BreakerTripsFailsFastAndRecoversToFullQuality) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  ServiceOptions options = generous_options();
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_frames = 2;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           options);
  // Three consecutive frames exhaust their decode retries -> breaker trips.
  const FaultPlan plan =
      FaultPlan::parse("decode@2x3,decode@3x3,decode@4x3", 1);
  const ServiceReport report = service.run(source, 20, &plan);

  EXPECT_EQ(report.breaker_trips, 1);
  // Cooling down: the frame after the trip is rejected without running.
  const ServedFrame& rejected = report.frames[5];
  EXPECT_EQ(rejected.status, FrameStatus::kFailed);
  ASSERT_TRUE(rejected.error.has_value());
  EXPECT_NE(rejected.error->message.find("breaker"), std::string::npos);
  // The trip forces the serial-exec rung while the stage is unhealthy.
  EXPECT_TRUE(DegradationLadder::step_at(report.frames[6].degradation_level)
                  .serial_exec);
  // The half-open probe succeeds and the ladder climbs all the way back.
  EXPECT_EQ(report.final_degradation_level, 0);
  EXPECT_EQ(service.decode_breaker(), BreakerState::kClosed);
  EXPECT_EQ(report.frames.back().status, FrameStatus::kOk);
  EXPECT_LE(report.max_consecutive_unserved, 4);
}

TEST(StreamingService, DeadlineMissesWalkTheDegradationLadder) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  ServiceOptions options;
  options.deadline_ms = 1e-3;  // unmeetable: every served frame misses
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           options);
  const ServiceReport report = service.run(source, 10);

  EXPECT_EQ(report.final_degradation_level, DegradationLadder::max_level());
  EXPECT_GT(report.deadline_misses, 0);
  EXPECT_GT(report.degraded, 0);
  // Level rises monotonically here (nothing ever recovers).
  for (std::size_t i = 1; i < report.frames.size(); ++i) {
    EXPECT_GE(report.frames[i].degradation_level,
              report.frames[i - 1].degradation_level);
  }
}

TEST(StreamingService, BackpressureDropsFramesWhenTheQueueFills) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  ServiceOptions options = generous_options();
  options.fps = 100000.0;  // arrivals far faster than service time
  options.queue_capacity = 2;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           options);
  const ServiceReport report = service.run(source, 12);

  EXPECT_GT(report.dropped, 0);
  EXPECT_GT(report.ok + report.degraded, 0);  // not everything is shed
  for (const ServedFrame& frame : report.frames) {
    if (frame.status == FrameStatus::kDropped) {
      EXPECT_GE(frame.queue_depth, options.queue_capacity);
      EXPECT_TRUE(frame.detections.empty());
    }
  }
}

TEST(StreamingService, PublishesServeMetrics) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  obs::Registry registry;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options(), &registry);
  const FaultPlan plan = FaultPlan::parse("decode@1x2,const@3", 1);
  service.run(source, 6, &plan);

  EXPECT_GT(registry.counter("serve.frames", {{"status", "ok"}}).value(), 0.0);
  EXPECT_GT(registry.counter("serve.retries", {{"stage", "decode"}}).value(),
            0.0);
  EXPECT_GT(
      registry.counter("serve.faults.injected", {{"kind", "decode"}}).value(),
      0.0);
  EXPECT_GT(
      registry.counter("serve.faults.recovered", {{"stage", "decode"}})
          .value(),
      0.0);
  EXPECT_GT(registry
                .counter("serve.frame_errors",
                         {{"stage", "detect"}, {"class", "resource"}})
                .value(),
            0.0);
  EXPECT_EQ(registry.gauge("serve.degradation.level").value(), 0.0);
}

TEST(StreamingService, FramesCarryDeterministicTraceIds) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const ServiceReport a = service.run(source, 4);
  const ServiceReport b = service.run(source, 4);
  ASSERT_EQ(a.frames.size(), 4u);
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_NE(a.frames[i].trace_id, 0u);
    EXPECT_EQ(a.frames[i].trace_id, b.frames[i].trace_id);
    // Derived from (ServiceOptions::seed, frame index), reproducibly.
    EXPECT_EQ(a.frames[i].trace_id,
              obs::make_frame_context(service.options().seed,
                                      static_cast<int>(i))
                  .trace_id);
    for (std::size_t j = i + 1; j < a.frames.size(); ++j) {
      EXPECT_NE(a.frames[i].trace_id, a.frames[j].trace_id);
    }
  }
  // Clean frames carry no cause chain.
  for (const ServedFrame& frame : a.frames) {
    EXPECT_TRUE(frame.cause.empty()) << frame.cause;
  }
}

TEST(StreamingService, CauseChainsNameTheFaultAndItsConsequences) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const FaultPlan plan = FaultPlan::parse("decode@2x1,const@4", 1);
  const ServiceReport report = service.run(source, 6, &plan);

  ASSERT_EQ(report.frames.size(), 6u);
  // Frame 2: transient decode fault -> retried.
  EXPECT_NE(report.frames[2].cause.find("fault:decode"), std::string::npos)
      << report.frames[2].cause;
  EXPECT_NE(report.frames[2].cause.find("retry:decode"), std::string::npos)
      << report.frames[2].cause;
  // Frame 4: hard overflow -> quarantined, chain oldest-first.
  const std::string& hard = report.frames[4].cause;
  EXPECT_NE(hard.find("fault:const"), std::string::npos) << hard;
  EXPECT_NE(hard.find("quarantine:detect"), std::string::npos) << hard;
  EXPECT_LT(hard.find("fault:const"), hard.find("quarantine:detect"));
}

TEST(StreamingService, AnomalyDumpsNameFrameStageAndCause) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fdet_service_dumps";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  ServiceOptions options = generous_options();
  options.obs.dump_dir = dir.string();
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           options);
  // A fault-free run first, on the same service: the faulted run's dumps
  // must hold none of its events (virtual time restarts at 0 each run).
  EXPECT_TRUE(service.run(source, 6).dumps.empty());
  const FaultPlan plan = FaultPlan::parse("const@3", 1);
  const ServiceReport report = service.run(source, 6, &plan);

  ASSERT_FALSE(report.dumps.empty());
  bool saw_quarantine = false;
  for (const AnomalyDump& dump : report.dumps) {
    EXPECT_EQ(dump.frame, 3);
    EXPECT_TRUE(fs::exists(dump.path)) << dump.path;
    const obs::json::Value doc = obs::json::parse_file(dump.path);
    const obs::json::Value& anomaly = doc.at("anomaly");
    EXPECT_DOUBLE_EQ(anomaly.at("frame").as_number(), 3.0);
    EXPECT_NE(anomaly.at("cause").as_string().find("fault:const"),
              std::string::npos);
    // The dump holds its own frame's span and nothing of a later frame.
    bool own_frame_span = false;
    for (const obs::json::Value& event : doc.at("traceEvents").as_array()) {
      const obs::json::Value* args = event.find("args");
      const obs::json::Value* frame =
          args == nullptr ? nullptr : args->find("frame");
      if (frame == nullptr) {
        continue;
      }
      EXPECT_LE(frame->as_number(), 3.0) << dump.path;
      own_frame_span |= frame->as_number() == 3.0 &&
                        args->at("kind").as_string() == "frame";
    }
    EXPECT_TRUE(own_frame_span) << dump.path;
    saw_quarantine |= anomaly.at("kind").as_string() == "quarantine";
    // The causal chain in the header matches the frame record.
    EXPECT_EQ(anomaly.at("cause").as_string(), report.frames[3].cause);
    EXPECT_EQ(anomaly.at("trace_id").as_string(),
              obs::hex_id(report.frames[3].trace_id));
  }
  EXPECT_TRUE(saw_quarantine);
  fs::remove_all(dir);
}

TEST(StreamingService, ReportSloSnapshotCoversServedFrames) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  obs::Registry registry;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options(), &registry);
  const ServiceReport report = service.run(source, 8);

  EXPECT_EQ(report.slo.frames, 8u);
  EXPECT_EQ(report.slo.misses, 0u);
  EXPECT_GT(report.slo.p50_ms, 0.0);
  EXPECT_GE(report.slo.p99_ms, report.slo.p50_ms);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.frames").value(), 8.0);
  EXPECT_DOUBLE_EQ(registry.gauge("slo.deadline_miss_ratio").value(), 0.0);
  EXPECT_GT(registry.gauge("slo.latency_p50_ms").value(), 0.0);
  EXPECT_GT(
      registry.gauge("slo.stage_p99_ms", {{"stage", "detect"}}).value(), 0.0);
}

/// The serve-test footage serialized into the raw byte-stream container,
/// so the service runs over a validating parser instead of the mock
/// hardware decoder.
std::string test_raw_stream() {
  video::TrailerSpec spec;
  spec.title = "serve-test";
  spec.width = 160;
  spec.height = 120;
  spec.frames = 24;
  spec.shot_frames = 8;
  spec.face_density = 1.5;
  spec.seed = 9;
  return ingest::encode_stream(ingest::Format::kRaw,
                               video::SyntheticTrailer(spec));
}

TEST(StreamingService, ByteStreamSourceServesLikeTheMockDecoder) {
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const auto source = ingest::open_stream(test_raw_stream());
  const ServiceReport report = service.run(*source, 6);
  EXPECT_EQ(report.ok, 6);
  EXPECT_EQ(report.ingest_rejects, 0);
  for (const ServedFrame& frame : report.frames) {
    EXPECT_GT(frame.decode_ms, 0.0);
  }
}

TEST(StreamingService, MalformedMidStreamBurstShedsAndRecovers) {
  ServiceOptions options = generous_options();
  options.breaker.failure_threshold = 3;
  options.breaker.cooldown_frames = 2;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           options);
  // Frames 4-6 arrive with flipped payload bytes; the raw container's
  // per-frame CRC turns each into a typed IngestError mid-stream.
  const ingest::CorruptingSource source(
      test_raw_stream(), ingest::CorruptPlan::parse("flip@4,flip@5,flip@6", 3));
  const ServiceReport report = service.run(source, 20);

  // Each malformed frame quarantines without retry (the bytes will not
  // get better) and counts as an ingest reject.
  EXPECT_EQ(report.ingest_rejects, 3);
  for (const int i : {4, 5, 6}) {
    const ServedFrame& frame = report.frames[static_cast<std::size_t>(i)];
    EXPECT_EQ(frame.status, FrameStatus::kFailed) << "frame " << i;
    ASSERT_TRUE(frame.error.has_value());
    EXPECT_EQ(frame.error->stage, "decode");
    EXPECT_EQ(frame.error->cls, ErrorClass::kMalformed);
    EXPECT_EQ(frame.retries, 0);
  }
  // The burst trips the decode breaker, which forces the serial-exec
  // rung while unhealthy; the stream then climbs back to full quality.
  EXPECT_EQ(report.breaker_trips, 1);
  ASSERT_TRUE(report.frames[7].error.has_value());
  EXPECT_NE(report.frames[7].error->message.find("breaker"),
            std::string::npos);
  EXPECT_TRUE(DegradationLadder::step_at(report.frames[8].degradation_level)
                  .serial_exec);
  EXPECT_EQ(report.final_degradation_level, 0);
  EXPECT_EQ(report.frames.back().status, FrameStatus::kOk);
  // Frames outside the burst are unaffected.
  EXPECT_EQ(report.frames[3].status, FrameStatus::kOk);
}

TEST(StreamingService, PublishesIngestMetricsPerFormatAndKind) {
  obs::Registry registry;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options(), &registry);
  const ingest::CorruptingSource source(
      test_raw_stream(), ingest::CorruptPlan::parse("flip@1,flip@2", 3));
  service.run(source, 6);

  EXPECT_EQ(registry.counter("ingest.frames", {{"format", "raw"}}).value(),
            4.0);
  EXPECT_EQ(registry
                .counter("ingest.rejects",
                         {{"format", "raw"}, {"kind", "checksum-mismatch"}})
                .value(),
            2.0);
  EXPECT_EQ(registry
                .counter("serve.frame_errors",
                         {{"stage", "decode"}, {"class", "malformed"}})
                .value(),
            2.0);
  EXPECT_EQ(registry
                .histogram("ingest.decode_ms",
                           {0.5, 1, 2, 4, 8, 12, 16, 24, 32})
                .count(),
            4.0);
}

TEST(StreamingService, BitstreamFaultInjectsATypedIngestReject) {
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  obs::Registry registry;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options(), &registry);
  const FaultPlan plan = FaultPlan::parse("bitstream@2", 1);
  const ServiceReport report = service.run(source, 5, &plan);

  // A bitstream fault is hard: malformed bytes fail identically on every
  // attempt, so the frame quarantines without retry.
  const ServedFrame& frame = report.frames[2];
  EXPECT_EQ(frame.status, FrameStatus::kFailed);
  ASSERT_TRUE(frame.error.has_value());
  EXPECT_EQ(frame.error->cls, ErrorClass::kMalformed);
  EXPECT_EQ(frame.retries, 0);
  EXPECT_TRUE(frame.fault_injected);
  EXPECT_EQ(report.faults_injected, 1);
  EXPECT_EQ(report.ingest_rejects, 1);
  EXPECT_EQ(registry
                .counter("ingest.rejects",
                         {{"format", "h264"}, {"kind", "injected"}})
                .value(),
            1.0);
  EXPECT_EQ(report.frames[3].status, FrameStatus::kOk);
}

TEST(StreamingService, RejectsUnusableOptions) {
  ServiceOptions bad_fps;
  bad_fps.fps = 0.0;
  EXPECT_THROW(StreamingService(vgpu::DeviceSpec{}, service_cascade(), {},
                                bad_fps),
               core::CheckError);
  ServiceOptions bad_queue;
  bad_queue.queue_capacity = 0;
  EXPECT_THROW(StreamingService(vgpu::DeviceSpec{}, service_cascade(), {},
                                bad_queue),
               core::CheckError);
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource source(decoder);
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  EXPECT_THROW(service.run(source, 0), core::CheckError);
  EXPECT_THROW(service.run(source, decoder.frame_count() + 1),
               core::CheckError);
}

TEST(StreamingService, LossyTransportDropsTagsAndServesTheRest) {
  obs::Registry registry;
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options(), &registry);
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource inner(decoder);
  ingest::LossyOptions lossy_options;
  lossy_options.drop_probability = 0.15;
  lossy_options.duplicate_probability = 0.15;
  lossy_options.reorder_probability = 0.25;
  lossy_options.seed = 21;
  const ingest::LossyReorderSource source(inner, lossy_options);
  ASSERT_GT(source.dropped(), 0);
  ASSERT_GT(source.duplicated(), 0);
  ASSERT_GT(source.displaced(), 0);
  const ServiceReport report =
      service.run(source, source.frame_count());

  // A delivery gap is a typed, counted drop — never a quarantine.
  EXPECT_EQ(report.missing_frames, source.dropped());
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.dropped, report.missing_frames);
  // Late and duplicate deliveries are served and cause-tagged.
  EXPECT_GT(report.out_of_order, 0);
  EXPECT_GT(report.duplicates, 0);
  int missing_seen = 0;
  for (const ServedFrame& frame : report.frames) {
    if (frame.missing) {
      ++missing_seen;
      EXPECT_EQ(frame.status, FrameStatus::kDropped);
      EXPECT_NE(frame.cause.find("missing-frame"), std::string::npos);
      EXPECT_TRUE(frame.detections.empty());
    }
    if (frame.arrival == ingest::FrameArrival::kOutOfOrder &&
        frame.status == FrameStatus::kOk) {
      EXPECT_NE(frame.cause.find("out-of-order"), std::string::npos);
    }
    if (frame.arrival == ingest::FrameArrival::kDuplicate &&
        frame.status == FrameStatus::kOk) {
      EXPECT_NE(frame.cause.find("duplicate-frame"), std::string::npos);
    }
  }
  EXPECT_EQ(missing_seen, report.missing_frames);
  // The transport damage reaches the metrics registry.
  bool missing_metric = false;
  for (const auto& sample : registry.samples()) {
    missing_metric |= sample.name == "ingest.missing";
  }
  EXPECT_TRUE(missing_metric);
}

TEST(StreamingService, DuplicateDeliveriesServeIdenticalDetections) {
  StreamingService service(vgpu::DeviceSpec{}, service_cascade(), {},
                           generous_options());
  const video::MockH264Decoder decoder = test_decoder();
  const ingest::H264FrameSource inner(decoder);
  ingest::LossyOptions lossy_options;
  lossy_options.duplicate_probability = 0.3;
  lossy_options.seed = 8;
  const ingest::LossyReorderSource source(inner, lossy_options);
  ASSERT_GT(source.duplicated(), 0);
  const ServiceReport report =
      service.run(source, source.frame_count());

  int compared = 0;
  for (std::size_t i = 1; i < report.frames.size(); ++i) {
    const ServedFrame& dup = report.frames[i];
    const ServedFrame& first = report.frames[i - 1];
    if (dup.arrival != ingest::FrameArrival::kDuplicate ||
        dup.status != FrameStatus::kOk ||
        first.status != FrameStatus::kOk ||
        first.degradation_level != dup.degradation_level) {
      continue;
    }
    ++compared;
    ASSERT_EQ(dup.detections.size(), first.detections.size());
    for (std::size_t d = 0; d < dup.detections.size(); ++d) {
      EXPECT_EQ(dup.detections[d].box, first.detections[d].box);
      EXPECT_EQ(dup.detections[d].score, first.detections[d].score);
    }
  }
  EXPECT_GT(compared, 0);
}

}  // namespace
}  // namespace fdet::serve
