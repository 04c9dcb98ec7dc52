// Chaos soak for the streaming serving layer (serve::StreamingService).
//
// Trains a small cascade in-process, streams a SyntheticTrailer through the
// service twice — once fault-free, once under a seeded FaultPlan — and
// asserts the serving-layer invariants:
//
//   1. the service never crashes: every frame yields a ServedFrame record;
//   2. the fault-free run is healthy (no failures, no drops, level 0);
//   3. the faulted run injects the plan (it actually fired);
//   4. consecutive unserved frames (failed or dropped) stay bounded;
//   5. after each deterministic fault burst the service recovers: a frame
//      is served clean at degradation level 0 before the next burst, and
//      the run ends back at level 0;
//   6. clean frames — served at level 0 in both runs and not targeted by
//      the plan — produce detections identical to the fault-free run;
//   7. with --dump-dir set (default), every injected deterministic fault's
//      frame yields a flight-recorder dump whose causal chain names the
//      fault kind, every provoked anomaly class is covered, and each dump
//      on disk is a parseable Perfetto document holding its own frame's
//      `frame` span and no event of a later frame.
//
// Exit codes: 0 all invariants hold, 1 usage error, 2 invariant violated
// (or the harness itself crashed, which is invariant 1 failing).
//
// The default plan exercises every fault kind: transient decode failures,
// a decode burst long enough to trip the circuit breaker, luma corruption,
// transient launch faults (whose backoff blows the deadline and walks the
// degradation ladder), the two hard overflow kinds, and a malformed-
// bitstream fault (typed ingest rejection, quarantined without retry).
//
// `fdet_chaos fleet` is the fleet-scale soak (serve::FleetScheduler,
// DESIGN.md §12): 200+ streams in a gold/silver/best-effort tenant mix
// over a virtual device fleet, replayed twice — once clean, once under a
// seeded device-loss/hang/slow schedule — asserting the fleet invariants:
//
//   F1. gold protection: no gold-tenant deadline violation on healthy
//       capacity while best-effort still has shedding room (a frame held
//       hostage by a lost/hanging device or a slowed dispatch misses on
//       physics, not policy, and is excused as failed_over /
//       fault_injected);
//   F2. terminal status: every admitted frame of both runs settles into
//       a terminal FrameStatus — nothing stranded in the event queue;
//   F3. failover identity: frames re-dispatched after losing their
//       device produce byte-identical detections to the unfaulted twin
//       (compared at equal degradation level), and are served solo —
//       a batch never crosses the fault-domain boundary;
//   F4. shed ordering: the deepest ladder rung reached is monotone in
//       QoS class (best-effort >= silver >= gold), and admission rejects
//       are identical across the twin runs (admission is arrival-time
//       deterministic, untouched by device faults).
//
// The fleet run calibrates itself: stream rate is derived from a
// single-frame service probe at a target utilization, the deadline from
// a clean fleet probe run at an unbounded budget. Everything downstream
// of the seeds is virtual-time deterministic, so the emitted
// BENCH_fleet_chaos.json run record is byte-stable and record-gated.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/cli.h"
#include "facegen/dataset.h"
#include "ingest/frame_source.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/runrecord.h"
#include "obs/trace.h"
#include "serve/fleet.h"
#include "serve/service.h"
#include "train/boost.h"
#include "video/decoder.h"

namespace fdet {
namespace {

haar::Cascade chaos_cascade() {
  const auto set = facegen::build_training_set(200, 30, 64, 31337);
  train::TrainOptions options;
  options.stage_sizes = {6, 10, 14, 18};
  options.feature_pool = 300;
  options.negatives_per_stage = 250;
  options.stage_hit_target = 0.99;
  options.seed = 13;
  return train::train_cascade(set, options, "chaos").cascade;
}

struct Violation {
  std::string what;
};

void check(bool ok, const std::string& what, std::vector<Violation>& out) {
  if (!ok) {
    out.push_back({what});
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what.c_str());
  }
}

/// Deterministic fault bursts, clustered: targeted frames closer than 3
/// apart count as one burst (e.g. the breaker-tripping decode run).
std::vector<std::pair<int, int>> burst_clusters(const std::vector<int>& t) {
  std::vector<std::pair<int, int>> clusters;
  for (const int frame : t) {
    if (!clusters.empty() && frame - clusters.back().second <= 3) {
      clusters.back().second = frame;
    } else {
      clusters.emplace_back(frame, frame);
    }
  }
  return clusters;
}

int run_chaos(int argc, char** argv) {
  int frames = 72;
  int width = 320;
  int height = 240;
  double fps = 24.0;
  double deadline_ms = 0.0;  // 0 = auto from the fault-free run
  std::string faults =
      "decode@6x2,corrupt@12,launch@18x2,const@26,shared@34,"
      "decode@44x3,decode@45x3,decode@46x3,bitstream@64";
  double seed = 20120926;
  int max_unserved = 8;
  std::string metrics_out;
  std::string trace_out;
  std::string dump_dir = "chaos_dumps";
  bool verbose = false;

  core::Cli cli("fdet_chaos");
  cli.flag("frames", frames, "frames to stream through the service");
  cli.flag("width", width, "trailer width");
  cli.flag("height", height, "trailer height");
  cli.flag("fps", fps, "stream arrival rate");
  cli.flag("deadline-ms", deadline_ms,
           "per-frame latency budget (0 = derive from the fault-free run)");
  cli.flag("faults", faults, "fault plan spec (see serve/faults.h)");
  cli.flag("seed", seed, "fault-plan + jitter seed");
  cli.flag("max-unserved", max_unserved,
           "invariant: longest tolerated failed/dropped streak");
  cli.flag("metrics-out", metrics_out, "write serve.* metrics JSON here");
  cli.flag("trace-out", trace_out, "write the chaos-run Chrome trace here");
  cli.flag("dump-dir", dump_dir,
           "flight-recorder anomaly dump directory (\"\" disables dumps "
           "and invariant 7)");
  cli.flag("verbose", verbose, "per-frame log of the faulted run");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  const auto plan =
      serve::FaultPlan::parse(faults, static_cast<std::uint64_t>(seed));
  std::printf("fault plan: %s\n", plan.describe().c_str());

  video::TrailerSpec spec;
  spec.title = "chaos";
  spec.width = width;
  spec.height = height;
  spec.frames = frames;
  spec.shot_frames = 12;
  spec.face_density = 1.5;
  spec.seed = 7;
  const video::SyntheticTrailer trailer(spec);
  const video::MockH264Decoder decoder(trailer);
  const ingest::H264FrameSource source(decoder);
  const vgpu::DeviceSpec device;
  const haar::Cascade cascade = chaos_cascade();

  serve::ServiceOptions options;
  options.fps = fps;
  options.seed = static_cast<std::uint64_t>(seed);

  // Fault-free calibration run: find the healthy latency envelope, then
  // place the deadline above it (so the clean run sits at level 0) but
  // low enough that retry backoff pushes a faulted frame over it. The
  // deadline must also clear the *serial* envelope, or a breaker-forced
  // serial fallback could never recover: every serial frame would miss the
  // deadline and pin the ladder at its deepest rung.
  {
    serve::StreamingService probe(device, cascade, {}, options);
    const serve::ServiceReport calib = probe.run(source, frames);
    double max_ms = 0.0;
    for (const auto& frame : calib.frames) {
      max_ms = std::max(max_ms, frame.latency_ms);
    }
    detect::PipelineOptions serial_opts;
    serial_opts.mode = vgpu::ExecMode::kSerial;
    const detect::Pipeline serial_probe(device, cascade, serial_opts);
    const double serial_ms =
        serial_probe.process(decoder.decode(0).frame.luma()).detect_ms +
        decoder.decode_latency_ms(0);
    if (deadline_ms <= 0.0) {
      deadline_ms = std::max(2.0 * max_ms, serial_ms / 0.6);
    }
    // Retry backoff must overshoot the budget: one retry's worth of
    // backoff on top of a healthy frame has to cross the deadline.
    options.retry.base_backoff_ms = deadline_ms;
    options.retry.max_backoff_ms = 4.0 * deadline_ms;
    std::printf(
        "calibration: healthy max %.3f ms, serial %.3f ms -> deadline %.3f ms\n",
        max_ms, serial_ms, deadline_ms);
  }
  options.deadline_ms = deadline_ms;
  // Dumps stay off for the calibration probe above; only the real runs
  // carry a flight-recorder dump directory.
  options.obs.dump_dir = dump_dir;

  obs::Registry registry;
  obs::TraceSession trace;
  trace.install();

  serve::StreamingService service(device, cascade, {}, options, &registry);
  const serve::ServiceReport clean = service.run(source, frames);
  const serve::ServiceReport chaos = service.run(source, frames, &plan);

  std::printf(
      "fault-free: ok=%d degraded=%d dropped=%d failed=%d misses=%d\n",
      clean.ok, clean.degraded, clean.dropped, clean.failed,
      clean.deadline_misses);
  std::printf(
      "chaos:      ok=%d degraded=%d dropped=%d failed=%d misses=%d "
      "retries=%d faults=%d trips=%d shifts=%d max_unserved=%d level=%d\n",
      chaos.ok, chaos.degraded, chaos.dropped, chaos.failed,
      chaos.deadline_misses, chaos.retries, chaos.faults_injected,
      chaos.breaker_trips, chaos.degradation_shifts,
      chaos.max_consecutive_unserved, chaos.final_degradation_level);
  if (verbose) {
    for (const auto& frame : chaos.frames) {
      std::printf(
          "  frame %3d %-8s level=%d retries=%d latency=%7.3f ms dets=%zu%s\n",
          frame.index, serve::frame_status_name(frame.status),
          frame.degradation_level, frame.retries, frame.latency_ms,
          frame.detections.size(),
          frame.error ? ("  [" + frame.error->stage + "/" +
                         serve::error_class_name(frame.error->cls) + ": " +
                         frame.error->message + "]")
                            .c_str()
                      : "");
    }
  }

  std::vector<Violation> violations;
  const auto expect = [&](bool ok, const std::string& what) {
    check(ok, what, violations);
  };

  // 1. Every frame produced a record, in order.
  expect(static_cast<int>(clean.frames.size()) == frames &&
             static_cast<int>(chaos.frames.size()) == frames,
         "every frame must yield a ServedFrame record");

  // 2. The fault-free run is healthy.
  expect(clean.failed == 0 && clean.dropped == 0 &&
             clean.final_degradation_level == 0 && clean.faults_injected == 0,
         "fault-free run must serve every frame at level 0");

  // 3. The plan actually fired.
  expect(plan.empty() || chaos.faults_injected > 0,
         "fault plan injected nothing");

  // 4. Bounded consecutive unserved frames.
  expect(chaos.max_consecutive_unserved <= max_unserved,
         "unserved streak " + std::to_string(chaos.max_consecutive_unserved) +
             " exceeds bound " + std::to_string(max_unserved));

  // 5. Recovery after each deterministic burst, and at end of stream.
  expect(chaos.final_degradation_level == 0,
         "service must end back at degradation level 0, ended at level " +
             std::to_string(chaos.final_degradation_level));
  for (const auto& [first, last] : burst_clusters(plan.targeted_frames())) {
    bool recovered = false;
    for (int i = last + 1; i < frames && !recovered; ++i) {
      if (plan.targets_frame(i)) {
        break;  // next burst started first: judged by its own window
      }
      const serve::ServedFrame& frame = chaos.frames[i];
      recovered = frame.status == serve::FrameStatus::kOk &&
                  frame.degradation_level == 0;
    }
    expect(recovered, "no clean level-0 frame after fault burst [" +
                          std::to_string(first) + ", " +
                          std::to_string(last) + "]");
  }

  // 6. Clean frames detect identically to the fault-free run.
  int compared = 0;
  for (int i = 0; i < frames && i < static_cast<int>(chaos.frames.size());
       ++i) {
    const serve::ServedFrame& a = clean.frames[i];
    const serve::ServedFrame& b = chaos.frames[i];
    if (plan.targets_frame(i) || a.status != serve::FrameStatus::kOk ||
        b.status != serve::FrameStatus::kOk || b.degradation_level != 0) {
      continue;
    }
    ++compared;
    bool same = a.detections.size() == b.detections.size();
    for (std::size_t d = 0; same && d < a.detections.size(); ++d) {
      same = a.detections[d].box == b.detections[d].box &&
             a.detections[d].neighbors == b.detections[d].neighbors;
    }
    expect(same, "clean frame " + std::to_string(i) +
                     " detections diverge from the fault-free run");
  }
  expect(compared > 0, "no clean frames were comparable");
  std::printf("clean-frame comparison: %d frames identical\n", compared);

  // 7. Causal flight dumps: the fault-free run writes none; every
  //    injected deterministic fault's frame produces a dump whose causal
  //    chain names the fault kind; every anomaly class the default plan
  //    provokes is covered; and each dump file on disk is a parseable
  //    Perfetto document whose anomaly header matches the served frame
  //    and whose events are the frame's own window of this run.
  if (!dump_dir.empty()) {
    expect(clean.dumps.empty(),
           "fault-free run wrote " + std::to_string(clean.dumps.size()) +
               " flight dump(s); expected none");
    for (const serve::FaultSpec& fault : plan.specs()) {
      if (fault.frame < 0 || fault.frame >= frames) {
        continue;  // probabilistic specs are judged by the class check
      }
      if (!chaos.frames[fault.frame].fault_injected) {
        continue;  // breaker fail-fast: the faulted stage never ran
      }
      const std::string token =
          std::string("fault:") + serve::fault_kind_name(fault.kind);
      bool named = false;
      for (const serve::AnomalyDump& dump : chaos.dumps) {
        named = named || (dump.frame == fault.frame &&
                          dump.cause.find(token) != std::string::npos);
      }
      expect(named, "frame " + std::to_string(fault.frame) + " injected " +
                        token + " but no flight dump names it");
    }
    std::set<std::string> classes;
    for (const serve::AnomalyDump& dump : chaos.dumps) {
      classes.insert(obs::anomaly_name(dump.kind));
      try {
        const obs::json::Value doc = obs::json::parse_file(dump.path);
        const obs::json::Value& anomaly = doc.at("anomaly");
        expect(static_cast<int>(anomaly.at("frame").as_number()) ==
                   dump.frame,
               dump.path + ": anomaly header frame mismatch");
        expect(anomaly.at("cause").as_string() == dump.cause,
               dump.path + ": anomaly header cause mismatch");
        expect(anomaly.at("kind").as_string() ==
                   obs::anomaly_name(dump.kind),
               dump.path + ": anomaly header kind mismatch");
        // The window is the dumped frame's own: its `frame` span is in
        // it, and no event of a later frame (or of an earlier run).
        bool own_frame_span = false;
        int later_events = 0;
        for (const obs::json::Value& event :
             doc.at("traceEvents").as_array()) {
          const obs::json::Value* args = event.find("args");
          const obs::json::Value* frame =
              args == nullptr ? nullptr : args->find("frame");
          if (frame == nullptr) {
            continue;
          }
          const int index = static_cast<int>(frame->as_number());
          later_events += index > dump.frame ? 1 : 0;
          own_frame_span = own_frame_span ||
                           (index == dump.frame &&
                            args->at("kind").as_string() == "frame");
        }
        expect(own_frame_span,
               dump.path + ": no frame span of frame " +
                   std::to_string(dump.frame));
        expect(later_events == 0,
               dump.path + ": " + std::to_string(later_events) +
                   " event(s) of later frames");
      } catch (const std::exception& error) {
        expect(false, dump.path + " is not a valid flight dump: " +
                          error.what());
      }
    }
    for (const char* cls :
         {"deadline-miss", "quarantine", "breaker-open", "ladder-climb"}) {
      expect(classes.count(cls) == 1,
             std::string("no flight dump covers anomaly class ") + cls);
    }
    std::printf("flight dumps: %zu in %s covering %zu anomaly class(es)\n",
                chaos.dumps.size(), dump_dir.c_str(), classes.size());
  }

  if (!metrics_out.empty()) {
    registry.write_file(metrics_out);
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    trace.write_file(trace_out);
    std::printf("trace -> %s\n", trace_out.c_str());
  }

  if (violations.empty()) {
    std::printf("chaos soak PASSED (%d frames, plan %s)\n", frames,
                plan.describe().c_str());
    return 0;
  }
  std::fprintf(stderr, "chaos soak FAILED: %zu invariant(s) violated\n",
               violations.size());
  return 2;
}

// ---------------------------------------------------------------------------
// Fleet-scale soak (`fdet_chaos fleet`).

/// Builds the tenant/stream topology into `fleet`: one tenant per mix
/// entry, `streams` streams each, all reading the shared `source` at
/// `fps` with a small deterministic phase stagger so arrivals interleave
/// instead of stampeding.
void build_fleet(serve::FleetScheduler& fleet,
                 const std::vector<serve::TenantMixEntry>& mix,
                 const ingest::FrameSource& source, double fps, int frames) {
  int stream_id = 0;
  for (const serve::TenantMixEntry& entry : mix) {
    const int tenant = fleet.add_tenant(entry.spec);
    for (int s = 0; s < entry.streams; ++s, ++stream_id) {
      const double phase = (stream_id % 17) * (1.0 / fps) / 17.0;
      fleet.add_stream(tenant, source, fps, frames, phase);
    }
  }
}

int run_fleet_chaos(int argc, char** argv) {
  std::string tenant_mix = "gold:48,silver:64,best-effort:96";
  int devices = 4;
  int frames = 24;  // per stream
  double fps = 0.0;
  double utilization = 0.55;
  double deadline_ms = 0.0;
  double margin = 6.0;
  double admit_fraction = 0.9;
  std::string device_faults;
  double seed = 20120926;
  std::string record_out;
  std::string metrics_out;
  std::string dump_dir = "fleet_dumps";
  bool verbose = false;

  core::Cli cli("fdet_chaos fleet");
  cli.flag("tenant-mix", tenant_mix,
           "class:streams[,class:streams...] fleet topology");
  cli.flag("devices", devices, "virtual devices in the fleet (>= 2)");
  cli.flag("frames", frames, "frames per stream");
  cli.flag("fps", fps,
           "per-stream arrival rate (0 = derive from --utilization)");
  cli.flag("utilization", utilization,
           "target fleet utilization when deriving --fps");
  cli.flag("deadline-ms", deadline_ms,
           "per-frame budget (0 = margin x clean-probe max latency)");
  cli.flag("margin", margin, "deadline headroom over the clean probe");
  cli.flag("admit-fraction", admit_fraction,
           "best-effort admission rate as a fraction of its offered load "
           "(>= 1 admits everything)");
  cli.flag("device-faults", device_faults,
           "device fault schedule (see serve/faults.h; \"\" = auto over "
           "the run span)");
  cli.flag("seed", seed, "fault-plan seed");
  cli.flag("record-out", record_out, "write BENCH_fleet_chaos.json here");
  cli.flag("metrics-out", metrics_out, "write serve.fleet.* metrics here");
  cli.flag("dump-dir", dump_dir,
           "flight-recorder dump directory on invariant failure "
           "(\"\" disables)");
  cli.flag("verbose", verbose, "per-frame log of the faulted run");
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  if (devices < 2) {
    std::fprintf(stderr, "fdet_chaos fleet: --devices must be >= 2 "
                         "(failover needs somewhere to go)\n");
    return 1;
  }

  const std::vector<serve::TenantMixEntry> mix =
      serve::parse_tenant_mix(tenant_mix);
  int total_streams = 0;
  for (const serve::TenantMixEntry& entry : mix) {
    total_streams += entry.streams;
  }

  // Shared footage: every stream replays the same synthetic trailer, so
  // the scheduler's decode/detect caches keep the wall-clock cost of a
  // 200-stream fleet near that of one stream.
  video::TrailerSpec spec;
  spec.title = "fleet-chaos";
  spec.width = 96;
  spec.height = 72;
  spec.frames = frames;
  spec.shot_frames = 8;
  spec.face_density = 1.5;
  spec.seed = 7;
  const video::SyntheticTrailer trailer(spec);
  const video::MockH264Decoder decoder(trailer);
  const ingest::H264FrameSource source(decoder);
  const vgpu::DeviceSpec device;
  const haar::Cascade cascade = chaos_cascade();

  // Per-frame service-time probe -> arrival rate at the target
  // utilization. Virtual time throughout: the derived fps is
  // deterministic, so the whole soak (and its run record) replays.
  {
    const detect::Pipeline probe(device, cascade, {});
    double service_ms = 0.0;
    for (int f = 0; f < std::min(frames, 4); ++f) {
      const video::DecodedFrame decoded = decoder.decode(f);
      service_ms = std::max(service_ms,
                            decoded.decode_ms +
                                probe.process(decoded.frame.luma()).detect_ms);
    }
    if (fps <= 0.0) {
      fps = utilization * devices * 1000.0 /
            (static_cast<double>(total_streams) * service_ms);
    }
    std::printf("calibration: service %.3f ms/frame -> %.2f fps/stream "
                "(%d streams, %d devices, target utilization %.2f)\n",
                service_ms, fps, total_streams, devices, utilization);
  }
  const double span_s = frames / fps;

  serve::FleetOptions fleet_options;
  fleet_options.devices = devices;

  // Finite admission for best-effort tenants: the typed
  // kAdmissionRejected path must fire in the soak, and identically in
  // both runs (admission depends only on arrival times).
  std::vector<serve::TenantMixEntry> admitted_mix = mix;
  if (admit_fraction < 1.0) {
    for (serve::TenantMixEntry& entry : admitted_mix) {
      if (entry.spec.cls == serve::QosClass::kBestEffort) {
        entry.spec.admission.rate_per_s =
            admit_fraction * fps * entry.streams;
        entry.spec.admission.burst = entry.streams;
      }
    }
  }

  // Clean fleet probe at an unbounded budget: the latency envelope with
  // queueing and batching included. The real deadline sits `margin`
  // above it, so the clean twin is healthy by construction.
  {
    serve::FleetOptions probe_options = fleet_options;
    probe_options.deadline_ms = 1e9;
    probe_options.flight_recorder = false;
    serve::FleetScheduler probe(device, cascade, {}, probe_options);
    build_fleet(probe, admitted_mix, source, fps, frames);
    const serve::FleetReport envelope = probe.run();
    double max_ms = 0.0;
    for (const serve::FleetFrame& frame : envelope.frames) {
      if (frame.status == serve::FrameStatus::kOk ||
          frame.status == serve::FrameStatus::kDegraded) {
        max_ms = std::max(max_ms, frame.latency_ms);
      }
    }
    if (deadline_ms <= 0.0) {
      deadline_ms = margin * max_ms;
    }
    std::printf("calibration: clean-probe max latency %.3f ms -> "
                "deadline %.3f ms, run span %.2f s\n",
                max_ms, deadline_ms, span_s);
  }
  fleet_options.deadline_ms = deadline_ms;

  // Seeded device-loss/recovery schedule. The auto plan covers every
  // device fault kind inside the arrival span: a slow window early, a
  // hard loss mid-run, a hang long enough for the watchdog, and a second
  // loss near the tail.
  if (device_faults.empty()) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "device-slow@%d:%.3f+%.3f*4,device-lost@%d:%.3f+%.3f,"
                  "device-lost@0:%.3f+%.3f,device-hang@%d:%.3f+%.3f,"
                  "device-lost@%d:%.3f+%.3f,device-lost@%d:%.3f+%.3f",
                  2 % devices, 0.10 * span_s, 0.45 * span_s, 1 % devices,
                  0.12 * span_s, 0.06 * span_s, 0.30 * span_s, 0.15 * span_s,
                  1 % devices, 0.55 * span_s, 0.15 * span_s, 2 % devices,
                  0.68 * span_s, 0.08 * span_s, 3 % devices, 0.82 * span_s,
                  0.10 * span_s);
    device_faults = buf;
  }
  const serve::DeviceFaultPlan plan = serve::DeviceFaultPlan::parse(
      device_faults, static_cast<std::uint64_t>(seed));
  std::printf("device fault plan: %s\n", plan.describe().c_str());
  int planned_outages = 0;
  for (const serve::DeviceFaultSpec& fault : plan.specs()) {
    planned_outages += fault.kind != serve::DeviceFaultKind::kDeviceSlow;
  }

  // Twin runs: identical topology, identical seeds; only the device
  // fault plan differs. Separate scheduler instances so the chaos run's
  // metrics registry is not polluted by the clean twin.
  serve::FleetScheduler clean_fleet(device, cascade, {}, fleet_options);
  build_fleet(clean_fleet, admitted_mix, source, fps, frames);
  const serve::FleetReport clean = clean_fleet.run();

  obs::Registry registry;
  serve::FleetScheduler chaos_fleet(device, cascade, {}, fleet_options,
                                    &registry);
  build_fleet(chaos_fleet, admitted_mix, source, fps, frames);
  const serve::FleetReport chaos = chaos_fleet.run(&plan);

  const auto print_report = [](const char* tag,
                               const serve::FleetReport& report) {
    std::printf("%s: served=%d (ok+degraded) rejected=%d dropped=%d "
                "failed=%d misses=%d failovers=%d device_faults=%d "
                "watchdog=%d batches=%d shed=%d recover=%d stranded=%d\n",
                tag, report.served, report.admission_rejected, report.dropped,
                report.failed, report.deadline_misses, report.failovers,
                report.device_faults, report.watchdog_fires, report.batches,
                report.shed_steps, report.recover_steps, report.stranded);
  };
  print_report("fault-free", clean);
  print_report("fleet chaos", chaos);
  for (const serve::TenantReport& tenant : chaos.tenants) {
    std::printf("  tenant %-12s %-11s streams=%3d frames=%5d admitted=%5d "
                "rejected=%4d misses=%4d failovers=%3d max_shed=%d "
                "p50=%7.3f ms p99=%7.3f ms\n",
                tenant.name.c_str(), serve::qos_class_name(tenant.cls),
                tenant.streams, tenant.frames, tenant.admitted,
                tenant.admission_rejected, tenant.deadline_misses,
                tenant.failovers, tenant.max_shed_level, tenant.p50_ms,
                tenant.p99_ms);
  }
  for (std::size_t d = 0; d < chaos.devices.size(); ++d) {
    const serve::DeviceReport& dev = chaos.devices[d];
    std::printf("  device %zu: frames=%5d faults=%d failovers_out=%3d "
                "busy=%8.1f ms final=%s\n",
                d, dev.frames, dev.faults, dev.failovers_out, dev.busy_ms,
                serve::device_state_name(dev.final_state));
  }
  if (verbose) {
    for (const serve::FleetFrame& frame : chaos.frames) {
      if (frame.status == serve::FrameStatus::kOk && frame.cause.empty()) {
        continue;  // only the interesting frames
      }
      std::printf("  s%03d f%02d %-8s dev=%d level=%d batch=%d "
                  "latency=%8.3f ms%s%s\n",
                  frame.stream, frame.index,
                  serve::frame_status_name(frame.status), frame.device,
                  frame.degradation_level, frame.batch_size, frame.latency_ms,
                  frame.cause.empty() ? "" : "  ",
                  frame.cause.c_str());
    }
  }

  std::vector<Violation> violations;
  const auto expect = [&](bool ok, const std::string& what) {
    check(ok, what, violations);
  };

  const int expected_frames = total_streams * frames;

  // Sanity: the clean twin is healthy by construction.
  expect(static_cast<int>(clean.frames.size()) == expected_frames &&
             static_cast<int>(chaos.frames.size()) == expected_frames,
         "every stream frame must yield a FleetFrame record");
  expect(clean.failed == 0 && clean.device_faults == 0 &&
             clean.failovers == 0 && clean.deadline_misses == 0,
         "fault-free run must serve cleanly under the calibrated deadline");
  expect(chaos.device_faults == planned_outages,
         "device plan injected " + std::to_string(chaos.device_faults) +
             " outages, planned " + std::to_string(planned_outages));

  // F1. Gold protection: while best-effort still has ladder room, every
  // gold deadline miss must be excused by a device fault — a failover, a
  // slowed dispatch, or a service interval overlapping an outage window
  // (a frame queued on a hanging device can only wait for the watchdog;
  // that is physics, not scheduling policy). A miss on healthy capacity
  // is the policy violation this invariant exists to catch.
  bool best_effort_exhausted = true;
  for (const serve::TenantReport& tenant : chaos.tenants) {
    if (tenant.cls == serve::QosClass::kBestEffort) {
      best_effort_exhausted =
          best_effort_exhausted &&
          tenant.max_shed_level == serve::DegradationLadder::max_level();
    }
  }
  // Outage windows widened by the watchdog delay plus one deadline of
  // post-recovery drain: the interval during which latency is
  // fault-dominated.
  std::vector<std::pair<double, double>> outage_windows;
  const double drain_s =
      (fleet_options.hang_watchdog_ms + deadline_ms) / 1e3;
  for (const serve::DeviceFaultSpec& fault : plan.specs()) {
    if (fault.kind != serve::DeviceFaultKind::kDeviceSlow) {
      outage_windows.emplace_back(fault.start_s,
                                  fault.start_s + fault.duration_s + drain_s);
    }
  }
  const auto in_outage = [&outage_windows](const serve::FleetFrame& frame) {
    for (const auto& [start, end] : outage_windows) {
      if (frame.arrival_s < end && frame.completion_s >= start) {
        return true;
      }
    }
    return false;
  };
  int gold_excused = 0;
  if (!best_effort_exhausted) {
    for (const serve::FleetFrame& frame : chaos.frames) {
      if (chaos.tenants[frame.tenant].cls != serve::QosClass::kGold ||
          !frame.deadline_miss) {
        continue;
      }
      if (frame.failed_over || frame.fault_injected || in_outage(frame)) {
        ++gold_excused;
        continue;
      }
      expect(false, "gold frame s" + std::to_string(frame.stream) + "/f" +
                        std::to_string(frame.index) +
                        " missed its deadline on healthy capacity while "
                        "best-effort had shedding room");
    }
    std::printf("gold protection: %d miss(es), all inside fault windows\n",
                gold_excused);
  }

  // F2. Every admitted frame reaches a terminal status.
  expect(clean.stranded == 0 && chaos.stranded == 0,
         "event queue drained with stranded frames (clean=" +
             std::to_string(clean.stranded) +
             ", chaos=" + std::to_string(chaos.stranded) + ")");
  for (const serve::FleetFrame& frame : chaos.frames) {
    if (!frame.settled) {
      expect(false, "frame s" + std::to_string(frame.stream) + "/f" +
                        std::to_string(frame.index) +
                        " never reached a terminal status");
    }
  }
  expect(chaos.admitted + chaos.admission_rejected == expected_frames,
         "admitted + rejected must account for every offered frame");

  // F3. Failover preserves detection identity and the batching boundary.
  expect(chaos.failovers > 0,
         "device losses produced no failovers (plan missed all in-flight "
         "work; widen the outage windows)");
  int compared = 0;
  for (const serve::FleetFrame& frame : chaos.frames) {
    if (!frame.failed_over) {
      continue;
    }
    expect(frame.batch_size == 1,
           "failed-over frame s" + std::to_string(frame.stream) + "/f" +
               std::to_string(frame.index) +
               " was batched across the fault-domain boundary");
    if (frame.status != serve::FrameStatus::kOk &&
        frame.status != serve::FrameStatus::kDegraded) {
      continue;
    }
    const serve::FleetFrame* twin = clean.frame(frame.stream, frame.index);
    if (twin == nullptr || twin->degradation_level != frame.degradation_level ||
        (twin->status != serve::FrameStatus::kOk &&
         twin->status != serve::FrameStatus::kDegraded)) {
      continue;  // served at a different rung: not comparable byte-for-byte
    }
    ++compared;
    bool same = frame.detections.size() == twin->detections.size();
    for (std::size_t i = 0; same && i < frame.detections.size(); ++i) {
      const detect::Detection& a = frame.detections[i];
      const detect::Detection& b = twin->detections[i];
      same = a.box == b.box && a.score == b.score &&
             a.neighbors == b.neighbors && a.scale_index == b.scale_index;
    }
    expect(same, "failed-over frame s" + std::to_string(frame.stream) + "/f" +
                     std::to_string(frame.index) +
                     " detections diverge from the unfaulted run");
  }
  expect(compared > 0, "no failed-over frame was comparable to its twin");
  std::printf("failover comparison: %d frames byte-identical\n", compared);

  // F4. Shed ordering is monotone in QoS class, and admission is
  // untouched by device faults.
  int max_shed_by_class[serve::kQosClassCount] = {0, 0, 0};
  for (const serve::TenantReport& tenant : chaos.tenants) {
    int& slot = max_shed_by_class[static_cast<int>(tenant.cls)];
    slot = std::max(slot, tenant.max_shed_level);
  }
  expect(max_shed_by_class[static_cast<int>(serve::QosClass::kGold)] <=
                 max_shed_by_class[static_cast<int>(serve::QosClass::kSilver)] &&
             max_shed_by_class[static_cast<int>(serve::QosClass::kSilver)] <=
                 max_shed_by_class[static_cast<int>(
                     serve::QosClass::kBestEffort)],
         "shed depth must be monotone best-effort >= silver >= gold");
  expect(chaos.admission_rejected == clean.admission_rejected,
         "admission decisions diverged between the twin runs");
  if (admit_fraction < 1.0) {
    expect(chaos.admission_rejected > 0,
           "finite best-effort admission never rejected a frame");
    for (const serve::FleetFrame& frame : chaos.frames) {
      if (frame.status != serve::FrameStatus::kAdmissionRejected) {
        continue;
      }
      expect(frame.error.has_value() &&
                 frame.error->cls == serve::ErrorClass::kRejected &&
                 frame.error->stage == "admission",
             "rejected frame s" + std::to_string(frame.stream) + "/f" +
                 std::to_string(frame.index) +
                 " lacks the typed admission error");
      break;  // one structural spot-check is enough
    }
  }

  // Cross-stream batching actually engaged (the fleet's reason to exist).
  expect(chaos.batches > 0 && chaos.batched_frames > chaos.batches,
         "cross-stream batching never fused frames");

  if (!metrics_out.empty()) {
    registry.write_file(metrics_out);
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  if (!record_out.empty()) {
    registry.gauge("serve.fleet.deadline_ms").set(deadline_ms);
    registry.gauge("serve.fleet.fps_per_stream").set(fps);
    registry.gauge("serve.fleet.streams").set(total_streams);
    registry.gauge("serve.fleet.devices").set(devices);
    obs::RunRecord record = obs::build_run_record(
        "fleet_chaos", "default", {{"plan", plan.describe()}}, registry);
    record.write_file(record_out);
    std::printf("run record -> %s\n", record_out.c_str());
  }

  if (violations.empty()) {
    std::printf("fleet chaos soak PASSED (%d streams x %d frames, "
                "%d devices)\n",
                total_streams, frames, devices);
    return 0;
  }
  if (!dump_dir.empty() && chaos_fleet.recorder() != nullptr) {
    // Post-mortem: the chaos run's flight ring, loadable in Perfetto.
    std::filesystem::create_directories(dump_dir);
    obs::AnomalyInfo anomaly;
    anomaly.kind = obs::Anomaly::kFaultInjected;
    anomaly.cause = "fleet invariant violated: " + violations.front().what;
    const std::string path = dump_dir + "/fleet_failure.json";
    obs::write_flight_dump(path, chaos_fleet.recorder()->snapshot(), anomaly);
    std::fprintf(stderr, "flight dump -> %s\n", path.c_str());
  }
  std::fprintf(stderr, "fleet chaos soak FAILED: %zu invariant(s) violated\n",
               violations.size());
  return 2;
}

}  // namespace
}  // namespace fdet

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "fleet") {
      // Shift out the subcommand so the flag parser sees only flags.
      std::vector<char*> args;
      args.push_back(argv[0]);
      for (int i = 2; i < argc; ++i) {
        args.push_back(argv[i]);
      }
      return fdet::run_fleet_chaos(static_cast<int>(args.size()),
                                   args.data());
    }
    return fdet::run_chaos(argc, argv);
  } catch (const std::exception& error) {
    // Invariant 1: the serving layer must never let an exception escape.
    std::fprintf(stderr, "chaos harness crashed: %s\n", error.what());
    return 2;
  }
}
