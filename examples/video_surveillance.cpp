// Video surveillance scenario on the fault-tolerant serving layer: the
// full paper pipeline — hardware H.264 decode (mocked), pyramid scaling,
// filtering, integral images, concurrent cascade evaluation, grouping —
// served through serve::StreamingService, which adds a bounded frame
// queue with backpressure, per-frame deadline budgets with graceful
// degradation, retry with backoff, and per-stage circuit breakers.
// Optionally injects a fault plan (--faults) to watch the recovery
// machinery work; writes an annotated keyframe.
//
// The ingest layer makes the decode stage swappable: --format picks the
// container (the default mock hardware h264 path, or the validating
// raw/mjpeg/gif byte-stream parsers), and --ingest-corrupt damages named
// frames' payload bytes so the quarantine + degradation-ladder response
// to malformed input can be watched end to end.
//
// With --streams > 1 (or an explicit --tenant-mix) the scenario scales
// from one hardened stream to a fleet: serve::FleetScheduler multiplexes
// the streams over --devices virtual devices with QoS-aware admission,
// cross-stream batching, and device fault domains — --faults then also
// accepts the device fault vocabulary (device-lost@1:2+0.5,
// device-hang@0:3+0.2, device-slow@0.05*4) alongside the frame-level
// kinds, split by serve::parse_mixed_fault_plan. Every fleet frame is
// served through the same per-frame path as the single stream, so the
// frame-level kinds retry, quarantine and trip breakers exactly as they
// do there: with --faults=launch@2x2,const@4 each stream retries frame 2
// and quarantines frame 4. The run ends with a per-tenant QoS summary
// instead of a per-frame log.
//
// Uses the trained cascade pair (trains once into --cache-dir on first
// use; expect a few minutes on a cache miss).
#include <cstdio>
#include <memory>

#include "core/cli.h"
#include "img/draw.h"
#include "img/io.h"
#include "ingest/mutate.h"
#include "ingest/registry.h"
#include "obs/profile.h"
#include "serve/fleet.h"
#include "serve/service.h"
#include "train/pretrained.h"
#include "video/decoder.h"

int main(int argc, char** argv) {
  using namespace fdet;
  int frames = 6;
  int width = 1280;
  int height = 720;
  double fps = 24.0;
  double deadline_ms = 40.0;  // the 24 fps display deadline
  std::string faults;
  std::string cache_dir = "fdet_cache";
  std::string trailer_name = "50/50";
  std::string profile_out;
  std::string format_name = "h264";
  std::string ingest_corrupt;
  int streams = 1;
  int devices = 2;
  std::string tenant_mix;
  core::Cli cli("video_surveillance");
  cli.flag("frames", frames, "frames to process");
  cli.flag("width", width, "stream width");
  cli.flag("height", height, "stream height");
  cli.flag("fps", fps, "stream arrival rate");
  cli.flag("deadline-ms", deadline_ms, "per-frame latency budget");
  cli.flag("faults", faults,
           "fault plan, e.g. decode@2x2,corrupt@4 (see serve/faults.h)");
  cli.flag("cache-dir", cache_dir, "trained-cascade cache directory");
  cli.flag("trailer", trailer_name, "trailer preset title");
  cli.flag("profile-out", profile_out, "write a kernel profile (JSON)");
  cli.flag("format", format_name,
           "ingest container: h264 | raw | mjpeg | gif");
  cli.flag("ingest-corrupt", ingest_corrupt,
           "corrupt frame payloads, e.g. flip@2,zero@4 (see ingest/mutate.h)");
  cli.flag("streams", streams,
           "concurrent streams; > 1 serves a fleet (serve/fleet.h)");
  cli.flag("devices", devices, "virtual devices when serving a fleet");
  cli.flag("tenant-mix", tenant_mix,
           "fleet QoS mix, e.g. gold:2,best-effort:6 (implies fleet mode; "
           "default gold:1 + best-effort for the rest of --streams)");
  if (!cli.parse(argc, argv)) {
    return 1;
  }

  // Collect every vgpu launch the serving loop issues; the per-frame
  // trace contexts the service installs attribute cycles to frames.
  obs::KernelProfiler profiler;
  const obs::ScopedProfileCollection profile_scope(profiler);

  const train::CascadePair pair = train::get_or_train_cascades(cache_dir);
  const vgpu::DeviceSpec device;
  detect::PipelineOptions pipeline_options;
  pipeline_options.min_neighbors = 3;  // prune isolated windows (OpenCV-style)

  // Pick the requested preset.
  video::TrailerSpec spec;
  bool found = false;
  for (const auto& candidate : video::table2_trailers(frames, width, height)) {
    if (candidate.title == trailer_name) {
      spec = candidate;
      found = true;
      break;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown trailer '%s'; available presets:\n",
                 trailer_name.c_str());
    for (const auto& candidate : video::table2_trailers(1)) {
      std::fprintf(stderr, "  %s\n", candidate.title.c_str());
    }
    return 1;
  }

  const video::SyntheticTrailer trailer(spec);
  const video::MockH264Decoder decoder(trailer);

  // Route the footage through the requested ingest path. The byte-stream
  // formats serialize the trailer and re-open it through the validating
  // parser; --ingest-corrupt swaps in a CorruptingSource so the named
  // frames arrive with damaged payload bytes.
  std::unique_ptr<ingest::FrameSource> source;
  try {
    if (format_name == "h264") {
      if (!ingest_corrupt.empty()) {
        std::fprintf(stderr,
                     "--ingest-corrupt needs a byte-stream container; the "
                     "mock h264 decoder has none (try --format=raw)\n");
        return 1;
      }
      source = std::make_unique<ingest::H264FrameSource>(decoder);
    } else {
      const ingest::Format format = ingest::parse_format(format_name);
      std::string bytes = ingest::encode_stream(format, trailer);
      if (ingest_corrupt.empty()) {
        source = ingest::open_stream(std::move(bytes));
      } else {
        source = std::make_unique<ingest::CorruptingSource>(
            std::move(bytes),
            ingest::CorruptPlan::parse(ingest_corrupt, 20120926));
      }
    }
  } catch (const ingest::IngestError& error) {
    std::fprintf(stderr, "ingest setup failed: %s\n", error.what());
    return 1;
  }

  // Frame- and device-level fault vocabularies share the --faults flag;
  // the splitter routes device-* tokens to the device plan.
  const serve::MixedFaultPlan mixed =
      serve::parse_mixed_fault_plan(faults, 20120926);
  const bool fleet_mode = streams > 1 || !tenant_mix.empty();
  if (!fleet_mode && !mixed.device.empty()) {
    std::fprintf(stderr, "device faults (%s) need a fleet: pass --streams=N "
                         "or --tenant-mix\n",
                 mixed.device.describe().c_str());
    return 1;
  }

  if (fleet_mode) {
    std::vector<serve::TenantMixEntry> mix;
    if (!tenant_mix.empty()) {
      mix = serve::parse_tenant_mix(tenant_mix);
    } else {
      // Default mix: one gold tenant, the rest best-effort.
      serve::TenantMixEntry gold;
      gold.spec.name = "gold";
      gold.spec.cls = serve::QosClass::kGold;
      gold.streams = 1;
      mix.push_back(gold);
      if (streams > 1) {
        serve::TenantMixEntry rest;
        rest.spec.name = "best-effort";
        rest.spec.cls = serve::QosClass::kBestEffort;
        rest.streams = streams - 1;
        mix.push_back(rest);
      }
    }
    int total_streams = 0;
    for (const serve::TenantMixEntry& entry : mix) {
      total_streams += entry.streams;
    }

    serve::FleetOptions fleet_options;
    fleet_options.devices = devices;
    fleet_options.deadline_ms = deadline_ms;
    serve::FleetScheduler fleet(device, pair.ours, pipeline_options,
                                fleet_options);
    int stream_id = 0;
    for (const serve::TenantMixEntry& entry : mix) {
      const int tenant = fleet.add_tenant(entry.spec);
      for (int s = 0; s < entry.streams; ++s, ++stream_id) {
        fleet.add_stream(tenant, *source, fps,  frames,
                         (stream_id % 7) * (1.0 / fps) / 7.0);
      }
    }

    std::printf("serving a fleet: %d streams x %d frames of \"%s\" at "
                "%dx%d over %d devices, cascade '%s', deadline %.0f ms\n\n",
                total_streams, frames, spec.title.c_str(), width, height,
                devices, pair.ours.name().c_str(), deadline_ms);
    if (!mixed.frame.empty()) {
      std::printf("frame fault plan:  %s\n", mixed.frame.describe().c_str());
    }
    if (!mixed.device.empty()) {
      std::printf("device fault plan: %s\n", mixed.device.describe().c_str());
    }

    const serve::FleetReport report =
        fleet.run(mixed.device.empty() ? nullptr : &mixed.device,
                  mixed.frame.empty() ? nullptr : &mixed.frame);

    std::printf("\nper-tenant summary:\n");
    for (const serve::TenantReport& tenant : report.tenants) {
      std::printf("  %-12s %-11s streams=%2d frames=%4d admitted=%4d "
                  "rejected=%3d ok=%4d degraded=%3d dropped=%3d failed=%3d "
                  "misses=%3d failovers=%2d max_shed=%d p50=%7.2f ms "
                  "p99=%7.2f ms\n",
                  tenant.name.c_str(), serve::qos_class_name(tenant.cls),
                  tenant.streams, tenant.frames, tenant.admitted,
                  tenant.admission_rejected, tenant.ok, tenant.degraded,
                  tenant.dropped, tenant.failed, tenant.deadline_misses,
                  tenant.failovers, tenant.max_shed_level, tenant.p50_ms,
                  tenant.p99_ms);
    }
    std::printf("\nfleet: served=%d/%d, %d deadline misses, %d failovers, "
                "%d device faults (%d watchdog), %d cross-stream batches "
                "(%d frames), shed/recover %d/%d\n",
                report.served, report.admitted, report.deadline_misses,
                report.failovers, report.device_faults, report.watchdog_fires,
                report.batches, report.batched_frames, report.shed_steps,
                report.recover_steps);
    for (std::size_t d = 0; d < report.devices.size(); ++d) {
      const serve::DeviceReport& dev = report.devices[d];
      std::printf("  device %zu: frames=%4d faults=%d busy=%8.1f ms "
                  "final=%s\n",
                  d, dev.frames, dev.faults, dev.busy_ms,
                  serve::device_state_name(dev.final_state));
    }
    if (!profile_out.empty()) {
      profiler.snapshot("surveillance").write_file(profile_out);
      std::printf("kernel profile written to %s\n", profile_out.c_str());
    }
    return 0;
  }

  std::printf("serving %d frames of \"%s\" at %dx%d via %s ingest with "
              "cascade '%s' (%d stages, %d classifiers), deadline %.0f ms\n\n",
              frames, spec.title.c_str(), width, height,
              source->info().format.c_str(), pair.ours.name().c_str(),
              pair.ours.stage_count(), pair.ours.classifier_count(),
              deadline_ms);
  if (!ingest_corrupt.empty()) {
    std::printf("ingest corruption plan: %s\n\n", ingest_corrupt.c_str());
  }

  serve::ServiceOptions service_options;
  service_options.fps = fps;
  service_options.deadline_ms = deadline_ms;
  serve::StreamingService service(device, pair.ours, pipeline_options,
                                  service_options);
  const serve::FaultPlan& plan = mixed.frame;
  if (!plan.empty()) {
    std::printf("fault plan: %s\n\n", plan.describe().c_str());
  }
  const serve::ServiceReport report =
      service.run(*source, frames, plan.empty() ? nullptr : &plan);

  int matched_frames = 0;
  for (const serve::ServedFrame& frame : report.frames) {
    // Count ground-truth faces recovered (loose box-overlap check). Only
    // the synthetic h264 path carries ground truth; byte-stream
    // containers report an empty list.
    const auto gt = source->info().has_ground_truth
                        ? decoder.decode(frame.index).ground_truth
                        : std::vector<video::FaceGt>{};
    int recovered = 0;
    for (const auto& face : gt) {
      for (const auto& det : frame.detections) {
        if (detect::s_square(det.box, face.box) > 0.3) {
          ++recovered;
          break;
        }
      }
    }
    matched_frames += (!gt.empty() && recovered > 0);
    std::printf("frame %3d: %-8s level %d | decode %.1f ms + detect %.2f ms "
                "-> latency %.2f ms | faces %zu, detections %zu, recovered %d%s\n",
                frame.index, serve::frame_status_name(frame.status),
                frame.degradation_level, frame.decode_ms, frame.detect_ms,
                frame.latency_ms, gt.size(), frame.detections.size(),
                recovered,
                frame.error ? ("  [" + frame.error->stage + ": " +
                               frame.error->message + "]")
                                  .c_str()
                            : "");

    if (frame.index == 0 &&
        frame.status != serve::FrameStatus::kDropped) {
      // Skipped when frame 0 itself is corruption-targeted — the decode
      // would just rethrow the quarantined IngestError.
      try {
        img::ImageU8 r;
        img::ImageU8 g;
        img::ImageU8 b;
        source->decode(0).frame.to_rgb(r, g, b);
        for (const auto& det : frame.detections) {
          img::draw_rect(r, det.box, 255, 3);
          img::draw_rect(g, det.box, 32, 3);
          img::draw_rect(b, det.box, 32, 3);
        }
        img::write_ppm("surveillance_frame0.ppm", r, g, b);
        std::printf("           wrote surveillance_frame0.ppm\n");
      } catch (const ingest::IngestError&) {
      }
    }
  }

  std::printf("\nserved %d/%d frames (%d ok, %d degraded, %d dropped, "
              "%d failed), %d deadline misses, max latency %.2f ms\n",
              report.ok + report.degraded, frames, report.ok, report.degraded,
              report.dropped, report.failed, report.deadline_misses,
              report.max_latency_ms);
  std::printf("recovery: %d retries, %d faults injected, %d breaker trips, "
              "%d ladder shifts, final level %d\n",
              report.retries, report.faults_injected, report.breaker_trips,
              report.degradation_shifts, report.final_degradation_level);
  if (report.ingest_rejects > 0) {
    std::printf("ingest: %d malformed frame%s quarantined (typed "
                "IngestError, no retry)\n",
                report.ingest_rejects, report.ingest_rejects == 1 ? "" : "s");
  }
  std::printf("deadline (%.0f ms): %s\n", deadline_ms,
              report.deadline_misses == 0 ? "met on every served frame"
                                          : "MISSED");
  if (!profile_out.empty()) {
    profiler.snapshot("surveillance").write_file(profile_out);
    std::printf("kernel profile written to %s (inspect with "
                "`fdet_report show %s`)\n",
                profile_out.c_str(), profile_out.c_str());
  }
  return 0;
}
