// perfbench: the repository's two-clock benchmark.
//
// One process runs one named workload on one thread and measures it from
// the outside: its own timers around public calls, the host spans the
// library already emits into an installed obs::TraceSession, and the
// counters the library already returns (Timeline, PerfCounters,
// ServiceReport, FleetReport). Two clocks are reported: *modeled*
// (virtual-GPU milliseconds, deterministic per seed) and *host* (real time
// on one core).
//
//   perfbench --workload=<hd_trailer|stream_chaos|fleet_shared>
//             --seed=<n> --seconds=<s> --trace=<0|1>
//
// A workload is a fixed *episode* (frames, fault plan, rates, deadlines
// all frozen below); the measured phase repeats the episode while the
// time budget lasts and reports host numbers as medians over episodes.
// Modeled numbers come from the first episode, and every later episode
// must reproduce it bit for bit. --trace=1 instead runs one episode under
// a TraceSession and a kernel-profile hook and reports the per-layer
// breakdown, the traced-vs-untraced host delta and the cost of the
// library's own observability (trace contexts + flight recorder).
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Any correctness violation prints the reason to stderr and
// exits 3 without a result.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.h"
#include "detect/pipeline.h"
#include "eval/accuracy.h"
#include "ingest/mjpeg.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/faults.h"
#include "serve/fleet.h"
#include "serve/service.h"
#include "stats.h"
#include "train/pretrained.h"
#include "video/decoder.h"
#include "video/trailer.h"

namespace perfbench {
namespace {

using namespace fdet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}


constexpr const char* kCacheDir = "fdet_cache";
constexpr int kSetupRepeats = 9;

// ---------------------------------------------------------------------------
// Frozen workload constants. Changing any of these changes the benchmark.

// hd_trailer: the Fig. 5 preset exactly as bench_fig5_frame_latency builds
// it at its default --frames=36 (six shots of six frames), so per-frame
// modeled makespans can be compared row by row with that bench.
constexpr int kHdTrailerFrames = 36;
constexpr int kHdShotFrames = 6;
constexpr int kHdShots[] = {1, 4};  // one frame from each of these shots
constexpr double kHdDeadlineMs = 40.0;  // 24 fps display deadline

// Every workload owns a fixed trailer; the seed only picks where in it the
// episode's frames start (one of kOffsets positions), so different seeds
// give different but comparable inputs.
constexpr int kOffsets = 12;

// stream_chaos: one 24 fps stream, fixed budget and fault plan.
constexpr int kStreamFrames = 40;
constexpr std::uint64_t kStreamTrailerSeed = 7;
constexpr int kStreamWidth = 256;
constexpr int kStreamHeight = 144;
constexpr double kStreamFps = 24.0;
constexpr double kStreamDeadlineMs = 6.0;
constexpr double kStreamBackoffMs = 6.0;
constexpr const char* kStreamFaults =
    "decode@3x2,corrupt@7,launch@11x2,const@15,shared@19,bitstream@23,"
    "decode@30x3,decode@31x3,decode@32x3";
constexpr std::uint64_t kStreamFaultSeed = 20120926;

// fleet_shared: ~200 streams replaying a few shared frames on 4 devices.
constexpr int kFleetUnique = 4;
constexpr int kFleetWidth = 96;
constexpr int kFleetHeight = 72;
constexpr int kFleetFramesPerStream = 960;
constexpr std::uint64_t kFleetTrailerSeed = 7;
constexpr const char* kFleetMix = "gold:48,silver:64,best-effort:96";
constexpr int kFleetDevices = 4;
constexpr double kFleetFps = 45.0;
constexpr double kFleetDeadlineMs = 40.0;
constexpr double kFleetBestEffortAdmit = 0.9;  // share of offered load
constexpr std::uint64_t kFleetFaultSeed = 20120926;

// ---------------------------------------------------------------------------
// Benchmark-owned ingest wrapper: times and counts every decode the
// system under test asks for. With `loop` > 0 it also replays the inner
// stream's frames [offset, offset + loop) cyclically over `frames` slots
// (the fleet's shared footage).

class TimedSource final : public ingest::FrameSource {
 public:
  explicit TimedSource(const ingest::FrameSource& inner, int frames = 0,
                       int loop = 0, int offset = 0)
      : inner_(&inner), info_(inner.info()), loop_(loop), offset_(offset) {
    if (frames > 0) {
      info_.frames = frames;
    }
  }

  const ingest::SourceInfo& info() const override { return info_; }

  video::DecodedFrame decode(int index) const override {
    check_index(index);
    const Clock::time_point start = Clock::now();
    try {
      video::DecodedFrame frame = inner_->decode(inner_index(index));
      frame.index = index;
      host_s_ += seconds_since(start);
      ++calls_;
      modeled_ms_.push_back(frame.decode_ms);
      return frame;
    } catch (const ingest::IngestError&) {
      host_s_ += seconds_since(start);
      ++calls_;
      ++rejects_;
      throw;
    }
  }

  double decode_latency_ms(int index) const override {
    return inner_->decode_latency_ms(inner_index(index));
  }

  int inner_index(int index) const {
    return loop_ > 0 ? offset_ + index % loop_ : index;
  }

  void reset_counters() const {
    calls_ = 0;
    rejects_ = 0;
    host_s_ = 0.0;
    modeled_ms_.clear();
  }
  long long calls() const { return calls_; }
  long long rejects() const { return rejects_; }
  double host_s() const { return host_s_; }
  const std::vector<double>& modeled_ms() const { return modeled_ms_; }

 private:
  const ingest::FrameSource* inner_;
  ingest::SourceInfo info_;
  int loop_;
  int offset_;
  mutable long long calls_ = 0;
  mutable long long rejects_ = 0;
  mutable double host_s_ = 0.0;
  mutable std::vector<double> modeled_ms_;
};

// ---------------------------------------------------------------------------
// Kernel tally: a vgpu profile hook that sums launches, modeled busy
// cycles and PerfCounters per pipeline layer.

enum Layer { kPyramid, kIntegral, kCascade, kOtherLayer, kLayerCount };

Layer layer_of(const std::string& kernel) {
  const std::string base = obs::kernel_base_name(kernel);
  if (base == "scale" || base.rfind("filter", 0) == 0) {
    return kPyramid;
  }
  if (base.rfind("scan", 0) == 0 || base.rfind("transpose", 0) == 0) {
    return kIntegral;
  }
  return base == "cascade" ? kCascade : kOtherLayer;
}

struct LayerTally {
  long long launches = 0;
  double busy_ms = 0.0;
  vgpu::PerfCounters counters;
};

struct KernelTally {
  LayerTally layers[kLayerCount];

  void on_launch(const vgpu::DeviceSpec& spec, const vgpu::LaunchCost& cost) {
    LayerTally& tally = layers[layer_of(cost.config.name)];
    ++tally.launches;
    tally.busy_ms += spec.cycles_to_seconds(cost.total_service_cycles) * 1e3;
    tally.counters += cost.counters;
  }

  double busy_ms() const {
    double total = 0.0;
    for (const LayerTally& tally : layers) {
      total += tally.busy_ms;
    }
    return total;
  }
  std::uint64_t threads() const {
    std::uint64_t total = 0;
    for (const LayerTally& tally : layers) {
      total += tally.counters.threads;
    }
    return total;
  }
};

// ---------------------------------------------------------------------------
// Host spans the library emits, summed by layer.

struct SpanTotals {
  double pyramid_ms = 0.0;
  double integral_ms = 0.0;
  double cascade_ms = 0.0;
  double grouping_ms = 0.0;
  double schedule_ms = 0.0;
  double build_ms = 0.0;  ///< pipeline.build (encloses the four above)
  long long builds = 0;   ///< functional pipeline passes
  double serve_decode_ms = 0.0;
  double serve_detect_ms = 0.0;

  double kernel_layers_ms() const {
    return pyramid_ms + integral_ms + cascade_ms;
  }
};

SpanTotals sum_spans(const obs::TraceSession& session) {
  SpanTotals totals;
  for (const obs::TraceEvent& event : session.events()) {
    if (event.phase != 'X' || event.pid != 0) {
      continue;
    }
    const double ms = event.dur_us * 1e-3;
    const std::string& name = event.name;
    const auto starts = [&name](const char* prefix) {
      return name.rfind(prefix, 0) == 0;
    };
    if (starts("pipeline.pyramid")) {
      totals.pyramid_ms += ms;
    } else if (starts("pipeline.integral")) {
      totals.integral_ms += ms;
    } else if (starts("pipeline.cascade")) {
      totals.cascade_ms += ms;
    } else if (name == "pipeline.grouping") {
      totals.grouping_ms += ms;
    } else if (starts("pipeline.schedule")) {
      totals.schedule_ms += ms;
    } else if (name == "pipeline.build") {
      totals.build_ms += ms;
      ++totals.builds;
    } else if (name == "serve.decode") {
      totals.serve_decode_ms += ms;
    } else if (name == "serve.detect") {
      totals.serve_detect_ms += ms;
    }
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Episode results.

/// Statistics of functional pipeline passes the benchmark itself ran
/// (hd_trailer's frames, or the reference recomputations that check the
/// serving workloads).
struct PassStats {
  long long windows = 0;
  long long stage1_rejects = 0;
  long long raw_detections = 0;
  long long detections = 0;
  std::vector<double> utilization;  ///< concurrent-mode SM utilization

  void add(const detect::FrameResult& concurrent) {
    for (const detect::ScaleStats& scale : concurrent.scales) {
      for (const std::int64_t count : scale.depth_histogram) {
        windows += count;
      }
      if (!scale.depth_histogram.empty()) {
        stage1_rejects += scale.depth_histogram.front();
      }
    }
    raw_detections += static_cast<long long>(concurrent.raw_detections.size());
    detections += static_cast<long long>(concurrent.detections.size());
    utilization.push_back(concurrent.timeline.utilization());
  }
};

struct Episode {
  Outcomes outcomes;
  std::vector<double> detect_ms;  ///< modeled detect time, served frames
  std::vector<double> serial_ms;  ///< serial-mode makespans (reference)
  std::vector<double> latency_ms;
  std::vector<double> gold_latency_ms;
  long long faces = 0;
  long long true_positives = 0;
  long long detections = 0;
  long long scored_frames = 0;
  PassStats passes;
  /// Counters the serving layers return (ServiceReport / FleetReport).
  std::map<std::string, double> reported;
  /// FNV-1a digest of every modeled output; repeats must reproduce it.
  std::uint64_t digest = 1469598103934665603ull;
  std::vector<std::string> violations;

  void mix(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      digest = (digest ^ bytes[i]) * 1099511628211ull;
    }
  }
  void mix(double value) { mix(&value, sizeof value); }
  void mix(const std::vector<detect::Detection>& dets) {
    for (const detect::Detection& d : dets) {
      const int fields[] = {d.box.x, d.box.y, d.box.w, d.box.h, d.neighbors,
                            d.scale_index};
      mix(fields, sizeof fields);
      mix(static_cast<double>(d.score));
    }
  }

  void score(const std::vector<detect::Detection>& dets,
             const std::vector<video::FaceGt>& truth) {
    std::vector<eval::GroundTruthFace> faces_gt;
    for (const video::FaceGt& face : truth) {
      faces_gt.push_back({{face.left_eye_x, face.left_eye_y,
                           face.right_eye_x, face.right_eye_y}});
    }
    for (const eval::ScoredDetection& s : eval::associate(dets, faces_gt)) {
      true_positives += s.matched ? 1 : 0;
    }
    faces += static_cast<long long>(faces_gt.size());
    detections += static_cast<long long>(dets.size());
    ++scored_frames;
  }

  void fail(std::string what) { violations.push_back(std::move(what)); }
};

bool same_detections(const std::vector<detect::Detection>& a,
                     const std::vector<detect::Detection>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].box == b[i].box) || a[i].score != b[i].score ||
        a[i].neighbors != b[i].neighbors ||
        a[i].scale_index != b[i].scale_index) {
      return false;
    }
  }
  return true;
}

/// Pipeline options of a degradation-ladder level, derived exactly as the
/// serving layers derive them from a default base configuration.
detect::PipelineOptions level_options(int level) {
  const serve::DegradationStep& step = serve::DegradationLadder::step_at(level);
  detect::PipelineOptions options;
  options.skip_finest_levels += step.skip_finest_levels;
  options.min_neighbors += step.min_neighbors_boost;
  return options;
}

/// Lazily built reference pipelines, one per ladder level.
class ReferencePipelines {
 public:
  explicit ReferencePipelines(const haar::Cascade& cascade)
      : cascade_(&cascade) {}

  const detect::Pipeline& at(int level) {
    auto it = pipelines_.find(level);
    if (it == pipelines_.end()) {
      it = pipelines_
               .emplace(level, std::make_unique<detect::Pipeline>(
                                   vgpu::DeviceSpec{}, *cascade_,
                                   level_options(level)))
               .first;
    }
    return *it->second;
  }

 private:
  const haar::Cascade* cascade_;
  std::map<int, std::unique_ptr<detect::Pipeline>> pipelines_;
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// One measured episode. `library_obs` toggles the library's own
  /// observability (trace contexts + flight recorder) where it has any.
  virtual Episode run_episode(bool library_obs) = 0;
  /// Post-measurement correctness checks and reference numbers, on the
  /// first episode (not timed).
  virtual void verify(Episode& episode) = 0;
  virtual const TimedSource& source() const = 0;
  /// Host time of the serving engine's run() call in the last episode.
  double engine_host_s() const { return engine_host_s_; }

 protected:
  double engine_host_s_ = 0.0;
};

class HdTrailer final : public Workload {
 public:
  HdTrailer(const haar::Cascade& cascade, std::uint64_t seed)
      : trailer_(preset()),
        decoder_(trailer_),
        h264_(decoder_),
        source_(h264_),
        pipeline_(vgpu::DeviceSpec{}, cascade, {}) {
    // The seed picks the frame inside each fixed shot.
    const int offset = static_cast<int>(seed % kHdShotFrames);
    for (const int shot : kHdShots) {
      frames_.push_back(shot * kHdShotFrames + offset);
    }
  }

  static video::TrailerSpec preset() {
    video::TrailerSpec spec =
        video::table2_trailers(kHdTrailerFrames, 1920, 1080)[1];  // "50/50"
    spec.shot_frames = kHdShotFrames;
    return spec;
  }

  Episode run_episode(bool) override {
    Episode ep;
    const Clock::time_point start = Clock::now();
    for (const int f : frames_) {
      ++ep.outcomes.offered;
      try {
        const video::DecodedFrame decoded = source_.decode(f);
        const auto [concurrent, serial] =
            pipeline_.process_dual(decoded.frame.luma());
        if (!same_detections(concurrent.detections, serial.detections) ||
            !same_detections(concurrent.raw_detections,
                             serial.raw_detections)) {
          ep.fail("hd_trailer frame " + std::to_string(f) +
                  ": concurrent and serial detections differ");
        }
        ++ep.outcomes.served;
        const double latency = decoded.decode_ms + concurrent.detect_ms;
        ep.outcomes.late += latency > kHdDeadlineMs ? 1 : 0;
        ep.detect_ms.push_back(concurrent.detect_ms);
        ep.serial_ms.push_back(serial.detect_ms);
        ep.latency_ms.push_back(latency);
        ep.gold_latency_ms.push_back(latency);
        ep.passes.add(concurrent);
        ep.score(concurrent.detections, decoded.ground_truth);
        ep.mix(concurrent.detect_ms);
        ep.mix(serial.detect_ms);
        ep.mix(concurrent.detections);
        std::printf("  hd frame %2d: modeled concurrent %.4f ms, serial %.4f "
                    "ms, decode %.4f ms, %zu detections\n",
                    f, concurrent.detect_ms, serial.detect_ms,
                    decoded.decode_ms, concurrent.detections.size());
      } catch (const std::exception& error) {
        ++ep.outcomes.failed;
        std::fprintf(stderr, "hd_trailer frame %d failed: %s\n", f,
                     error.what());
      }
    }
    engine_host_s_ = seconds_since(start);
    return ep;
  }

  /// The concurrent/serial identity is checked inside the episode, where
  /// both results exist; nothing is left to recompute.
  void verify(Episode&) override {}

  const TimedSource& source() const override { return source_; }

 private:
  video::SyntheticTrailer trailer_;
  video::MockH264Decoder decoder_;
  ingest::H264FrameSource h264_;
  TimedSource source_;
  detect::Pipeline pipeline_;
  std::vector<int> frames_;
};

class StreamChaos final : public Workload {
 public:
  StreamChaos(const haar::Cascade& cascade, std::uint64_t seed)
      : cascade_(&cascade),
        trailer_(spec()),
        offset_(static_cast<int>(seed % kOffsets)),
        container_(encode(trailer_, offset_)),
        source_(container_),
        plan_(serve::FaultPlan::parse(kStreamFaults, kStreamFaultSeed)),
        references_(cascade) {
    service_on_ = make_service(true);
  }

  static video::TrailerSpec spec() {
    video::TrailerSpec s;
    s.title = "stream_chaos";
    s.width = kStreamWidth;
    s.height = kStreamHeight;
    s.frames = kStreamFrames + kOffsets - 1;
    s.fps = kStreamFps;
    s.shot_frames = 12;
    s.face_density = 1.5;
    s.seed = kStreamTrailerSeed;
    return s;
  }

  /// Trailer frames [offset, offset + kStreamFrames) serialized into the FMJ container and read back through
  /// the validating parser.
  static ingest::MjpegSource encode(const video::SyntheticTrailer& trailer,
                                    int offset) {
    const video::MockH264Decoder decoder(trailer);
    std::vector<img::Nv12Frame> frames;
    for (int i = 0; i < kStreamFrames; ++i) {
      frames.push_back(decoder.decode(offset + i).frame);
    }
    return ingest::MjpegSource(
        ingest::encode_mjpeg(frames, trailer.spec().fps));
  }

  std::unique_ptr<serve::StreamingService> make_service(bool library_obs) {
    serve::ServiceOptions options;
    options.fps = kStreamFps;
    options.deadline_ms = kStreamDeadlineMs;
    options.retry.base_backoff_ms = kStreamBackoffMs;
    options.retry.max_backoff_ms = 4.0 * kStreamBackoffMs;
    options.obs.tracing = library_obs;
    options.obs.flight_recorder = library_obs;
    return std::make_unique<serve::StreamingService>(
        vgpu::DeviceSpec{}, *cascade_, detect::PipelineOptions{}, options,
        &registry_);
  }

  Episode run_episode(bool library_obs) override {
    serve::StreamingService* service = service_on_.get();
    if (!library_obs) {
      if (!service_off_) {
        service_off_ = make_service(false);
      }
      service = service_off_.get();
    }
    const Clock::time_point start = Clock::now();
    report_ = service->run(source_, kStreamFrames, &plan_);
    engine_host_s_ = seconds_since(start);

    Episode ep;
    double backoff_ms = 0.0;
    for (const serve::ServedFrame& sf : report_.frames) {
      ++ep.outcomes.offered;
      const bool served = sf.status == serve::FrameStatus::kOk ||
                          sf.status == serve::FrameStatus::kDegraded;
      ep.outcomes.served += served ? 1 : 0;
      ep.outcomes.late += served && sf.latency_ms > kStreamDeadlineMs ? 1 : 0;
      ep.outcomes.failed += sf.status == serve::FrameStatus::kFailed ? 1 : 0;
      ep.outcomes.dropped += sf.status == serve::FrameStatus::kDropped ? 1 : 0;
      backoff_ms += sf.backoff_ms;
      if (served) {
        ep.detect_ms.push_back(sf.detect_ms);
        ep.latency_ms.push_back(sf.latency_ms);
        ep.gold_latency_ms.push_back(sf.latency_ms);
        ep.score(sf.detections, trailer_.ground_truth(offset_ + sf.index));
      }
      const int status = static_cast<int>(sf.status);
      ep.mix(&status, sizeof status);
      ep.mix(&sf.degradation_level, sizeof sf.degradation_level);
      ep.mix(sf.latency_ms);
      ep.mix(sf.detections);
    }
    ep.reported = {
        {"retries", report_.retries},
        {"breaker_trips", report_.breaker_trips},
        {"degradation_shifts", report_.degradation_shifts},
        {"backoff_ms", backoff_ms},
        {"ingest_rejects", report_.ingest_rejects},
    };
    return ep;
  }

  void verify(Episode& ep) override {
    if (static_cast<int>(report_.frames.size()) != kStreamFrames) {
      ep.fail("stream_chaos: " + std::to_string(report_.frames.size()) +
              " frame records for " + std::to_string(kStreamFrames) +
              " frames");
    }
    if (report_.faults_injected == 0) {
      ep.fail("stream_chaos: the fault plan injected nothing");
    }
    int compared = 0;
    for (std::size_t i = 0; i < report_.frames.size(); ++i) {
      const serve::ServedFrame& sf = report_.frames[i];
      if (sf.index != static_cast<int>(i)) {
        ep.fail("stream_chaos: frame record " + std::to_string(i) +
                " is out of order");
      }
      const bool served = sf.status == serve::FrameStatus::kOk ||
                          sf.status == serve::FrameStatus::kDegraded;
      if (!served || plan_.targets_frame(sf.index) || sf.fault_injected) {
        continue;
      }
      // A clean frame must equal a direct pipeline pass at its level.
      const auto [concurrent, serial] =
          references_.at(sf.degradation_level)
              .process_dual(container_.decode(sf.index).frame.luma());
      if (!same_detections(sf.detections, concurrent.detections)) {
        ep.fail("stream_chaos: clean frame " + std::to_string(sf.index) +
                " differs from Pipeline::process at level " +
                std::to_string(sf.degradation_level));
      }
      ep.serial_ms.push_back(serial.detect_ms);
      ep.passes.add(concurrent);
      ++compared;
    }
    if (compared == 0) {
      ep.fail("stream_chaos: no clean frame to compare");
    }
  }

  const TimedSource& source() const override { return source_; }

 private:
  const haar::Cascade* cascade_;
  video::SyntheticTrailer trailer_;
  int offset_;
  ingest::MjpegSource container_;
  TimedSource source_;
  serve::FaultPlan plan_;
  obs::Registry registry_;
  std::unique_ptr<serve::StreamingService> service_on_;
  std::unique_ptr<serve::StreamingService> service_off_;
  serve::ServiceReport report_;
  ReferencePipelines references_;
};

class FleetShared final : public Workload {
 public:
  FleetShared(const haar::Cascade& cascade, std::uint64_t seed)
      : cascade_(&cascade),
        trailer_(spec()),
        decoder_(trailer_),
        h264_(decoder_),
        source_(h264_, kFleetFramesPerStream, kFleetUnique,
                static_cast<int>(seed % kOffsets)),
        mix_(serve::parse_tenant_mix(kFleetMix)),
        plan_(serve::DeviceFaultPlan::parse(device_faults(),
                                            kFleetFaultSeed)),
        references_(cascade) {
    for (serve::TenantMixEntry& entry : mix_) {
      if (entry.spec.cls == serve::QosClass::kBestEffort) {
        entry.spec.admission.rate_per_s =
            kFleetBestEffortAdmit * kFleetFps * entry.streams;
        entry.spec.admission.burst = entry.streams;
      }
    }
    fleet_on_ = make_fleet(true);
  }

  /// One shot, so every offset replays the same scene.
  static video::TrailerSpec spec() {
    video::TrailerSpec s;
    s.title = "fleet_shared";
    s.width = kFleetWidth;
    s.height = kFleetHeight;
    s.frames = kFleetUnique + kOffsets - 1;
    s.shot_frames = s.frames;
    s.face_density = 1.5;
    s.seed = kFleetTrailerSeed;
    return s;
  }

  /// Slow, lost and hang windows spread over the arrival span.
  static std::string device_faults() {
    const double span = kFleetFramesPerStream / kFleetFps;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "device-slow@2:%.3f+%.3f*3,device-lost@1:%.3f+%.3f,"
                  "device-lost@0:%.3f+%.3f,device-hang@1:%.3f+%.3f,"
                  "device-lost@2:%.3f+%.3f,device-lost@3:%.3f+%.3f",
                  0.10 * span, 0.15 * span, 0.12 * span, 0.03 * span,
                  0.30 * span, 0.05 * span, 0.55 * span, 0.02 * span,
                  0.68 * span, 0.04 * span, 0.82 * span, 0.05 * span);
    return buf;
  }

  std::unique_ptr<serve::FleetScheduler> make_fleet(bool library_obs) {
    serve::FleetOptions options;
    options.devices = kFleetDevices;
    options.deadline_ms = kFleetDeadlineMs;
    options.flight_recorder = library_obs;
    auto fleet = std::make_unique<serve::FleetScheduler>(
        vgpu::DeviceSpec{}, *cascade_, detect::PipelineOptions{}, options,
        &registry_);
    int stream_id = 0;
    for (const serve::TenantMixEntry& entry : mix_) {
      const int tenant = fleet->add_tenant(entry.spec);
      for (int s = 0; s < entry.streams; ++s, ++stream_id) {
        const double phase = (stream_id % 17) * (1.0 / kFleetFps) / 17.0;
        fleet->add_stream(tenant, source_, kFleetFps, kFleetFramesPerStream,
                          phase);
      }
    }
    return fleet;
  }

  Episode run_episode(bool library_obs) override {
    serve::FleetScheduler* fleet = fleet_on_.get();
    if (!library_obs) {
      if (!fleet_off_) {
        fleet_off_ = make_fleet(false);
      }
      fleet = fleet_off_.get();
    }
    const Clock::time_point start = Clock::now();
    report_ = fleet->run(&plan_);
    engine_host_s_ = seconds_since(start);

    Episode ep;
    for (const serve::FleetFrame& r : report_.frames) {
      ++ep.outcomes.offered;
      const bool served = r.status == serve::FrameStatus::kOk ||
                          r.status == serve::FrameStatus::kDegraded;
      ep.outcomes.served += served ? 1 : 0;
      ep.outcomes.late += served && r.deadline_miss ? 1 : 0;
      ep.outcomes.failed += r.status == serve::FrameStatus::kFailed ? 1 : 0;
      ep.outcomes.dropped += r.status == serve::FrameStatus::kDropped ? 1 : 0;
      ep.outcomes.rejected +=
          r.status == serve::FrameStatus::kAdmissionRejected ? 1 : 0;
      if (served) {
        ep.detect_ms.push_back(r.detect_ms);
        ep.latency_ms.push_back(r.latency_ms);
        if (report_.tenants[static_cast<std::size_t>(r.tenant)].cls ==
            serve::QosClass::kGold) {
          ep.gold_latency_ms.push_back(r.latency_ms);
        }
      }
      const int status = static_cast<int>(r.status);
      ep.mix(&status, sizeof status);
      ep.mix(&r.degradation_level, sizeof r.degradation_level);
      ep.mix(r.latency_ms);
    }
    double busy_ms = 0.0;
    for (const serve::DeviceReport& device : report_.devices) {
      busy_ms += device.busy_ms;
    }
    double first_arrival = 1e300;
    double last_completion = 0.0;
    for (const serve::FleetFrame& r : report_.frames) {
      first_arrival = std::min(first_arrival, r.arrival_s);
      last_completion = std::max(last_completion, r.completion_s);
    }
    const double span_ms = (last_completion - first_arrival) * 1e3;
    ep.reported = {
        {"batched_frames", report_.batched_frames},
        {"failovers", report_.failovers},
        {"admission_rejects", report_.admission_rejected},
        {"shed_steps", report_.shed_steps},
        {"device_faults", report_.device_faults},
        {"device_busy_share",
         span_ms > 0.0 ? busy_ms / (kFleetDevices * span_ms) : 0.0},
    };
    return ep;
  }

  void verify(Episode& ep) override {
    if (report_.stranded != 0) {
      ep.fail("fleet_shared: " + std::to_string(report_.stranded) +
              " frames stranded");
    }
    if (report_.admitted + report_.admission_rejected !=
        static_cast<int>(report_.frames.size())) {
      ep.fail("fleet_shared: admitted + rejected != frames offered");
    }
    // Every admitted frame settles; every served frame's (memoized)
    // detections equal a direct pipeline pass over its footage frame.
    std::map<std::pair<int, int>, std::pair<detect::FrameResult, double>>
        refs;
    for (const serve::FleetFrame& r : report_.frames) {
      if (r.status != serve::FrameStatus::kAdmissionRejected && !r.settled) {
        ep.fail("fleet_shared: frame s" + std::to_string(r.stream) + "/f" +
                std::to_string(r.index) + " never settled");
      }
      if (r.status != serve::FrameStatus::kOk &&
          r.status != serve::FrameStatus::kDegraded) {
        continue;
      }
      const std::pair<int, int> key{source_.inner_index(r.index),
                                    r.degradation_level};
      auto it = refs.find(key);
      if (it == refs.end()) {
        const video::DecodedFrame decoded = h264_.decode(key.first);
        auto [concurrent, serial] =
            references_.at(key.second).process_dual(decoded.frame.luma());
        ep.passes.add(concurrent);
        ep.score(concurrent.detections, decoded.ground_truth);
        it = refs.emplace(key, std::make_pair(std::move(concurrent),
                                              serial.detect_ms))
                 .first;
      }
      if (!same_detections(r.detections, it->second.first.detections)) {
        ep.fail("fleet_shared: frame s" + std::to_string(r.stream) + "/f" +
                std::to_string(r.index) +
                " detections differ from Pipeline::process");
        break;
      }
      ep.serial_ms.push_back(it->second.second);
    }
  }

  const TimedSource& source() const override { return source_; }

 private:
  const haar::Cascade* cascade_;
  video::SyntheticTrailer trailer_;
  video::MockH264Decoder decoder_;
  ingest::H264FrameSource h264_;
  TimedSource source_;
  std::vector<serve::TenantMixEntry> mix_;
  serve::DeviceFaultPlan plan_;
  obs::Registry registry_;
  std::unique_ptr<serve::FleetScheduler> fleet_on_;
  std::unique_ptr<serve::FleetScheduler> fleet_off_;
  serve::FleetReport report_;
  ReferencePipelines references_;
};

// ---------------------------------------------------------------------------
// Entry point: set-up, measurement, checks and the result line.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_result(long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const haar::Cascade& cascade,
                                        std::uint64_t seed) {
  if (name == "hd_trailer") {
    return std::make_unique<HdTrailer>(cascade, seed);
  }
  if (name == "stream_chaos") {
    return std::make_unique<StreamChaos>(cascade, seed);
  }
  if (name == "fleet_shared") {
    return std::make_unique<FleetShared>(cascade, seed);
  }
  return nullptr;
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::string seed_text = "1";
  double seconds = 10.0;
  int trace = 0;
  core::Cli cli("perfbench");
  cli.flag("workload", workload_name,
           "hd_trailer | stream_chaos | fleet_shared");
  cli.flag("seed", seed_text, "content seed (unsigned integer)");
  cli.flag("seconds", seconds, "measured-phase budget in host seconds");
  cli.flag("trace", trace, "1 = traced run reporting per-layer metrics");
  if (!cli.parse(argc, argv)) {
    return 2;
  }
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(seed_text);
  } catch (const std::exception&) {
    std::fprintf(stderr, "perfbench: --seed must be an unsigned integer\n");
    return 2;
  }

  if (workload_name != "hd_trailer" && workload_name != "stream_chaos" &&
      workload_name != "fleet_shared") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }

  // ---- set-up ----
  // setup_s is the median of kSetupRepeats timed set-ups in each of three
  // windows: before the measured phase, after it, and after the checks.
  // The host's speed drifts in phases of seconds; one window would sample
  // only one of them.
  std::vector<double> setup_s;
  const auto set_up = [&](std::optional<train::CascadePair>& pair) {
    const Clock::time_point start = Clock::now();
    // Read-only: never train (minutes, and it would write the cache).
    pair = train::load_cached_pair(kCacheDir, train::PretrainedOptions{});
    std::unique_ptr<Workload> made;
    if (!pair) {
      std::fprintf(stderr,
                   "perfbench: no valid trained cascade pair under '%s/'; "
                   "run any bench binary once to train and cache it\n",
                   kCacheDir);
      return made;
    }
    made = make_workload(workload_name, pair->ours, seed);
    setup_s.push_back(seconds_since(start));
    return made;
  };
  const auto set_up_window = [&]() {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      std::optional<train::CascadePair> pair;
      if (!set_up(pair)) {
        return false;
      }
    }
    return true;
  };
  std::optional<train::CascadePair> cascades;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    workload.reset();
    workload = set_up(cascades);
    if (!workload) {
      return 2;
    }
  }

  const TimedSource& source = workload->source();
  std::vector<double> episode_fps;
  std::vector<double> episode_s;
  std::optional<Episode> first;
  std::vector<std::string> violations;
  const auto measure = [&](bool library_obs) {
    source.reset_counters();
    const Clock::time_point start = Clock::now();
    Episode ep = workload->run_episode(library_obs);
    const double host_s = seconds_since(start);
    episode_s.push_back(host_s);
    episode_fps.push_back(ep.outcomes.offered / host_s);
    if (!first) {
      first = std::move(ep);
    } else if (ep.digest != first->digest) {
      violations.push_back("episode " + std::to_string(episode_s.size()) +
                           " diverged from the first on the modeled clock");
    }
    return host_s;
  };
  // Correctness checks on the first episode (untimed); any violation
  // suppresses the result.
  const auto verified = [&]() {
    workload->verify(*first);
    violations.insert(violations.end(), first->violations.begin(),
                      first->violations.end());
    for (const std::string& v : violations) {
      std::fprintf(stderr, "perfbench: INCORRECT: %s\n", v.c_str());
    }
    return violations.empty();
  };

  std::vector<Metric> metrics;
  double peak_rss = 0.0;  ///< through the measured phase, before the checks
  if (trace == 0) {
    const Clock::time_point phase = Clock::now();
    do {
      measure(true);
    } while (seconds_since(phase) + episode_s.back() <= seconds);
    peak_rss = peak_rss_mb();
    if (!set_up_window() || !verified() || !set_up_window()) {
      return violations.empty() ? 2 : 3;
    }
  } else {
    // Traced episode: per-layer spans and kernel tallies.
    KernelTally tally;
    obs::TraceSession session;
    double traced_s = 0.0;
    long long decode_calls = 0;
    double decode_host_ms = 0.0;
    std::vector<double> decode_modeled_ms;
    long long decode_rejects = 0;
    double engine_s = 0.0;
    {
      const vgpu::ScopedKernelProfileHook hook(
          [&tally](const vgpu::DeviceSpec& spec, const vgpu::LaunchCost& c) {
            tally.on_launch(spec, c);
          });
      session.install();
      traced_s = measure(true);
      session.uninstall();
      decode_calls = source.calls();
      decode_host_ms = source.host_s() * 1e3;
      decode_modeled_ms = source.modeled_ms();
      decode_rejects = source.rejects();
      engine_s = workload->engine_host_s();
    }
    // Untraced episodes, alternating the library's observability on and
    // off (hd_trailer has none to turn off) while the budget lasts, at
    // least one pair; single episodes are too noisy to compare.
    const bool has_library_obs = workload_name != "hd_trailer";
    std::vector<double> on_s;
    std::vector<double> off_s;
    const Clock::time_point pairs = Clock::now();
    double pair_s = 0.0;
    do {
      const Clock::time_point pair_start = Clock::now();
      on_s.push_back(measure(true));
      if (has_library_obs) {
        off_s.push_back(measure(false));
      }
      pair_s = seconds_since(pair_start);
    } while (seconds_since(pairs) + pair_s <= seconds);
    const double untraced_s = median(on_s);
    const double obs_off_s = has_library_obs ? median(off_s) : untraced_s;
    if (!set_up_window() || !verified() || !set_up_window()) {
      return violations.empty() ? 2 : 3;
    }
    const SpanTotals spans = sum_spans(session);
    const Episode& ep = *first;

    const double named_ms = decode_host_ms + spans.kernel_layers_ms() +
                            spans.grouping_ms + spans.schedule_ms;
    const double coverage = ratio(named_ms, traced_s * 1e3);
    const double trace_delta = ratio(traced_s - untraced_s, untraced_s);
    const double obs_overhead = ratio(untraced_s, obs_off_s) - 1.0;
    std::printf("traced episode %.3f s, untraced %.3f s (delta %+.2f%%), "
                "library obs off %.3f s\n",
                traced_s, untraced_s, 100.0 * trace_delta, obs_off_s);
    std::printf("coverage: named layers %.1f ms of %.1f ms host = %.3f\n",
                named_ms, traced_s * 1e3, coverage);
    std::printf("obs.host_overhead_ratio %+.4f\n", obs_overhead);

    const auto& L = tally.layers;
    const double busy_total = tally.busy_ms();
    const bool serving = workload_name == "stream_chaos";
    const bool fleet = workload_name == "fleet_shared";
    const double serve_self_ms =
        serving ? engine_s * 1e3 - spans.serve_decode_ms - spans.serve_detect_ms
                : 0.0;
    const double fleet_self_ms =
        fleet ? engine_s * 1e3 - decode_host_ms - spans.build_ms -
                    spans.schedule_ms
              : 0.0;
    const auto reported = [&ep](const char* key) {
      const auto it = ep.reported.find(key);
      return it == ep.reported.end() ? 0.0 : it->second;
    };
    const Tail latency_tail = tail(ep.latency_ms);
    metrics = {
        {"ingest.decode_calls", static_cast<double>(decode_calls), "count"},
        {"ingest.decode_host_ms", decode_host_ms, "ms"},
        {"ingest.decode_modeled_ms_p50", median(decode_modeled_ms), "ms"},
        {"ingest.rejects",
         static_cast<double>(decode_rejects) + reported("ingest_rejects"),
         "count"},
        {"pyramid.host_ms", spans.pyramid_ms, "ms"},
        {"pyramid.modeled_busy_ms", L[kPyramid].busy_ms, "ms"},
        {"integral.host_ms", spans.integral_ms, "ms"},
        {"integral.modeled_busy_ms", L[kIntegral].busy_ms, "ms"},
        {"integral.busy_share", ratio(L[kIntegral].busy_ms, busy_total),
         "ratio"},
        {"integral.launches", static_cast<double>(L[kIntegral].launches),
         "count"},
        {"integral.global_bytes",
         static_cast<double>(L[kIntegral].counters.global_bytes()), "bytes"},
        {"integral.global_transactions",
         static_cast<double>(L[kIntegral].counters.global_transactions),
         "count"},
        {"integral.bank_conflicts",
         static_cast<double>(L[kIntegral].counters.bank_conflicts), "count"},
        {"cascade.host_ms", spans.cascade_ms, "ms"},
        {"cascade.modeled_busy_ms", L[kCascade].busy_ms, "ms"},
        {"cascade.windows", static_cast<double>(ep.passes.windows), "count"},
        {"cascade.stage1_reject_ratio",
         ratio(static_cast<double>(ep.passes.stage1_rejects),
               static_cast<double>(ep.passes.windows)),
         "ratio"},
        {"cascade.branch_efficiency",
         L[kCascade].counters.branch_efficiency(), "ratio"},
        {"cascade.simd_efficiency", L[kCascade].counters.simd_efficiency(),
         "ratio"},
        {"grouping.host_ms", spans.grouping_ms, "ms"},
        {"grouping.raw_detections",
         static_cast<double>(ep.passes.raw_detections), "count"},
        {"grouping.detections", static_cast<double>(ep.passes.detections),
         "count"},
        {"vgpu.threads", static_cast<double>(tally.threads()), "count"},
        {"vgpu.host_ns_per_thread",
         ratio(spans.kernel_layers_ms() * 1e6,
               static_cast<double>(tally.threads())),
         "ns"},
        {"vgpu.schedule_host_ms", spans.schedule_ms, "ms"},
        {"vgpu.sm_utilization", median(ep.passes.utilization), "ratio"},
        {"serve.self_host_ms", serve_self_ms, "ms"},
        {"serve.detect_calls_per_frame",
         ratio(static_cast<double>(spans.builds),
               static_cast<double>(ep.outcomes.offered)),
         "ratio"},
        {"serve.retries", reported("retries"), "count"},
        {"serve.breaker_trips", reported("breaker_trips"), "count"},
        {"serve.degradation_shifts", reported("degradation_shifts"), "count"},
        {"serve.backoff_ms", reported("backoff_ms"), "ms"},
        {"fleet.self_host_ms", fleet_self_ms, "ms"},
        {"fleet.detect_memo_hit_ratio",
         fleet ? memo_hit_ratio(ep.outcomes.served, spans.builds) : 0.0,
         "ratio"},
        {"fleet.batched_frames", reported("batched_frames"), "count"},
        {"fleet.failovers", reported("failovers"), "count"},
        {"fleet.admission_rejects", reported("admission_rejects"), "count"},
        {"fleet.shed_steps", reported("shed_steps"), "count"},
        {"fleet.device_busy_share", reported("device_busy_share"), "ratio"},
        {"obs.host_overhead_ratio", obs_overhead, "ratio"},
        {"obs.trace_coverage", coverage, "ratio"},
        {"obs.trace_host_delta_ratio", trace_delta, "ratio"},
        {"deadline_miss_ratio", miss_ratio(ep.outcomes), "ratio"},
        {"failed_ratio", failed_ratio(ep.outcomes), "ratio"},
        {"false_positives_per_frame",
         ratio(static_cast<double>(ep.detections - ep.true_positives),
               static_cast<double>(ep.scored_frames)),
         "ratio"},
        {"latency.tail_percentile", latency_tail.percentile, "%"},
        {"latency.tail_samples", static_cast<double>(latency_tail.samples),
         "count"},
    };
  }

  const Episode& ep = *first;
  const Tail latency_tail = tail(ep.latency_ms);
  const Tail gold_tail = tail(ep.gold_latency_ms);
  std::printf("%s seed %" PRIu64 ": %d frames offered, %d served, %d late, "
              "%d failed, %d dropped, %d rejected; %zu episode(s)\n",
              workload_name.c_str(), seed, ep.outcomes.offered,
              ep.outcomes.served, ep.outcomes.late, ep.outcomes.failed,
              ep.outcomes.dropped, ep.outcomes.rejected, episode_s.size());
  for (const auto& [key, value] : ep.reported) {
    std::printf("  %s=%.6g", key.c_str(), value);
  }
  std::printf("\nlatency tail: p%.3f of %zu served frames; gold tail: p%.3f "
              "of %zu\n",
              latency_tail.percentile, latency_tail.samples,
              gold_tail.percentile, gold_tail.samples);
  if (trace == 0) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"host_frames_per_s", median(episode_fps), "1/s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"modeled_frame_ms_p50", median(ep.detect_ms), "ms"},
        {"modeled_serial_frame_ms_p50", median(ep.serial_ms), "ms"},
        {"latency_ms_p50", median(ep.latency_ms), "ms"},
        {"latency_ms_tail", latency_tail.value, "ms"},
        {"gold_latency_ms_tail", gold_tail.value, "ms"},
        {"on_time_ratio", 1.0 - miss_ratio(ep.outcomes), "ratio"},
        {"served_ratio", 1.0 - failed_ratio(ep.outcomes), "ratio"},
        {"recall",
         ratio(static_cast<double>(ep.true_positives),
               static_cast<double>(ep.faces)),
         "ratio"},
        {"precision",
         ep.detections == 0
             ? 1.0
             : ratio(static_cast<double>(ep.true_positives),
                     static_cast<double>(ep.detections)),
         "ratio"},
    };
  }
  // An operation is one frame offered. Frames the serving layers fail,
  // drop or reject under the frozen fault plan are handled outcomes
  // (verified above); only a frame that escapes as an exception — which
  // only hd_trailer can see, since run() never throws — failed.
  const long long episodes = static_cast<long long>(episode_s.size());
  const long long escaped =
      workload_name == "hd_trailer" ? ep.outcomes.failed : 0;
  print_result(ep.outcomes.offered * episodes, escaped * episodes, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 4;
  }
}
