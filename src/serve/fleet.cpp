#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>
#include <utility>

#include "core/check.h"
#include "core/rng.h"
#include "vgpu/kernel.h"

namespace fdet::serve {

namespace {

/// 64-bit FNV-1a over a luma plane — the detection-identity digest the
/// cross-stream result cache keys on (CRC32's collision odds are too
/// thin once hundreds of streams share frames).
std::uint64_t luma_digest(const img::ImageU8& luma) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t px : luma.pixels()) {
    h ^= px;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Nearest-rank percentile over served-frame latencies; `values` is
/// consumed (sorted in place).
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));
  rank = std::min(n, std::max<std::size_t>(1, rank));
  return values[rank - 1];
}

// Discrete-event queue. Kind doubles as the same-instant priority:
// device state changes resolve before traffic, so a loss at t tears
// down a dispatch that would have completed at exactly t.
enum EventKind {
  kEvDown = 0,
  kEvUp = 1,
  kEvWatchdog = 2,
  kEvArrival = 3,
  kEvComplete = 4,
};

struct Event {
  double t = 0.0;
  int kind = kEvArrival;
  int a = 0;  ///< device or stream
  int b = 0;  ///< frame index / device-fault spec index
  std::uint64_t gen = 0;
};

struct EventAfter {
  bool operator()(const Event& x, const Event& y) const {
    if (x.t != y.t) return x.t > y.t;
    if (x.kind != y.kind) return x.kind > y.kind;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  }
};

struct ReadyFrame {
  int stream = 0;
  int frame = 0;
  double arrival_s = 0.0;
  QosClass cls = QosClass::kBestEffort;
  bool solo = false;  ///< mid-failover: never batched with other streams
};

/// Dispatch priority: gold before silver before best-effort, then FIFO,
/// then stream id — total and deterministic.
bool ready_before(const ReadyFrame& x, const ReadyFrame& y) {
  if (x.cls != y.cls) return x.cls < y.cls;
  if (x.arrival_s != y.arrival_s) return x.arrival_s < y.arrival_s;
  return x.stream < y.stream;
}

/// Shed priority (worst first): best-effort before silver before gold,
/// newest arrival first.
bool shed_before(const ReadyFrame& x, const ReadyFrame& y) {
  if (x.cls != y.cls) return x.cls > y.cls;
  if (x.arrival_s != y.arrival_s) return x.arrival_s > y.arrival_s;
  return x.stream > y.stream;
}

struct BatchItem {
  int stream = 0;
  int frame = 0;
};

struct DecodeEntry {
  double decode_ms = 0.0;
  img::ImageU8 luma;
  std::uint64_t digest = 0;
};

struct DetectEntry {
  double detect_ms = 0.0;
  std::vector<detect::Detection> detections;
};

/// Launch observer failing every launch with a transient LaunchError: a
/// lost device, as the launching thread sees it.
class DeviceLoss final : public vgpu::LaunchObserver {
 public:
  explicit DeviceLoss(std::string what) : what_(std::move(what)) {}

  void before_launch(const vgpu::DeviceSpec& /*spec*/,
                     const vgpu::KernelConfig& /*config*/) override {
    throw vgpu::LaunchError(what_, /*transient=*/true);
  }

 private:
  std::string what_;
};

void append_cause(FleetFrame& rec, const std::string& token) {
  if (!rec.cause.empty()) {
    rec.cause += " -> ";
  }
  rec.cause += token;
}

}  // namespace

const char* qos_class_name(QosClass cls) {
  switch (cls) {
    case QosClass::kGold: return "gold";
    case QosClass::kSilver: return "silver";
    case QosClass::kBestEffort: return "best-effort";
  }
  return "?";
}

QosClass parse_qos_class(const std::string& token) {
  if (token == "gold") return QosClass::kGold;
  if (token == "silver") return QosClass::kSilver;
  if (token == "best-effort") return QosClass::kBestEffort;
  FDET_CHECK(false) << "unknown QoS class '" << token
                    << "' (classes: gold, silver, best-effort)";
  return QosClass::kBestEffort;
}

const char* device_state_name(DeviceState state) {
  switch (state) {
    case DeviceState::kHealthy: return "healthy";
    case DeviceState::kLost: return "lost";
    case DeviceState::kProbation: return "probation";
  }
  return "?";
}

bool TokenBucket::try_admit(double now_s) {
  const double dt = std::max(0.0, now_s - last_s_);
  last_s_ = std::max(last_s_, now_s);
  tokens_ = std::min(options_.burst, tokens_ + dt * options_.rate_per_s);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

std::vector<TenantMixEntry> parse_tenant_mix(const std::string& text) {
  std::vector<TenantMixEntry> mix;
  std::istringstream stream(text);
  for (std::string token; std::getline(stream, token, ',');) {
    if (token.empty()) {
      continue;
    }
    const auto colon = token.find(':');
    FDET_CHECK(colon != std::string::npos)
        << "tenant mix entry '" << token << "' is not <class>:<streams>";
    TenantMixEntry entry;
    entry.spec.name = token.substr(0, colon);
    entry.spec.cls = parse_qos_class(entry.spec.name);
    try {
      entry.streams = std::stoi(token.substr(colon + 1));
    } catch (const std::exception&) {
      entry.streams = 0;  // rejected below with the token in the message
    }
    FDET_CHECK(entry.streams >= 1)
        << "tenant mix stream count in '" << token
        << "' must be a positive integer";
    mix.push_back(std::move(entry));
  }
  FDET_CHECK(!mix.empty()) << "tenant mix '" << text << "' names no tenants";
  return mix;
}

const FleetFrame* FleetReport::frame(int stream, int index) const {
  const auto it = std::lower_bound(
      frames.begin(), frames.end(), std::make_pair(stream, index),
      [](const FleetFrame& f, const std::pair<int, int>& key) {
        return std::make_pair(f.stream, f.index) < key;
      });
  if (it == frames.end() || it->stream != stream || it->index != index) {
    return nullptr;
  }
  return &*it;
}

struct FleetScheduler::StreamConfig {
  int tenant = 0;
  const ingest::FrameSource* source = nullptr;
  double fps = 1.0;
  int frames = 0;
  double phase_s = 0.0;
};

// ---------------------------------------------------------------------------
// The per-run simulation. All of run()'s mutable state lives here so a
// FleetScheduler can run clean and faulted twins back to back.

struct FleetScheduler::Sim {
  struct SimStream {
    int tenant = 0;
    QosClass cls = QosClass::kBestEffort;
    const ingest::FrameSource* source = nullptr;
    int device = -1;
    std::deque<int> queue;  ///< admitted frames waiting, FIFO
    bool in_flight = false;
    bool has_ready = false;
    /// The next dispatch must be solo: the stream is mid-failover and a
    /// batch may not cross the fault-domain boundary.
    bool solo_next = false;
    DegradationLadder ladder;
    int max_level = 0;
  };

  struct SimDevice {
    DeviceHealth health;
    bool hanging = false;
    double hang_until = 0.0;
    std::uint64_t generation = 0;
    bool busy = false;
    double dispatch_s = 0.0;
    std::vector<ReadyFrame> ready;
    std::vector<BatchItem> batch;
    int frames = 0;
    int failovers_out = 0;
    double busy_ms = 0.0;
  };

  FleetScheduler* host = nullptr;
  const DeviceFaultPlan* device_plan = nullptr;
  std::vector<FaultPlan> stream_plans;  ///< per-stream seed split (empty = none)

  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  std::vector<SimStream> streams;
  std::vector<SimDevice> devices;
  std::vector<TokenBucket> buckets;  ///< one per tenant
  std::vector<int> offsets;          ///< stream -> first record index
  FleetReport report;
  std::unique_ptr<obs::SloEngine> slo;
  double last_shed_s = -1e18;

  std::map<std::pair<const void*, int>, DecodeEntry> decode_cache;
  std::map<std::pair<std::uint64_t, int>, DetectEntry> detect_cache;
  const img::ImageU8* probe_luma = nullptr;  ///< any decoded luma (seam probe)

  FleetFrame& rec(int stream, int frame) {
    return report.frames[static_cast<std::size_t>(offsets[
        static_cast<std::size_t>(stream)] + frame)];
  }

  const FleetOptions& opt() const { return host->options_; }

  // -- terminal bookkeeping --------------------------------------------------

  void settle(FleetFrame& r, FrameStatus status, double t) {
    r.status = status;
    r.completion_s = t;
    r.latency_ms = (t - r.arrival_s) * 1e3;
    r.settled = true;
  }

  // -- admission -------------------------------------------------------------

  void arrival(int s, int f, double t) {
    SimStream& ss = streams[static_cast<std::size_t>(s)];
    FleetFrame& r = rec(s, f);
    r.arrival_s = t;
    TokenBucket& bucket = buckets[static_cast<std::size_t>(ss.tenant)];
    if (!bucket.try_admit(t)) {
      append_cause(r, "admission-reject");
      r.error = FrameError{f, "admission", ErrorClass::kRejected,
                           "token bucket empty (tenant " +
                               host->tenants_[static_cast<std::size_t>(
                                                  ss.tenant)].name +
                               ")",
                           0};
      settle(r, FrameStatus::kAdmissionRejected, t);
      host->flight(obs::FlightEventKind::kDrop, s, f, t * 1e6, "admission",
                   qos_class_name(ss.cls));
    } else if (static_cast<int>(ss.queue.size()) >=
               opt().stream_queue_capacity) {
      append_cause(r, "shed:stream-backpressure");
      settle(r, FrameStatus::kDropped, t);
      host->flight(obs::FlightEventKind::kDrop, s, f, t * 1e6, "drop",
                   "stream-backpressure");
    } else {
      ss.queue.push_back(f);
      promote(s, t);
      if (ss.device >= 0) {
        maybe_dispatch(ss.device, t);
      }
    }
    const int depth = backlog();
    slo->observe_queue_depth(static_cast<double>(depth));
    if (depth > static_cast<int>(opt().overload_backlog_per_stream *
                                 static_cast<double>(streams.size()))) {
      shed_one("queue-overload", t);
    }
  }

  int backlog() const {
    int depth = 0;
    for (const SimStream& ss : streams) {
      depth += static_cast<int>(ss.queue.size()) + (ss.has_ready ? 1 : 0);
    }
    return depth;
  }

  // -- ready queues ----------------------------------------------------------

  void promote(int s, double t) {
    SimStream& ss = streams[static_cast<std::size_t>(s)];
    if (ss.in_flight || ss.has_ready || ss.queue.empty() || ss.device < 0) {
      return;
    }
    // The shed-frames rung serves only the newest backlog frame.
    if (ss.ladder.step().shed_queued_frames) {
      while (ss.queue.size() > 1) {
        const int f = ss.queue.front();
        ss.queue.pop_front();
        FleetFrame& r = rec(s, f);
        append_cause(r, "shed:shed-frames");
        settle(r, FrameStatus::kDropped, t);
        host->flight(obs::FlightEventKind::kDrop, s, f, t * 1e6, "drop",
                     "shed-frames");
      }
    }
    const int f = ss.queue.front();
    ss.queue.pop_front();
    ss.has_ready = true;
    devices[static_cast<std::size_t>(ss.device)].ready.push_back(
        {s, f, rec(s, f).arrival_s, ss.cls, ss.solo_next});
    shed_device_overflow(ss.device, t);
  }

  void shed_device_overflow(int d, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    while (static_cast<int>(dev.ready.size()) > opt().device_queue_capacity) {
      const auto victim =
          std::min_element(dev.ready.begin(), dev.ready.end(), shed_before);
      const int vs = victim->stream;
      const int vf = victim->frame;
      dev.ready.erase(victim);
      streams[static_cast<std::size_t>(vs)].has_ready = false;
      FleetFrame& r = rec(vs, vf);
      append_cause(r, "shed:fleet-backpressure");
      settle(r, FrameStatus::kDropped, t);
      host->flight(obs::FlightEventKind::kDrop, vs, vf, t * 1e6, "drop",
                   "fleet-backpressure");
      promote(vs, t);  // next frame of the shed stream may take the slot
    }
  }

  // -- dispatch --------------------------------------------------------------

  bool dispatchable(const SimDevice& dev) const {
    return !dev.busy && !dev.hanging &&
           dev.health.state() != DeviceState::kLost && !dev.ready.empty();
  }

  void maybe_dispatch(int d, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    while (dispatchable(dev)) {
      const auto primary =
          std::min_element(dev.ready.begin(), dev.ready.end(), ready_before);
      std::vector<ReadyFrame> picked{*primary};
      dev.ready.erase(primary);
      const int level =
          streams[static_cast<std::size_t>(picked[0].stream)].ladder.level();
      // Batching boundary rule: only a fully healthy device fuses
      // cross-stream work, and never with a stream mid-failover — a
      // recovered device (probation) and failed-over streams serve solo.
      const bool may_batch = opt().cross_stream_batching &&
                             !picked[0].solo &&
                             dev.health.state() == DeviceState::kHealthy;
      while (may_batch &&
             static_cast<int>(picked.size()) < opt().batch_max) {
        auto best = dev.ready.end();
        for (auto it = dev.ready.begin(); it != dev.ready.end(); ++it) {
          if (it->solo ||
              streams[static_cast<std::size_t>(it->stream)].ladder.level() !=
                  level) {
            continue;
          }
          if (best == dev.ready.end() || ready_before(*it, *best)) {
            best = it;
          }
        }
        if (best == dev.ready.end()) {
          break;
        }
        picked.push_back(*best);
        dev.ready.erase(best);
      }
      std::vector<BatchItem> batch;
      for (const ReadyFrame& rf : picked) {
        SimStream& ss = streams[static_cast<std::size_t>(rf.stream)];
        ss.has_ready = false;
        ss.in_flight = true;
        ss.solo_next = false;
        batch.push_back({rf.stream, rf.frame});
      }
      if (dispatch_batch(d, std::move(batch), t)) {
        return;  // device busy until the completion event
      }
      // Every frame of the batch settled at decode; try the next ready set.
    }
  }

  /// Runs decode + cached detection for the batch and schedules its
  /// completion. Returns false when everything settled immediately (the
  /// device stays free).
  bool dispatch_batch(int d, std::vector<BatchItem> batch, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    std::vector<BatchItem> live;
    double total_ms = 0.0;
    for (const BatchItem& item : batch) {
      SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
      FleetFrame& r = rec(item.stream, item.frame);
      r.device = d;
      r.degradation_level = ss.ladder.level();
      ss.max_level = std::max(ss.max_level, ss.ladder.level());
      if (!decode_frame(item, r, t)) {
        ss.in_flight = false;
        promote(item.stream, t);
        continue;
      }
      const double slow = device_plan == nullptr
                              ? 1.0
                              : device_plan->slow_factor(d, item.stream,
                                                         item.frame, t);
      if (slow > 1.0) {
        r.fault_injected = true;
        append_cause(r, "fault:device-slow");
        host->flight(obs::FlightEventKind::kFault, item.stream, item.frame,
                     t * 1e6, "fault", "device-slow", slow);
      }
      r.detect_ms *= slow;
      total_ms += r.decode_ms + r.detect_ms;
      live.push_back(item);
    }
    if (live.empty()) {
      return false;
    }
    if (live.size() > 1) {
      // The concurrent-kernel trick across streams: fused same-level
      // launches amortize per-launch overhead.
      total_ms = std::max(0.01, total_ms - opt().batch_overhead_ms *
                                               static_cast<double>(
                                                   live.size() - 1));
      ++report.batches;
      report.batched_frames += static_cast<int>(live.size());
    }
    for (const BatchItem& item : live) {
      rec(item.stream, item.frame).batch_size = static_cast<int>(live.size());
    }
    dev.batch = std::move(live);
    dev.busy = true;
    dev.dispatch_s = t;
    events.push({t + total_ms * 1e-3, kEvComplete, d, 0, dev.generation});
    return true;
  }

  /// Decode stage of one frame, through the per-run pristine-decode
  /// cache. Returns false when the frame settled (missing / malformed /
  /// retries exhausted).
  bool decode_frame(const BatchItem& item, FleetFrame& r, double t) {
    const SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
    const FaultPlan* splan =
        stream_plans.empty()
            ? nullptr
            : &stream_plans[static_cast<std::size_t>(item.stream)];
    if (splan != nullptr &&
        splan->fires(FaultKind::kBitstream, item.frame, 0)) {
      r.fault_injected = true;
      append_cause(r, "fault:bitstream -> quarantine:decode/malformed");
      r.error = FrameError{item.frame, "decode", ErrorClass::kMalformed,
                           "injected bitstream damage", 1};
      settle(r, FrameStatus::kFailed, t);
      host->flight(obs::FlightEventKind::kQuarantine, item.stream, item.frame,
                   t * 1e6, "quarantine", "decode/malformed");
      return false;
    }
    const DecodeEntry* entry = nullptr;
    try {
      entry = &decode_entry(ss.source, item.frame);
    } catch (const ingest::IngestError& error) {
      if (error.kind() == ingest::IngestErrorKind::kMissingFrame) {
        r.missing = true;
        append_cause(r, "missing-frame");
        settle(r, FrameStatus::kDropped, t);
        host->flight(obs::FlightEventKind::kDrop, item.stream, item.frame,
                     t * 1e6, "drop", "missing-frame");
      } else {
        append_cause(r, std::string("quarantine:decode/") +
                            ingest::ingest_error_kind_name(error.kind()));
        r.error = FrameError{item.frame, "decode", ErrorClass::kMalformed,
                             error.what(), 1};
        settle(r, FrameStatus::kFailed, t);
        host->flight(obs::FlightEventKind::kQuarantine, item.stream,
                     item.frame, t * 1e6, "quarantine", "decode/malformed");
      }
      return false;
    }
    r.decode_ms = entry->decode_ms;
    r.arrival = ss.source->arrival_kind(item.frame);
    if (r.arrival == ingest::FrameArrival::kOutOfOrder) {
      append_cause(r, "out-of-order");
    } else if (r.arrival == ingest::FrameArrival::kDuplicate) {
      append_cause(r, "duplicate-frame");
    }
    // Injected decode glitches: the fleet models StreamingService's
    // bounded retry as extra charged decode attempts (no backoff jitter
    // at fleet granularity); exhausting the bound quarantines.
    if (splan != nullptr) {
      int failing = 0;
      while (failing < 3 &&
             splan->fires(FaultKind::kDecodeFail, item.frame, failing)) {
        ++failing;
      }
      if (failing > 0) {
        r.fault_injected = true;
        r.decode_ms *= static_cast<double>(failing + 1);
        if (failing >= 3) {
          append_cause(r, "fault:decode -> failed:decode");
          r.error = FrameError{item.frame, "decode", ErrorClass::kTransient,
                               "injected decode failure (retries exhausted)",
                               3};
          settle(r, FrameStatus::kFailed, t);
          return false;
        }
        append_cause(r, "fault:decode -> retry:decode");
      }
    }
    std::uint64_t digest = entry->digest;
    const img::ImageU8* luma = &entry->luma;
    img::ImageU8 corrupted;
    if (splan != nullptr &&
        splan->fires(FaultKind::kCorruptLuma, item.frame, 0)) {
      r.fault_injected = true;
      append_cause(r, "fault:corrupt");
      corrupted = entry->luma;
      corrupt_luma(corrupted,
                   core::hash_combine(
                       splan->seed(),
                       static_cast<std::uint64_t>(item.frame)));
      digest = luma_digest(corrupted);
      luma = &corrupted;
    }
    const DetectEntry& det = detect_entry(digest, r.degradation_level, *luma);
    r.detect_ms = det.detect_ms;
    r.detections = det.detections;
    return true;
  }

  DecodeEntry& decode_entry(const ingest::FrameSource* source, int frame) {
    const std::pair<const void*, int> key{source, frame};
    const auto it = decode_cache.find(key);
    if (it != decode_cache.end()) {
      return it->second;
    }
    video::DecodedFrame decoded = source->decode(frame);  // may throw
    DecodeEntry entry;
    entry.decode_ms = decoded.decode_ms;
    entry.luma = std::move(decoded.frame.luma());
    entry.digest = luma_digest(entry.luma);
    DecodeEntry& stored = decode_cache.emplace(key, std::move(entry))
                              .first->second;
    if (probe_luma == nullptr) {
      probe_luma = &stored.luma;
    }
    return stored;
  }

  const DetectEntry& detect_entry(std::uint64_t digest, int level,
                                  const img::ImageU8& luma) {
    const std::pair<std::uint64_t, int> key{digest, level};
    const auto it = detect_cache.find(key);
    if (it != detect_cache.end()) {
      return it->second;
    }
    detect::FrameResult result = host->pipeline_for_level(level).process(luma);
    DetectEntry entry;
    entry.detect_ms = result.detect_ms;
    entry.detections = std::move(result.detections);
    return detect_cache.emplace(key, std::move(entry)).first->second;
  }

  // -- completion ------------------------------------------------------------

  void complete(int d, std::uint64_t gen, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    if (gen != dev.generation) {
      return;  // torn down by a device fault
    }
    if (dev.hanging) {
      // The device is stalled: the work finishes when the hang clears
      // (unless the watchdog declares the device lost first, which
      // bumps the generation and discards this).
      events.push({std::max(t, dev.hang_until), kEvComplete, d, 0, gen});
      return;
    }
    dev.busy = false;
    dev.busy_ms += (t - dev.dispatch_s) * 1e3;
    std::vector<int> touched;
    for (const BatchItem& item : dev.batch) {
      SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
      FleetFrame& r = rec(item.stream, item.frame);
      settle(r,
             r.degradation_level > 0 ? FrameStatus::kDegraded
                                     : FrameStatus::kOk,
             t);
      ++dev.frames;
      dev.health.on_frame_ok();
      if (r.latency_ms > opt().deadline_ms) {
        r.deadline_miss = true;
        append_cause(r, "deadline-miss");
        host->flight(obs::FlightEventKind::kDeadlineMiss, item.stream,
                     item.frame, t * 1e6, "deadline-miss", "", r.latency_ms);
      }
      host->flight(obs::FlightEventKind::kFrame, item.stream, item.frame,
                   r.arrival_s * 1e6, "frame", frame_status_name(r.status),
                   r.latency_ms);
      const obs::SloDecision decision = slo->observe_frame(r.latency_ms);
      if (decision.degrade) {
        shed_one("slo-burn", t);
      } else if (decision.recover) {
        recover_one("slo-recover", t);
      }
      ss.in_flight = false;
      promote(item.stream, t);
      touched.push_back(ss.device);
    }
    dev.batch.clear();
    maybe_dispatch(d, t);
    for (const int other : touched) {
      if (other >= 0 && other != d) {
        maybe_dispatch(other, t);
      }
    }
  }

  // -- fleet-wide shedding ---------------------------------------------------

  void shed_one(const char* cause, double t) {
    if (t - last_shed_s < opt().shed_cooldown_s) {
      return;
    }
    // Best-effort gives capacity first; gold sheds only when everyone
    // below is already at the floor.
    for (const QosClass cls : {QosClass::kBestEffort, QosClass::kSilver,
                               QosClass::kGold}) {
      bool moved = false;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        SimStream& ss = streams[s];
        if (ss.cls != cls ||
            ss.ladder.level() >= DegradationLadder::max_level()) {
          continue;
        }
        ss.ladder.apply(true, false, cause);
        ss.max_level = std::max(ss.max_level, ss.ladder.level());
        moved = true;
      }
      if (moved) {
        ++report.shed_steps;
        last_shed_s = t;
        host->flight(obs::FlightEventKind::kLadder, -1, -1, t * 1e6, "shed",
                     qos_class_name(cls), 1.0);
        return;
      }
    }
  }

  void recover_one(const char* cause, double t) {
    // Gold recovers first: the premium class climbs back to full
    // quality before lower classes get headroom back.
    for (const QosClass cls : {QosClass::kGold, QosClass::kSilver,
                               QosClass::kBestEffort}) {
      bool moved = false;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        SimStream& ss = streams[s];
        if (ss.cls != cls || ss.ladder.level() == 0) {
          continue;
        }
        ss.ladder.apply(false, true, cause);
        moved = true;
      }
      if (moved) {
        ++report.recover_steps;
        host->flight(obs::FlightEventKind::kLadder, -1, -1, t * 1e6,
                     "recover", qos_class_name(cls), -1.0);
        return;
      }
    }
  }

  // -- device fault domain ---------------------------------------------------

  void device_down(int d, int spec_index, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    const DeviceFaultSpec& spec =
        device_plan->specs()[static_cast<std::size_t>(spec_index)];
    const char* kind = device_fault_kind_name(spec.kind);
    ++report.device_faults;
    host->flight(obs::FlightEventKind::kFault, -1, d, t * 1e6, "fault", kind,
                 static_cast<double>(d));
    if (!dev.batch.empty()) {
      inject_via_launch_seam(d, kind);
      for (const BatchItem& item : dev.batch) {
        FleetFrame& r = rec(item.stream, item.frame);
        r.fault_injected = true;
        append_cause(r, std::string("fault:") + kind);
      }
    }
    if (spec.kind == DeviceFaultKind::kDeviceHang) {
      // Silent stall: nothing migrates until the watchdog notices.
      dev.hanging = true;
      dev.hang_until = t + spec.duration_s;
      events.push({t + opt().hang_watchdog_ms * 1e-3, kEvWatchdog, d, 0,
                   dev.generation});
    } else {
      dev.health.on_fault();
      fail_device(d, t);
    }
  }

  void watchdog(int d, std::uint64_t gen, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    if (!dev.hanging || gen != dev.generation) {
      return;  // the hang resolved (or the device already failed over)
    }
    ++report.watchdog_fires;
    dev.hanging = false;
    dev.health.on_fault();
    host->flight(obs::FlightEventKind::kBreaker, -1, d, t * 1e6, "watchdog",
                 "device-hang->lost", static_cast<double>(d));
    fail_device(d, t);
  }

  void device_up(int d, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    dev.hanging = false;
    if (dev.health.state() == DeviceState::kLost) {
      dev.health.on_recovered();
      host->flight(obs::FlightEventKind::kBreaker, -1, d, t * 1e6, "device",
                   "lost->probation", static_cast<double>(d));
      rebalance_to(d, t);
    }
    // A cleared hang (watchdog never fired) may leave ready work behind.
    maybe_dispatch(d, t);
  }

  /// Tears down a lost device: in-flight frames re-queue at the front of
  /// their streams (order preserved), every assigned stream migrates to
  /// the least-loaded healthy device, and the re-dispatch is marked solo
  /// so failover traffic never fuses into a cross-stream batch.
  void fail_device(int d, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    ++dev.generation;  // discard any in-flight completion
    dev.busy = false;
    for (const BatchItem& item : dev.batch) {
      SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
      FleetFrame& r = rec(item.stream, item.frame);
      r.failed_over = true;
      append_cause(r, "failover:dev" + std::to_string(d));
      ++report.failovers;
      ++dev.failovers_out;
      ss.queue.push_front(item.frame);
      ss.in_flight = false;
      ss.solo_next = true;
    }
    dev.batch.clear();
    // Un-promote ready frames (they follow their streams).
    for (const ReadyFrame& rf : dev.ready) {
      SimStream& ss = streams[static_cast<std::size_t>(rf.stream)];
      ss.queue.push_front(rf.frame);
      ss.has_ready = false;
      ss.solo_next = ss.solo_next || rf.solo;
    }
    dev.ready.clear();
    std::vector<int> targets;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      SimStream& ss = streams[s];
      if (ss.device != d) {
        continue;
      }
      ss.device = pick_target(d);
      if (ss.device >= 0) {
        promote(static_cast<int>(s), t);
        targets.push_back(ss.device);
      }
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (const int target : targets) {
      maybe_dispatch(target, t);
    }
  }

  /// Routes the device loss through the vgpu launch seam: one pipeline
  /// launch under an observer that throws LaunchError, so the fault
  /// exercises the exact path a real mid-kernel device failure would take.
  void inject_via_launch_seam(int d, const char* kind) {
    if (probe_luma == nullptr) {
      return;  // nothing ever decoded; the loss hit an idle fleet
    }
    bool surfaced = false;
    {
      DeviceLoss loss(std::string("injected ") + kind + " on virtual device " +
                      std::to_string(d));
      const vgpu::LaunchObserverScope scope(loss);
      try {
        host->pipeline_for_level(0).process(*probe_luma);
      } catch (const vgpu::LaunchError&) {
        surfaced = true;
      }
    }
    FDET_CHECK(surfaced) << "device fault did not surface through the "
                            "vgpu launch seam";
    host->count("serve.fleet.faults.injected", {{"kind", kind}});
  }

  int stream_load(int d) const {
    int load = 0;
    for (const SimStream& ss : streams) {
      load += ss.device == d ? 1 : 0;
    }
    return load;
  }

  /// Least-loaded serving-capable device other than `exclude`; -1 when
  /// the whole fleet is down.
  int pick_target(int exclude) const {
    int best = -1;
    int best_load = std::numeric_limits<int>::max();
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const SimDevice& dev = devices[d];
      if (static_cast<int>(d) == exclude || dev.hanging ||
          dev.health.state() == DeviceState::kLost) {
        continue;
      }
      const int load = stream_load(static_cast<int>(d));
      if (load < best_load) {
        best_load = load;
        best = static_cast<int>(d);
      }
    }
    return best;
  }

  /// A recovered device adopts orphaned streams, then pulls idle streams
  /// from the most-loaded device until the fleet is balanced again.
  void rebalance_to(int d, double t) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (streams[s].device < 0) {
        streams[s].device = d;
        promote(static_cast<int>(s), t);
      }
    }
    while (true) {
      int most = -1;
      int most_load = -1;
      for (std::size_t o = 0; o < devices.size(); ++o) {
        if (static_cast<int>(o) == d) {
          continue;
        }
        const int load = stream_load(static_cast<int>(o));
        if (load > most_load) {
          most_load = load;
          most = static_cast<int>(o);
        }
      }
      if (most < 0 || most_load - stream_load(d) < 2) {
        return;
      }
      // Move the highest-id idle stream; busy streams finish where they
      // are (their next frame follows the new assignment).
      int moved = -1;
      for (int s = static_cast<int>(streams.size()) - 1; s >= 0; --s) {
        SimStream& ss = streams[static_cast<std::size_t>(s)];
        if (ss.device == most && !ss.in_flight && !ss.has_ready) {
          ss.device = d;
          promote(s, t);
          moved = s;
          break;
        }
      }
      if (moved < 0) {
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------

FleetScheduler::FleetScheduler(const vgpu::DeviceSpec& spec,
                               haar::Cascade cascade,
                               detect::PipelineOptions base,
                               FleetOptions options, obs::Registry* registry)
    : spec_(spec),
      cascade_(std::move(cascade)),
      base_(base),
      options_(options),
      registry_(registry) {
  FDET_CHECK(options_.devices >= 1) << "fleet needs at least one device";
  FDET_CHECK(options_.deadline_ms > 0.0) << "fleet deadline must be > 0";
  FDET_CHECK(options_.batch_max >= 1) << "batch_max must be >= 1";
  FDET_CHECK(options_.stream_queue_capacity >= 1)
      << "stream_queue_capacity must be >= 1";
  FDET_CHECK(options_.device_queue_capacity >= 1)
      << "device_queue_capacity must be >= 1";
  if (options_.flight_recorder) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        options_.recorder_capacity);
  }
}

FleetScheduler::~FleetScheduler() = default;

int FleetScheduler::stream_count() const {
  return static_cast<int>(streams_.size());
}

int FleetScheduler::add_tenant(TenantSpec spec) {
  FDET_CHECK(!spec.name.empty()) << "tenant needs a name";
  tenants_.push_back(std::move(spec));
  return static_cast<int>(tenants_.size()) - 1;
}

int FleetScheduler::add_stream(int tenant, const ingest::FrameSource& source,
                               double fps, int frames, double phase_s) {
  FDET_CHECK(tenant >= 0 && tenant < static_cast<int>(tenants_.size()))
      << "unknown tenant id " << tenant;
  FDET_CHECK(fps > 0.0) << "stream fps must be > 0";
  FDET_CHECK(frames >= 1 && frames <= source.frame_count())
      << "stream frame count " << frames << " outside the source's "
      << source.frame_count();
  FDET_CHECK(phase_s >= 0.0) << "stream phase must be >= 0";
  streams_.push_back({tenant, &source, fps, frames, phase_s});
  return static_cast<int>(streams_.size()) - 1;
}

const detect::Pipeline& FleetScheduler::pipeline_for_level(int level) {
  auto it = pipelines_.find(level);
  if (it == pipelines_.end()) {
    const DegradationStep& step = DegradationLadder::step_at(level);
    detect::PipelineOptions options = base_;
    options.skip_finest_levels =
        base_.skip_finest_levels + step.skip_finest_levels;
    options.min_neighbors = base_.min_neighbors + step.min_neighbors_boost;
    if (step.serial_exec) {
      options.mode = vgpu::ExecMode::kSerial;
    }
    it = pipelines_
             .emplace(level, std::make_unique<detect::Pipeline>(
                                 spec_, cascade_, options))
             .first;
  }
  return *it->second;
}

void FleetScheduler::count(const char* name, const obs::Labels& labels,
                           double delta) {
  if (registry_ != nullptr) {
    registry_->counter(name, labels).add(delta);
  }
}

void FleetScheduler::gauge(const char* name, double value,
                           const obs::Labels& labels) {
  if (registry_ != nullptr) {
    registry_->gauge(name, labels).set(value);
  }
}

void FleetScheduler::flight(obs::FlightEventKind kind, int stream, int frame,
                            double ts_us, const char* name,
                            const char* detail, double value) {
  if (!recorder_) {
    return;
  }
  obs::FlightEvent event;
  event.kind = kind;
  event.ts_us = ts_us;
  event.frame = frame;
  event.value = value;
  event.set_name(name);
  std::string tagged = detail;
  if (stream >= 0) {
    tagged = "s" + std::to_string(stream) +
             (tagged.empty() ? "" : ":" + tagged);
  }
  event.set_detail(tagged.c_str());
  recorder_->record(event);
}

FleetReport FleetScheduler::run(const DeviceFaultPlan* device_plan,
                                const FaultPlan* frame_plan) {
  FDET_CHECK(!tenants_.empty()) << "fleet has no tenants";
  FDET_CHECK(!streams_.empty()) << "fleet has no streams";
  if (device_plan != nullptr) {
    for (const DeviceFaultSpec& spec : device_plan->specs()) {
      FDET_CHECK(spec.device < options_.devices)
          << "device fault targets device " << spec.device
          << " but the fleet has " << options_.devices;
    }
  }

  Sim sim;
  sim.host = this;
  sim.device_plan = device_plan;
  if (frame_plan != nullptr && !frame_plan->empty()) {
    // Per-stream seed split: frame-targeted specs hit the same frame of
    // every stream; probabilistic specs diversify across streams.
    sim.stream_plans.reserve(streams_.size());
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      sim.stream_plans.emplace_back(
          core::hash_combine(frame_plan->seed(), 0xabc0 + s),
          frame_plan->specs());
    }
  }

  obs::SloOptions slo_options = options_.slo;
  slo_options.deadline_ms = options_.deadline_ms;
  slo_options.recover_fraction = options_.degrade.recover_fraction;
  slo_options.recover_after = options_.degrade.recover_after;
  sim.slo = std::make_unique<obs::SloEngine>(slo_options);

  sim.buckets.reserve(tenants_.size());
  for (const TenantSpec& tenant : tenants_) {
    sim.buckets.emplace_back(tenant.admission);
  }
  sim.devices.resize(static_cast<std::size_t>(options_.devices));
  sim.streams.reserve(streams_.size());
  sim.offsets.reserve(streams_.size());
  int total_frames = 0;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const StreamConfig& config = streams_[s];
    Sim::SimStream ss;
    ss.tenant = config.tenant;
    ss.cls = tenants_[static_cast<std::size_t>(config.tenant)].cls;
    ss.source = config.source;
    ss.device = static_cast<int>(s) % options_.devices;
    ss.ladder = DegradationLadder();
    sim.streams.push_back(std::move(ss));
    sim.offsets.push_back(total_frames);
    total_frames += config.frames;
  }
  sim.report.frames.resize(static_cast<std::size_t>(total_frames));
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const StreamConfig& config = streams_[s];
    for (int f = 0; f < config.frames; ++f) {
      FleetFrame& r = sim.rec(static_cast<int>(s), f);
      r.stream = static_cast<int>(s);
      r.index = f;
      r.tenant = config.tenant;
      const double t = config.phase_s + static_cast<double>(f) / config.fps;
      sim.events.push({t, kEvArrival, static_cast<int>(s), f, 0});
    }
  }
  if (device_plan != nullptr) {
    const auto& specs = device_plan->specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const DeviceFaultSpec& spec = specs[i];
      if (spec.kind == DeviceFaultKind::kDeviceSlow || spec.device < 0) {
        continue;  // slow faults apply at dispatch, not as state changes
      }
      sim.events.push({spec.start_s, kEvDown, spec.device,
                       static_cast<int>(i), 0});
      sim.events.push({spec.start_s + spec.duration_s, kEvUp, spec.device, 0,
                       0});
    }
  }

  while (!sim.events.empty()) {
    const Event e = sim.events.top();
    sim.events.pop();
    switch (e.kind) {
      case kEvDown: sim.device_down(e.a, e.b, e.t); break;
      case kEvUp: sim.device_up(e.a, e.t); break;
      case kEvWatchdog: sim.watchdog(e.a, e.gen, e.t); break;
      case kEvArrival: sim.arrival(e.a, e.b, e.t); break;
      case kEvComplete: sim.complete(e.a, e.gen, e.t); break;
      default: FDET_CHECK(false) << "unknown fleet event kind " << e.kind;
    }
  }

  // ---- finalize -----------------------------------------------------------
  FleetReport& report = sim.report;
  double end_s = 0.0;
  for (FleetFrame& r : report.frames) {
    end_s = std::max(end_s, r.completion_s);
  }
  for (FleetFrame& r : report.frames) {
    if (!r.settled) {
      // A scheduler bug, never expected: surface it as a typed failure
      // the chaos harness gates on instead of losing the frame.
      append_cause(r, "stranded");
      r.error = FrameError{r.index, "fleet", ErrorClass::kFatal,
                           "frame stranded at end of run", 0};
      sim.settle(r, FrameStatus::kFailed, end_s);
      ++report.stranded;
    }
  }

  report.tenants.resize(tenants_.size());
  std::vector<std::vector<double>> latencies(tenants_.size());
  for (std::size_t tnt = 0; tnt < tenants_.size(); ++tnt) {
    report.tenants[tnt].name = tenants_[tnt].name;
    report.tenants[tnt].cls = tenants_[tnt].cls;
  }
  for (const Sim::SimStream& ss : sim.streams) {
    ++report.tenants[static_cast<std::size_t>(ss.tenant)].streams;
  }
  for (const FleetFrame& r : report.frames) {
    TenantReport& tenant = report.tenants[static_cast<std::size_t>(r.tenant)];
    ++tenant.frames;
    switch (r.status) {
      case FrameStatus::kOk: ++tenant.ok; break;
      case FrameStatus::kDegraded: ++tenant.degraded; break;
      case FrameStatus::kDropped: ++tenant.dropped; break;
      case FrameStatus::kFailed: ++tenant.failed; break;
      case FrameStatus::kAdmissionRejected:
        ++tenant.admission_rejected;
        break;
    }
    if (r.status != FrameStatus::kAdmissionRejected) {
      ++tenant.admitted;
    }
    if (r.status == FrameStatus::kOk || r.status == FrameStatus::kDegraded) {
      latencies[static_cast<std::size_t>(r.tenant)].push_back(r.latency_ms);
      tenant.max_latency_ms = std::max(tenant.max_latency_ms, r.latency_ms);
      ++report.served;
    }
    tenant.deadline_misses += r.deadline_miss ? 1 : 0;
    tenant.failovers += r.failed_over ? 1 : 0;
    report.admission_rejected +=
        r.status == FrameStatus::kAdmissionRejected ? 1 : 0;
    report.dropped += r.status == FrameStatus::kDropped ? 1 : 0;
    report.failed += r.status == FrameStatus::kFailed ? 1 : 0;
    report.deadline_misses += r.deadline_miss ? 1 : 0;
    report.missing_frames += r.missing ? 1 : 0;
    report.out_of_order +=
        r.arrival == ingest::FrameArrival::kOutOfOrder ? 1 : 0;
    report.duplicates +=
        r.arrival == ingest::FrameArrival::kDuplicate ? 1 : 0;
  }
  report.admitted = total_frames - report.admission_rejected;
  for (const Sim::SimStream& ss : sim.streams) {
    TenantReport& tenant =
        report.tenants[static_cast<std::size_t>(ss.tenant)];
    tenant.max_shed_level = std::max(tenant.max_shed_level, ss.max_level);
  }
  for (std::size_t tnt = 0; tnt < tenants_.size(); ++tnt) {
    report.tenants[tnt].p50_ms = percentile(latencies[tnt], 0.50);
    report.tenants[tnt].p99_ms = percentile(latencies[tnt], 0.99);
  }
  report.devices.resize(sim.devices.size());
  for (std::size_t d = 0; d < sim.devices.size(); ++d) {
    const Sim::SimDevice& dev = sim.devices[d];
    report.devices[d].frames = dev.frames;
    report.devices[d].faults = dev.health.faults();
    report.devices[d].failovers_out = dev.failovers_out;
    report.devices[d].busy_ms = dev.busy_ms;
    report.devices[d].final_state = dev.health.state();
  }
  report.slo = sim.slo->snapshot();

  if (registry_ != nullptr) {
    for (const TenantReport& tenant : report.tenants) {
      const obs::Labels labels{{"tenant", tenant.name},
                               {"class", qos_class_name(tenant.cls)}};
      count("serve.fleet.frames", labels,
            static_cast<double>(tenant.frames));
      count("serve.fleet.admission_rejects", labels,
            static_cast<double>(tenant.admission_rejected));
      count("serve.fleet.deadline_misses", labels,
            static_cast<double>(tenant.deadline_misses));
      count("serve.fleet.failovers", labels,
            static_cast<double>(tenant.failovers));
      gauge("serve.fleet.latency_p50_ms", tenant.p50_ms, labels);
      gauge("serve.fleet.latency_p99_ms", tenant.p99_ms, labels);
      gauge("serve.fleet.max_shed_level",
            static_cast<double>(tenant.max_shed_level), labels);
    }
    count("serve.fleet.device_faults", {},
          static_cast<double>(report.device_faults));
    count("serve.fleet.watchdog_fires", {},
          static_cast<double>(report.watchdog_fires));
    count("serve.fleet.batches", {}, static_cast<double>(report.batches));
    count("serve.fleet.batched_frames", {},
          static_cast<double>(report.batched_frames));
    count("serve.fleet.shed_steps", {},
          static_cast<double>(report.shed_steps));
    count("serve.fleet.recover_steps", {},
          static_cast<double>(report.recover_steps));
    for (std::size_t d = 0; d < report.devices.size(); ++d) {
      gauge("serve.fleet.device.state",
            static_cast<double>(report.devices[d].final_state),
            {{"device", std::to_string(d)}});
    }
    sim.slo->publish(*registry_);
  }
  return report;
}

}  // namespace fdet::serve
