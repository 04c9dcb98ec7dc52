#include "serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/check.h"
#include "core/cli.h"
#include "core/rng.h"
#include "vgpu/kernel.h"

namespace fdet::serve {

namespace {

/// Admitted backlog per stream; arrivals beyond it are shed.
constexpr int kStreamQueueCapacity = 4;
/// Ready frames per device before class-aware shedding kicks in.
constexpr int kDeviceQueueCapacity = 64;
/// Frames fused per cross-stream dispatch.
constexpr int kBatchMax = 4;
/// Launch overhead a fused dispatch saves per extra frame.
constexpr double kBatchOverheadMs = 0.5;
/// Overload when total backlog exceeds this many frames per active
/// stream (the queue-depth half of the shared shed signal).
constexpr double kOverloadBacklogPerStream = 2.0;
/// Flight-recorder ring size.
constexpr std::size_t kRecorderCapacity = 16384;

/// Nearest-rank percentile over served-frame latencies; `values` is
/// consumed (sorted in place).
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))), 1, n);
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
    return std::tie(x.t, x.kind, x.a, x.b) > std::tie(y.t, y.kind, y.a, y.b);
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
  return std::tie(x.cls, x.arrival_s, x.stream) <
         std::tie(y.cls, y.arrival_s, y.stream);
}

/// Shed priority (worst first): best-effort before silver before gold,
/// newest arrival first.
bool shed_before(const ReadyFrame& x, const ReadyFrame& y) {
  return ready_before(y, x);
}

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
    FDET_CHECK(core::parse_int(token.substr(colon + 1), entry.streams) &&
               entry.streams >= 1)
        << "tenant mix stream count in '" << token
        << "' must be a positive integer";
    mix.push_back(std::move(entry));
  }
  FDET_CHECK(!mix.empty()) << "tenant mix '" << text << "' names no tenants";
  return mix;
}

const ServedFrame* FleetReport::frame(int stream, int index) const {
  const auto it = std::lower_bound(
      frames.begin(), frames.end(), std::make_pair(stream, index),
      [](const ServedFrame& f, const std::pair<int, int>& key) {
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
    StreamRecovery recovery;  ///< ladder, breakers and backoff jitter
    /// The frame plan under this stream's seed split (empty = none).
    FaultPlan plan;
    int max_level = 0;
  };

  struct SimDevice {
    DeviceState state = DeviceState::kHealthy;
    int faults = 0;
    bool hanging = false;
    double hang_until = 0.0;
    std::uint64_t generation = 0;
    bool busy = false;
    double dispatch_s = 0.0;
    std::vector<ReadyFrame> ready;
    std::vector<ReadyFrame> batch;  ///< in flight
    int frames = 0;
    int failovers_out = 0;
    double busy_ms = 0.0;
  };

  FleetScheduler* host = nullptr;
  const DeviceFaultPlan* device_plan = nullptr;

  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  std::vector<SimStream> streams;
  std::vector<SimDevice> devices;
  std::vector<TokenBucket> buckets;  ///< one per tenant
  std::vector<int> offsets;          ///< stream -> first record index
  FleetReport report;
  double last_shed_s = -1e18;

  /// One decoded luma for the launch-seam device-loss probe (kept for
  /// the run once a loss first needs it).
  std::optional<img::ImageU8> probe_luma;

  ServedFrame& rec(int stream, int frame) {
    return report.frames[static_cast<std::size_t>(offsets[
        static_cast<std::size_t>(stream)] + frame)];
  }

  // -- terminal bookkeeping --------------------------------------------------

  void settle(ServedFrame& r, FrameStatus status, double t) {
    r.status = status;
    r.completion_s = t;
    r.latency_ms = (t - r.arrival_s) * 1e3;
    r.settled = true;
  }

  /// Drops admitted frame `f` of stream `s` before service.
  void shed(int s, int f, const char* reason, double t) {
    ServedFrame& r = rec(s, f);
    append_cause(r, std::string("shed:") + reason);
    settle(r, FrameStatus::kDropped, t);
    host->executor_.flight(obs::FlightEventKind::kDrop, f, t * 1e6, 0.0,
                           "drop", reason, 0.0, s);
  }

  // -- admission -------------------------------------------------------------

  void arrival(int s, int f, double t) {
    SimStream& ss = streams[static_cast<std::size_t>(s)];
    ServedFrame& r = rec(s, f);
    r.arrival_s = t;
    ss.recovery.on_frame();
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
      host->executor_.flight(obs::FlightEventKind::kDrop, f, t * 1e6, 0.0,
                             "admission", qos_class_name(ss.cls), 0.0, s);
    } else if (static_cast<int>(ss.queue.size()) >= kStreamQueueCapacity) {
      shed(s, f, "stream-backpressure", t);
    } else {
      ss.queue.push_back(f);
      promote(s, t);
      if (ss.device >= 0) {
        maybe_dispatch(ss.device, t);
      }
    }
    const int depth = backlog();
    host->executor_.slo().observe_queue_depth(static_cast<double>(depth));
    if (depth > static_cast<int>(kOverloadBacklogPerStream *
                                 static_cast<double>(streams.size()))) {
      step_class(true, t);
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
    if (ss.recovery.ladder.step().shed_queued_frames) {
      while (ss.queue.size() > 1) {
        shed(s, ss.queue.front(), "shed-frames", t);
        ss.queue.pop_front();
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
    while (static_cast<int>(dev.ready.size()) > kDeviceQueueCapacity) {
      const auto victim =
          std::min_element(dev.ready.begin(), dev.ready.end(), shed_before);
      const int vs = victim->stream;
      const int vf = victim->frame;
      dev.ready.erase(victim);
      streams[static_cast<std::size_t>(vs)].has_ready = false;
      shed(vs, vf, "fleet-backpressure", t);
      promote(vs, t);  // next frame of the shed stream may take the slot
    }
  }

  // -- dispatch --------------------------------------------------------------

  bool dispatchable(const SimDevice& dev) const {
    return !dev.busy && !dev.hanging && dev.state != DeviceState::kLost &&
           !dev.ready.empty();
  }

  void maybe_dispatch(int d, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    while (dispatchable(dev)) {
      const auto primary =
          std::min_element(dev.ready.begin(), dev.ready.end(), ready_before);
      std::vector<ReadyFrame> picked{*primary};
      dev.ready.erase(primary);
      const int level = streams[static_cast<std::size_t>(picked[0].stream)]
                            .recovery.ladder.level();
      // Batching boundary rule: only a fully healthy device fuses
      // cross-stream work, and never with a stream mid-failover — a
      // recovered device (probation) and failed-over streams serve solo.
      const bool may_batch =
          !picked[0].solo && dev.state == DeviceState::kHealthy;
      while (may_batch && static_cast<int>(picked.size()) < kBatchMax) {
        auto best = dev.ready.end();
        for (auto it = dev.ready.begin(); it != dev.ready.end(); ++it) {
          if (it->solo || streams[static_cast<std::size_t>(it->stream)]
                                  .recovery.ladder.level() != level) {
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
      for (const ReadyFrame& rf : picked) {
        SimStream& ss = streams[static_cast<std::size_t>(rf.stream)];
        ss.has_ready = false;
        ss.in_flight = true;
        ss.solo_next = false;
      }
      if (dispatch_batch(d, picked, t)) {
        return;  // device busy until the completion event
      }
      // Every frame of the batch settled at dispatch; try the next ready set.
    }
  }

  /// Serves every frame of the batch through the per-frame path and
  /// schedules the batch's completion. A frame that fails in service
  /// settles here. Returns false when every frame settled (the device
  /// stays free).
  bool dispatch_batch(int d, const std::vector<ReadyFrame>& batch,
                      double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    std::vector<ReadyFrame> live;
    double total_ms = 0.0;
    for (const ReadyFrame& item : batch) {
      SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
      ServedFrame& r = rec(item.stream, item.frame);
      r.device = d;
      ss.recovery.serve_frame(host->executor_, r, *ss.source,
                              ss.plan.empty() ? nullptr : &ss.plan, t);
      // Serving can only deepen the ladder: a tripped breaker forces the
      // serial rung.
      ss.max_level = std::max(ss.max_level, ss.recovery.ladder.level());
      if (r.status == FrameStatus::kFailed ||
          r.status == FrameStatus::kDropped) {
        settle(r, r.status, t);
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
        host->executor_.flight(obs::FlightEventKind::kFault, item.frame,
                               t * 1e6, 0.0, "fault", "device-slow", slow,
                               item.stream);
      }
      r.detect_ms *= slow;
      total_ms += r.decode_ms + r.backoff_ms + r.detect_ms;
      live.push_back(item);
    }
    if (live.empty()) {
      return false;
    }
    if (live.size() > 1) {
      // The concurrent-kernel trick across streams: fused same-level
      // launches amortize per-launch overhead.
      total_ms = std::max(0.01, total_ms - kBatchOverheadMs *
                                               static_cast<double>(
                                                   live.size() - 1));
      ++report.batches;
      report.batched_frames += static_cast<int>(live.size());
    }
    for (const ReadyFrame& item : live) {
      rec(item.stream, item.frame).batch_size = static_cast<int>(live.size());
    }
    dev.batch = std::move(live);
    dev.busy = true;
    dev.dispatch_s = t;
    events.push({t + total_ms * 1e-3, kEvComplete, d, 0, dev.generation});
    return true;
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
    for (const ReadyFrame& item : dev.batch) {
      SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
      ServedFrame& r = rec(item.stream, item.frame);
      settle(r,
             r.degradation_level > 0 ? FrameStatus::kDegraded
                                     : FrameStatus::kOk,
             t);
      ++dev.frames;
      if (dev.state == DeviceState::kProbation) {
        dev.state = DeviceState::kHealthy;  // one clean frame ends probation
      }
      if (r.latency_ms > host->options_.deadline_ms) {
        r.deadline_miss = true;
        append_cause(r, "deadline-miss");
        host->executor_.flight(obs::FlightEventKind::kDeadlineMiss, item.frame,
                               t * 1e6, 0.0, "deadline-miss", "", r.latency_ms,
                               item.stream);
      }
      host->executor_.flight(obs::FlightEventKind::kFrame, item.frame,
                             r.arrival_s * 1e6, 0.0, "frame",
                             frame_status_name(r.status), r.latency_ms,
                             item.stream);
      const obs::SloDecision decision =
          host->executor_.slo().observe_frame(r.latency_ms);
      if (decision.degrade || decision.recover) {
        step_class(decision.degrade, t);
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

  /// Moves the first QoS class that can move one rung, every stream of
  /// it at once. Shedding starts at best-effort, so gold sheds only when
  /// everyone below is already at the floor, and waits out the cooldown;
  /// recovery starts at gold, so the premium class climbs back to full
  /// quality before lower classes get headroom back.
  void step_class(bool shed, double t) {
    if (shed && t - last_shed_s < kShedCooldownS) {
      return;
    }
    constexpr QosClass kShedOrder[] = {QosClass::kBestEffort,
                                       QosClass::kSilver, QosClass::kGold};
    for (int i = 0; i < kQosClassCount; ++i) {
      const QosClass cls = kShedOrder[shed ? i : kQosClassCount - 1 - i];
      const int limit = shed ? DegradationLadder::max_level() : 0;
      bool moved = false;
      for (SimStream& ss : streams) {
        DegradationLadder& ladder = ss.recovery.ladder;
        if (ss.cls != cls || ladder.level() == limit) {
          continue;
        }
        ladder.apply(shed, !shed);
        ss.max_level = std::max(ss.max_level, ladder.level());
        moved = true;
      }
      if (moved) {
        if (shed) {
          ++report.shed_steps;
          last_shed_s = t;
        } else {
          ++report.recover_steps;
        }
        host->executor_.flight(obs::FlightEventKind::kLadder, -1, t * 1e6, 0.0,
                               shed ? "shed" : "recover",
                               qos_class_name(cls), shed ? 1.0 : -1.0);
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
    host->executor_.flight(obs::FlightEventKind::kFault, d, t * 1e6, 0.0,
                           "fault", kind, static_cast<double>(d));
    if (!dev.batch.empty()) {
      inject_via_launch_seam(d, kind);
      for (const ReadyFrame& item : dev.batch) {
        ServedFrame& r = rec(item.stream, item.frame);
        r.fault_injected = true;
        append_cause(r, std::string("fault:") + kind);
      }
    }
    if (spec.kind == DeviceFaultKind::kDeviceHang) {
      // Silent stall: nothing migrates until the watchdog notices.
      dev.hanging = true;
      dev.hang_until = t + spec.duration_s;
      events.push({t + kHangWatchdogMs * 1e-3, kEvWatchdog,
                   d, 0, dev.generation});
    } else {
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
    host->executor_.flight(obs::FlightEventKind::kBreaker, d, t * 1e6, 0.0,
                           "watchdog", "device-hang->lost",
                           static_cast<double>(d));
    fail_device(d, t);
  }

  void device_up(int d, double t) {
    SimDevice& dev = devices[static_cast<std::size_t>(d)];
    dev.hanging = false;
    if (dev.state == DeviceState::kLost) {
      dev.state = DeviceState::kProbation;
      host->executor_.flight(obs::FlightEventKind::kBreaker, d, t * 1e6, 0.0,
                             "device", "lost->probation",
                             static_cast<double>(d));
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
    dev.state = DeviceState::kLost;
    ++dev.faults;
    ++dev.generation;  // discard any in-flight completion
    dev.busy = false;
    for (const ReadyFrame& item : dev.batch) {
      SimStream& ss = streams[static_cast<std::size_t>(item.stream)];
      ServedFrame& r = rec(item.stream, item.frame);
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

  /// Routes the loss of a device with work in flight through the vgpu
  /// launch seam: one pipeline launch over an in-flight frame, under an
  /// observer that throws LaunchError, so the fault exercises the exact
  /// path a real mid-kernel device failure would take.
  void inject_via_launch_seam(int d, const char* kind) {
    FrameExecutor& executor = host->executor_;
    if (!probe_luma) {
      const ReadyFrame& item = devices[static_cast<std::size_t>(d)].batch[0];
      probe_luma = std::move(streams[static_cast<std::size_t>(item.stream)]
                                 .source->decode(item.frame)
                                 .frame.luma());
    }
    bool surfaced = false;
    {
      DeviceLoss loss(std::string("injected ") + kind + " on virtual device " +
                      std::to_string(d));
      const vgpu::LaunchObserverScope scope(loss);
      try {
        executor.pipeline(0).process(*probe_luma);
      } catch (const vgpu::LaunchError&) {
        surfaced = true;
      }
    }
    FDET_CHECK(surfaced) << "device fault did not surface through the "
                            "vgpu launch seam";
    executor.count("serve.fleet.faults.injected", {{"kind", kind}});
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
          dev.state == DeviceState::kLost) {
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
    : options_(options),
      executor_(spec, std::move(cascade), base, registry,
                options_.flight_recorder ? kRecorderCapacity : 0) {
  FDET_CHECK(options_.devices >= 1) << "fleet needs at least one device";
  FDET_CHECK(options_.deadline_ms > 0.0) << "fleet deadline must be > 0";
}

FleetScheduler::~FleetScheduler() = default;

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

  executor_.begin_run(options_.deadline_ms);

  sim.buckets.reserve(tenants_.size());
  for (const TenantSpec& tenant : tenants_) {
    sim.buckets.emplace_back(tenant.admission);
  }
  sim.devices.resize(static_cast<std::size_t>(options_.devices));
  sim.streams.reserve(streams_.size());
  sim.offsets.reserve(streams_.size());
  std::size_t total_frames = 0;
  for (const StreamConfig& config : streams_) {
    total_frames += static_cast<std::size_t>(config.frames);
  }
  sim.report.frames.reserve(total_frames);
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    const StreamConfig& config = streams_[s];
    Sim::SimStream ss;
    ss.tenant = config.tenant;
    ss.cls = tenants_[static_cast<std::size_t>(config.tenant)].cls;
    ss.source = config.source;
    ss.device = static_cast<int>(s) % options_.devices;
    // Per-stream seed split: frame-targeted specs hit the same frame of
    // every stream; probabilistic specs and backoff jitter diversify
    // across streams.
    const std::uint64_t seed = core::hash_combine(
        frame_plan != nullptr ? frame_plan->seed() : 0, 0xabc0 + s);
    ss.recovery = StreamRecovery(RetryOptions{}, seed,
                                 static_cast<int>(s));
    if (frame_plan != nullptr) {
      ss.plan = FaultPlan(seed, frame_plan->specs());
    }
    sim.streams.push_back(std::move(ss));
    sim.offsets.push_back(static_cast<int>(sim.report.frames.size()));
    for (int f = 0; f < config.frames; ++f) {
      ServedFrame& r = sim.report.frames.emplace_back();
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
  for (ServedFrame& r : report.frames) {
    end_s = std::max(end_s, r.completion_s);
  }
  for (ServedFrame& r : report.frames) {
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
  for (const Sim::SimStream& ss : sim.streams) {
    TenantReport& tenant = report.tenants[static_cast<std::size_t>(ss.tenant)];
    ++tenant.streams;
    tenant.max_shed_level = std::max(tenant.max_shed_level, ss.max_level);
  }
  for (const ServedFrame& r : report.frames) {
    TenantReport& tenant = report.tenants[static_cast<std::size_t>(r.tenant)];
    ++tenant.frames;
    switch (r.status) {
      case FrameStatus::kOk: ++tenant.ok; break;
      case FrameStatus::kDegraded: ++tenant.degraded; break;
      case FrameStatus::kDropped: ++tenant.dropped; break;
      case FrameStatus::kFailed: ++tenant.failed; break;
      case FrameStatus::kAdmissionRejected: ++tenant.admission_rejected; break;
    }
    if (r.status == FrameStatus::kOk || r.status == FrameStatus::kDegraded) {
      latencies[static_cast<std::size_t>(r.tenant)].push_back(r.latency_ms);
      tenant.max_latency_ms = std::max(tenant.max_latency_ms, r.latency_ms);
    }
    tenant.deadline_misses += r.deadline_miss ? 1 : 0;
    tenant.failovers += r.failed_over ? 1 : 0;
  }
  // Fleet totals are the tenants' sums.
  for (std::size_t tnt = 0; tnt < tenants_.size(); ++tnt) {
    TenantReport& tenant = report.tenants[tnt];
    tenant.name = tenants_[tnt].name;
    tenant.cls = tenants_[tnt].cls;
    tenant.admitted = tenant.frames - tenant.admission_rejected;
    tenant.p50_ms = percentile(latencies[tnt], 0.50);
    tenant.p99_ms = percentile(latencies[tnt], 0.99);
    report.admitted += tenant.admitted;
    report.admission_rejected += tenant.admission_rejected;
    report.served += tenant.ok + tenant.degraded;
    report.dropped += tenant.dropped;
    report.failed += tenant.failed;
    report.deadline_misses += tenant.deadline_misses;
  }
  report.devices.resize(sim.devices.size());
  for (std::size_t d = 0; d < sim.devices.size(); ++d) {
    const Sim::SimDevice& dev = sim.devices[d];
    report.devices[d].frames = dev.frames;
    report.devices[d].faults = dev.faults;
    report.devices[d].failovers_out = dev.failovers_out;
    report.devices[d].busy_ms = dev.busy_ms;
    report.devices[d].final_state = dev.state;
  }
  report.slo = executor_.slo().snapshot();

  if (executor_.registry() != nullptr) {
    for (const TenantReport& tenant : report.tenants) {
      const obs::Labels labels{{"tenant", tenant.name},
                               {"class", qos_class_name(tenant.cls)}};
      executor_.count("serve.fleet.frames", labels,
                      static_cast<double>(tenant.frames));
      executor_.count("serve.fleet.admission_rejects", labels,
                      static_cast<double>(tenant.admission_rejected));
      executor_.count("serve.fleet.deadline_misses", labels,
                      static_cast<double>(tenant.deadline_misses));
      executor_.count("serve.fleet.failovers", labels,
                      static_cast<double>(tenant.failovers));
      executor_.gauge("serve.fleet.latency_p50_ms", tenant.p50_ms, labels);
      executor_.gauge("serve.fleet.latency_p99_ms", tenant.p99_ms, labels);
      executor_.gauge("serve.fleet.max_shed_level",
                      static_cast<double>(tenant.max_shed_level), labels);
    }
    for (const auto& [name, value] :
         {std::pair{"serve.fleet.device_faults", report.device_faults},
          std::pair{"serve.fleet.watchdog_fires", report.watchdog_fires},
          std::pair{"serve.fleet.batches", report.batches},
          std::pair{"serve.fleet.batched_frames", report.batched_frames},
          std::pair{"serve.fleet.shed_steps", report.shed_steps},
          std::pair{"serve.fleet.recover_steps", report.recover_steps}}) {
      executor_.count(name, {}, static_cast<double>(value));
    }
    for (std::size_t d = 0; d < report.devices.size(); ++d) {
      executor_.gauge("serve.fleet.device.state",
                      static_cast<double>(report.devices[d].final_state),
                      {{"device", std::to_string(d)}});
    }
    executor_.slo().publish(*executor_.registry());
  }
  return report;
}

}  // namespace fdet::serve
