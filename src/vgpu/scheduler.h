// Discrete-event scheduler: places executed kernel launches onto the
// device's SMs and assigns virtual timestamps.
//
// This is where the paper's serial-vs-concurrent contrast lives. Launches
// carry a CUDA-stream id; within a stream launches are ordered. In
// kSerial mode every launch additionally waits for *all* previously issued
// launches (one implicit stream — the behaviour the paper measures as
// "Serial Kernel Execution"). In kConcurrent mode only the same-stream
// predecessor gates a launch, so small-grid kernels from different scales
// fill SMs left idle by each other ("Concurrent Kernel Execution").
//
// Blocks are dispatched FCFS onto the SM with the earliest free time, one
// resident block at a time per SM — multi-block residency is folded into
// the latency-hiding factor of the cost model (see kernel.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vgpu/kernel.h"

namespace fdet::vgpu {

enum class ExecMode { kSerial, kConcurrent };

/// One issued kernel: an executed LaunchCost plus its stream binding.
struct Launch {
  LaunchCost cost;
  int stream = 0;
};

/// Scheduling outcome for one launch (virtual seconds).
struct LaunchRecord {
  std::string name;
  int stream = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double busy_s = 0.0;  ///< Σ per-block service time (SM-seconds of work)
  std::int64_t blocks = 0;
  Occupancy occupancy;
  PerfCounters counters;

  double duration_s() const { return end_s - start_s; }
};

/// Contiguous busy interval on one SM: consecutive blocks of the same
/// launch merged together. Raw material for per-SM trace tracks and
/// device-utilization counter tracks (obs/trace.h).
struct SmSpan {
  int launch_index = 0;  ///< index into Timeline::records
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Full schedule of an issue sequence.
struct Timeline {
  std::vector<LaunchRecord> records;
  double makespan_s = 0.0;        ///< completion time of the last launch
  double sm_busy_s = 0.0;         ///< Σ busy time over all SMs
  int sm_count = 0;
  /// Per-SM busy spans, indexed by SM; spans on one SM are time-ordered.
  std::vector<std::vector<SmSpan>> sm_spans;

  /// Mean fraction of SM capacity in use over the makespan.
  double utilization() const {
    return (makespan_s <= 0.0 || sm_count <= 0)
               ? 0.0
               : sm_busy_s / (makespan_s * sm_count);
  }

  /// Aggregated counters over all launches.
  PerfCounters total_counters() const;

  /// Per-stream interval view: stream id -> indices into `records`,
  /// ordered by start time (ties by issue order). The single source of
  /// truth behind both the ASCII Fig. 6 rendering and the Chrome
  /// trace-event exporter (obs/trace.h).
  std::map<int, std::vector<std::size_t>> records_by_stream() const;

  /// Renders a per-stream trace in the style of the paper's Fig. 6
  /// (one row per stream, kernel intervals in virtual milliseconds).
  std::string render_trace(int columns = 100) const;
};

/// Schedules `launches` (in issue order) and returns their timeline. Every
/// finalized record is passed to the calling thread's launch observers
/// (LaunchObserver::on_scheduled, vgpu/observer.h) in issue order before
/// returning.
Timeline schedule(const DeviceSpec& spec, const std::vector<Launch>& launches,
                  ExecMode mode);

}  // namespace fdet::vgpu
