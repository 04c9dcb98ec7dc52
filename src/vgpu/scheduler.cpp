#include "vgpu/scheduler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <sstream>

#include "core/check.h"

namespace fdet::vgpu {

PerfCounters Timeline::total_counters() const {
  PerfCounters total;
  for (const auto& record : records) {
    total += record.counters;
  }
  return total;
}

Timeline schedule(const DeviceSpec& spec, const std::vector<Launch>& launches,
                  ExecMode mode) {
  Timeline timeline;
  timeline.sm_count = spec.sm_count;
  timeline.sm_spans.resize(static_cast<std::size_t>(spec.sm_count));

  // Min-heap of (free time, sm index): blocks go to the earliest-free SM.
  using SmSlot = std::pair<double, int>;
  std::priority_queue<SmSlot, std::vector<SmSlot>, std::greater<>> sms;
  for (int i = 0; i < spec.sm_count; ++i) {
    sms.push({0.0, i});
  }

  // Dependency structure: within a stream, launches are ordered; in serial
  // mode every launch additionally depends on the previous launch overall.
  // A launch becomes available `launch_overhead_s` (driver latency +
  // inter-kernel drain) after its dependency completes, and no earlier
  // than its host issue slot. The device's work distributor dispatches
  // whichever available launch is ready first (breadth-first across
  // streams), which is what lets concurrent kernel execution fill the
  // gaps that serial execution exposes.
  const int count = static_cast<int>(launches.size());
  std::map<int, std::vector<int>> stream_order;  // stream -> launch indices
  for (int i = 0; i < count; ++i) {
    stream_order[launches[static_cast<std::size_t>(i)].stream].push_back(i);
  }

  std::vector<double> ready_time(static_cast<std::size_t>(count), -1.0);
  std::vector<double> end_time(static_cast<std::size_t>(count), 0.0);
  const auto issue_slot = [&](int i) { return i * spec.host_issue_gap_s; };
  const auto make_ready = [&](int i, double dep_end) {
    ready_time[static_cast<std::size_t>(i)] =
        std::max(dep_end + spec.launch_overhead_s, issue_slot(i));
  };

  if (mode == ExecMode::kSerial) {
    if (count > 0) {
      make_ready(0, 0.0);
    }
  } else {
    for (const auto& [stream, order] : stream_order) {
      make_ready(order.front(), 0.0);
    }
  }

  timeline.records.resize(static_cast<std::size_t>(count));
  // Dispatch loop: pick the available launch with the smallest ready time
  // (ties broken by issue order), pack its blocks onto the earliest-free
  // SMs, then release its successor.
  using Avail = std::pair<double, int>;  // (ready, launch index)
  std::priority_queue<Avail, std::vector<Avail>, std::greater<>> available;
  for (int i = 0; i < count; ++i) {
    if (ready_time[static_cast<std::size_t>(i)] >= 0.0) {
      available.push({ready_time[static_cast<std::size_t>(i)], i});
    }
  }

  int dispatched = 0;
  while (!available.empty()) {
    const auto [ready, index] = available.top();
    available.pop();
    const Launch& launch = launches[static_cast<std::size_t>(index)];
    FDET_CHECK(launch.cost.block_count() > 0)
        << "launch '" << launch.cost.config.name << "' has no blocks";

    double start = std::numeric_limits<double>::infinity();
    double end = 0.0;
    double busy = 0.0;
    for (const double cycles : launch.cost.block_service_cycles) {
      auto [free_at, sm] = sms.top();
      sms.pop();
      const double t0 = std::max(free_at, ready);
      const double t1 = t0 + spec.cycles_to_seconds(cycles);
      sms.push({t1, sm});
      start = std::min(start, t0);
      end = std::max(end, t1);
      busy += t1 - t0;
      timeline.sm_busy_s += t1 - t0;
      // Record the block's SM residency; back-to-back blocks of the same
      // launch on one SM coalesce into a single span.
      auto& spans = timeline.sm_spans[static_cast<std::size_t>(sm)];
      if (!spans.empty() && spans.back().launch_index == index &&
          spans.back().end_s == t0) {
        spans.back().end_s = t1;
      } else {
        spans.push_back({index, t0, t1});
      }
    }
    end_time[static_cast<std::size_t>(index)] = end;
    ++dispatched;

    LaunchRecord record;
    record.name = launch.cost.config.name;
    record.stream = launch.stream;
    record.start_s = start;
    record.end_s = end;
    record.busy_s = busy;
    record.blocks = launch.cost.block_count();
    record.occupancy = launch.cost.occupancy;
    record.counters = launch.cost.counters;
    timeline.records[static_cast<std::size_t>(index)] = std::move(record);
    timeline.makespan_s = std::max(timeline.makespan_s, end);

    // Release the successor.
    if (mode == ExecMode::kSerial) {
      if (index + 1 < count) {
        make_ready(index + 1, end);
        available.push({ready_time[static_cast<std::size_t>(index + 1)],
                        index + 1});
      }
    } else {
      const auto& order = stream_order[launch.stream];
      const auto pos = std::find(order.begin(), order.end(), index);
      if (pos + 1 != order.end()) {
        const int next = *(pos + 1);
        make_ready(next, end);
        available.push({ready_time[static_cast<std::size_t>(next)], next});
      }
    }
  }
  FDET_CHECK(dispatched == count) << "scheduler left launches undispatched";
  if (const LaunchObserverScope* const observers =
          LaunchObserverScope::innermost()) {
    for (const LaunchRecord& record : timeline.records) {
      observers->notify_scheduled(record);
    }
  }
  return timeline;
}

std::map<int, std::vector<std::size_t>> Timeline::records_by_stream() const {
  std::map<int, std::vector<std::size_t>> by_stream;
  for (std::size_t i = 0; i < records.size(); ++i) {
    by_stream[records[i].stream].push_back(i);
  }
  for (auto& [stream, indices] : by_stream) {
    std::stable_sort(indices.begin(), indices.end(),
                     [this](std::size_t a, std::size_t b) {
                       return records[a].start_s < records[b].start_s;
                     });
  }
  return by_stream;
}

std::string Timeline::render_trace(int columns) const {
  FDET_CHECK(columns >= 10);
  std::ostringstream out;
  if (records.empty() || makespan_s <= 0.0) {
    out << "(empty timeline)\n";
    return out.str();
  }

  out << "time 0 .. " << makespan_s * 1e3 << " ms\n";
  for (const auto& [stream, indices] : records_by_stream()) {
    std::string row(static_cast<std::size_t>(columns), '.');
    for (const std::size_t i : indices) {
      const LaunchRecord& record = records[i];
      int c0 = static_cast<int>(record.start_s / makespan_s * columns);
      int c1 = static_cast<int>(record.end_s / makespan_s * columns);
      c0 = std::clamp(c0, 0, columns - 1);
      c1 = std::clamp(c1, c0 + 1, columns);
      for (int c = c0; c < c1; ++c) {
        row[static_cast<std::size_t>(c)] = '#';
      }
    }
    out << "stream " << stream << " |" << row << "|\n";
  }
  return out.str();
}

}  // namespace fdet::vgpu
