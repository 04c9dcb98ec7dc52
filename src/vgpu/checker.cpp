#include "vgpu/checker.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/check.h"
#include "vgpu/kernel.h"
#include "vgpu/lane.h"

namespace fdet::vgpu {

const char* hazard_name(HazardKind kind) {
  switch (kind) {
    case HazardKind::kIntraPhaseRace: return "intra-phase-race";
    case HazardKind::kUninitializedSharedRead: return "uninitialized-shared-read";
    case HazardKind::kSharedOutOfBounds: return "shared-out-of-bounds";
    case HazardKind::kConstantOverflow: return "constant-overflow";
    case HazardKind::kGlobalOutOfBounds: return "global-out-of-bounds";
  }
  return "unknown";
}

Checker::Checker(CheckOptions options) : options_(std::move(options)) {}

void Checker::begin_kernel(const DeviceSpec& spec, const KernelConfig& config) {
  FDET_CHECK(!in_kernel_) << "checker: nested begin_kernel for '"
                          << config.name << "'";
  in_kernel_ = true;
  kernel_name_ = config.name;
  device_name_ = spec.name;
  block_dim_ = config.block;
  layout_bytes_ = config.shared.bytes();
  phase_ = -1;
  shadow_.assign(layout_bytes_, ByteState{});
  phase_epoch_ = 0;
  block_epoch_ = 0;
  phase_writes_.clear();
  current_ = CheckReport{};
  current_.kernel = kernel_name_;

  // Resource-limit check: the encoded cascade must fit the device's
  // constant memory. In unchecked runs execute_kernel throws instead.
  if (config.constant_bytes > spec.constant_mem_bytes) {
    std::ostringstream msg;
    msg << "constant memory overflow: kernel '" << kernel_name_
        << "' declares " << config.constant_bytes
        << " bytes of constant data but device '" << device_name_
        << "' provides only " << spec.constant_mem_bytes
        << " — shrink the cascade or re-encode its records (Sec. III-B)";
    add_hazard(HazardKind::kConstantOverflow,
               static_cast<std::uint64_t>(config.constant_bytes), 0,
               msg.str());
  }
}

void Checker::begin_block(const Dim3& block_id) {
  block_id_ = block_id;
  ++block_epoch_;
  ++current_.blocks;
}

void Checker::begin_phase(int phase) {
  phase_ = phase;
  ++phase_epoch_;
  current_.phases = std::max(current_.phases, phase + 1);
  phase_writes_.clear();
}

void Checker::begin_lane(const Dim3& thread) {
  lane_ = thread;
  lane_flat_ =
      thread.x + block_dim_.x * (thread.y + block_dim_.y * thread.z);
}

void Checker::add_race(std::size_t byte, std::uint32_t bytes,
                       bool current_is_store, bool other_is_store,
                       std::int32_t other_lane) {
  const Dim3 other = lane_coords(other_lane);
  std::ostringstream msg;
  msg << "intra-phase race: kernel '" << kernel_name_ << "' phase " << phase_
      << ", block (" << block_id_.x << "," << block_id_.y << ","
      << block_id_.z << "): lane " << lane_str(lane_)
      << (current_is_store ? " WRITE" : " READ") << " vs lane "
      << lane_str(other) << (other_is_store ? " WRITE" : " READ")
      << " of shared byte " << byte << " (access spans " << bytes
      << " bytes) in the same phase — on hardware these lanes run "
      << "concurrently; split the conflicting accesses into separate "
      << "phases (__syncthreads)";
  Hazard hazard;
  hazard.kind = HazardKind::kIntraPhaseRace;
  hazard.kernel = kernel_name_;
  hazard.phase = phase_;
  hazard.block_id = block_id_;
  hazard.lane_a = lane_;
  hazard.lane_b = other;
  hazard.has_lane_b = true;
  hazard.offset = byte;
  hazard.bytes = bytes;
  hazard.message = msg.str();
  if (current_.hazards.size() <
      static_cast<std::size_t>(kMaxReportsPerKernel)) {
    current_.hazards.push_back(std::move(hazard));
  } else {
    ++current_.suppressed_hazards;
  }
}

void Checker::on_shared(std::size_t offset, std::uint32_t bytes, bool store) {
  ++current_.shared_accesses_checked;
  if (offset + bytes > layout_bytes_) {
    std::ostringstream msg;
    msg << "shared out-of-bounds: kernel '" << kernel_name_ << "' phase "
        << phase_ << ", lane " << lane_str(lane_)
        << (store ? " WRITE" : " READ") << " of bytes [" << offset << ", "
        << offset + bytes << ") falls outside the kernel's "
        << layout_bytes_ << "-byte shared layout";
    add_hazard(HazardKind::kSharedOutOfBounds, offset, bytes, msg.str());
    return;
  }
  if (store) {
    phase_writes_.emplace_back(offset, offset + bytes);
  }
  // Byte-granular shadow walk; one hazard per access (first bad byte wins)
  // keeps a single defect from flooding the report.
  bool reported_race = false;
  bool reported_uninit = false;
  for (std::size_t b = offset; b < offset + bytes; ++b) {
    ByteState& cell = shadow_[b];
    if (store) {
      if (!reported_race && cell.write_epoch == phase_epoch_ &&
          cell.write_lane != lane_flat_) {
        add_race(b, bytes, /*current_is_store=*/true, /*other_is_store=*/true,
                 cell.write_lane);
        reported_race = true;
      } else if (!reported_race && cell.read_epoch == phase_epoch_ &&
                 cell.read_lane != lane_flat_) {
        add_race(b, bytes, /*current_is_store=*/true,
                 /*other_is_store=*/false, cell.read_lane);
        reported_race = true;
      }
      cell.write_epoch = phase_epoch_;
      cell.write_lane = lane_flat_;
    } else {
      const bool written_this_phase = cell.write_epoch == phase_epoch_;
      if (!reported_race && written_this_phase &&
          cell.write_lane != lane_flat_) {
        add_race(b, bytes, /*current_is_store=*/false,
                 /*other_is_store=*/true, cell.write_lane);
        reported_race = true;
      } else if (!reported_uninit && !written_this_phase &&
                 cell.valid_epoch != block_epoch_) {
        std::ostringstream msg;
        msg << "uninitialized shared read: kernel '" << kernel_name_
            << "' phase " << phase_ << ", block (" << block_id_.x << ","
            << block_id_.y << "," << block_id_.z << "), lane "
            << lane_str(lane_) << " reads shared byte " << b
            << " (access spans bytes [" << offset << ", " << offset + bytes
            << ")) that no earlier phase wrote — __shared__ memory starts "
            << "undefined on hardware";
        add_hazard(HazardKind::kUninitializedSharedRead, b, bytes, msg.str());
        reported_uninit = true;
      }
      cell.read_epoch = phase_epoch_;
      cell.read_lane = lane_flat_;
    }
  }
}

void Checker::end_lane(const LaneCtx& lane) {
  if (options_.global_allocations.empty()) {
    return;
  }
  for (const LaneCtx::GlobalOp& op : lane.global_ops()) {
    ++current_.global_ops_checked;
    const std::uint64_t end = op.addr + op.bytes;
    bool inside = false;
    for (const GlobalAllocation& alloc : options_.global_allocations) {
      if (op.addr >= alloc.base && end <= alloc.base + alloc.size) {
        inside = true;
        break;
      }
    }
    if (inside) {
      continue;
    }
    std::ostringstream msg;
    msg << "global out-of-bounds: kernel '" << kernel_name_ << "' phase "
        << phase_ << ", block (" << block_id_.x << "," << block_id_.y << ","
        << block_id_.z << "), lane " << lane_str(lane_)
        << (op.store ? " STORE" : " LOAD") << " of bytes [" << op.addr << ", "
        << end << ") falls outside every registered allocation ("
        << options_.global_allocations.size() << " registered)";
    add_hazard(HazardKind::kGlobalOutOfBounds, op.addr, op.bytes, msg.str());
  }
}

void Checker::end_phase() {
  // The barrier: everything written this phase becomes valid input for the
  // next one.
  for (const auto& [begin, end] : phase_writes_) {
    for (std::size_t b = begin; b < end; ++b) {
      shadow_[b].valid_epoch = block_epoch_;
    }
  }
  phase_writes_.clear();
}

void Checker::end_kernel() {
  FDET_CHECK(in_kernel_) << "checker: end_kernel without begin_kernel";
  in_kernel_ = false;
  reports_.push_back(std::move(current_));
  current_ = CheckReport{};
}

std::vector<CheckReport> Checker::take_reports() {
  return std::exchange(reports_, {});
}


void Checker::add_hazard(HazardKind kind, std::uint64_t offset,
                         std::uint32_t bytes, std::string message) {
  if (current_.hazards.size() >=
      static_cast<std::size_t>(kMaxReportsPerKernel)) {
    ++current_.suppressed_hazards;
    return;
  }
  Hazard hazard;
  hazard.kind = kind;
  hazard.kernel = kernel_name_;
  hazard.phase = phase_;
  hazard.block_id = block_id_;
  hazard.lane_a = lane_;
  hazard.offset = offset;
  hazard.bytes = bytes;
  hazard.message = std::move(message);
  current_.hazards.push_back(std::move(hazard));
}

Dim3 Checker::lane_coords(std::int32_t flat) const {
  Dim3 lane;
  lane.x = flat % block_dim_.x;
  lane.y = (flat / block_dim_.x) % block_dim_.y;
  lane.z = flat / (block_dim_.x * block_dim_.y);
  return lane;
}

std::string Checker::lane_str(const Dim3& lane) const {
  std::ostringstream out;
  out << "(" << lane.x << "," << lane.y << "," << lane.z << ")";
  return out.str();
}

CheckScope::CheckScope(CheckOptions options)
    : checker_(std::move(options)), installer_(checker_) {}

}  // namespace fdet::vgpu
