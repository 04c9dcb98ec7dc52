// Fault-injection seam for the streaming serving layer.
//
// A FaultPlan is a seeded, deterministic description of when and how the
// pipeline misbehaves: decode failures and corrupt NV12 luma (the mock
// equivalent of bitstream damage and macroblock corruption), transient
// vgpu launch failures (driver hiccups), and constant/shared-memory
// overflow faults (hard resource errors). Faults target either an exact
// frame index or fire probabilistically per frame; probabilistic decisions
// hash (seed, kind, frame) so two runs of the same plan inject identical
// faults — the chaos harness relies on that to compare a faulted run
// against its fault-free twin frame by frame.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "img/image.h"
#include "vgpu/kernel.h"

namespace fdet::serve {

enum class FaultKind {
  kDecodeFail,        ///< decode attempt throws DecodeError (transient)
  kCorruptLuma,       ///< decode succeeds but a luma band is noise
  kLaunchTransient,   ///< first kernel launch of the attempt fails, retryable
  kConstantOverflow,  ///< cascade launch reports constant-memory overflow (hard)
  kSharedOverflow,    ///< shared-memory-using launch reports overflow (hard)
  kBitstream,         ///< decode throws ingest::IngestError (malformed, no retry)
};

/// Stable lower-case token, also the spec-string name: "decode", "corrupt",
/// "launch", "const", "shared", "bitstream".
const char* fault_kind_name(FaultKind kind);

/// Thrown by FaultInjector::decode on an injected decode failure — the
/// mock equivalent of NVCUVID reporting a damaged access unit. Always
/// transient: a later attempt (attempt >= burst) succeeds.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

struct FaultSpec {
  FaultKind kind = FaultKind::kDecodeFail;
  /// Exact frame index this fault targets; -1 = probabilistic per frame.
  int frame = -1;
  /// Per-frame firing probability when frame < 0 (ignored otherwise).
  double probability = 0.0;
  /// Retryable kinds fail the first `burst` attempts of the frame and
  /// succeed afterwards; hard kinds (const/shared overflow) fail every
  /// attempt regardless. Corruption ignores it (applies once).
  int burst = 1;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(std::uint64_t seed, std::vector<FaultSpec> specs);

  /// Parses a compact plan spec, comma-separated:
  ///
  ///   decode@4        decode failure at frame 4 (1 failing attempt)
  ///   launch@9x2      launch faults at frame 9, first 2 attempts fail
  ///   corrupt@12      corrupt the luma plane of frame 12
  ///   const@17        constant-overflow fault at frame 17 (hard)
  ///   shared@21       shared-overflow fault at frame 21 (hard)
  ///   bitstream@25    malformed-bitstream fault at frame 25 (no retry)
  ///   launch@0.05     probabilistic: each frame fails with p = 0.05
  ///
  /// A target with a '.' parses as a probability, otherwise as a frame
  /// index. Throws core::CheckError naming the offending token.
  static FaultPlan parse(const std::string& text, std::uint64_t seed);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }
  std::uint64_t seed() const { return seed_; }

  /// True when `kind` fires for this (frame, attempt) — deterministic.
  bool fires(FaultKind kind, int frame, int attempt = 0) const;

  /// True when any spec fires at this frame for any attempt: the chaos
  /// harness excludes such frames from clean-frame comparisons.
  bool targets_frame(int frame) const;

  /// Frame indices of all deterministic (frame-targeted) specs, sorted
  /// ascending and deduplicated — the burst schedule the chaos harness
  /// checks recovery between.
  std::vector<int> targeted_frames() const;

  std::string describe() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
};

/// Overwrites a deterministic horizontal band (~1/4 of the frame) with
/// seeded noise — the corruption model for FaultKind::kCorruptLuma.
void corrupt_luma(img::ImageU8& luma, std::uint64_t seed);

/// Launch observer (vgpu/observer.h) arming the plan's launch-stage faults
/// for one (frame, attempt). Its before_launch throws vgpu::LaunchError:
/// transient for kLaunchTransient, hard for the overflow kinds (thrown on
/// the first launch that actually uses constant or shared memory,
/// respectively). One injected failure per armed attempt: the first
/// matching launch throws, the retry arms a fresh injector with
/// attempt + 1.
class LaunchFaultInjector final : public vgpu::LaunchObserver {
 public:
  LaunchFaultInjector(const FaultPlan& plan, int frame, int attempt);

  /// False when nothing fires for this (frame, attempt).
  bool armed() const { return transient_ || constant_ || shared_; }

  void before_launch(const vgpu::DeviceSpec& spec,
                     const vgpu::KernelConfig& config) override;

 private:
  int frame_;
  int attempt_;
  bool transient_;
  bool constant_;
  bool shared_;
  bool fired_ = false;
};

// ---------------------------------------------------------------------------
// Device-level fault vocabulary (fleet layer, DESIGN.md §12).
//
// FaultPlan describes per-frame misbehavior on one device; a fleet of N
// devices adds a coarser failure axis: whole devices dropping out,
// stalling, or slowing down. DeviceFaultPlan describes those as seeded,
// deterministic outage windows in virtual time — the fleet chaos harness
// replays the same schedule against a clean twin run.

enum class DeviceFaultKind {
  kDeviceLost,  ///< device drops instantly; in-flight work is torn down
  kDeviceHang,  ///< device stalls silently; only the watchdog notices
  kDeviceSlow,  ///< device serves, but slower by `factor`
};

/// Stable token, also the spec-string name: "device-lost", "device-hang",
/// "device-slow".
const char* device_fault_kind_name(DeviceFaultKind kind);

struct DeviceFaultSpec {
  DeviceFaultKind kind = DeviceFaultKind::kDeviceLost;
  /// Target device; -1 = probabilistic on every device (slow only).
  int device = -1;
  double start_s = 0.0;     ///< outage onset, virtual seconds
  double duration_s = 0.0;  ///< outage length (recovery at start + duration)
  /// Per-dispatch firing probability for the probabilistic slow form.
  double probability = 0.0;
  /// Service-time multiplier while a device-slow fault is active.
  double factor = 4.0;
};

class DeviceFaultPlan {
 public:
  DeviceFaultPlan() = default;
  DeviceFaultPlan(std::uint64_t seed, std::vector<DeviceFaultSpec> specs);

  /// Parses a compact plan spec, comma-separated:
  ///
  ///   device-lost@1:2.5+1.0     device 1 lost at t=2.5s, back at t=3.5s
  ///   device-hang@2:4+0.5       device 2 hangs during [4.0, 4.5)
  ///   device-slow@0:3+2*4       device 0 serves 4x slower during [3, 5)
  ///   device-slow@0.05*4        any dispatch is 4x slow with p = 0.05
  ///
  /// The windowed form is `<kind>@<device>:<start_s>+<duration_s>`, with
  /// an optional `*<factor>` for device-slow; a target containing no ':'
  /// parses as a probability (device-slow only). Throws core::CheckError
  /// naming the offending token. Outage windows (lost/hang) on the same
  /// device must not overlap.
  static DeviceFaultPlan parse(const std::string& text, std::uint64_t seed);

  const std::vector<DeviceFaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }
  std::uint64_t seed() const { return seed_; }

  /// Combined service-time multiplier for one dispatch on `device` at
  /// virtual time `at_s`: windowed slow specs active at `at_s` times the
  /// probabilistic slow specs firing for (device, stream, frame) — the
  /// probabilistic decision hashes (seed, device, stream, frame) so two
  /// runs of the same plan slow identical dispatches. Returns 1.0 when
  /// nothing fires.
  double slow_factor(int device, int stream, int frame, double at_s) const;

  std::string describe() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<DeviceFaultSpec> specs_;
};

/// A combined spec can mix frame-level and device-level tokens
/// ("decode@4,device-lost@1:2+1"); the split routes `device-*` tokens to
/// the DeviceFaultPlan and everything else to the FaultPlan, sharing one
/// seed — the surveillance example's --faults flag accepts both kinds.
struct MixedFaultPlan {
  FaultPlan frame;
  DeviceFaultPlan device;
};

MixedFaultPlan parse_mixed_fault_plan(const std::string& text,
                                      std::uint64_t seed);

}  // namespace fdet::serve
