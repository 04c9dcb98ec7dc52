// Launch observers: the virtual GPU's one instrumentation seam.
//
// Everything that watches kernel launches — fault injection (throws from
// before_launch), the kernel profiler (reads after_launch), the serving
// flight recorder's launch stamps (read on_scheduled), the racecheck/
// memcheck checker (vgpu/checker.h) and the static analyzer's capture
// engine (analyze/capture.h), which consume the lane events — is a
// LaunchObserver, installed by a LaunchObserverScope on the calling
// thread's observer chain. vgpu depends on none of them.
//
// Scope rule: the chain is thread-local and ordered by installation. An
// observer sees only launches issued by the thread that installed it,
// and scopes close in reverse order of opening (RAII on one thread does
// this, including during exception unwinding).
//
// Composition rule, applied by execute_kernel (kernel.cpp) and schedule()
// (scheduler.cpp) through the three LaunchObserverScope dispatch calls,
// and nowhere else:
//
//   before_launch  every observer, in install order, before any lane runs.
//                  A throw aborts the launch: no lane runs and no later
//                  hook fires for it.
//   lane events    begin_kernel .. end_kernel go to exactly ONE owner per
//                  launch: the innermost checker if one is installed, else
//                  the innermost capture observer. Every other
//                  lane-capable observer gets on_shadowed_launch() instead,
//                  and only the owner's wants_branch_tracking applies to
//                  the launch.
//   after_launch   every observer, in install order, once the launch has
//                  finished.
//   on_scheduled   every observer, in install order, for each LaunchRecord
//                  schedule() finalizes (records in issue order).
//
// A launch with an owner runs under two fixed executor rules: each
// block's shared buffer spans the SM's shared capacity, so an access
// outside the kernel's SharedLayout lands in real storage and is reported;
// and a constant footprint over the device limit does not throw (the
// checker reports it as a hazard).
//
// Cost: with an empty chain a launch pays one thread-local load and each
// lane event one null test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "vgpu/dim.h"

namespace fdet::vgpu {

class LaneCtx;
struct DeviceSpec;
struct KernelConfig;
struct LaunchCost;
struct LaunchRecord;

/// One instrument on the launch chain. Every hook defaults to a no-op, so
/// an observer overrides only the events it consumes. Lane-event order for
/// the owner of one launch:
///   begin_kernel
///     per block: begin_block, per phase: begin_phase,
///       per lane: begin_lane, on_shared*, end_lane,
///     end_phase (the block-wide barrier)
///   end_kernel
class LaunchObserver {
 public:
  /// Whether (and with which precedence) an observer competes to own a
  /// launch's lane events.
  enum class LaneRole { kNone, kCapture, kChecker };

  LaunchObserver() = default;
  LaunchObserver(const LaunchObserver&) = delete;
  LaunchObserver& operator=(const LaunchObserver&) = delete;
  virtual ~LaunchObserver() = default;

  // --- launch hooks: every observer ---------------------------------------
  /// Before any lane runs. May throw (typically LaunchError) to fail the
  /// launch.
  virtual void before_launch(const DeviceSpec& /*spec*/,
                             const KernelConfig& /*config*/) {}
  /// After every phase ran, with the launch's finished cost.
  virtual void after_launch(const DeviceSpec& /*spec*/,
                            const LaunchCost& /*cost*/) {}
  /// Once per launch record schedule() finalizes.
  virtual void on_scheduled(const LaunchRecord& /*record*/) {}

  // --- lane events: the launch's owner only -------------------------------
  virtual LaneRole lane_role() const { return LaneRole::kNone; }
  virtual void begin_kernel(const DeviceSpec& /*spec*/,
                            const KernelConfig& /*config*/) {}
  virtual void begin_block(const Dim3& /*block_id*/) {}
  virtual void begin_phase(int /*phase*/) {}
  virtual void begin_lane(const Dim3& /*thread*/) {}
  /// Addressed shared access from LaneCtx::shared_load/shared_store.
  virtual void on_shared(std::size_t /*offset*/, std::uint32_t /*bytes*/,
                         bool /*store*/) {}
  /// Lane finished: its LaneCtx still holds the recorded global ops and
  /// branch trace.
  virtual void end_lane(const LaneCtx& /*lane*/) {}
  virtual void end_phase() {}
  virtual void end_kernel() {}

  /// A lane-capable observer that does not own this launch: it will see
  /// none of the launch's lane events.
  virtual void on_shadowed_launch(const KernelConfig& /*config*/) {}

  /// True to force per-lane branch tracking for the launch even when the
  /// kernel config leaves it off — capture needs outcome traces to
  /// classify branches.
  virtual bool wants_branch_tracking() const { return false; }
};

/// RAII installer: pushes `observer` onto the calling thread's chain for
/// the scope's lifetime. The observer must outlive the scope.
class LaunchObserverScope {
 public:
  explicit LaunchObserverScope(LaunchObserver& observer);
  ~LaunchObserverScope();
  LaunchObserverScope(const LaunchObserverScope&) = delete;
  LaunchObserverScope& operator=(const LaunchObserverScope&) = delete;

  /// The calling thread's innermost scope; nullptr when the chain is empty.
  static const LaunchObserverScope* innermost();

  // Composition-rule dispatch, called on innermost() by the executor and
  // the scheduler.
  /// before_launch on every observer (may throw), then resolves the lane
  /// owner and tells every other lane-capable observer it was shadowed.
  /// Returns the owner, or nullptr when no lane-capable observer is
  /// installed.
  LaunchObserver* open_launch(const DeviceSpec& spec,
                              const KernelConfig& config) const;
  /// after_launch on every observer.
  void close_launch(const DeviceSpec& spec, const LaunchCost& cost) const;
  /// on_scheduled on every observer.
  void notify_scheduled(const LaunchRecord& record) const;

 private:
  template <typename Fn>
  void for_each_in_install_order(Fn&& fn) const;

  LaunchObserver* observer_;
  LaunchObserverScope* outer_;
};

/// After-launch adapter: while a ScopedKernelProfileHook is alive, its
/// callback runs once per successful launch on this thread with the device
/// spec and the finished LaunchCost, at the point where the caller's
/// ambient context (trace context, profile stage scope) still names the
/// stage issuing the launch. Every installed hook fires; an empty one
/// observes nothing.
using KernelProfileHook =
    std::function<void(const DeviceSpec&, const LaunchCost&)>;

class ScopedKernelProfileHook : private LaunchObserver {
 public:
  explicit ScopedKernelProfileHook(KernelProfileHook hook);

 private:
  void after_launch(const DeviceSpec& spec, const LaunchCost& cost) override;

  KernelProfileHook hook_;
  LaunchObserverScope scope_;
};

}  // namespace fdet::vgpu
