#include "vgpu/observer.h"

#include <utility>

namespace fdet::vgpu {
namespace {

/// Innermost scope of this thread's observer chain — the only mutable
/// launch-instrumentation state in vgpu.
thread_local LaunchObserverScope* g_innermost = nullptr;

}  // namespace

LaunchObserverScope::LaunchObserverScope(LaunchObserver& observer)
    : observer_(&observer), outer_(std::exchange(g_innermost, this)) {}

LaunchObserverScope::~LaunchObserverScope() { g_innermost = outer_; }

const LaunchObserverScope* LaunchObserverScope::innermost() {
  return g_innermost;
}

template <typename Fn>
void LaunchObserverScope::for_each_in_install_order(Fn&& fn) const {
  if (outer_ != nullptr) {
    outer_->for_each_in_install_order(fn);
  }
  fn(*observer_);
}

LaunchObserver* LaunchObserverScope::open_launch(
    const DeviceSpec& spec, const KernelConfig& config) const {
  for_each_in_install_order(
      [&](LaunchObserver& o) { o.before_launch(spec, config); });

  // Lane owner: the innermost checker, else the innermost capture.
  LaunchObserver* owner = nullptr;
  for (const LaunchObserverScope* s = this; s != nullptr; s = s->outer_) {
    const LaunchObserver::LaneRole role = s->observer_->lane_role();
    if (role == LaunchObserver::LaneRole::kChecker) {
      owner = s->observer_;
      break;
    }
    if (role == LaunchObserver::LaneRole::kCapture && owner == nullptr) {
      owner = s->observer_;
    }
  }
  for_each_in_install_order([&](LaunchObserver& o) {
    if (&o != owner && o.lane_role() != LaunchObserver::LaneRole::kNone) {
      o.on_shadowed_launch(config);
    }
  });
  return owner;
}

void LaunchObserverScope::close_launch(const DeviceSpec& spec,
                                       const LaunchCost& cost) const {
  for_each_in_install_order(
      [&](LaunchObserver& o) { o.after_launch(spec, cost); });
}

void LaunchObserverScope::notify_scheduled(const LaunchRecord& record) const {
  for_each_in_install_order([&](LaunchObserver& o) { o.on_scheduled(record); });
}

ScopedKernelProfileHook::ScopedKernelProfileHook(KernelProfileHook hook)
    : hook_(std::move(hook)), scope_(*this) {}

void ScopedKernelProfileHook::after_launch(const DeviceSpec& spec,
                                           const LaunchCost& cost) {
  if (hook_) {
    hook_(spec, cost);
  }
}

}  // namespace fdet::vgpu
