// The launch-observer chain's composition rule (vgpu/observer.h): hook
// order, lane-event ownership, aborted launches, the thread-local scope
// rule and unwinding.
#include "vgpu/observer.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analyze/capture.h"
#include "vgpu/checker.h"
#include "vgpu/kernel.h"
#include "vgpu/scheduler.h"

namespace fdet::vgpu {
namespace {

const DeviceSpec kSpec;
const std::vector<GlobalAllocation> kAllocations = {{"input", 0, 64 * 4}};

/// Two phases with lane events of every kind: blocks, phases, lanes,
/// addressed shared stores and loads across the barrier, and a global
/// load per lane. Counts the lanes that ran.
LaunchCost launch(int* lanes_run = nullptr) {
  KernelConfig config{.name = "observed", .grid = {2, 1, 1}, .block = {32, 1, 1}};
  const auto tile = config.shared.add<std::int32_t>(32);
  const PhaseFn stage = [lanes_run, tile](const ThreadCoord& t, LaneCtx& ctx,
                                          SharedMem& shared) {
    if (lanes_run != nullptr) {
      ++*lanes_run;
    }
    auto& mine = shared[tile][static_cast<std::size_t>(t.thread.x)];
    mine = t.thread.x;
    ctx.shared_store_at(shared, mine);
    ctx.global_load(
        static_cast<std::uint64_t>(t.flat_block() * 32 + t.thread.x) * 4, 4);
  };
  const PhaseFn read = [tile](const ThreadCoord& t, LaneCtx& ctx,
                              SharedMem& shared) {
    ctx.shared_load_at(
        shared, shared[tile][static_cast<std::size_t>((t.thread.x + 1) % 32)]);
  };
  return execute_kernel(kSpec, config, stage, read);
}

/// Logs "<name>.<hook>" for every launch-level hook; throws a transient
/// LaunchError from before_launch when `throws`.
class Recorder final : public LaunchObserver {
 public:
  Recorder(std::string name, std::vector<std::string>& log,
           bool throws = false)
      : name_(std::move(name)), log_(log), throws_(throws) {}

  void before_launch(const DeviceSpec&, const KernelConfig&) override {
    log_.push_back(name_ + ".before");
    if (throws_) {
      throw LaunchError("injected by " + name_, /*transient=*/true);
    }
  }
  void after_launch(const DeviceSpec&, const LaunchCost&) override {
    log_.push_back(name_ + ".after");
  }
  void on_scheduled(const LaunchRecord&) override {
    log_.push_back(name_ + ".scheduled");
  }

 private:
  std::string name_;
  std::vector<std::string>& log_;
  bool throws_;
};

TEST(LaunchObservers, ThrowingBeforeLaunchRunsNoLaneAndFiresNothingLater) {
  std::vector<std::string> log;
  Recorder first("first", log);
  Recorder fault("fault", log, /*throws=*/true);
  Recorder last("last", log);
  const LaunchObserverScope first_scope(first);
  const LaunchObserverScope fault_scope(fault);
  const LaunchObserverScope last_scope(last);
  CheckScope check;

  int lanes = 0;
  EXPECT_THROW(launch(&lanes), LaunchError);
  EXPECT_EQ(lanes, 0);
  // The throw stops the before_launch walk: no later before_launch, no
  // lane event for the owner, no after_launch (and no LaunchCost exists
  // to schedule).
  EXPECT_EQ(log, (std::vector<std::string>{"first.before", "fault.before"}));
  EXPECT_TRUE(check.reports().empty());
}

TEST(LaunchObservers, AllObserverKindsComposeByTheRule) {
  CheckReport alone;
  {
    CheckScope check(CheckOptions{.global_allocations = kAllocations});
    launch();
    alone = check.reports().front();
  }

  std::vector<std::string> log;
  Recorder fault("fault", log);
  const LaunchObserverScope fault_scope(fault);
  const ScopedKernelProfileHook profiler(
      [&log](const DeviceSpec&, const LaunchCost&) {
        log.push_back("profiler.after");
      });
  Recorder scheduled("schedule", log);
  const LaunchObserverScope schedule_scope(scheduled);
  CheckScope check(CheckOptions{.global_allocations = kAllocations});
  analyze::CaptureScope capture;

  schedule(kSpec, {Launch{launch(), 0}}, ExecMode::kConcurrent);

  // Launch-level hooks: every observer, in install order.
  EXPECT_EQ(log, (std::vector<std::string>{
                     "fault.before", "schedule.before", "fault.after",
                     "profiler.after", "schedule.after", "fault.scheduled",
                     "schedule.scheduled"}));
  // Lane events: the checker owns the launch and sees exactly what it
  // sees alone; capture only counts the shadowed launch.
  ASSERT_EQ(check.reports().size(), 1u);
  const CheckReport& owned = check.reports().front();
  EXPECT_TRUE(owned.clean());
  EXPECT_EQ(owned.blocks, alone.blocks);
  EXPECT_EQ(owned.phases, alone.phases);
  EXPECT_EQ(owned.shared_accesses_checked, alone.shared_accesses_checked);
  EXPECT_EQ(owned.global_ops_checked, alone.global_ops_checked);
  EXPECT_EQ(owned.shared_accesses_checked, 2u * 64u);
  EXPECT_EQ(owned.global_ops_checked, 64u);
  EXPECT_TRUE(capture.engine().captures().empty());
  EXPECT_EQ(capture.shadowed_launches(), 1);
}

TEST(LaunchObservers, AnObserverSeesOnlyItsOwnThread) {
  std::vector<std::string> log;
  Recorder watcher("watcher", log);
  const LaunchObserverScope scope(watcher);

  bool other_chain_empty = false;
  std::thread other([&other_chain_empty] {
    other_chain_empty = LaunchObserverScope::innermost() == nullptr;
    EXPECT_NO_THROW(schedule(kSpec, {Launch{launch(), 0}}, ExecMode::kSerial));
  });
  other.join();
  EXPECT_TRUE(other_chain_empty);
  EXPECT_TRUE(log.empty());

  launch();
  EXPECT_EQ(log, (std::vector<std::string>{"watcher.before", "watcher.after"}));
}

TEST(LaunchObservers, ChainUnwindsWhenScopesExitByException) {
  std::vector<std::string> log;
  Recorder outer("outer", log);
  const LaunchObserverScope outer_scope(outer);
  const LaunchObserverScope* const installed = LaunchObserverScope::innermost();
  ASSERT_NE(installed, nullptr);

  try {
    Recorder inner("inner", log, /*throws=*/true);
    const LaunchObserverScope inner_scope(inner);
    CheckScope check;
    launch();
    FAIL() << "expected LaunchError";
  } catch (const LaunchError&) {
  }
  EXPECT_EQ(LaunchObserverScope::innermost(), installed);

  // The inner observer and the checker are gone: only the outer observer
  // sees the next launch, and no lane owner instruments it.
  log.clear();
  launch();
  EXPECT_EQ(log, (std::vector<std::string>{"outer.before", "outer.after"}));
}

}  // namespace
}  // namespace fdet::vgpu
