// Per-lane instruction accounting.
//
// Kernels on the virtual GPU are ordinary C++ functors executed once per
// thread (lane). They do their real work on host memory and, along the way,
// report every costed operation to the LaneCtx. The executor then reduces
// lanes warp-wise (32 lanes in lockstep: the warp pays for its slowest
// lane, and early-exiting lanes idle — precisely the SIMD underutilization
// the paper attacks) and derives timing plus profiler-style counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vgpu/observer.h"

namespace fdet::vgpu {

class LaneCtx {
 public:
  /// Clears all counters and traces; called by the executor before each lane.
  void reset() {
    n_alu_ = n_fma_ = n_sfu_ = n_shared_ = n_const_ = n_tex_ = 0;
    untracked_branches_ = 0;
    global_ops_.clear();
    shared_words_.clear();
    branch_trace_.clear();
    track_branches_ = false;
    owner_ = nullptr;
  }

  // --- arithmetic -----------------------------------------------------
  void alu(int n = 1) { n_alu_ += static_cast<std::uint32_t>(n); }
  void fma(int n = 1) { n_fma_ += static_cast<std::uint32_t>(n); }
  void sfu(int n = 1) { n_sfu_ += static_cast<std::uint32_t>(n); }

  // --- memory ---------------------------------------------------------
  /// Global-memory read of `bytes` at virtual address `addr`. Addresses are
  /// kept so the executor can derive 128-byte coalesced transactions per
  /// warp instead of trusting the kernel author.
  void global_load(std::uint64_t addr, std::uint32_t bytes) {
    global_ops_.push_back({addr, bytes, /*store=*/false});
  }
  void global_store(std::uint64_t addr, std::uint32_t bytes) {
    global_ops_.push_back({addr, bytes, /*store=*/true});
  }
  /// Addressed shared-memory read/write of `bytes` at byte `offset` within
  /// the block's buffer (SharedMem::offset_of). Costed as one shared
  /// access plus any bank-conflict serialization the executor derives:
  /// lanes of a warp issue their k-th shared access together, and
  /// distinct 4-byte words falling into the same of the 32 banks
  /// serialize (same-word broadcast is free). Accesses wider than a word
  /// are attributed to their first bank. Also feeds the race/memcheck
  /// shadow when a CheckScope is active.
  void shared_load(std::size_t offset, std::uint32_t bytes) {
    ++n_shared_;
    shared_words_.push_back(static_cast<std::uint32_t>(offset / 4));
    if (owner_ != nullptr) {
      owner_->on_shared(offset, bytes, /*store=*/false);
    }
  }
  void shared_store(std::size_t offset, std::uint32_t bytes) {
    ++n_shared_;
    shared_words_.push_back(static_cast<std::uint32_t>(offset / 4));
    if (owner_ != nullptr) {
      owner_->on_shared(offset, bytes, /*store=*/true);
    }
  }
  /// Convenience: report the access for one element of a SharedMem span,
  /// deriving offset and size from the element itself:
  ///   tile[i] = v;  ctx.shared_store_at(shared, tile[i]);
  template <typename SharedMemT, typename T>
  void shared_load_at(const SharedMemT& shared, const T& element) {
    shared_load(shared.offset_of(&element), sizeof(T));
  }
  template <typename SharedMemT, typename T>
  void shared_store_at(const SharedMemT& shared, const T& element) {
    shared_store(shared.offset_of(&element), sizeof(T));
  }
  /// Constant-cache access. The cascade kernel keeps all active lanes of a
  /// warp on the same feature record, so accesses broadcast (see paper
  /// Sec. III-C); the serialized case is exercised by the ablation bench
  /// through KernelConfig::constant_broadcast = false.
  void constant_load(int n = 1) { n_const_ += static_cast<std::uint32_t>(n); }
  /// Bilinearly interpolated texture fetch (tex2D).
  void texture_fetch(int n = 1) { n_tex_ += static_cast<std::uint32_t>(n); }

  // --- control flow ---------------------------------------------------
  /// Records the outcome of a data-dependent branch. When branch tracking
  /// is enabled the per-lane outcome sequence is compared across the warp
  /// to count divergent branches (profiler "branch efficiency").
  void branch(bool taken) {
    if (track_branches_) {
      branch_trace_.push_back(taken ? 1 : 0);
    } else {
      ++untracked_branches_;
    }
  }

  /// Branches that are uniform across the warp by construction (loop
  /// back-edges over a shared trip count, uniform guards). Real kernels
  /// execute many of these per data-dependent branch; they dominate the
  /// profiler's branch statistic, so kernels should report them to keep
  /// branch-efficiency numbers comparable to hardware counters.
  void branch_uniform(int n = 1) {
    untracked_branches_ += static_cast<std::uint32_t>(n);
  }

  // --- executor interface ----------------------------------------------
  struct GlobalOp {
    std::uint64_t addr;
    std::uint32_t bytes;
    bool store;
  };

  void set_track_branches(bool on) { track_branches_ = on; }
  /// Attaches the launch's lane-event owner — the checker or the capture
  /// engine (vgpu/observer.h); reset() detaches.
  void set_owner(LaunchObserver* owner) { owner_ = owner; }
  std::uint32_t alu_count() const { return n_alu_; }
  std::uint32_t fma_count() const { return n_fma_; }
  std::uint32_t sfu_count() const { return n_sfu_; }
  std::uint32_t shared_count() const { return n_shared_; }
  std::uint32_t constant_count() const { return n_const_; }
  std::uint32_t texture_count() const { return n_tex_; }
  std::uint32_t untracked_branches() const { return untracked_branches_; }
  const std::vector<GlobalOp>& global_ops() const { return global_ops_; }
  /// 4-byte word index of each addressed shared access, in issue order
  /// (the executor aligns these slot-wise across the warp to count bank
  /// conflicts).
  const std::vector<std::uint32_t>& shared_words() const {
    return shared_words_;
  }
  const std::vector<std::uint8_t>& branch_trace() const { return branch_trace_; }

 private:
  std::uint32_t n_alu_ = 0;
  std::uint32_t n_fma_ = 0;
  std::uint32_t n_sfu_ = 0;
  std::uint32_t n_shared_ = 0;
  std::uint32_t n_const_ = 0;
  std::uint32_t n_tex_ = 0;
  std::uint32_t untracked_branches_ = 0;
  bool track_branches_ = false;
  LaunchObserver* owner_ = nullptr;
  std::vector<GlobalOp> global_ops_;
  std::vector<std::uint32_t> shared_words_;
  std::vector<std::uint8_t> branch_trace_;
};

}  // namespace fdet::vgpu
