// Per-lane instruction accounting.
//
// Kernels on the virtual GPU are ordinary C++ functors executed once per
// thread (lane). They do their real work on host memory and, along the way,
// report every costed operation to the LaneCtx. The executor then reduces
// lanes warp-wise (32 lanes in lockstep: the warp pays for its slowest
// lane, and early-exiting lanes idle — precisely the SIMD underutilization
// the paper attacks) and derives timing plus profiler-style counters.
//
// Shared accesses are the most frequent lane event (the cascade reads four
// tile corners per Haar rectangle), so their word indices go into a bump
// buffer: a growable array plus an explicit count, which reset() zeroes
// without touching the storage. The array only grows, when a record goes
// past its high-water mark; shared_count() is the count and
// shared_words() a span over the recorded prefix. The batched form,
// shared_load_at(shared, a, b, ...), records several words with one
// capacity check. Whatever the form, a launch's lane-event owner
// (vgpu/observer.h) gets one on_shared per access, in the order the
// kernel reported them. LaneCtx stays copyable (the reduction oracle
// copies lanes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vgpu/observer.h"

namespace fdet::vgpu {

class LaneCtx {
 public:
  /// Clears all counters and traces; called by the executor before each lane.
  void reset() {
    n_alu_ = n_fma_ = n_sfu_ = n_const_ = n_tex_ = 0;
    untracked_branches_ = 0;
    n_shared_words_ = 0;
    global_ops_.clear();
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
    *shared_tail(1) = static_cast<std::uint32_t>(offset / 4);
    if (owner_ != nullptr) {
      owner_->on_shared(offset, bytes, /*store=*/false);
    }
  }
  void shared_store(std::size_t offset, std::uint32_t bytes) {
    *shared_tail(1) = static_cast<std::uint32_t>(offset / 4);
    if (owner_ != nullptr) {
      owner_->on_shared(offset, bytes, /*store=*/true);
    }
  }
  /// Convenience: report the accesses for elements of SharedMem spans, in
  /// argument order, deriving each offset and size from the element:
  ///   tile[i] = v;  ctx.shared_store_at(shared, tile[i]);
  ///   ctx.shared_load_at(shared, a, b, c, d);  // four loads, one record
  /// A batched call records exactly what one call per element would.
  template <typename SharedMemT, typename... T>
  void shared_load_at(const SharedMemT& shared, const T&... elements) {
    shared_at(shared, /*store=*/false, elements...);
  }
  template <typename SharedMemT, typename... T>
  void shared_store_at(const SharedMemT& shared, const T&... elements) {
    shared_at(shared, /*store=*/true, elements...);
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
  std::uint32_t shared_count() const { return n_shared_words_; }
  std::uint32_t constant_count() const { return n_const_; }
  std::uint32_t texture_count() const { return n_tex_; }
  std::uint32_t untracked_branches() const { return untracked_branches_; }
  const std::vector<GlobalOp>& global_ops() const { return global_ops_; }
  /// 4-byte word index of each addressed shared access, in issue order
  /// (the executor aligns these slot-wise across the warp to count bank
  /// conflicts).
  std::span<const std::uint32_t> shared_words() const {
    return {shared_words_.data(), n_shared_words_};
  }
  const std::vector<std::uint8_t>& branch_trace() const { return branch_trace_; }

 private:
  /// Reserves the next n words of the shared-word bump buffer and returns
  /// where they go; the one capacity check per record. The array grows
  /// only past its high-water mark, by vector's own geometric policy, so
  /// it writes no word that no lane records.
  std::uint32_t* shared_tail(std::uint32_t n) {
    if (n_shared_words_ + n > shared_words_.size()) {
      shared_words_.resize(n_shared_words_ + n);
    }
    std::uint32_t* tail = shared_words_.data() + n_shared_words_;
    n_shared_words_ += n;
    return tail;
  }

  template <typename SharedMemT, typename... T>
  void shared_at(const SharedMemT& shared, bool store, const T&... elements) {
    std::uint32_t* tail = shared_tail(sizeof...(T));
    ((*tail++ = static_cast<std::uint32_t>(shared.offset_of(&elements) / 4)),
     ...);
    if (owner_ != nullptr) {
      (owner_->on_shared(shared.offset_of(&elements), sizeof(T), store), ...);
    }
  }

  std::uint32_t n_alu_ = 0;
  std::uint32_t n_fma_ = 0;
  std::uint32_t n_sfu_ = 0;
  std::uint32_t n_const_ = 0;
  std::uint32_t n_tex_ = 0;
  std::uint32_t untracked_branches_ = 0;
  bool track_branches_ = false;
  LaunchObserver* owner_ = nullptr;
  std::vector<GlobalOp> global_ops_;
  /// Bump buffer: words [0, n_shared_words_) are this lane's record; the
  /// rest is capacity.
  std::vector<std::uint32_t> shared_words_;
  std::uint32_t n_shared_words_ = 0;
  std::vector<std::uint8_t> branch_trace_;
};

}  // namespace fdet::vgpu
