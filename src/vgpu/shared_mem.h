// Block-local scratch standing in for CUDA __shared__ memory.
//
// A kernel declares its static shared footprint in KernelConfig (which also
// feeds the occupancy calculation) and carves typed arrays out of the block's
// buffer inside each phase. The buffer lives for the whole block — values
// written in phase k are visible in phase k+1, with the inter-phase barrier
// supplied by the executor (the functional equivalent of __syncthreads).
#pragma once

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "core/check.h"
#include "vgpu/observer.h"

namespace fdet::vgpu {

class SharedMem {
 public:
  /// Reinitializes for a new block with `bytes` of zeroed storage.
  void reset(std::size_t bytes) {
    buffer_.assign(bytes, std::byte{0});
    owner_ = nullptr;
    cursor_ = 0;
  }

  /// Instrumented reinitialization for the launch's lane-event owner
  /// (checker or capture, vgpu/observer.h): the buffer may span the whole
  /// SM capacity so carves escaping the declared footprint still land in
  /// real storage and are *reported* instead of crashing the run.
  void reset_checked(std::size_t declared_bytes, LaunchObserver* owner) {
    buffer_.assign(std::max(declared_bytes, owner->shared_capacity_override()),
                   std::byte{0});
    owner_ = owner;
    cursor_ = 0;
  }

  /// Carves the next `count` elements of T out of the buffer. Layout is
  /// allocation-order, so every thread (and every phase) performing the
  /// same sequence of array() calls sees the same arrays — call it with
  /// identical arguments from all lanes, as CUDA's static __shared__
  /// declarations do. There is no automatic rewind: the executor calls
  /// rewind() before every lane so each lane's carve sequence restarts at
  /// offset 0, and in checked mode (vgpu/checker.h) the checker asserts
  /// that all lanes request identical carve sequences.
  template <typename T>
  std::span<T> array(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    const std::size_t aligned = align(cursor_, alignof(T));
    FDET_CHECK(aligned + bytes <= buffer_.size())
        << "shared memory overflow: need " << aligned + bytes << " have "
        << buffer_.size();
    if (owner_ != nullptr) {
      owner_->on_carve(aligned, bytes, alignof(T));
    }
    cursor_ = aligned + bytes;
    return {reinterpret_cast<T*>(buffer_.data() + aligned), count};
  }

  /// Restarts the carve sequence; the executor calls this before every lane
  /// so each lane's array() calls resolve to the same storage.
  void rewind() { cursor_ = 0; }

  /// Byte offset of `p` within the block's buffer — the address the
  /// checker's shared-access records use. `p` must point into a span
  /// previously returned by array().
  std::size_t offset_of(const void* p) const {
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) -
                                    buffer_.data());
  }

  std::size_t capacity() const { return buffer_.size(); }

 private:
  static std::size_t align(std::size_t offset, std::size_t alignment) {
    return (offset + alignment - 1) & ~(alignment - 1);
  }

  std::vector<std::byte> buffer_;
  std::size_t cursor_ = 0;
  LaunchObserver* owner_ = nullptr;
};

}  // namespace fdet::vgpu
