// Block-local scratch standing in for CUDA __shared__ memory.
//
// A kernel declares its static shared layout once, before launch, the way
// CUDA's __shared__ declarations do: a SharedLayout in KernelConfig, built
// with add<T>(count), which returns a typed SharedArray handle. The
// layout is the same for every thread and its bytes() is the footprint
// the occupancy calculation reads. The executor sizes and zeroes one
// SharedMem buffer per block; phases turn a handle into a span with
// shared[handle]. The buffer lives for the whole block: values written in
// phase k are visible in phase k+1, with the inter-phase barrier supplied
// by the executor (the functional equivalent of __syncthreads).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fdet::vgpu {

/// Handle to one array of a SharedLayout: `count` elements of T starting
/// at byte `offset` of the block's buffer.
template <typename T>
struct SharedArray {
  std::size_t offset = 0;
  std::size_t count = 0;
};

class SharedLayout {
 public:
  /// Placement of one array, in declaration order.
  struct Region {
    std::size_t offset = 0;
    std::size_t bytes = 0;
  };

  /// Appends `count` elements of T, aligned to alignof(T) after the
  /// previous array, and returns the array's handle.
  template <typename T>
  SharedArray<T> add(std::size_t count) {
    const std::size_t offset = (bytes_ + alignof(T) - 1) & ~(alignof(T) - 1);
    bytes_ = offset + count * sizeof(T);
    arrays_.push_back({offset, count * sizeof(T)});
    return {offset, count};
  }

  /// Static footprint per block, alignment padding included.
  std::size_t bytes() const { return bytes_; }
  const std::vector<Region>& arrays() const { return arrays_; }

 private:
  std::size_t bytes_ = 0;
  std::vector<Region> arrays_;
};

class SharedMem {
 public:
  /// Sizes and zeroes the buffer for a new block.
  void reset(std::size_t bytes) { buffer_.assign(bytes, std::byte{0}); }

  /// The block's storage for one array of the kernel's layout.
  template <typename T>
  std::span<T> operator[](SharedArray<T> array) {
    return {reinterpret_cast<T*>(buffer_.data() + array.offset), array.count};
  }

  /// Byte offset of `p` within the block's buffer — the address the
  /// shared-access records use. `p` must point into a span returned by
  /// operator[].
  std::size_t offset_of(const void* p) const {
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) -
                                    buffer_.data());
  }

  std::size_t capacity() const { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

}  // namespace fdet::vgpu
