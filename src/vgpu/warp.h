// Warp geometry of the virtual GPU and the two per-slot warp reductions.
//
// Lanes of a warp issue their k-th shared access together, and their k-th
// global access together; each such *slot* reduces across the lanes that
// issued it:
//
//   bank-conflict degree   distinct 4-byte words in the most loaded of the
//                          32 banks. Same-word broadcast is free; an n-way
//                          conflict costs n - 1 extra serialized passes.
//   coalesced segments     distinct 128-byte segments the slot touches,
//                          one global transaction each.
//
// The executor (kernel.cpp) charges these per warp, and the static
// analyzer (analyze/analyses.cpp) predicts them from a kernel's affine
// access forms with the same two reducers, so predicted == measured holds
// by construction.
//
// Cost. A reducer lives across slots and only resets its bitmasks and
// counts per slot, never its tables. Adding a lane is O(1) on the paths
// kernels produce: a word in a new bank or a repeat of its bank's first
// word (conflict-free and broadcast slots), and a segment above every one
// seen so far (addresses rising with the lane index). A second distinct
// word in a bank walks only that bank's overflow chain, so an n-way
// conflict costs O(lanes x n); a segment below the running maximum scans
// the slot's distinct segments.
//
// The executor feeds BankConflictSlot once per shared slot, except for a
// translated warp (every lane's words are one lane's words plus a
// per-lane constant): its degree depends only on which lanes still issue,
// so the executor feeds the lanes' constants once per run of slots with
// the same issuing lanes (kernel.cpp, DESIGN §2).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace fdet::vgpu {

inline constexpr int kWarpSize = 32;
inline constexpr int kSharedBanks = 32;  ///< Fermi: 32 banks, 4-byte wide
inline constexpr std::uint64_t kSegmentBytes = 128;  ///< coalescing unit

/// Bank-conflict degree of one shared slot. Feed it the 4-byte word index
/// of each participating lane (at most kWarpSize per slot), then read
/// degree().
class BankConflictSlot {
 public:
  void clear() {
    occupied_ = 0;
    spilled_ = 0;
    n_spill_ = 0;
    degree_ = 1;
  }

  void add(std::uint32_t word) {
    const std::uint32_t bank = word % kSharedBanks;
    const std::uint32_t bit = std::uint32_t{1} << bank;
    if ((occupied_ & bit) == 0) {
      occupied_ |= bit;
      first_[bank] = word;
    } else if (first_[bank] != word) {
      spill(bank, bit, word);
    }
  }

  /// Distinct words in the most loaded bank; 0 for a slot no lane issued.
  int degree() const { return occupied_ == 0 ? 0 : degree_; }

 private:
  /// A word other than its bank's first: dedup against the bank's overflow
  /// chain, and append it when it is new.
  void spill(std::uint32_t bank, std::uint32_t bit, std::uint32_t word) {
    if ((spilled_ & bit) == 0) {
      spilled_ |= bit;
      head_[bank] = kEnd;
      bank_degree_[bank] = 1;
    }
    for (int e = head_[bank]; e != kEnd;
         e = next_[static_cast<std::size_t>(e)]) {
      if (spill_word_[static_cast<std::size_t>(e)] == word) {
        return;
      }
    }
    const auto entry = static_cast<std::size_t>(n_spill_++);
    spill_word_[entry] = word;
    next_[entry] = head_[bank];
    head_[bank] = static_cast<std::int8_t>(entry);
    degree_ = std::max(degree_, static_cast<int>(++bank_degree_[bank]));
  }

  static constexpr std::int8_t kEnd = -1;

  std::uint32_t occupied_ = 0;  ///< banks holding at least one word
  std::uint32_t spilled_ = 0;   ///< banks holding a second distinct word
  int n_spill_ = 0;
  int degree_ = 1;
  // Valid only for the banks whose bit is set; never cleared.
  std::array<std::uint32_t, kSharedBanks> first_{};
  std::array<std::int8_t, kSharedBanks> head_{};
  std::array<std::uint8_t, kSharedBanks> bank_degree_{};
  // Overflow entries: a slot of at most kWarpSize lanes spills fewer.
  std::array<std::uint32_t, kWarpSize> spill_word_{};
  std::array<std::int8_t, kWarpSize> next_{};
};

/// Distinct 128-byte segments of one global slot. Feed it the byte address
/// of each participating lane (at most kWarpSize per slot), then read
/// count().
class SegmentSlot {
 public:
  void clear() { count_ = 0; }

  void add(std::uint64_t addr) {
    const std::uint64_t seg = addr / kSegmentBytes;
    if (count_ > 0 && seg <= max_) {
      if (seg == max_ ||
          std::find(seen_.begin(), seen_.begin() + count_, seg) !=
              seen_.begin() + count_) {
        return;
      }
    } else {
      max_ = seg;
    }
    seen_[static_cast<std::size_t>(count_++)] = seg;
  }

  int count() const { return count_; }

 private:
  int count_ = 0;
  std::uint64_t max_ = 0;  ///< largest segment of the slot so far
  std::array<std::uint64_t, kWarpSize> seen_{};
};

}  // namespace fdet::vgpu
