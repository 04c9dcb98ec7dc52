// Kernel IR for the static access-pattern analyzer (fdet_lint).
//
// The capture engine (analyze/capture.h) runs a kernel once per data seed
// as a vgpu::LaunchObserver and condenses the observed lane programs into
// this IR: per phase, one AccessPattern per *slot* (the k-th shared or
// global access a lane issues inside the phase — the same slot alignment
// the executor uses for bank-conflict and coalescing modelling) and one
// BranchPattern per tracked branch slot; the block's shared layout is the
// captured config's SharedLayout. Each pattern carries a symbolic index
// expression — an affine form over the thread/block coordinates
//
//   value(tid, bid) = c0 + tx·tid.x + ty·tid.y + tz·tid.z
//                        + bx·bid.x + by·bid.y + bz·bid.z
//
// fitted from the sampled lanes and verified against every observation.
// Slots the fit cannot explain are *flagged* non-affine (never
// miscompiled into a wrong form): the analyses fall back to the observed
// value range for them. Slots whose values differ between the two data
// seeds are flagged data-dependent — indirect addressing the static
// analyses must not extrapolate.
//
// Everything downstream (analyze/analyses.h) works on this IR alone,
// parameterized by launch geometry, without executing kernel data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/kernel.h"

namespace fdet::analyze {

/// Affine form over thread/block coordinates. Coefficients are exact
/// integers; evaluation is exact 64-bit arithmetic.
struct AffineForm {
  std::int64_t c0 = 0;
  std::int64_t tx = 0, ty = 0, tz = 0;  ///< threadIdx coefficients
  std::int64_t bx = 0, by = 0, bz = 0;  ///< blockIdx coefficients

  std::int64_t eval(const vgpu::Dim3& thread, const vgpu::Dim3& block_id) const {
    return c0 + tx * thread.x + ty * thread.y + tz * thread.z +
           bx * block_id.x + by * block_id.y + bz * block_id.z;
  }

  /// Inclusive [min, max] of the form over all threads of `block` and all
  /// blocks of `grid` (each coordinate ranges over [0, dim)). Exact:
  /// the form is linear, so extremes sit at coordinate range endpoints.
  std::int64_t min_over(const vgpu::Dim3& block, const vgpu::Dim3& grid) const {
    std::int64_t v = c0;
    const auto lo = [&v](std::int64_t coeff, int extent) {
      v += coeff < 0 ? coeff * (extent - 1) : 0;
    };
    lo(tx, block.x), lo(ty, block.y), lo(tz, block.z);
    lo(bx, grid.x), lo(by, grid.y), lo(bz, grid.z);
    return v;
  }
  std::int64_t max_over(const vgpu::Dim3& block, const vgpu::Dim3& grid) const {
    std::int64_t v = c0;
    const auto hi = [&v](std::int64_t coeff, int extent) {
      v += coeff > 0 ? coeff * (extent - 1) : 0;
    };
    hi(tx, block.x), hi(ty, block.y), hi(tz, block.z);
    hi(bx, grid.x), hi(by, grid.y), hi(bz, grid.z);
    return v;
  }

  /// Human-readable "4*tid.x + 132*tid.y + 16" rendering for findings.
  std::string to_string() const;
};

/// How much of the launch a pattern covers.
enum class Participation {
  kFull,      ///< every sampled lane of every sampled block issued the slot
  kPartial,   ///< geometry-stable subset (same lanes across both data seeds)
  kDataDependent,  ///< the participating lane set changed with the data
};

/// One access slot of one phase, condensed over all sampled lanes.
struct AccessPattern {
  int phase = 0;
  int slot = 0;          ///< k-th shared (or global) access of a lane
  bool shared = false;   ///< shared-memory access vs global-memory access
  bool store = false;    ///< any lane stored in this slot
  bool load = false;     ///< any lane loaded in this slot
  std::uint32_t bytes = 0;  ///< widest access seen in the slot

  AffineForm form;       ///< over byte offset (shared) / address (global)
  bool affine = false;   ///< form verified exact on every observation
  bool data_dependent = false;  ///< values changed across data seeds

  std::uint64_t min_seen = 0;   ///< observed value range (always valid)
  std::uint64_t max_seen = 0;
  Participation participation = Participation::kFull;
  std::int64_t observations = 0;  ///< lane-samples that issued the slot
};

/// One tracked branch slot of one phase.
struct BranchPattern {
  int phase = 0;
  int slot = 0;
  bool divergent_observed = false;  ///< mixed outcomes within one warp
  bool data_dependent = false;      ///< outcomes changed across data seeds
  std::int64_t taken = 0;
  std::int64_t observations = 0;
};

struct PhaseIR {
  int index = 0;
  std::vector<AccessPattern> shared_slots;
  std::vector<AccessPattern> global_slots;
  std::vector<BranchPattern> branches;
};

/// Captured symbolic program of one kernel launch.
struct KernelIR {
  vgpu::KernelConfig config;   ///< geometry and shared layout captured at
  vgpu::DeviceSpec device;     ///< spec the capture ran against
  std::vector<PhaseIR> phases;

  /// 4-byte shared words observed written / read anywhere in the launch
  /// (union over phases, lanes and sampled blocks) — the dead-write
  /// analysis input. Indexed by word; sized to cover the largest offset.
  std::vector<bool> shared_words_written;
  std::vector<bool> shared_words_read;

  int blocks_sampled = 0;           ///< distinct blocks observed
  std::int64_t blocks_total = 0;    ///< grid.count() at capture geometry
  bool branch_tracking_forced = false;  ///< capture enabled lane traces
  int data_seeds = 1;               ///< capture runs merged into this IR

  /// Phase barriers: a vgpu kernel has an implicit block-wide barrier
  /// between consecutive phases (and none after the last).
  int barrier_count() const {
    return phases.empty() ? 0 : static_cast<int>(phases.size()) - 1;
  }
};

}  // namespace fdet::analyze
