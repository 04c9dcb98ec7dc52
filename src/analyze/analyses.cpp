#include "analyze/analyses.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "vgpu/device.h"
#include "vgpu/warp.h"

namespace fdet::analyze {
namespace {

using vgpu::kSegmentBytes;
using vgpu::kWarpSize;

/// Warn when a predicted per-issue conflict degree reaches this many
/// serialized passes. Production scan legitimately runs degree-4 chunk
/// scans; 8 is one power of two above anything the shipped kernels do.
constexpr int kBankConflictWarnDegree = 8;
/// Warn when predicted transactions exceed the packed minimum by this
/// factor on some slot (32 on a fully strided column-major read).
constexpr double kUncoalescedWarnRatio = 8.0;
/// Warn (not just inform) when occupancy drops below this ratio.
constexpr double kOccupancyWarnRatio = 0.25;

int severity_rank(Severity s) {
  switch (s) {
    case Severity::kError: return 2;
    case Severity::kWarning: return 1;
    case Severity::kInfo: return 0;
  }
  return 0;
}

std::string geometry_string(const vgpu::KernelConfig& config) {
  std::ostringstream out;
  out << "grid " << config.grid.x << "x" << config.grid.y << "x"
      << config.grid.z << " block " << config.block.x << "x" << config.block.y
      << "x" << config.block.z;
  return out.str();
}

/// A slot is statically evaluable for every lane only when every lane
/// issues it (full participation), the fitted form verified exactly, and
/// nothing about it changed with the input data.
bool predictable(const AccessPattern& p) {
  return p.affine && !p.data_dependent &&
         p.participation == Participation::kFull;
}

/// Per-slot exact replication of the executor's warp reduction: visits
/// every (block, warp) issue of the slot, calling `fn(values)` with the
/// evaluated per-lane values of the active lanes. Slots whose form does
/// not depend on the block index are evaluated for one block and the
/// callback told to weight the result by the block count.
template <typename Fn>
void for_each_warp_issue(const vgpu::KernelConfig& config,
                         const AffineForm& form, Fn&& fn) {
  const vgpu::Dim3 block = config.block;
  const vgpu::Dim3 grid = config.grid;
  const auto threads = block.count();
  const bool block_invariant = form.bx == 0 && form.by == 0 && form.bz == 0;
  const std::int64_t block_reps = block_invariant ? grid.count() : 1;
  std::array<std::int64_t, kWarpSize> values{};

  const auto visit_block = [&](const vgpu::Dim3& bid) {
    for (std::int64_t base = 0; base < threads; base += kWarpSize) {
      const int active =
          static_cast<int>(std::min<std::int64_t>(kWarpSize, threads - base));
      for (int l = 0; l < active; ++l) {
        const std::int64_t flat = base + l;
        const vgpu::Dim3 tid{
            static_cast<int>(flat % block.x),
            static_cast<int>((flat / block.x) % block.y),
            static_cast<int>(flat / (static_cast<std::int64_t>(block.x) *
                                     block.y))};
        values[static_cast<std::size_t>(l)] = form.eval(tid, bid);
      }
      fn(values, active, block_reps);
    }
  };

  if (block_invariant) {
    visit_block(vgpu::Dim3{0, 0, 0});
    return;
  }
  for (int bz = 0; bz < grid.z; ++bz) {
    for (int by = 0; by < grid.y; ++by) {
      for (int bx = 0; bx < grid.x; ++bx) {
        visit_block(vgpu::Dim3{bx, by, bz});
      }
    }
  }
}

struct SharedSlotPrediction {
  std::uint64_t extra_passes = 0;  ///< counters.bank_conflicts contribution
  int max_degree = 1;              ///< worst per-issue serialization
};

/// The executor's reduction (vgpu/warp.h) over each evaluated warp issue.
SharedSlotPrediction predict_shared_slot(const vgpu::KernelConfig& config,
                                         const AccessPattern& p) {
  SharedSlotPrediction out;
  vgpu::BankConflictSlot banks;
  for_each_warp_issue(
      config, p.form,
      [&out, &banks](const std::array<std::int64_t, kWarpSize>& values,
                     int active, std::int64_t reps) {
        banks.clear();
        for (int l = 0; l < active; ++l) {
          banks.add(static_cast<std::uint32_t>(
              values[static_cast<std::size_t>(l)] / 4));
        }
        const int degree = banks.degree();
        out.max_degree = std::max(out.max_degree, std::max(degree, 1));
        out.extra_passes += static_cast<std::uint64_t>(std::max(0, degree - 1)) *
                            static_cast<std::uint64_t>(reps);
      });
  return out;
}

struct GlobalSlotPrediction {
  std::uint64_t transactions = 0;
  std::uint64_t min_transactions = 0;  ///< packed minimum for the same bytes
};

GlobalSlotPrediction predict_global_slot(const vgpu::KernelConfig& config,
                                         const AccessPattern& p) {
  GlobalSlotPrediction out;
  vgpu::SegmentSlot segments;
  for_each_warp_issue(
      config, p.form,
      [&out, &p, &segments](const std::array<std::int64_t, kWarpSize>& values,
                            int active, std::int64_t reps) {
        segments.clear();
        for (int l = 0; l < active; ++l) {
          segments.add(
              static_cast<std::uint64_t>(values[static_cast<std::size_t>(l)]));
        }
        out.transactions += static_cast<std::uint64_t>(segments.count()) *
                            static_cast<std::uint64_t>(reps);
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(active) * std::max<std::uint32_t>(1, p.bytes);
        out.min_transactions +=
            std::max<std::uint64_t>(1, (bytes + kSegmentBytes - 1) / kSegmentBytes) *
            static_cast<std::uint64_t>(reps);
      });
  return out;
}

void add_finding(std::vector<Finding>& out, FindingKind kind, Severity severity,
                 const KernelIR& ir, int phase, int slot,
                 const std::string& message) {
  Finding f;
  f.kind = kind;
  f.severity = severity;
  f.kernel = ir.config.name;
  f.phase = phase;
  f.slot = slot;
  f.message = message;
  out.push_back(std::move(f));
}

// --- individual analyses --------------------------------------------------

void check_shared_oob(const KernelIR& ir, std::vector<Finding>& out) {
  const auto declared = static_cast<std::int64_t>(ir.config.shared.bytes());
  for (const PhaseIR& phase : ir.phases) {
    for (const AccessPattern& p : phase.shared_slots) {
      std::int64_t lo = 0;
      std::int64_t hi = 0;  // exclusive end
      const char* how = nullptr;
      if (predictable(p)) {
        lo = p.form.min_over(ir.config.block, ir.config.grid);
        hi = p.form.max_over(ir.config.block, ir.config.grid) + p.bytes;
        how = "proven over every lane of every block";
      } else {
        lo = static_cast<std::int64_t>(p.min_seen);
        hi = static_cast<std::int64_t>(p.max_seen) + p.bytes;
        how = "observed on sampled lanes";
      }
      if (lo < 0 || hi > declared) {
        std::ostringstream msg;
        msg << (p.store ? "store" : "load") << " range [" << lo << ", " << hi
            << ") escapes the " << declared << "-byte shared layout ("
            << how << "); index = " << p.form.to_string() << " at "
            << geometry_string(ir.config);
        add_finding(out, FindingKind::kSharedOutOfBounds, Severity::kError, ir,
                    phase.index, p.slot, msg.str());
      }
    }
  }
}

void check_global_oob(const KernelIR& ir, const AnalysisOptions& options,
                      std::vector<Finding>& out) {
  if (options.allocations.empty()) {
    return;
  }
  const auto containing =
      [&options](std::uint64_t addr) -> const vgpu::GlobalAllocation* {
    for (const vgpu::GlobalAllocation& a : options.allocations) {
      if (addr >= a.base && addr < a.base + a.size) {
        return &a;
      }
    }
    return nullptr;
  };
  for (const PhaseIR& phase : ir.phases) {
    for (const AccessPattern& p : phase.global_slots) {
      std::int64_t lo = 0;
      std::uint64_t hi = 0;  // exclusive end
      const char* how = nullptr;
      if (predictable(p)) {
        lo = p.form.min_over(ir.config.block, ir.config.grid);
        hi = static_cast<std::uint64_t>(
                 p.form.max_over(ir.config.block, ir.config.grid)) +
             p.bytes;
        how = "proven over every lane of every block";
      } else if (!p.data_dependent) {
        lo = static_cast<std::int64_t>(p.min_seen);
        hi = p.max_seen + p.bytes;
        how = "observed on sampled lanes";
      } else {
        // Data-dependent addressing: the observed range is still a real
        // executed range, so escapes are real; containment is not a proof.
        lo = static_cast<std::int64_t>(p.min_seen);
        hi = p.max_seen + p.bytes;
        how = "observed under both data seeds (data-dependent)";
      }
      const vgpu::GlobalAllocation* alloc =
          lo < 0 ? nullptr : containing(static_cast<std::uint64_t>(lo));
      if (alloc != nullptr && hi <= alloc->base + alloc->size) {
        continue;
      }
      std::ostringstream msg;
      msg << (p.store ? "store" : "load") << " range [" << lo << ", " << hi
          << ") ";
      if (alloc == nullptr) {
        msg << "starts outside every registered allocation";
      } else {
        msg << "escapes allocation '" << alloc->name << "' [" << alloc->base
            << ", " << alloc->base + alloc->size << ")";
      }
      msg << " (" << how << "); address = " << p.form.to_string() << " at "
          << geometry_string(ir.config);
      add_finding(out, FindingKind::kGlobalOutOfBounds, Severity::kError, ir,
                  phase.index, p.slot, msg.str());
    }
  }
}

void check_barrier_divergence(const KernelIR& ir, std::vector<Finding>& out) {
  // A vgpu barrier sits between consecutive phases. If what a lane writes
  // to shared memory before the barrier depends on the input data — the
  // writing lane set changes, or a divergent data branch guards the phase
  // body — then consumers after the barrier can read values that only
  // some inputs produce: the classic barrier-in-divergent-branch hazard.
  // The final phase has no barrier after it and is exempt.
  for (const PhaseIR& phase : ir.phases) {
    if (phase.index + 1 >= static_cast<int>(ir.phases.size())) {
      break;
    }
    bool has_store = false;
    bool dd_store = false;
    int dd_slot = -1;
    for (const AccessPattern& p : phase.shared_slots) {
      if (!p.store) {
        continue;
      }
      has_store = true;
      if (p.participation == Participation::kDataDependent) {
        dd_store = true;
        dd_slot = p.slot;
        break;
      }
    }
    if (dd_store) {
      std::ostringstream msg;
      msg << "shared stores in phase " << phase.index
          << " come from a data-dependent lane set; phase " << phase.index + 1
          << " reads them after the barrier, so some inputs leave the data "
          << "unwritten";
      add_finding(out, FindingKind::kBarrierDivergence, Severity::kWarning, ir,
                  phase.index, dd_slot, msg.str());
      continue;
    }
    if (!has_store) {
      continue;
    }
    for (const BranchPattern& b : phase.branches) {
      if (b.data_dependent && b.divergent_observed) {
        std::ostringstream msg;
        msg << "data-dependent divergent branch (slot " << b.slot
            << ") guards phase " << phase.index
            << " which produces shared data consumed after the barrier";
        add_finding(out, FindingKind::kBarrierDivergence, Severity::kWarning,
                    ir, phase.index, b.slot, msg.str());
        break;
      }
    }
  }
}

void check_traffic(const KernelIR& ir, std::vector<Finding>& out) {
  std::uint64_t total_conflicts = 0;
  for (const PhaseIR& phase : ir.phases) {
    for (const AccessPattern& p : phase.shared_slots) {
      if (!predictable(p)) {
        continue;
      }
      const SharedSlotPrediction pred = predict_shared_slot(ir.config, p);
      total_conflicts += pred.extra_passes;
      if (pred.max_degree >= kBankConflictWarnDegree) {
        std::ostringstream msg;
        msg << "predicted " << pred.max_degree
            << "-way bank conflict (threshold " << kBankConflictWarnDegree
            << "): every issue of index "
            << p.form.to_string() << " serializes into " << pred.max_degree
            << " passes at " << geometry_string(ir.config);
        add_finding(out, FindingKind::kBankConflict, Severity::kWarning, ir,
                    phase.index, p.slot, msg.str());
      }
    }
    for (const AccessPattern& p : phase.global_slots) {
      if (!predictable(p)) {
        continue;
      }
      const GlobalSlotPrediction pred = predict_global_slot(ir.config, p);
      const double ratio =
          pred.min_transactions == 0
              ? 1.0
              : static_cast<double>(pred.transactions) /
                    static_cast<double>(pred.min_transactions);
      if (ratio >= kUncoalescedWarnRatio) {
        std::ostringstream msg;
        msg << "uncoalesced " << (p.store ? "store" : "load") << ": predicted "
            << pred.transactions << " transactions where packed access needs "
            << pred.min_transactions << " (" << ratio
            << "x); address = " << p.form.to_string() << " at "
            << geometry_string(ir.config);
        add_finding(out, FindingKind::kUncoalesced, Severity::kWarning, ir,
                    phase.index, p.slot, msg.str());
      }
    }
  }
  if (total_conflicts > 0) {
    std::ostringstream msg;
    msg << "predicted " << total_conflicts
        << " serialized shared-memory passes across the launch (below the "
        << kBankConflictWarnDegree << "-way warning threshold)";
    add_finding(out, FindingKind::kBankConflict, Severity::kInfo, ir, -1, -1,
                msg.str());
  }
}

void check_dead_shared_writes(const KernelIR& ir, std::vector<Finding>& out) {
  const auto word_flag = [](const std::vector<bool>& words, std::size_t w) {
    return w < words.size() && words[w];
  };
  const auto& arrays = ir.config.shared.arrays();
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const vgpu::SharedLayout::Region& a = arrays[i];
    bool written = false;
    bool read = false;
    const std::size_t first = a.offset / 4;
    const std::size_t last = a.bytes == 0 ? first : (a.offset + a.bytes - 1) / 4;
    for (std::size_t w = first; w <= last; ++w) {
      written = written || word_flag(ir.shared_words_written, w);
      read = read || word_flag(ir.shared_words_read, w);
    }
    if (written && !read) {
      std::ostringstream msg;
      msg << "shared array #" << i << " [" << a.offset << ", "
          << a.offset + a.bytes
          << ") is written but never read in any phase of any sampled block "
          << "— the stores (and the shared footprint) are dead";
      add_finding(out, FindingKind::kDeadSharedWrite, Severity::kWarning, ir,
                  -1, static_cast<int>(i), msg.str());
    }
  }
}

void check_occupancy(const KernelIR& ir, std::vector<Finding>& out) {
  const vgpu::DeviceSpec& spec = ir.device;
  const auto threads = static_cast<int>(ir.config.block.count());
  const int shared = static_cast<int>(ir.config.shared.bytes());
  const vgpu::Occupancy occ = vgpu::compute_occupancy(
      spec, threads, shared, ir.config.regs_per_thread);
  // Re-derive each limiter the way the occupancy calculation combines
  // them, to name the binding one.
  const int warps_per_block = (threads + kWarpSize - 1) / kWarpSize;
  const int by_warps = spec.max_warps_per_sm / warps_per_block;
  const int by_blocks = spec.max_blocks_per_sm;
  const int by_shared =
      shared > 0 ? spec.shared_mem_per_sm / shared : by_blocks;
  const int regs_per_block = ir.config.regs_per_thread * threads;
  const int by_regs =
      regs_per_block > 0 ? spec.registers_per_sm / regs_per_block : by_blocks;
  const char* limiter = "warp capacity";
  int binding = by_warps;
  if (by_blocks < binding) {
    limiter = "block slots";
    binding = by_blocks;
  }
  if (by_shared < binding) {
    limiter = "shared memory";
    binding = by_shared;
  }
  if (by_regs < binding) {
    limiter = "registers";
    binding = by_regs;
  }
  std::ostringstream msg;
  msg << "occupancy " << occ.ratio * 100 << "% (" << occ.resident_warps << "/"
      << spec.max_warps_per_sm << " warps, " << occ.blocks_per_sm
      << " blocks/SM), limited by " << limiter;
  if (occ.ratio < kOccupancyWarnRatio) {
    msg << "; below the " << kOccupancyWarnRatio * 100
        << "% warning floor — raise occupancy";
    add_finding(out, FindingKind::kOccupancy, Severity::kWarning, ir, -1, -1,
                msg.str());
  } else {
    add_finding(out, FindingKind::kOccupancy, Severity::kInfo, ir, -1, -1,
                msg.str());
  }
}

void summarize_unpredictable(const KernelIR& ir, std::vector<Finding>& out) {
  int non_affine = 0;
  int data_dependent = 0;
  const AccessPattern* example_na = nullptr;
  for (const PhaseIR& phase : ir.phases) {
    for (const auto* slots : {&phase.shared_slots, &phase.global_slots}) {
      for (const AccessPattern& p : *slots) {
        if (p.data_dependent) {
          ++data_dependent;
        } else if (!p.affine) {
          ++non_affine;
          if (example_na == nullptr) {
            example_na = &p;
          }
        }
      }
    }
  }
  if (non_affine > 0) {
    std::ostringstream msg;
    msg << non_affine << " slot(s) have geometry-determined but non-affine "
        << "indices (first: phase " << example_na->phase << " slot "
        << example_na->slot << ", observed [" << example_na->min_seen << ", "
        << example_na->max_seen << "]); analyses fall back to observed ranges";
    add_finding(out, FindingKind::kNonAffine, Severity::kInfo, ir,
                example_na->phase, example_na->slot, msg.str());
  }
  if (data_dependent > 0) {
    std::ostringstream msg;
    msg << data_dependent << " slot(s) address memory data-dependently; "
        << "traffic predictions treat them as unpredictable lower-bound gaps";
    add_finding(out, FindingKind::kDataDependent, Severity::kInfo, ir, -1, -1,
                msg.str());
  }
}

}  // namespace

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kInfo: return "info";
  }
  return "unknown";
}

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::kSharedOutOfBounds: return "shared-oob";
    case FindingKind::kGlobalOutOfBounds: return "global-oob";
    case FindingKind::kBarrierDivergence: return "barrier-divergence";
    case FindingKind::kBankConflict: return "bank-conflict";
    case FindingKind::kUncoalesced: return "uncoalesced";
    case FindingKind::kDeadSharedWrite: return "dead-shared-write";
    case FindingKind::kOccupancy: return "occupancy";
    case FindingKind::kNonAffine: return "non-affine";
    case FindingKind::kDataDependent: return "data-dependent";
  }
  return "unknown";
}

PredictedTraffic predict_traffic(const KernelIR& ir) {
  PredictedTraffic out;
  for (const PhaseIR& phase : ir.phases) {
    for (const AccessPattern& p : phase.shared_slots) {
      if (!predictable(p)) {
        out.shared_complete = false;
        ++out.skipped_slots;
        continue;
      }
      out.bank_conflicts += predict_shared_slot(ir.config, p).extra_passes;
    }
    for (const AccessPattern& p : phase.global_slots) {
      if (!predictable(p)) {
        out.global_complete = false;
        ++out.skipped_slots;
        continue;
      }
      const GlobalSlotPrediction pred = predict_global_slot(ir.config, p);
      out.global_transactions += pred.transactions;
      out.min_global_transactions += pred.min_transactions;
    }
  }
  return out;
}

std::vector<Finding> analyze_kernel(const KernelIR& ir,
                                    const AnalysisOptions& options) {
  std::vector<Finding> out;
  check_shared_oob(ir, out);
  check_global_oob(ir, options, out);
  check_barrier_divergence(ir, out);
  check_traffic(ir, out);
  check_dead_shared_writes(ir, out);
  check_occupancy(ir, out);
  summarize_unpredictable(ir, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return severity_rank(a.severity) > severity_rank(b.severity);
                   });
  return out;
}

int active_findings(const std::vector<Finding>& findings) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity != Severity::kInfo) {
      ++n;
    }
  }
  return n;
}

}  // namespace fdet::analyze
