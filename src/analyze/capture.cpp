#include "analyze/capture.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "core/check.h"
#include "vgpu/warp.h"

namespace fdet::analyze {
namespace {

/// Blocks sampled per grid axis: the first kBlocksPerAxis - 1 and the
/// last block of each axis (all blocks when the axis is small). Two
/// adjacent blocks pin the axis' affine coefficient; the last block
/// exercises ragged guards.
constexpr int kBlocksPerAxis = 3;
/// Warps sampled per block: first two, middle, last (all when few).
constexpr int kWarpsPerBlock = 4;
/// Per-slot cap on stored observations (fit/verify set); beyond it the
/// slot still tracks range/participation but new samples are not kept.
constexpr std::size_t kMaxObservations = 8192;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Packs one lane identity into 64 bits: tx/ty (12 bits each), tz (8),
/// bx/by (12), bz (8). Capture geometries stay well inside these ranges.
std::uint64_t pack_lane(const vgpu::Dim3& t, const vgpu::Dim3& b) {
  auto u = [](int v) { return static_cast<std::uint64_t>(v); };
  return (u(t.x) << 52) | (u(t.y) << 40) | (u(t.z) << 32) | (u(b.x) << 20) |
         (u(b.y) << 8) | u(b.z);
}

/// Axis sample set: all block ids when the axis is short, otherwise the
/// first `per_axis - 1` plus the last (adjacent ids pin the affine
/// coefficient; the last id exercises ragged-edge guards).
std::vector<int> axis_samples(int extent, int per_axis) {
  std::vector<int> out;
  if (extent <= per_axis) {
    for (int i = 0; i < extent; ++i) out.push_back(i);
    return out;
  }
  for (int i = 0; i + 1 < per_axis; ++i) out.push_back(i);
  out.push_back(extent - 1);
  return out;
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

void mark_words(std::vector<bool>& words, std::size_t offset,
                std::uint32_t bytes) {
  const std::size_t first = offset / 4;
  const std::size_t last = bytes == 0 ? first : (offset + bytes - 1) / 4;
  if (last >= words.size()) {
    words.resize(last + 1, false);
  }
  for (std::size_t w = first; w <= last; ++w) words[w] = true;
}

struct BranchAccum {
  RawBranch raw;
  std::int64_t last_warp_key = -1;
  bool first_outcome = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// CaptureEngine
// ---------------------------------------------------------------------------

struct CaptureEngine::Impl {
  RawKernelCapture raw;

  // Sampling decisions for the current launch.
  std::vector<int> sample_bx, sample_by, sample_bz;
  std::vector<int> sample_warps;
  std::int64_t warps_per_block = 1;

  // Current position.
  vgpu::Dim3 block_id;
  vgpu::Dim3 thread;
  bool block_active = false;
  bool lane_active = false;
  int phase = -1;
  int lane_shared_slot = 0;
  std::int64_t lane_warp_key = -1;

  // Per-phase branch accumulators (parallel to raw.phases[i].branches).
  std::vector<std::vector<BranchAccum>> branch_accums;

  RawPhase& cur_phase() {
    return raw.phases[static_cast<std::size_t>(phase)];
  }

  RawSlot& slot_at(std::vector<RawSlot>& slots, int index) {
    if (index >= static_cast<int>(slots.size())) {
      slots.resize(static_cast<std::size_t>(index) + 1);
    }
    return slots[static_cast<std::size_t>(index)];
  }

  void observe(RawSlot& slot, std::int64_t value, std::uint32_t bytes,
               bool store) {
    slot.store = slot.store || store;
    slot.load = slot.load || !store;
    slot.bytes = std::max(slot.bytes, bytes);
    const auto uvalue = static_cast<std::uint64_t>(value);
    if (slot.count == 0) {
      slot.min_value = slot.max_value = uvalue;
    } else {
      slot.min_value = std::min(slot.min_value, uvalue);
      slot.max_value = std::max(slot.max_value, uvalue);
    }
    ++slot.count;
    const std::uint64_t lane = pack_lane(thread, block_id);
    slot.participant_fingerprint ^= splitmix64(lane);
    slot.value_fingerprint ^= splitmix64(lane ^ splitmix64(uvalue));
    if (slot.observations.size() < kMaxObservations) {
      slot.observations.push_back(SlotObservation{
          static_cast<std::int16_t>(thread.x),
          static_cast<std::int16_t>(thread.y),
          static_cast<std::int16_t>(thread.z),
          static_cast<std::int16_t>(block_id.x),
          static_cast<std::int16_t>(block_id.y),
          static_cast<std::int16_t>(block_id.z), value});
    }
  }
};

CaptureEngine::CaptureEngine() : impl_(new Impl) {}

CaptureEngine::~CaptureEngine() { delete impl_; }

void CaptureEngine::begin_kernel(const vgpu::DeviceSpec& spec,
                                 const vgpu::KernelConfig& config) {
  Impl& s = *impl_;
  s = Impl{};
  s.raw.config = config;
  s.raw.device = spec;
  s.raw.blocks_total = config.grid.count();
  s.raw.branch_tracking_forced = !config.track_branches;
  s.sample_bx = axis_samples(config.grid.x, kBlocksPerAxis);
  s.sample_by = axis_samples(config.grid.y, kBlocksPerAxis);
  s.sample_bz = axis_samples(config.grid.z, kBlocksPerAxis);
  s.warps_per_block =
      (config.block.count() + vgpu::kWarpSize - 1) / vgpu::kWarpSize;
  s.sample_warps = axis_samples(static_cast<int>(s.warps_per_block),
                                kWarpsPerBlock - 1);
  const int mid = static_cast<int>(s.warps_per_block) / 2;
  if (!contains(s.sample_warps, mid)) {
    s.sample_warps.push_back(mid);
  }
}

void CaptureEngine::begin_block(const vgpu::Dim3& block_id) {
  Impl& s = *impl_;
  s.block_id = block_id;
  s.block_active = contains(s.sample_bx, block_id.x) &&
                   contains(s.sample_by, block_id.y) &&
                   contains(s.sample_bz, block_id.z);
  if (s.block_active) {
    ++s.raw.blocks_sampled;
  }
  s.phase = -1;
}

void CaptureEngine::begin_phase(int phase) {
  Impl& s = *impl_;
  s.phase = phase;
  if (phase >= static_cast<int>(s.raw.phases.size())) {
    s.raw.phases.resize(static_cast<std::size_t>(phase) + 1);
    s.branch_accums.resize(static_cast<std::size_t>(phase) + 1);
  }
}

void CaptureEngine::begin_lane(const vgpu::Dim3& thread) {
  Impl& s = *impl_;
  s.thread = thread;
  s.lane_shared_slot = 0;
  if (!s.block_active) {
    s.lane_active = false;
    return;
  }
  const vgpu::Dim3& block = s.raw.config.block;
  const int flat = thread.x + block.x * (thread.y + block.y * thread.z);
  const int warp = flat / vgpu::kWarpSize;
  s.lane_active = contains(s.sample_warps, warp);
  if (s.lane_active) {
    ++s.cur_phase().lanes_sampled;
    const std::int64_t flat_block =
        s.block_id.x +
        static_cast<std::int64_t>(s.raw.config.grid.x) *
            (s.block_id.y + static_cast<std::int64_t>(s.raw.config.grid.y) *
                                s.block_id.z);
    s.lane_warp_key = flat_block * s.warps_per_block + warp;
  }
}

void CaptureEngine::on_shared(std::size_t offset, std::uint32_t bytes,
                              bool store) {
  Impl& s = *impl_;
  if (!s.lane_active) return;
  RawPhase& phase = s.cur_phase();
  RawSlot& slot = s.slot_at(phase.shared_slots, s.lane_shared_slot++);
  s.observe(slot, static_cast<std::int64_t>(offset), bytes, store);
  if (store) {
    mark_words(s.raw.shared_words_written, offset, bytes);
  } else {
    mark_words(s.raw.shared_words_read, offset, bytes);
  }
}

void CaptureEngine::end_lane(const vgpu::LaneCtx& lane) {
  Impl& s = *impl_;
  if (!s.lane_active) return;
  RawPhase& phase = s.cur_phase();

  // Global accesses, slot-aligned the way the executor coalesces them
  // (the k-th global op of each lane issues together across the warp).
  const auto& ops = lane.global_ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    RawSlot& slot = s.slot_at(phase.global_slots, static_cast<int>(i));
    s.observe(slot, static_cast<std::int64_t>(ops[i].addr), ops[i].bytes,
              ops[i].store);
  }

  // Tracked branch outcomes, slot-aligned across the warp. Lanes stream
  // through end_lane in flat order, so warp transitions are detected by
  // the warp key changing between consecutive participating lanes.
  const auto& trace = lane.branch_trace();
  auto& accums = s.branch_accums[static_cast<std::size_t>(s.phase)];
  if (trace.size() > accums.size()) {
    accums.resize(trace.size());
  }
  const std::uint64_t lane_id = pack_lane(s.thread, s.block_id);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    BranchAccum& acc = accums[i];
    const bool taken = trace[i] != 0;
    ++acc.raw.count;
    if (taken) ++acc.raw.taken;
    acc.raw.participant_fingerprint ^= splitmix64(lane_id);
    acc.raw.outcome_fingerprint ^=
        splitmix64(lane_id ^ (taken ? 0xb5ULL : 0x17ULL));
    if (acc.last_warp_key != s.lane_warp_key) {
      acc.last_warp_key = s.lane_warp_key;
      acc.first_outcome = taken;
    } else if (taken != acc.first_outcome) {
      acc.raw.divergent = true;
    }
  }
  s.lane_active = false;
}

void CaptureEngine::end_phase() {}

void CaptureEngine::end_kernel() {
  Impl& s = *impl_;
  // Copy branch accumulators into the raw phases.
  for (std::size_t p = 0; p < s.raw.phases.size(); ++p) {
    auto& branches = s.raw.phases[p].branches;
    for (const BranchAccum& acc : s.branch_accums[p]) {
      branches.push_back(acc.raw);
    }
  }
  captures_.push_back(std::move(s.raw));
  s.raw = RawKernelCapture{};
}

void CaptureEngine::on_shadowed_launch(const vgpu::KernelConfig& /*config*/) {
  ++shadowed_launches_;
}

std::vector<RawKernelCapture> CaptureEngine::take_captures() {
  return std::exchange(captures_, {});
}

CaptureScope::CaptureScope() : installer_(engine_) {}

// ---------------------------------------------------------------------------
// Affine fitting
// ---------------------------------------------------------------------------

namespace {

/// Fits value = c0 + Σ coeff_i · coord_i by least squares over the stored
/// observations, rounds to integers, and verifies the integer form exactly
/// against EVERY observation. Returns false (leaving `out` zeroed beyond
/// c0) when the observations are not affine in the lane coordinates — the
/// caller flags the slot instead of trusting a wrong form.
bool fit_affine(const std::vector<SlotObservation>& obs, AffineForm& out) {
  out = AffineForm{};
  if (obs.empty()) {
    return false;
  }
  const SlotObservation& base = obs.front();
  const auto coord = [](const SlotObservation& o, int i) -> std::int64_t {
    switch (i) {
      case 0: return o.tx;
      case 1: return o.ty;
      case 2: return o.tz;
      case 3: return o.bx;
      case 4: return o.by;
      default: return o.bz;
    }
  };

  // Which coordinates vary at all? Constant ones get coefficient 0.
  int vary[6];
  int k = 0;
  for (int i = 0; i < 6; ++i) {
    for (const SlotObservation& o : obs) {
      if (coord(o, i) != coord(base, i)) {
        vary[k++] = i;
        break;
      }
    }
  }
  double solved[6] = {0, 0, 0, 0, 0, 0};
  if (k > 0) {
    // Normal equations over differences from the base observation: keeps
    // magnitudes small enough for exact double accumulation.
    double ata[6][6] = {};
    double atb[6] = {};
    const std::size_t step = std::max<std::size_t>(1, obs.size() / 512);
    for (std::size_t n = 0; n < obs.size(); n += step) {
      const SlotObservation& o = obs[n];
      double row[6];
      for (int i = 0; i < k; ++i) {
        row[i] = static_cast<double>(coord(o, vary[i]) - coord(base, vary[i]));
      }
      const double d = static_cast<double>(o.value - base.value);
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          ata[i][j] += row[i] * row[j];
        }
        atb[i] += row[i] * d;
      }
    }
    // Gaussian elimination with partial pivoting; a near-singular system
    // means the sample cannot pin the coefficients — treat as non-affine.
    int perm[6];
    for (int i = 0; i < k; ++i) perm[i] = i;
    for (int col = 0; col < k; ++col) {
      int best = col;
      for (int r = col + 1; r < k; ++r) {
        if (std::abs(ata[r][col]) > std::abs(ata[best][col])) best = r;
      }
      if (std::abs(ata[best][col]) < 1e-9) {
        return false;
      }
      std::swap(ata[col], ata[best]);
      std::swap(atb[col], atb[best]);
      std::swap(perm[col], perm[best]);
      for (int r = col + 1; r < k; ++r) {
        const double f = ata[r][col] / ata[col][col];
        for (int c = col; c < k; ++c) ata[r][c] -= f * ata[col][c];
        atb[r] -= f * atb[col];
      }
    }
    for (int r = k - 1; r >= 0; --r) {
      double v = atb[r];
      for (int c = r + 1; c < k; ++c) v -= ata[r][c] * solved[c];
      solved[r] = v / ata[r][r];
    }
    (void)perm;  // row permutation does not reorder unknowns
  }
  std::int64_t* coeffs[6] = {&out.tx, &out.ty, &out.tz,
                             &out.bx, &out.by, &out.bz};
  for (int i = 0; i < k; ++i) {
    *coeffs[vary[i]] = std::llround(solved[i]);
  }
  out.c0 = base.value;
  for (int i = 0; i < 6; ++i) {
    out.c0 -= *coeffs[i] * coord(base, i);
  }
  for (const SlotObservation& o : obs) {
    const vgpu::Dim3 t{o.tx, o.ty, o.tz};
    const vgpu::Dim3 b{o.bx, o.by, o.bz};
    if (out.eval(t, b) != o.value) {
      const std::int64_t c0 = out.c0;
      out = AffineForm{};
      out.c0 = c0;  // keep something printable; `affine` stays false
      return false;
    }
  }
  return true;
}

AccessPattern condense_slot(const RawSlot& slot, int phase, int slot_index,
                            bool shared, std::int64_t lanes_sampled) {
  AccessPattern p;
  p.phase = phase;
  p.slot = slot_index;
  p.shared = shared;
  p.store = slot.store;
  p.load = slot.load;
  p.bytes = slot.bytes;
  p.min_seen = slot.min_value;
  p.max_seen = slot.max_value;
  p.observations = slot.count;
  p.affine = fit_affine(slot.observations, p.form);
  p.participation = slot.count >= lanes_sampled ? Participation::kFull
                                                : Participation::kPartial;
  return p;
}

BranchPattern condense_branch(const RawBranch& b, int phase, int slot) {
  BranchPattern p;
  p.phase = phase;
  p.slot = slot;
  p.divergent_observed = b.divergent;
  p.taken = b.taken;
  p.observations = b.count;
  return p;
}

void copy_launch_shape(const RawKernelCapture& raw, KernelIR& ir) {
  ir.config = raw.config;
  ir.device = raw.device;
  ir.shared_words_written = raw.shared_words_written;
  ir.shared_words_read = raw.shared_words_read;
  ir.blocks_sampled = raw.blocks_sampled;
  ir.blocks_total = raw.blocks_total;
  ir.branch_tracking_forced = raw.branch_tracking_forced;
}

}  // namespace

KernelIR merge_captures(const RawKernelCapture& seed_a,
                        const RawKernelCapture& seed_b) {
  FDET_CHECK(seed_a.config.name == seed_b.config.name)
      << "capture merge: launch sequence mismatch (" << seed_a.config.name
      << " vs " << seed_b.config.name << ")";
  FDET_CHECK(seed_a.config.grid == seed_b.config.grid &&
             seed_a.config.block == seed_b.config.block)
      << "capture merge: geometry changed with data seed for "
      << seed_a.config.name << " — drivers must be geometry-deterministic";
  FDET_CHECK(seed_a.phases.size() == seed_b.phases.size())
      << "capture merge: phase count changed with data seed for "
      << seed_a.config.name;

  KernelIR ir;
  copy_launch_shape(seed_a, ir);
  ir.data_seeds = 2;
  // Dead-write inputs: a word counts as read/written if EITHER seed saw it.
  const auto merge_words = [](std::vector<bool>& into,
                              const std::vector<bool>& from) {
    if (from.size() > into.size()) into.resize(from.size(), false);
    for (std::size_t i = 0; i < from.size(); ++i) {
      if (from[i]) into[i] = true;
    }
  };
  merge_words(ir.shared_words_written, seed_b.shared_words_written);
  merge_words(ir.shared_words_read, seed_b.shared_words_read);

  const auto merge_slots = [](const std::vector<RawSlot>& a,
                              const std::vector<RawSlot>& b, int phase,
                              bool shared, std::int64_t lanes_sampled,
                              std::vector<AccessPattern>& out) {
    const std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
      // A slot present under only one seed is itself data-dependent: the
      // other seed's lanes issued fewer accesses.
      if (i >= a.size() || i >= b.size()) {
        const RawSlot& only = i < a.size() ? a[i] : b[i];
        AccessPattern p = condense_slot(only, phase, static_cast<int>(i),
                                        shared, lanes_sampled);
        p.data_dependent = true;
        p.affine = false;
        p.participation = Participation::kDataDependent;
        out.push_back(p);
        continue;
      }
      const RawSlot& sa = a[i];
      const RawSlot& sb = b[i];
      AccessPattern p =
          condense_slot(sa, phase, static_cast<int>(i), shared, lanes_sampled);
      p.store = sa.store || sb.store;
      p.load = sa.load || sb.load;
      p.bytes = std::max(sa.bytes, sb.bytes);
      p.min_seen = std::min(sa.min_value, sb.min_value);
      p.max_seen = std::max(sa.max_value, sb.max_value);
      if (sa.participant_fingerprint != sb.participant_fingerprint) {
        p.data_dependent = true;
        p.participation = Participation::kDataDependent;
        p.affine = false;
      } else if (sa.value_fingerprint != sb.value_fingerprint) {
        // Same lanes, different addresses: indirect addressing. Never
        // extrapolate an affine form fitted from one seed's data.
        p.data_dependent = true;
        p.affine = false;
      }
      out.push_back(p);
    }
  };

  for (std::size_t pi = 0; pi < seed_a.phases.size(); ++pi) {
    const RawPhase& pa = seed_a.phases[pi];
    const RawPhase& pb = seed_b.phases[pi];
    PhaseIR phase;
    phase.index = static_cast<int>(pi);
    merge_slots(pa.shared_slots, pb.shared_slots, phase.index, true,
                pa.lanes_sampled, phase.shared_slots);
    merge_slots(pa.global_slots, pb.global_slots, phase.index, false,
                pa.lanes_sampled, phase.global_slots);
    const std::size_t nb = std::max(pa.branches.size(), pb.branches.size());
    for (std::size_t i = 0; i < nb; ++i) {
      if (i >= pa.branches.size() || i >= pb.branches.size()) {
        const RawBranch& only =
            i < pa.branches.size() ? pa.branches[i] : pb.branches[i];
        BranchPattern p =
            condense_branch(only, phase.index, static_cast<int>(i));
        p.data_dependent = true;
        phase.branches.push_back(p);
        continue;
      }
      BranchPattern p =
          condense_branch(pa.branches[i], phase.index, static_cast<int>(i));
      p.divergent_observed =
          pa.branches[i].divergent || pb.branches[i].divergent;
      p.data_dependent = pa.branches[i].outcome_fingerprint !=
                             pb.branches[i].outcome_fingerprint ||
                         pa.branches[i].participant_fingerprint !=
                             pb.branches[i].participant_fingerprint;
      phase.branches.push_back(p);
    }
    ir.phases.push_back(std::move(phase));
  }
  return ir;
}

std::vector<KernelIR> capture_kernels(
    const std::function<void(std::uint64_t seed)>& driver, std::uint64_t seed_a,
    std::uint64_t seed_b, int* shadowed) {
  int shadow_count = 0;
  std::vector<RawKernelCapture> run_a, run_b;
  {
    CaptureScope scope;
    driver(seed_a);
    shadow_count += scope.shadowed_launches();
    run_a = scope.take_captures();
  }
  {
    CaptureScope scope;
    driver(seed_b);
    shadow_count += scope.shadowed_launches();
    run_b = scope.take_captures();
  }
  if (shadowed != nullptr) {
    *shadowed = shadow_count;
  }
  FDET_CHECK(run_a.size() == run_b.size())
      << "capture: driver launched " << run_a.size() << " kernels under seed "
      << seed_a << " but " << run_b.size() << " under seed " << seed_b;
  std::vector<KernelIR> out;
  out.reserve(run_a.size());
  for (std::size_t i = 0; i < run_a.size(); ++i) {
    out.push_back(merge_captures(run_a[i], run_b[i]));
  }
  return out;
}

}  // namespace fdet::analyze
