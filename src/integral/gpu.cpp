#include "integral/gpu.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/check.h"

namespace fdet::integral {
namespace {

constexpr int kTileDim = 32;   // strip height, tile width, lanes per warp
constexpr int kTileRows = 8;   // threads in y; each moves 4 tile rows
// +1 padding: word (r, i) of a tile sits in bank (r + i) mod 32, so both
// the row-per-lane scan and the row-per-warp moves are conflict-free.
constexpr int kTileStride = kTileDim + 1;
constexpr int kTileWords = kTileDim * kTileStride;
constexpr int kColThreads = 256;

/// Deterministic virtual address: the element's byte offset within its
/// image. Within one warp access slot all lanes touch the same array, so
/// offsets are sufficient for coalescing analysis — and, unlike host
/// pointers, they keep simulated timings identical across runs.
std::uint64_t addr_of(const img::ImageI32& image, int x, int y) {
  return (static_cast<std::uint64_t>(y) * static_cast<std::uint64_t>(image.width()) +
          static_cast<std::uint64_t>(x)) *
         sizeof(std::int32_t);
}

}  // namespace

vgpu::LaunchCost scan_rows_gpu(const vgpu::DeviceSpec& spec,
                               const img::ImageI32& input,
                               img::ImageI32& output) {
  const int w = input.width();
  const int h = input.height();
  FDET_CHECK(output.width() == w && output.height() == h)
      << "scan output must match input dimensions";
  const int tiles = (w + kTileDim - 1) / kTileDim;

  vgpu::KernelConfig config{
      .name = "scan_rows",
      .grid = {1, (h + kTileDim - 1) / kTileDim, 1},
      .block = {kTileDim, kTileRows, 1},
      .shared_bytes = static_cast<int>((2 * kTileWords + kTileDim) *
                                       sizeof(std::int32_t)),
      .regs_per_thread = 20,
  };

  // Shared layout (identical carve order in every phase): two tile
  // buffers — tile t lives in buffer t % 2 — then one running-sum carry
  // per strip row.
  const auto carve = [](vgpu::SharedMem& shared) {
    struct Views {
      std::span<std::int32_t> tiles[2];
      std::span<std::int32_t> carry;
    };
    return Views{{shared.array<std::int32_t>(kTileWords),
                  shared.array<std::int32_t>(kTileWords)},
                 shared.array<std::int32_t>(kTileDim)};
  };

  // Coalesced tile moves: thread (x, y) moves tile rows y, y+8, y+16 and
  // y+24, so the 32 lanes of a warp touch 32 consecutive words of one
  // image row per access slot.
  const auto load_tile = [&](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                             vgpu::SharedMem& shared,
                             std::span<std::int32_t> tile, int tile_index) {
    const int x = tile_index * kTileDim + t.thread.x;
    for (int row = t.thread.y; row < kTileDim; row += kTileRows) {
      const int y = t.block_id.y * kTileDim + row;
      ctx.alu(3);
      if (x < w && y < h) {
        auto& cell = tile[static_cast<std::size_t>(row * kTileStride + t.thread.x)];
        cell = input(x, y);
        ctx.global_load(addr_of(input, x, y), 4);
        ctx.shared_store_at(shared, cell);
      }
    }
  };
  const auto store_tile = [&](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                              vgpu::SharedMem& shared,
                              std::span<const std::int32_t> tile,
                              int tile_index) {
    const int x = tile_index * kTileDim + t.thread.x;
    for (int row = t.thread.y; row < kTileDim; row += kTileRows) {
      const int y = t.block_id.y * kTileDim + row;
      ctx.alu(3);
      if (x < w && y < h) {
        const auto& cell =
            tile[static_cast<std::size_t>(row * kTileStride + t.thread.x)];
        output(x, y) = cell;
        ctx.shared_load_at(shared, cell);
        ctx.global_store(addr_of(output, x, y), 4);
      }
    }
  };

  std::vector<vgpu::PhaseFn> phases;

  // Phase 0: stage tile 0 and zero the carries.
  phases.push_back([&](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                       vgpu::SharedMem& shared) {
    const auto views = carve(shared);
    load_tile(t, ctx, shared, views.tiles[0], 0);
    if (t.thread.y == 0) {
      auto& carry = views.carry[static_cast<std::size_t>(t.thread.x)];
      carry = 0;
      ctx.shared_store_at(shared, carry);
    }
  });

  for (int tile = 0; tile < tiles; ++tile) {
    // Scan phase: lane r of warp 0 scans row r of the tile serially,
    // starting from the row's carry, and leaves the new carry behind.
    const int cols = std::min(kTileDim, w - tile * kTileDim);
    phases.push_back([&, tile, cols](const vgpu::ThreadCoord& t,
                                     vgpu::LaneCtx& ctx,
                                     vgpu::SharedMem& shared) {
      const auto views = carve(shared);
      const int row = t.thread.x;
      if (t.thread.y != 0 || t.block_id.y * kTileDim + row >= h) {
        return;
      }
      auto& carry = views.carry[static_cast<std::size_t>(row)];
      std::int32_t acc = carry;
      ctx.shared_load_at(shared, carry);
      for (auto& cell : views.tiles[tile % 2].subspan(
               static_cast<std::size_t>(row * kTileStride),
               static_cast<std::size_t>(cols))) {
        acc += cell;
        ctx.shared_load_at(shared, cell);
        cell = acc;
        ctx.shared_store_at(shared, cell);
        ctx.alu(1);
      }
      carry = acc;
      ctx.shared_store_at(shared, carry);
    });

    // Move phase: store the scanned tile, then stage the next one into
    // the other buffer. Stores come first so that a lane past the right
    // edge only drops trailing accesses and the warp's slots stay
    // aligned (interleaving them would misalign slots into conflicts).
    phases.push_back([&, tile](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx,
                               vgpu::SharedMem& shared) {
      const auto views = carve(shared);
      store_tile(t, ctx, shared, views.tiles[tile % 2], tile);
      if (tile + 1 < tiles) {
        load_tile(t, ctx, shared, views.tiles[(tile + 1) % 2], tile + 1);
      }
    });
  }

  return execute_kernel(spec, config, std::span<const vgpu::PhaseFn>(phases));
}

vgpu::LaunchCost scan_cols_gpu(const vgpu::DeviceSpec& spec,
                               img::ImageI32& table) {
  const int w = table.width();
  const int h = table.height();

  vgpu::KernelConfig config{
      .name = "scan_cols",
      .grid = {(w + kColThreads - 1) / kColThreads, 1, 1},
      .block = {kColThreads, 1, 1},
      .shared_bytes = 0,
      .regs_per_thread = 16,
  };

  return execute_kernel(
      spec, config,
      [&](const vgpu::ThreadCoord& t, vgpu::LaneCtx& ctx, vgpu::SharedMem&) {
        const int x = t.block_id.x * kColThreads + t.thread.x;
        if (x >= w) {
          return;
        }
        std::int32_t acc = 0;
        for (int y = 0; y < h; ++y) {
          acc += table(x, y);
          ctx.global_load(addr_of(table, x, y), 4);
          table(x, y) = acc;
          ctx.global_store(addr_of(table, x, y), 4);
          ctx.alu(2);
        }
      });
}

GpuIntegralResult integral_gpu(const vgpu::DeviceSpec& spec,
                               const img::ImageU8& input) {
  check_integral_range(input);

  // On the real device the row pass reads the 8-bit luma plane directly;
  // the cast here only changes the host representation.
  const img::ImageI32 source = input.cast<std::int32_t>();

  GpuIntegralResult result;
  img::ImageI32 table(input.width(), input.height());
  result.launches.push_back(scan_rows_gpu(spec, source, table));
  result.launches.push_back(scan_cols_gpu(spec, table));
  result.integral = IntegralImage(std::move(table));
  return result;
}

}  // namespace fdet::integral
