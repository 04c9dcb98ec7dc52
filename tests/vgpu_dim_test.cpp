#include <gtest/gtest.h>

#include "vgpu/dim.h"

namespace fdet::vgpu {
namespace {

TEST(Dim3, CountMultipliesComponents) {
  EXPECT_EQ((Dim3{4, 3, 2}).count(), 24);
  EXPECT_EQ((Dim3{}).count(), 1);
  EXPECT_EQ((Dim3{1024, 1, 1}).count(), 1024);
}

TEST(ThreadCoord, FlatThreadIsXFastest) {
  ThreadCoord t;
  t.block = {8, 4, 2};
  t.thread = {3, 2, 1};
  // x + bx*(y + by*z) = 3 + 8*(2 + 4*1) = 51.
  EXPECT_EQ(t.flat_thread(), 51);
  t.thread = {0, 0, 0};
  EXPECT_EQ(t.flat_thread(), 0);
  t.thread = {7, 3, 1};
  EXPECT_EQ(t.flat_thread(), 8 * 4 * 2 - 1);
}

TEST(ThreadCoord, FlatBlockIsXFastest) {
  ThreadCoord t;
  t.grid = {5, 4, 3};
  t.block_id = {2, 3, 1};
  EXPECT_EQ(t.flat_block(), 2 + 5 * (3 + 4 * 1));
}

}  // namespace
}  // namespace fdet::vgpu
