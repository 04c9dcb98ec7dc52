#include "vgpu/shared_mem.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace fdet::vgpu {
namespace {

TEST(SharedLayout, MixedTypeArraysInsertAlignmentPadding) {
  SharedLayout layout;
  const auto bytes = layout.add<std::uint8_t>(3);    // [0, 3)
  const auto doubles = layout.add<double>(2);        // pads 3 -> 8, [8, 24)
  const auto halves = layout.add<std::uint16_t>(1);  // 2-aligned, [24, 26)

  EXPECT_EQ(bytes.offset, 0u);
  EXPECT_EQ(doubles.offset, 8u);
  EXPECT_EQ(halves.offset, 24u);
  EXPECT_EQ(layout.bytes(), 26u);
  ASSERT_EQ(layout.arrays().size(), 3u);
  EXPECT_EQ(layout.arrays()[1].offset, 8u);
  EXPECT_EQ(layout.arrays()[1].bytes, 16u);

  SharedMem shared;
  shared.reset(layout.bytes());
  const auto d = shared[doubles];
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % alignof(double), 0u);
  // offset_of addresses individual elements, the unit the checker's
  // shared_load_at/shared_store_at helpers record.
  EXPECT_EQ(shared.offset_of(&d[0]), 8u);
  EXPECT_EQ(shared.offset_of(&d[1]), 16u);
  EXPECT_EQ(shared.offset_of(&shared[halves][0]), 24u);
}

TEST(SharedLayout, PaddingCountsTowardTheFootprint) {
  SharedLayout layout;
  layout.add<std::uint8_t>(1);
  // 16 bytes would fit from offset 1, but 4-alignment starts them at 4.
  const auto ints = layout.add<std::int32_t>(4);
  EXPECT_EQ(ints.offset, 4u);
  EXPECT_EQ(layout.bytes(), 20u);
  EXPECT_EQ(SharedLayout{}.bytes(), 0u);
}

TEST(SharedMem, AHandleResolvesToTheSameStorageEveryTime) {
  SharedLayout layout;
  const auto tile = layout.add<std::int32_t>(4);
  SharedMem shared;
  shared.reset(layout.bytes());
  shared[tile][2] = 77;
  EXPECT_EQ(shared[tile].data(), shared[tile].data());
  EXPECT_EQ(shared[tile][2], 77);  // block-lifetime storage
}

TEST(SharedMem, ResetZeroesAndResizes) {
  SharedLayout layout;
  const auto word = layout.add<std::int64_t>(1);
  SharedMem shared;
  shared.reset(8);
  shared[word][0] = -1;
  shared.reset(8);
  EXPECT_EQ(shared[word][0], 0);
  shared.reset(128);
  EXPECT_EQ(shared.capacity(), 128u);
}

}  // namespace
}  // namespace fdet::vgpu
