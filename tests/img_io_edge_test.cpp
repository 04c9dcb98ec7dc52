// I/O and conversion edge cases.
#include <gtest/gtest.h>

#include <filesystem>

#include "img/io.h"
#include "img/nv12.h"

namespace fdet::img {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(IoEdge, WriteRejectsMismatchedPpmPlanes) {
  ImageU8 a(4, 4);
  ImageU8 b(5, 4);
  EXPECT_THROW(write_ppm(temp_path("fdet_mismatch.ppm"), a, a, b),
               core::CheckError);
}

TEST(Nv12Edge, ColoredChromaShiftsRgbChannels) {
  Nv12Frame frame(4, 4);
  frame.luma().fill(128);
  // Strong Cr (red difference) on every chroma sample.
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 4; x += 2) {
      frame.chroma()(x, y) = 128;      // Cb neutral
      frame.chroma()(x + 1, y) = 255;  // Cr max
    }
  }
  ImageU8 r;
  ImageU8 g;
  ImageU8 b;
  frame.to_rgb(r, g, b);
  EXPECT_GT(static_cast<int>(r(0, 0)), static_cast<int>(b(0, 0)) + 50);
  EXPECT_GT(static_cast<int>(r(0, 0)), static_cast<int>(g(0, 0)) + 50);
}

TEST(ImageEdge, EqualityComparesPixelsAndShape) {
  ImageU8 a(3, 2);
  ImageU8 b(3, 2);
  EXPECT_EQ(a, b);
  b(1, 1) = 9;
  EXPECT_NE(a, b);
  ImageU8 c(2, 3);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace fdet::img
