#include "img/io.h"

#include <fstream>

#include "core/check.h"

namespace fdet::img {

void write_ppm(const std::string& path, const ImageU8& r, const ImageU8& g,
               const ImageU8& b) {
  FDET_CHECK(r.width() == g.width() && g.width() == b.width() &&
             r.height() == g.height() && g.height() == b.height())
      << "mismatched plane sizes";
  std::ofstream out(path, std::ios::binary);
  FDET_CHECK(out.good()) << "cannot open " << path;
  out << "P6\n" << r.width() << " " << r.height() << "\n255\n";
  for (int y = 0; y < r.height(); ++y) {
    for (int x = 0; x < r.width(); ++x) {
      const char rgb[3] = {static_cast<char>(r(x, y)),
                           static_cast<char>(g(x, y)),
                           static_cast<char>(b(x, y))};
      out.write(rgb, 3);
    }
  }
  FDET_CHECK(out.good()) << "write failed for " << path;
}

}  // namespace fdet::img
