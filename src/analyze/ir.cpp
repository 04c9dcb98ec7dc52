#include "analyze/ir.h"

#include <sstream>

namespace fdet::analyze {

std::string AffineForm::to_string() const {
  std::ostringstream out;
  bool first = true;
  const auto term = [&out, &first](std::int64_t coeff, const char* name) {
    if (coeff == 0) return;
    if (!first) {
      out << (coeff > 0 ? " + " : " - ");
    } else if (coeff < 0) {
      out << "-";
    }
    const std::int64_t mag = coeff < 0 ? -coeff : coeff;
    if (mag != 1) out << mag << "*";
    out << name;
    first = false;
  };
  term(tx, "tid.x");
  term(ty, "tid.y");
  term(tz, "tid.z");
  term(bx, "bid.x");
  term(by, "bid.y");
  term(bz, "bid.z");
  if (c0 != 0 || first) {
    if (!first) {
      out << (c0 >= 0 ? " + " : " - ");
      out << (c0 < 0 ? -c0 : c0);
    } else {
      out << c0;
    }
  }
  return out.str();
}

}  // namespace fdet::analyze
