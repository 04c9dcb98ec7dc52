// gate_perturb — writes a copy of a run record with one series scaled,
// so a ctest target can prove that the gate reading the record fails
// (exit 2) on a small drift:
//
//   gate_perturb <in.json> <out.json> <series> <factor>
//
// <series> is the identity the gate prints (obs::series_identity),
// `name` or `name{key=value,...}`; that one series' value is scaled.
// Any record works: bench records (BENCH_*.json), kernel
// profiles (PROFILE_*.json) and the fleet record. Exits 1 when nothing
// matched, so a renamed series cannot turn the gate test vacuous.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/runrecord.h"

int main(int argc, char** argv) {
  using namespace fdet;
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: gate_perturb <in.json> <out.json> <series> "
                 "<factor>\n");
    return 1;
  }
  const std::string in = argv[1];
  const std::string out = argv[2];
  const std::string series = argv[3];
  const double factor = std::strtod(argv[4], nullptr);

  int matched = 0;
  obs::RunRecord record = obs::RunRecord::load_file(in);
  for (obs::MetricSeries& metric : record.metrics) {
    if (obs::series_identity(metric.name, metric.labels) == series) {
      metric.value *= factor;
      ++matched;
    }
  }
  record.write_file(out);
  if (matched == 0) {
    std::fprintf(stderr, "gate_perturb: no series '%s' in %s\n",
                 series.c_str(), in.c_str());
    return 1;
  }
  std::printf("gate_perturb: scaled %d series '%s' by %g -> %s\n", matched,
              series.c_str(), factor, out.c_str());
  return 0;
}
