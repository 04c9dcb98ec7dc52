// SMP scaling model for the training-time study (paper Fig. 8).
//
// The OpenMP trainer runs for real on the 4-core reproduction host
// (~4.2x at 4 threads on a 2000-face iteration), but it cannot reach the
// paper's 8-thread platforms, so Fig. 8's *numbers* still come from this
// calibrated model until a measured paper-scale sweep replaces them:
// Amdahl's law with a memory-bandwidth ceiling on the parallel section —
// the regression/ranking serial fraction plus the bandwidth-bound feature
// sweep reproduce the paper's ~3.5x saturation at 8 threads on both
// platforms and the ~2x single-thread advantage of the newer core.
#pragma once

#include <string>

namespace fdet::train {

struct SmpPlatform {
  std::string name;
  int physical_cores = 4;
  int smt_ways = 1;            ///< hardware threads per core
  double smt_yield = 0.25;     ///< extra throughput of the 2nd SMT thread
  double single_thread_seconds = 100.0;  ///< one boosting iteration, 1 thread
  double serial_fraction = 0.10;         ///< ranking/regression bookkeeping
  double bandwidth_speedup_cap = 4.85;   ///< parallel-section ceiling

  /// Modeled seconds for one boosting iteration at `threads` threads.
  double iteration_seconds(int threads) const;

  /// iteration_seconds(1) / iteration_seconds(threads).
  double speedup(int threads) const;
};

/// Paper Fig. 8 platforms: the dual Intel Xeon E5472 workstation and the
/// Intel Core i7-2600K, calibrated so 8 threads yield ~3.5x on both and
/// the i7 runs ~2x faster single-threaded.
SmpPlatform dual_xeon_e5472();
SmpPlatform core_i7_2600k();

}  // namespace fdet::train
