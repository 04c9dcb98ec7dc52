// Statistical baseline comparison: direction inference, noise bands
// (3×MAD vs float-printing dust), all five verdicts, exact series failing
// on drift either way, and the verdict lines `fdet_report diff` prints.
#include "obs/compare.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fdet::obs {
namespace {

MetricSeries series(std::string name, std::vector<double> samples,
                    Labels labels = {}, std::string kind = "gauge") {
  MetricSeries s;
  s.name = std::move(name);
  s.kind = std::move(kind);
  s.labels = std::move(labels);
  s.samples = std::move(samples);
  s.median = median_of(s.samples);
  s.mad = mad_of(s.samples, s.median);
  return s;
}

RunRecord record(std::vector<MetricSeries> metrics) {
  RunRecord r;
  r.artifact = "test";
  r.repeats = static_cast<int>(metrics.empty() ? 1 : metrics[0].samples.size());
  r.metrics = std::move(metrics);
  return r;
}

const MetricVerdict& verdict_for(const CompareReport& report,
                                 const std::string& name) {
  for (const MetricVerdict& v : report.verdicts) {
    if (v.name == name) {
      return v;
    }
  }
  ADD_FAILURE() << "no verdict for " << name;
  static MetricVerdict none;
  return none;
}

TEST(MetricDirection, InferredFromNameConventions) {
  EXPECT_EQ(metric_direction("vgpu.makespan_ms"), Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("detect.frame_latency_ms.sum"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("vgpu.kernel_duration_ms.sum"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("bench.deadline_violations"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("train.measured_iteration_s"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("vgpu.branch_efficiency"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("vgpu.sm_utilization"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("vgpu.dram_read_gbps"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("bench.concurrent_speedup"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("eval.tpr_at_0fp"), Direction::kHigherIsBetter);
  EXPECT_EQ(metric_direction("detect.frames"), Direction::kExact);
  EXPECT_EQ(metric_direction("vgpu.blocks"), Direction::kExact);

  // Profile-record projections (obs/profile.h): cycle totals, conflict
  // and transaction counts gate downward; achieved occupancy upward.
  EXPECT_EQ(metric_direction("profile.total_cycles"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("profile.kernel.bank_conflicts"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("profile.kernel.global_transactions"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(metric_direction("profile.kernel.achieved_occupancy"),
            Direction::kHigherIsBetter);
  // Contains both "occupancy" and "cycles": the lower-is-better cycle
  // rule must win or occupancy regressions would read as improvements.
  EXPECT_EQ(metric_direction("profile.kernel.occupancy_limited_cycles"),
            Direction::kLowerIsBetter);
}

TEST(CompareRuns, TwentyPercentMakespanShiftRegresses) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", {4.0, 4.01, 3.99},
                     {{"mode", "concurrent"}})});
  const RunRecord current =
      record({series("vgpu.makespan_ms", {4.8, 4.81, 4.79},
                     {{"mode", "concurrent"}})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressed, 1);
  const MetricVerdict& v = verdict_for(report, "vgpu.makespan_ms");
  EXPECT_EQ(v.verdict, Verdict::kRegressed);
  EXPECT_NEAR(v.relative_change, 0.2, 1e-9);
}

TEST(CompareRuns, IdenticalRecordsAreAllUnchanged) {
  const RunRecord baseline = record(
      {series("vgpu.makespan_ms", {4.0, 4.0, 4.0}),
       series("vgpu.branch_efficiency", {0.98, 0.98, 0.98}),
       series("detect.frames", {36, 36, 36}, {}, "counter")});
  const CompareReport report = compare_runs(baseline, baseline);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.unchanged, 3);
  EXPECT_EQ(report.regressed + report.missing + report.improved + report.added,
            0);
}

TEST(CompareRuns, ExactSeriesFailOnOnePercentDriftEitherWay) {
  // Samples that agree on both sides (every modeled-clock series) get the
  // dust band alone: a 1% drift regresses upward and, downward, reads
  // "improved" yet still fails the gate — the record must be re-pinned.
  const RunRecord baseline = record({series("vgpu.makespan_ms", {4.0, 4.0})});
  const CompareReport up =
      compare_runs(baseline, record({series("vgpu.makespan_ms", {4.04})}));
  EXPECT_EQ(up.regressed, 1);
  EXPECT_FALSE(up.ok());

  const CompareReport down =
      compare_runs(baseline, record({series("vgpu.makespan_ms", {3.96})}));
  const MetricVerdict& v = verdict_for(down, "vgpu.makespan_ms");
  EXPECT_EQ(v.verdict, Verdict::kImproved);
  EXPECT_TRUE(v.exact);
  EXPECT_EQ(down.drifted, 1);
  EXPECT_FALSE(down.ok());
  EXPECT_TRUE(v.fails());
  EXPECT_NE(describe(v).find("re-pin"), std::string::npos);
}

TEST(CompareRuns, FloatPrintingDustIsUnchanged) {
  const RunRecord baseline = record({series("vgpu.makespan_ms", {4.0})});
  const RunRecord current =
      record({series("vgpu.makespan_ms", {4.0 * (1.0 + 1e-12)})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.unchanged, 1);
  EXPECT_TRUE(report.ok());
}

TEST(CompareRuns, MadNoiseBandAbsorbsHostJitter) {
  // Noisy series: MAD 0.5, so the 3*MAD band (1.5) tolerates a 25% shift.
  const RunRecord baseline =
      record({series("train.measured_iteration_s", {4.0, 3.5, 4.5})});
  const RunRecord current =
      record({series("train.measured_iteration_s", {5.0, 4.5, 5.5})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.unchanged, 1);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(verdict_for(report, "train.measured_iteration_s").exact);
}

TEST(CompareRuns, DirectionDecidesImprovedVsRegressed) {
  // Noisy series (MAD 0.1 and 0.01), so an improvement beyond the band
  // passes the gate.
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", {4.0, 3.9, 4.1}),
              series("vgpu.branch_efficiency", {0.80, 0.79, 0.81})});
  const RunRecord faster =
      record({series("vgpu.makespan_ms", {3.0, 2.9, 3.1}),
              series("vgpu.branch_efficiency", {0.99, 0.98, 1.0})});
  const CompareReport report = compare_runs(baseline, faster);
  EXPECT_EQ(report.improved, 2);
  EXPECT_EQ(report.drifted, 0);
  EXPECT_TRUE(report.ok());

  // The same shifts in the other direction both regress.
  const CompareReport reverse = compare_runs(faster, baseline);
  EXPECT_EQ(reverse.regressed, 2);
}

TEST(CompareRuns, ExactMetricsRegressOnAnyDrift) {
  const RunRecord baseline =
      record({series("detect.frames", {36}, {}, "counter")});
  const RunRecord current =
      record({series("detect.frames", {48}, {}, "counter")});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.regressed, 1);
  EXPECT_EQ(verdict_for(report, "detect.frames").direction, Direction::kExact);
}

TEST(CompareRuns, MissingAndNewSeries) {
  const RunRecord baseline = record({series("vgpu.makespan_ms", {4.0}),
                                     series("vgpu.blocks", {100})});
  const RunRecord current = record({series("vgpu.makespan_ms", {4.0}),
                                    series("vgpu.sm_busy_s", {0.5})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.added, 1);
  EXPECT_FALSE(report.ok());  // a vanished metric fails the gate
  EXPECT_EQ(verdict_for(report, "vgpu.blocks").verdict, Verdict::kMissing);
  EXPECT_EQ(verdict_for(report, "vgpu.sm_busy_s").verdict, Verdict::kNew);
}

TEST(CompareRuns, LabelsArePartOfSeriesIdentity) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", {4.0}, {{"mode", "serial"}})});
  const RunRecord current =
      record({series("vgpu.makespan_ms", {4.0}, {{"mode", "concurrent"}})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.added, 1);
}

TEST(CompareRuns, NoSeriesIsSkippedByName) {
  // Host-clock series are kept out of the records, not ignored by name:
  // one that appears is gated like any other.
  const RunRecord baseline = record({series("bench.wall_seconds", {1.0})});
  const RunRecord current = record({series("bench.wall_seconds", {55.0})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.regressed, 1);
  EXPECT_FALSE(report.ok());
}

TEST(CompareRuns, NonFiniteMediansAreHandledDeterministically) {
  const auto nan_series = [](std::string name) {
    MetricSeries s;
    s.name = std::move(name);
    s.kind = "gauge";
    s.samples = {std::nan("")};
    s.median = std::nan("");
    s.mad = std::nan("");
    return s;
  };
  const RunRecord both_nan = record({nan_series("ratio")});
  EXPECT_EQ(compare_runs(both_nan, both_nan).unchanged, 1);

  const RunRecord finite = record({series("ratio", {0.5})});
  EXPECT_EQ(compare_runs(both_nan, finite).regressed, 1);
  EXPECT_EQ(compare_runs(finite, both_nan).regressed, 1);
}

TEST(Describe, NamesRegressedMetricSortedFirst) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", {4.0}, {{"mode", "concurrent"}}),
              series("vgpu.sm_utilization", {0.9})});
  const RunRecord current =
      record({series("vgpu.makespan_ms", {4.8}, {{"mode", "concurrent"}}),
              series("vgpu.sm_utilization", {0.9})});
  const CompareReport report = compare_runs(baseline, current);

  // Regressions sort to the top regardless of name order.
  ASSERT_EQ(report.verdicts.size(), 2u);
  EXPECT_EQ(report.verdicts.front().verdict, Verdict::kRegressed);
  const std::string line = describe(report.verdicts.front());
  EXPECT_EQ(line.rfind("regressed", 0), 0u);
  EXPECT_NE(line.find("vgpu.makespan_ms{mode=concurrent}"), std::string::npos);
  EXPECT_NE(line.find("+20.000%"), std::string::npos);
  // A regression is not a drift to re-pin.
  EXPECT_EQ(line.find("re-pin"), std::string::npos);
}

}  // namespace
}  // namespace fdet::obs
