// Baseline comparison: the float-dust band as the only tolerance, all
// four verdicts, drift failing the gate in either direction, the merge
// walk over two sorted records, and the verdict lines `fdet_report diff`
// prints.
#include "obs/compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace fdet::obs {
namespace {

MetricSeries series(std::string name, double value, Labels labels = {},
                    std::string kind = "gauge") {
  return {std::move(name), std::move(kind), std::move(labels), value};
}

RunRecord record(std::vector<MetricSeries> metrics) {
  RunRecord r;
  r.artifact = "test";
  r.metrics = std::move(metrics);
  std::sort(r.metrics.begin(), r.metrics.end(), series_less);
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

TEST(CompareRuns, TwentyPercentMakespanShiftDrifts) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", 4.0, {{"mode", "concurrent"}})});
  const RunRecord current =
      record({series("vgpu.makespan_ms", 4.8, {{"mode", "concurrent"}})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.drifted, 1);
  const MetricVerdict& v = verdict_for(report, "vgpu.makespan_ms");
  EXPECT_EQ(v.verdict, Verdict::kDrifted);
  EXPECT_TRUE(v.fails());
  EXPECT_NEAR(v.relative_change, 0.2, 1e-9);
}

TEST(CompareRuns, IdenticalRecordsAreAllUnchanged) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", 4.0),
              series("vgpu.branch_efficiency", 0.98),
              series("detect.frames", 36, {}, "counter")});
  const CompareReport report = compare_runs(baseline, baseline);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.unchanged, 3);
  EXPECT_EQ(report.drifted + report.missing + report.added, 0);
}

TEST(CompareRuns, OnePercentDriftFailsEitherWay) {
  // No series has a preferred direction: a lower makespan and a higher
  // efficiency fail exactly like their opposites, and the committed
  // record must be re-pinned.
  const RunRecord baseline = record({series("vgpu.makespan_ms", 4.0),
                                     series("vgpu.branch_efficiency", 0.8)});
  for (const double factor : {1.01, 0.99}) {
    const CompareReport report = compare_runs(
        baseline, record({series("vgpu.makespan_ms", 4.0 * factor),
                          series("vgpu.branch_efficiency", 0.8 * factor)}));
    EXPECT_EQ(report.drifted, 2) << "factor " << factor;
    EXPECT_FALSE(report.ok()) << "factor " << factor;
    EXPECT_EQ(verdict_for(report, "vgpu.makespan_ms").verdict,
              Verdict::kDrifted);
    EXPECT_EQ(verdict_for(report, "vgpu.branch_efficiency").verdict,
              Verdict::kDrifted);
  }
}

TEST(CompareRuns, FloatPrintingDustIsUnchanged) {
  const RunRecord baseline = record({series("vgpu.makespan_ms", 4.0)});
  const RunRecord current =
      record({series("vgpu.makespan_ms", 4.0 * (1.0 + 1e-12))});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.unchanged, 1);
  EXPECT_TRUE(report.ok());
}

TEST(CompareRuns, CountersDriftLikeGauges) {
  const RunRecord baseline =
      record({series("detect.frames", 36, {}, "counter")});
  const RunRecord current =
      record({series("detect.frames", 48, {}, "counter")});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.drifted, 1);
  EXPECT_FALSE(report.ok());
}

TEST(CompareRuns, MissingAndNewSeries) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", 4.0), series("vgpu.blocks", 100)});
  const RunRecord current = record(
      {series("vgpu.makespan_ms", 4.0), series("vgpu.sm_busy_s", 0.5)});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.added, 1);
  EXPECT_FALSE(report.ok());  // a vanished metric fails the gate
  EXPECT_EQ(verdict_for(report, "vgpu.blocks").verdict, Verdict::kMissing);
  EXPECT_EQ(verdict_for(report, "vgpu.sm_busy_s").verdict, Verdict::kNew);
}

TEST(CompareRuns, MergeWalkPairsInterleavedIdentities) {
  // Baseline a c e, current b c d: one walk must pair c and classify the
  // rest, including the tails past the other record's last series.
  const RunRecord baseline =
      record({series("a", 1), series("c", 3), series("e", 5)});
  const RunRecord current =
      record({series("b", 2), series("c", 3), series("d", 4)});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.unchanged, 1);
  EXPECT_EQ(report.missing, 2);
  EXPECT_EQ(report.added, 2);
  EXPECT_EQ(verdict_for(report, "a").verdict, Verdict::kMissing);
  EXPECT_EQ(verdict_for(report, "b").verdict, Verdict::kNew);
  EXPECT_EQ(verdict_for(report, "c").verdict, Verdict::kUnchanged);
  EXPECT_EQ(verdict_for(report, "d").verdict, Verdict::kNew);
  EXPECT_EQ(verdict_for(report, "e").verdict, Verdict::kMissing);
  EXPECT_EQ(compare_runs(RunRecord{}, current).added, 3);
  EXPECT_EQ(compare_runs(baseline, RunRecord{}).missing, 3);
}

TEST(CompareRuns, LabelsArePartOfSeriesIdentity) {
  const RunRecord baseline =
      record({series("vgpu.makespan_ms", 4.0, {{"mode", "serial"}})});
  const RunRecord current =
      record({series("vgpu.makespan_ms", 4.0, {{"mode", "concurrent"}})});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.added, 1);
}

TEST(CompareRuns, NoSeriesIsSkippedByName) {
  // Host-clock series are kept out of the records, not ignored by name:
  // one that appears is gated like any other.
  const RunRecord baseline = record({series("bench.wall_seconds", 1.0)});
  const RunRecord current = record({series("bench.wall_seconds", 55.0)});
  const CompareReport report = compare_runs(baseline, current);
  EXPECT_EQ(report.drifted, 1);
  EXPECT_FALSE(report.ok());
}

TEST(CompareRuns, NonFiniteValuesAreHandledDeterministically) {
  const RunRecord both_nan = record({series("ratio", std::nan(""))});
  EXPECT_EQ(compare_runs(both_nan, both_nan).unchanged, 1);

  const RunRecord finite = record({series("ratio", 0.5)});
  EXPECT_EQ(compare_runs(both_nan, finite).drifted, 1);
  EXPECT_EQ(compare_runs(finite, both_nan).drifted, 1);
}

TEST(Describe, NamesDriftedMetricSortedFirst) {
  const RunRecord baseline =
      record({series("detect.frames", 36, {}, "counter"),
              series("vgpu.makespan_ms", 4.0, {{"mode", "concurrent"}})});
  const RunRecord current =
      record({series("detect.frames", 36, {}, "counter"),
              series("vgpu.makespan_ms", 4.8, {{"mode", "concurrent"}})});
  const CompareReport report = compare_runs(baseline, current);

  // The drifted series sorts to the top although its name sorts last.
  ASSERT_EQ(report.verdicts.size(), 2u);
  EXPECT_EQ(report.verdicts.front().verdict, Verdict::kDrifted);
  const std::string line = describe(report.verdicts.front());
  EXPECT_EQ(line.rfind("drifted", 0), 0u);
  EXPECT_NE(line.find("vgpu.makespan_ms{mode=concurrent}"), std::string::npos);
  EXPECT_NE(line.find("4 -> 4.8"), std::string::npos);
  EXPECT_NE(line.find("+20.000%"), std::string::npos);
}

}  // namespace
}  // namespace fdet::obs
