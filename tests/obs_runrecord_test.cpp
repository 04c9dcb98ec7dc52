// Run-record store: one value per series from a registry snapshot
// (histogram flattening included), the (name, labels) order find()
// searches and the loader enforces, JSON round-trip, the validating
// deserializer, and writes that never tear the previous file.
#include "obs/runrecord.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/check.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace fdet::obs {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A v2 record text with the given `metrics` array body.
std::string record_text(const std::string& metrics) {
  return "{\"schema_version\":2,\"artifact\":\"x\",\"variant\":\"default\","
         "\"labels\":{},\"metrics\":[" + metrics + "]}";
}

TEST(RunRecordBuild, CollectsOneValuePerSeries) {
  Registry registry;
  registry.gauge("vgpu.makespan_ms", {{"mode", "concurrent"}}).set(4.1);
  registry.gauge("vgpu.makespan_ms", {{"mode", "serial"}}).set(8.2);
  registry.counter("detect.frames").add(36.0);

  const RunRecord record =
      build_run_record("fig5", "default", {{"host", "test"}}, registry);
  EXPECT_EQ(record.schema_version, kRunRecordSchemaVersion);
  EXPECT_EQ(record.artifact, "fig5");
  ASSERT_EQ(record.metrics.size(), 3u);

  const MetricSeries* makespan =
      record.find("vgpu.makespan_ms", {{"mode", "concurrent"}});
  ASSERT_NE(makespan, nullptr);
  EXPECT_EQ(makespan->kind, "gauge");
  EXPECT_DOUBLE_EQ(makespan->value, 4.1);
  EXPECT_DOUBLE_EQ(record.find("vgpu.makespan_ms", {{"mode", "serial"}})->value,
                   8.2);

  const MetricSeries* frames = record.find("detect.frames", {});
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->kind, "counter");
  EXPECT_DOUBLE_EQ(frames->value, 36.0);
}

TEST(RunRecordBuild, HistogramsFlattenIntoSumAndCountSeries) {
  Registry registry;
  registry.histogram("detect.frame_latency_ms", {1.0, 10.0}).observe(3.0);
  registry.histogram("detect.frame_latency_ms", {1.0, 10.0}).observe(5.0, 2.0);

  const RunRecord record = build_run_record("fig5", "default", {}, registry);
  const MetricSeries* sum = record.find("detect.frame_latency_ms.sum", {});
  const MetricSeries* count = record.find("detect.frame_latency_ms.count", {});
  ASSERT_NE(sum, nullptr);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(sum->kind, "histogram_sum");
  EXPECT_EQ(count->kind, "histogram_count");
  EXPECT_DOUBLE_EQ(sum->value, 13.0);
  EXPECT_DOUBLE_EQ(count->value, 3.0);
  // `.count` sorts before `.sum`: the record is in series_less order.
  EXPECT_LT(count, sum);
  // No raw histogram series leaks through under the original name.
  EXPECT_EQ(record.find("detect.frame_latency_ms", {}), nullptr);
}

TEST(RunRecordFind, BinarySearchFindsEveryIdentityAndNothingElse) {
  // Seven names "a".."g", each under several label values.
  const auto name_of = [](int i) {
    return std::string(1, static_cast<char>('a' + i % 7));
  };
  Registry registry;
  for (int i = 0; i < 50; ++i) {
    registry.gauge(name_of(i), {{"k", std::to_string(i)}}).set(i);
  }
  const RunRecord record = build_run_record("x", "default", {}, registry);
  ASSERT_EQ(record.metrics.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const MetricSeries* series =
        record.find(name_of(i), {{"k", std::to_string(i)}});
    ASSERT_NE(series, nullptr) << i;
    EXPECT_DOUBLE_EQ(series->value, i);
  }
  EXPECT_EQ(record.find("a", {{"k", "1"}}), nullptr);
  EXPECT_EQ(record.find("a", {}), nullptr);
  EXPECT_EQ(record.find("0", {}), nullptr);
  EXPECT_EQ(record.find("z", {}), nullptr);
}

TEST(RunRecordJson, DumpParsesBackIdentically) {
  Registry registry;
  registry.gauge("vgpu.makespan_ms", {{"mode", "serial"}}).set(8.625);
  const RunRecord record =
      build_run_record("fig6", "ours", {{"commit", "abc"}}, registry);

  const RunRecord reparsed = RunRecord::parse(record.dump());
  EXPECT_EQ(reparsed.schema_version, kRunRecordSchemaVersion);
  EXPECT_EQ(reparsed.artifact, "fig6");
  EXPECT_EQ(reparsed.variant, "ours");
  EXPECT_EQ(format_labels(reparsed.labels), "commit=abc");
  ASSERT_EQ(reparsed.metrics.size(), 1u);
  const MetricSeries& series = reparsed.metrics[0];
  EXPECT_EQ(series.name, "vgpu.makespan_ms");
  EXPECT_EQ(format_labels(series.labels), "mode=serial");
  EXPECT_DOUBLE_EQ(series.value, 8.625);
  EXPECT_EQ(reparsed.dump(), record.dump());
}

TEST(RunRecordJson, FileRoundTripThroughWriteAndLoad) {
  Registry registry;
  registry.counter("vgpu.kernel_launches").add(18.0);
  const RunRecord record = build_run_record("fig6", "default", {}, registry);

  const std::string path = testing::TempDir() + "fdet_runrecord_test.json";
  record.write_file(path);
  const RunRecord loaded = RunRecord::load_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.metrics[0].value, 18.0);
}

TEST(RunRecordJson, RejectsWrongSchemaVersionAndMalformedRecords) {
  Registry registry;
  registry.gauge("g").set(1.0);
  RunRecord record = build_run_record("x", "default", {}, registry);
  record.schema_version = kRunRecordSchemaVersion + 1;
  EXPECT_THROW(RunRecord::parse(record.dump()), core::CheckError);

  // Structurally valid JSON that is not a run record.
  EXPECT_THROW(RunRecord::parse("{\"metrics\":[]}"), core::CheckError);
  EXPECT_THROW(
      RunRecord::parse("{\"schema_version\":2,\"artifact\":\"\",\"variant\":"
                       "\"d\",\"labels\":{},\"metrics\":[]}"),
      core::CheckError);
  // A series without its value.
  EXPECT_THROW(RunRecord::parse(record_text(
                   "{\"name\":\"g\",\"kind\":\"gauge\",\"labels\":{}}")),
               core::CheckError);
}

TEST(RunRecordJson, VersionOneRecordIsRejectedNamingBothVersions) {
  // The repeat-sample layout this build no longer reads.
  const std::string v1 =
      "{\"schema_version\":1,\"artifact\":\"fig5\",\"variant\":\"default\","
      "\"repeats\":3,\"labels\":{},\"metrics\":[{\"name\":\"g\",\"kind\":"
      "\"gauge\",\"labels\":{},\"samples\":[4,4,4],\"median\":4,\"mad\":0}]}";
  try {
    RunRecord::parse(v1);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("schema_version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("reads version 2"), std::string::npos) << what;
  }
}

TEST(RunRecordJson, RejectsSeriesOutOfOrderOrRepeated) {
  const std::string a = "{\"name\":\"a\",\"kind\":\"gauge\",\"labels\":{},"
                        "\"value\":1}";
  const std::string a_labeled =
      "{\"name\":\"a\",\"kind\":\"gauge\",\"labels\":{\"k\":\"v\"},"
      "\"value\":1}";
  const std::string b = "{\"name\":\"b\",\"kind\":\"gauge\",\"labels\":{},"
                        "\"value\":2}";
  EXPECT_EQ(RunRecord::parse(record_text(a + "," + a_labeled + "," + b))
                .metrics.size(),
            3u);

  const auto rejection = [](const std::string& text) {
    try {
      RunRecord::parse(text);
    } catch (const core::CheckError& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  // Before the check, a repeated identity loaded and only its first copy
  // was ever gated.
  EXPECT_NE(rejection(record_text(a + "," + b + "," + b)).find(
                "'b' appears twice"),
            std::string::npos);
  EXPECT_NE(rejection(record_text(b + "," + a)).find(
                "'a' is out of (name, labels) order"),
            std::string::npos);
  EXPECT_NE(rejection(record_text(a_labeled + "," + a)).find(
                "out of (name, labels) order"),
            std::string::npos);
}

TEST(RunRecordJson, LoadFileDiagnosticsNameThePath) {
  // Missing file: the path must appear in the error.
  const std::string missing = testing::TempDir() + "fdet_no_such_record.json";
  try {
    RunRecord::load_file(missing);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find(missing), std::string::npos);
  }

  // Corrupt file (truncated JSON): ditto — a bare parse error without the
  // file name would leave the operator guessing which baseline was bad.
  const std::string corrupt = testing::TempDir() + "fdet_corrupt_record.json";
  {
    std::ofstream out(corrupt);
    out << "{\"schema_version\":2,\"artifact\":\"fig5\",\"metri";
  }
  try {
    RunRecord::load_file(corrupt);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find(corrupt), std::string::npos);
  }

  // Well-formed JSON that is not a run record: same contract.
  {
    std::ofstream out(corrupt);
    out << "{\"metrics\":[]}";
  }
  try {
    RunRecord::load_file(corrupt);
    FAIL() << "expected CheckError";
  } catch (const core::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find(corrupt), std::string::npos);
  }
  std::remove(corrupt.c_str());
}

TEST(RunRecordJson, NonFiniteValuesSerializeAsNullAndParseAsNaN) {
  Registry registry;
  registry.gauge("degenerate_ratio").set(std::nan(""));
  registry.gauge("fine").set(2.0);
  const RunRecord record = build_run_record("x", "default", {}, registry);
  const std::string text = record.dump();
  EXPECT_NE(text.find("null"), std::string::npos);

  const RunRecord reparsed = RunRecord::parse(text);
  const MetricSeries* degenerate = reparsed.find("degenerate_ratio", {});
  ASSERT_NE(degenerate, nullptr);
  EXPECT_TRUE(std::isnan(degenerate->value));
  const MetricSeries* fine = reparsed.find("fine", {});
  ASSERT_NE(fine, nullptr);
  EXPECT_DOUBLE_EQ(fine->value, 2.0);
}

TEST(RunRecordJson, TornWriteLeavesThePreviousFileIntact) {
  // Records, metrics exports and traces are rewritten in place (a re-pin
  // writes straight over the committed BENCH_*.json); a write that dies
  // halfway must throw and leave the previous bytes as they were.
  Registry registry;
  registry.gauge("vgpu.makespan_ms").set(4.0);
  const RunRecord record = build_run_record("x", "default", {}, registry);
  const TraceSession trace;

  const std::string path = testing::TempDir() + "fdet_torn_write.json";
  const std::string previous = "previous contents\n";
  const std::vector<std::function<void()>> writers = {
      [&] { record.write_file(path); },
      [&] { registry.write_file(path); },
      [&] { trace.write_file(path); },
  };
  for (std::size_t i = 0; i < writers.size(); ++i) {
    {
      std::ofstream out(path, std::ios::binary);
      out << previous;
    }
    {
      const core::ScopedWriteFaultHook torn(
          [](const std::string&, core::WriteOp op) {
            return op == core::WriteOp::kWrite ? core::WriteFault::kTornWrite
                                               : core::WriteFault::kNone;
          });
      EXPECT_THROW(writers[i](), core::CheckError) << "writer " << i;
    }
    EXPECT_EQ(read_bytes(path), previous) << "writer " << i;
    writers[i]();  // without the fault the write lands
    EXPECT_NE(read_bytes(path), previous) << "writer " << i;
  }
  std::remove(path.c_str());
  std::remove(core::tmp_path_for(path).c_str());
}

TEST(RunRecordPath, CanonicalName) {
  EXPECT_EQ(run_record_path("fig5"), "BENCH_fig5.json");
}

}  // namespace
}  // namespace fdet::obs
