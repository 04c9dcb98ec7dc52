#include "obs/verify.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace fdet::obs {
namespace {

const Registry::Sample* find_sample(const std::vector<Registry::Sample>& all,
                                    const std::string& name,
                                    const Labels& labels) {
  const auto it = std::find_if(
      all.begin(), all.end(), [&](const Registry::Sample& s) {
        return s.name == name && s.labels == labels;
      });
  return it == all.end() ? nullptr : &*it;
}

vgpu::CheckReport dirty_report() {
  vgpu::CheckReport report;
  report.kernel = "tile_kernel";
  report.phases = 2;
  report.blocks = 4;
  report.shared_accesses_checked = 128;
  report.global_ops_checked = 64;
  vgpu::Hazard race;
  race.kind = vgpu::HazardKind::kIntraPhaseRace;
  race.kernel = report.kernel;
  report.hazards.push_back(race);
  report.hazards.push_back(race);
  vgpu::Hazard uninit;
  uninit.kind = vgpu::HazardKind::kUninitializedSharedRead;
  uninit.kernel = report.kernel;
  report.hazards.push_back(uninit);
  report.suppressed_hazards = 5;
  return report;
}

TEST(PublishCheckReport, EmitsFullMetricFamily) {
  Registry registry;
  publish_check_report(registry, dirty_report());
  const auto samples = registry.samples();

  const Labels kernel{{"kernel", "tile_kernel"}};
  const Registry::Sample* clean =
      find_sample(samples, "vgpu.check.clean", kernel);
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(clean->kind, "gauge");
  EXPECT_EQ(clean->value, 0.0);

  const Registry::Sample* shared =
      find_sample(samples, "vgpu.check.shared_accesses", kernel);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->value, 128.0);
  EXPECT_EQ(find_sample(samples, "vgpu.check.global_ops", kernel)->value,
            64.0);

  // Hazards are counted per kind, suppressed ones under their own label.
  Labels race = kernel;
  race.emplace_back("kind", "intra-phase-race");
  EXPECT_EQ(find_sample(samples, "vgpu.check.hazards", race)->value, 2.0);
  Labels uninit = kernel;
  uninit.emplace_back("kind", "uninitialized-shared-read");
  EXPECT_EQ(find_sample(samples, "vgpu.check.hazards", uninit)->value, 1.0);
  Labels suppressed = kernel;
  suppressed.emplace_back("kind", "suppressed");
  EXPECT_EQ(find_sample(samples, "vgpu.check.hazards", suppressed)->value,
            5.0);
}

TEST(PublishCheckReport, CleanReportEmitsNoHazardCounters) {
  Registry registry;
  vgpu::CheckReport report;
  report.kernel = "clean_kernel";
  report.shared_accesses_checked = 10;
  publish_check_reports(registry, {report}, {{"corpus", "production"}});

  const auto samples = registry.samples();
  const Labels labels{{"corpus", "production"}, {"kernel", "clean_kernel"}};
  const Registry::Sample* clean =
      find_sample(samples, "vgpu.check.clean", labels);
  ASSERT_NE(clean, nullptr);
  EXPECT_EQ(clean->value, 1.0);
  for (const Registry::Sample& sample : samples) {
    EXPECT_NE(sample.name, "vgpu.check.hazards");
  }
}

}  // namespace
}  // namespace fdet::obs
