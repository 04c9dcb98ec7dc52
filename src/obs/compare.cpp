#include "obs/compare.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace fdet::obs {

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kImproved:  return "improved";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kMissing:   return "missing";
    case Verdict::kNew:       return "new";
  }
  return "unknown";
}

namespace {

bool contains_any(std::string_view haystack,
                  std::initializer_list<const char*> needles) {
  for (const char* needle : needles) {
    if (haystack.find(needle) != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int severity(Verdict verdict) {
  switch (verdict) {
    case Verdict::kRegressed: return 0;
    case Verdict::kMissing:   return 1;
    case Verdict::kImproved:  return 2;
    case Verdict::kNew:       return 3;
    case Verdict::kUnchanged: return 4;
  }
  return 5;
}

}  // namespace

Direction metric_direction(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  // Cycle and serialization counts gate downward even when the name also
  // mentions an occupancy ("occupancy_limited_cycles"), so they come
  // before the higher-is-better keywords.
  if (contains_any(lower, {"cycles", "conflict", "transaction"})) {
    return Direction::kLowerIsBetter;
  }
  // Higher-is-better keywords before the generic lower-is-better bucket:
  // "dram_read_gbps" must not fall in via some other substring.
  if (contains_any(lower, {"efficiency", "utilization", "throughput", "gbps",
                           "speedup", "fps", "tpr", "advantage",
                           "occupancy"})) {
    return Direction::kHigherIsBetter;
  }
  if (contains_any(lower, {"_ms", "_seconds", "latency", "makespan",
                           "duration", "violations", "_time", "overhead",
                           "miss_ratio", "queue_depth", "burn"}) ||
      ends_with(lower, "_s") || ends_with(lower, "_s.sum")) {
    return Direction::kLowerIsBetter;
  }
  return Direction::kExact;
}

CompareReport compare_runs(const RunRecord& baseline,
                           const RunRecord& current) {
  CompareReport report;
  for (const MetricSeries& base : baseline.metrics) {
    MetricVerdict v;
    v.name = base.name;
    v.labels = base.labels;
    v.direction = metric_direction(base.name);
    v.baseline_median = base.median;

    const MetricSeries* cur = current.find(base.name, base.labels);
    if (cur == nullptr) {
      v.verdict = Verdict::kMissing;
      ++report.missing;
      report.verdicts.push_back(std::move(v));
      continue;
    }
    v.current_median = cur->median;

    const bool base_finite = std::isfinite(base.median);
    const bool cur_finite = std::isfinite(cur->median);
    if (!base_finite || !cur_finite) {
      // Both degenerate: nothing moved. One degenerate: a metric became
      // (or stopped being) computable — treat as a regression either way.
      v.verdict = (base_finite == cur_finite) ? Verdict::kUnchanged
                                              : Verdict::kRegressed;
    } else {
      const double delta = cur->median - base.median;
      v.relative_change =
          base.median == 0.0 ? 0.0 : delta / std::fabs(base.median);
      const double dust = kCompareDust * std::max(1.0, std::fabs(base.median));
      const auto agree = [dust](const MetricSeries& series) {
        return std::all_of(series.samples.begin(), series.samples.end(),
                           [&](double sample) {
                             return std::fabs(sample - series.median) <= dust;
                           });
      };
      v.exact = agree(base) && agree(*cur);
      v.band = std::max(kCompareMadMultiplier * std::max(base.mad, cur->mad),
                        dust);
      if (std::fabs(delta) <= v.band) {
        v.verdict = Verdict::kUnchanged;
      } else {
        switch (v.direction) {
          case Direction::kLowerIsBetter:
            v.verdict = delta < 0.0 ? Verdict::kImproved : Verdict::kRegressed;
            break;
          case Direction::kHigherIsBetter:
            v.verdict = delta > 0.0 ? Verdict::kImproved : Verdict::kRegressed;
            break;
          case Direction::kExact:
            v.verdict = Verdict::kRegressed;
            break;
        }
      }
    }
    if (v.exact && v.verdict == Verdict::kImproved) {
      ++report.drifted;
    }
    switch (v.verdict) {
      case Verdict::kImproved:  ++report.improved; break;
      case Verdict::kUnchanged: ++report.unchanged; break;
      case Verdict::kRegressed: ++report.regressed; break;
      default: break;
    }
    report.verdicts.push_back(std::move(v));
  }

  for (const MetricSeries& cur : current.metrics) {
    if (baseline.find(cur.name, cur.labels) != nullptr) {
      continue;
    }
    MetricVerdict v;
    v.name = cur.name;
    v.labels = cur.labels;
    v.verdict = Verdict::kNew;
    v.direction = metric_direction(cur.name);
    v.current_median = cur.median;
    ++report.added;
    report.verdicts.push_back(std::move(v));
  }

  std::stable_sort(report.verdicts.begin(), report.verdicts.end(),
                   [](const MetricVerdict& a, const MetricVerdict& b) {
                     if (severity(a.verdict) != severity(b.verdict)) {
                       return severity(a.verdict) < severity(b.verdict);
                     }
                     if (a.name != b.name) {
                       return a.name < b.name;
                     }
                     return format_labels(a.labels) < format_labels(b.labels);
                   });
  return report;
}

std::string describe(const MetricVerdict& v) {
  char buf[512];
  std::string id = v.name;
  const std::string labels = format_labels(v.labels);
  if (!labels.empty()) {
    id += "{" + labels + "}";
  }
  switch (v.verdict) {
    case Verdict::kMissing:
      std::snprintf(buf, sizeof buf, "%-9s  %s  (baseline %.6g)",
                    verdict_name(v.verdict), id.c_str(), v.baseline_median);
      break;
    case Verdict::kNew:
      std::snprintf(buf, sizeof buf, "%-9s  %s  (current %.6g)",
                    verdict_name(v.verdict), id.c_str(), v.current_median);
      break;
    default:
      std::snprintf(buf, sizeof buf,
                    "%-9s  %s  %.10g -> %.10g  (%+.3f%%, band %.3g)%s",
                    verdict_name(v.verdict), id.c_str(), v.baseline_median,
                    v.current_median, v.relative_change * 100.0, v.band,
                    v.exact && v.verdict == Verdict::kImproved
                        ? "  exact series drifted: re-pin the record"
                        : "");
  }
  return buf;
}

}  // namespace fdet::obs
