#include "obs/compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fdet::obs {

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kDrifted:   return "drifted";
    case Verdict::kMissing:   return "missing";
    case Verdict::kNew:       return "new";
  }
  return "unknown";
}

namespace {

int severity(Verdict verdict) {
  switch (verdict) {
    case Verdict::kDrifted:   return 0;
    case Verdict::kMissing:   return 1;
    case Verdict::kNew:       return 2;
    case Verdict::kUnchanged: return 3;
  }
  return 4;
}

/// Fills the verdict of a series both records hold.
void judge(MetricVerdict& v) {
  const bool base_finite = std::isfinite(v.baseline);
  const bool cur_finite = std::isfinite(v.current);
  if (!base_finite || !cur_finite) {
    // Both degenerate: nothing moved. One degenerate: the metric became
    // (or stopped being) computable, a drift either way.
    v.verdict = base_finite == cur_finite ? Verdict::kUnchanged
                                          : Verdict::kDrifted;
    return;
  }
  const double delta = v.current - v.baseline;
  v.relative_change =
      v.baseline == 0.0 ? 0.0 : delta / std::fabs(v.baseline);
  const double dust = kCompareDust * std::max(1.0, std::fabs(v.baseline));
  v.verdict =
      std::fabs(delta) <= dust ? Verdict::kUnchanged : Verdict::kDrifted;
}

}  // namespace

CompareReport compare_runs(const RunRecord& baseline,
                           const RunRecord& current) {
  CompareReport report;
  auto base = baseline.metrics.begin();
  auto cur = current.metrics.begin();
  const auto base_end = baseline.metrics.end();
  const auto cur_end = current.metrics.end();
  // One merge walk: both records are in series_less order.
  while (base != base_end || cur != cur_end) {
    MetricVerdict v;
    if (cur == cur_end || (base != base_end && series_less(*base, *cur))) {
      v.name = base->name;
      v.labels = base->labels;
      v.verdict = Verdict::kMissing;
      v.baseline = base->value;
      ++base;
      ++report.missing;
    } else if (base == base_end || series_less(*cur, *base)) {
      v.name = cur->name;
      v.labels = cur->labels;
      v.verdict = Verdict::kNew;
      v.current = cur->value;
      ++cur;
      ++report.added;
    } else {
      v.name = base->name;
      v.labels = base->labels;
      v.baseline = base->value;
      v.current = cur->value;
      judge(v);
      ++base;
      ++cur;
      if (v.verdict == Verdict::kDrifted) {
        ++report.drifted;
      } else {
        ++report.unchanged;
      }
    }
    report.verdicts.push_back(std::move(v));
  }
  std::stable_sort(report.verdicts.begin(), report.verdicts.end(),
                   [](const MetricVerdict& a, const MetricVerdict& b) {
                     return severity(a.verdict) < severity(b.verdict);
                   });
  return report;
}

std::string describe(const MetricVerdict& v) {
  char buf[512];
  const std::string id = series_identity(v.name, v.labels);
  switch (v.verdict) {
    case Verdict::kMissing:
      std::snprintf(buf, sizeof buf, "%-9s  %s  (baseline %.6g)",
                    verdict_name(v.verdict), id.c_str(), v.baseline);
      break;
    case Verdict::kNew:
      std::snprintf(buf, sizeof buf, "%-9s  %s  (current %.6g)",
                    verdict_name(v.verdict), id.c_str(), v.current);
      break;
    default:
      std::snprintf(buf, sizeof buf, "%-9s  %s  %.10g -> %.10g  (%+.3f%%)",
                    verdict_name(v.verdict), id.c_str(), v.baseline,
                    v.current, v.relative_change * 100.0);
  }
  return buf;
}

}  // namespace fdet::obs
