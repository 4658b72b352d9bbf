// Self-tests of the benchmark's helpers, plus a tiny end-to-end run of
// every workload (scale 1, short windows) under two seeds.
//
//   xsql_e2e_selftest --work-dir DIR
//
// Exits 0 when every check passes.
#include <cctype>
#include <cmath>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace {

using namespace xsql::perfbench;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void ZipfIsDeterministic() {
  ZipfSampler zipf(960, 0.99);
  xsql::Rng a(7), b(7), c(8);
  std::vector<size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.Next(&a));
    db.push_back(zipf.Next(&b));
    dc.push_back(zipf.Next(&c));
  }
  Check(da == db, "zipf: same seed, same draws");
  Check(da != dc, "zipf: another seed, other draws");
  size_t top = 0;
  for (size_t r : da) top += r == 0 ? 1 : 0;
  // P(rank 0) = 1/H(960, 0.99) ~ 0.13.
  Check(top > 80 && top < 200, "zipf: rank 0 drawn ~13% of the time (" +
                                   std::to_string(top) + "/1000)");
}

void PercentileRule() {
  LatencyHistogram h;
  for (int i = 1; i <= 999; ++i) h.Add(i);
  const Percentile p99 = h.Quantile(0.99);
  Check(!p99.reported && p99.beyond == 9,
        "percentile: p99 of 999 samples (9 beyond) is omitted");
  h.Add(1000);
  const Percentile p99b = h.Quantile(0.99);
  Check(p99b.reported && p99b.beyond == 10 &&
            std::fabs(p99b.value - 990) <= 990 * 0.01,
        "percentile: p99 of 1000 samples is 990 (within 1%) with 10 beyond");
  LatencyHistogram small;
  for (double v : {3.0, 1.0, 2.0}) small.Add(v);
  const Percentile p50 = small.Quantile(0.5);
  Check(!p50.reported && std::fabs(p50.value - 2) <= 0.02,
        "percentile: p50 of 3 samples is 2 and omitted");
  MetricSet m;
  m.AddPercentile("lat_p99", p99, 1, "ms");
  Check(m.Find("lat_p99") == nullptr && m.omitted().size() == 1,
        "percentile: an omitted percentile is not reported as a metric");
}

void RatiosCarryBases(const MetricSet& m, const std::string& run) {
  bool ok = true;
  for (const Metric& metric : m.metrics()) {
    if (metric.base.empty()) continue;
    if (m.Find(metric.base) == nullptr) {
      ok = false;
      std::cout << "     " << metric.name << " lacks base " << metric.base
                << "\n";
    }
  }
  for (const Metric& metric : m.metrics()) {
    const bool is_ratio = metric.unit == "ratio" || metric.unit == "share" ||
                          metric.unit.find('/') != std::string::npos;
    const bool exempt = metric.name == "trace.unaccounted_share" ||
                        metric.name == "trace.overhead_share" ||
                        metric.unit == "1/s";
    if (is_ratio && !exempt && metric.base.empty()) {
      ok = false;
      std::cout << "     ratio " << metric.name << " has no base\n";
    }
  }
  Check(ok, "ratios: every ratio carries its base (" + run + ")");
}

/// Percentile metrics ("read_p99_ms") may be omitted on a short window.
bool IsPercentile(const std::string& name) {
  const size_t p = name.find("_p");
  return p != std::string::npos && p + 2 < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[p + 2]));
}

void TinyRuns(const std::string& work_dir) {
  for (WorkloadKind kind : {WorkloadKind::kBrowse, WorkloadKind::kAnalytic,
                            WorkloadKind::kMixed}) {
    std::set<std::string> first;
    for (uint64_t seed : {1, 2}) {
      Config config = DefaultConfig(kind);
      config.scale = 1;
      config.seconds = 0.3;
      config.seed = seed;
      config.trace = true;
      config.setup_repeats = 1;
      config.trace_samples = 20;
      config.work_dir = work_dir + "/" + WorkloadName(kind);
      const std::string run =
          std::string(WorkloadName(kind)) + " seed " + std::to_string(seed);
      auto result = RunBenchmark(config);
      Check(result.ok(), "tiny run completes (" + run + ")");
      if (!result.ok()) {
        std::cout << "     " << result.status().ToString() << "\n";
        continue;
      }
      Check(result->failed == 0, "tiny run answers are all correct (" + run +
                                     ")");
      for (const std::string& f : result->failures) {
        std::cout << "     " << f << "\n";
      }
      bool all = true;
      for (const auto* names :
           {&EndToEndMetricNames(), &PerLayerMetricNames()}) {
        for (const std::string& n : *names) {
          if (result->metrics.Find(n) == nullptr && !IsPercentile(n)) {
            all = false;
            std::cout << "     missing " << n << "\n";
          }
        }
      }
      Check(all, "tiny run reports every listed metric (" + run + ")");
      RatiosCarryBases(result->metrics, run);
      // Percentile presence depends on sample counts, not the seed's
      // identity; compare the rest.
      std::set<std::string> names;
      for (const std::string& n : result->metrics.Names()) {
        if (!IsPercentile(n)) names.insert(n);
      }
      if (seed == 1) {
        first = names;
      } else {
        Check(names == first, "a second seed yields the same metric names (" +
                                  std::string(WorkloadName(kind)) + ")");
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]) == "--work-dir") work_dir = argv[i + 1];
  }
  if (work_dir.empty()) {
    std::cerr << "usage: xsql_e2e_selftest --work-dir DIR\n";
    return 2;
  }
  ZipfIsDeterministic();
  PercentileRule();
  TinyRuns(work_dir);
  std::cout << (failures == 0 ? "all self-tests passed"
                              : std::to_string(failures) + " failed")
            << "\n";
  return failures == 0 ? 0 : 1;
}
