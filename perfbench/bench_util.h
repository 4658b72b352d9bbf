// Statistics, sampling and reporting helpers of the end-to-end socket
// benchmark. Everything here is independent of the database, so the
// self-test (selftest.cc) can exercise it directly.
#ifndef XSQL_PERFBENCH_BENCH_UTIL_H_
#define XSQL_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace xsql {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Zipf(s) over ranks [0, n): rank r is drawn with probability
/// proportional to 1 / (r + 1)^s. Inverse-CDF sampling over a
/// precomputed table, driven by the repository's SplitMix64 `Rng`, so
/// a seed fixes the whole draw sequence.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Next(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// A percentile of a latency sample under the reporting rule: it is
/// reported only when at least `kMinBeyond` samples lie above its
/// nearest rank, so a tail figure always rests on several observations.
struct Percentile {
  static constexpr size_t kMinBeyond = 10;
  bool reported = false;
  double value = 0;
  size_t samples = 0;  // sample size it was computed from
  size_t beyond = 0;   // samples ranked above it
};

/// Latency recorder with bounded memory: log-spaced buckets 1% wide
/// from 0.1 us up, so a percentile is exact to within 1% and the
/// benchmark's own footprint (part of peak_rss_mb) does not grow with
/// the number of statements a faster server completes.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Nearest-rank percentile `q` in (0, 1) under the reporting rule; the
  /// value is its bucket's geometric midpoint, clamped to the observed
  /// range.
  Percentile Quantile(double q) const;

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty vector.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// One named metric as printed and as emitted in the result JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// For a ratio: the name of the metric holding its denominator.
  std::string base;
  /// Free-form annotation for the human-readable report.
  std::string note;
};

/// An ordered set of metrics. A ratio is added together with its base,
/// so no ratio is ever reported without the count it was computed from.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds `name`, a statistic over `base_value` items, and, unless
  /// already present, `base_name` = base_value.
  void AddOver(const std::string& name, double value,
               const std::string& unit, const std::string& base_name,
               double base_value, const std::string& base_unit);
  /// AddOver with value = numerator / base (0 when base is 0).
  void AddRatio(const std::string& name, double numerator, double base,
                const std::string& unit, const std::string& base_name,
                const std::string& base_unit);
  /// Adds a percentile when the reporting rule allows it; otherwise
  /// records the omission in the report only.
  void AddPercentile(const std::string& name, const Percentile& p,
                     double scale, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  /// Lines "name = value unit [base ...] [note]" for the report.
  std::vector<std::string> ReportLines() const;
  /// The `"metrics": {...}` object restricted to `names` (all must be
  /// present; a missing one is reported through `*missing`).
  std::string JsonObject(const std::vector<std::string>& names,
                         std::vector<std::string>* missing) const;
  /// Omitted percentiles, by name, with the reason.
  const std::vector<std::string>& omitted() const { return omitted_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> omitted_;
};

/// Value formatted with all its digits (round-trip precision).
std::string FormatNumber(double v);
std::string JsonEscape(const std::string& s);

/// Host facts recorded with every result.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
};
HostInfo DetectHost();

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

}  // namespace perfbench
}  // namespace xsql

#endif  // XSQL_PERFBENCH_BENCH_UTIL_H_
