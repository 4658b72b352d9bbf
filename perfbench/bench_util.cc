#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifndef XSQL_BENCH_BUILD_TYPE
#define XSQL_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef XSQL_BENCH_COMPILER
#define XSQL_BENCH_COMPILER "unknown"
#endif

namespace xsql {
namespace perfbench {

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next(Rng* rng) const {
  // 53 random bits -> a uniform double in [0, 1).
  const double u =
      static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

namespace {
constexpr double kHistMin = 0.1;  // us
constexpr double kHistGrowth = 1.01;
constexpr size_t kHistBuckets = 2100;  // up to ~1.2e8 us
}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kHistBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  const double ratio = std::max(us, kHistMin) / kHistMin;
  const size_t i = std::min(
      kHistBuckets - 1,
      static_cast<size_t>(std::log(ratio) / std::log(kHistGrowth)));
  ++counts_[i];
  min_ = count_ == 0 ? us : std::min(min_, us);
  max_ = count_ == 0 ? us : std::max(max_, us);
  ++count_;
  sum_ += us;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < kHistBuckets; ++i) counts_[i] += other.counts_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

Percentile LatencyHistogram::Quantile(double q) const {
  Percentile p;
  p.samples = count_;
  if (count_ == 0) return p;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it (1-based rank ceil(q*n)).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_) - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  size_t i = 0;
  for (; i < kHistBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) break;
  }
  const double mid =
      kHistMin * std::pow(kHistGrowth, static_cast<double>(i) + 0.5);
  p.value = std::clamp(mid, min_, max_);
  p.beyond = count_ - rank;
  p.reported = p.beyond >= Percentile::kMinBeyond;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, "", note});
}

void MetricSet::AddOver(const std::string& name, double value,
                        const std::string& unit,
                        const std::string& base_name, double base_value,
                        const std::string& base_unit) {
  metrics_.push_back({name, value, unit, base_name, ""});
  if (Find(base_name) == nullptr) Add(base_name, base_value, base_unit);
}

void MetricSet::AddRatio(const std::string& name, double numerator,
                         double base, const std::string& unit,
                         const std::string& base_name,
                         const std::string& base_unit) {
  AddOver(name, base == 0 ? 0 : numerator / base, unit, base_name, base,
          base_unit);
}

void MetricSet::AddPercentile(const std::string& name, const Percentile& p,
                              double scale, const std::string& unit) {
  if (!p.reported) {
    omitted_.push_back(name + " (" + std::to_string(p.beyond) +
                       " samples beyond it of " + std::to_string(p.samples) +
                       "; needs " + std::to_string(Percentile::kMinBeyond) +
                       ")");
    return;
  }
  Add(name, p.value * scale, unit,
      "n=" + std::to_string(p.samples) + " beyond=" +
          std::to_string(p.beyond));
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::vector<std::string> MetricSet::Names() const {
  std::vector<std::string> names;
  for (const Metric& m : metrics_) names.push_back(m.name);
  return names;
}

std::vector<std::string> MetricSet::ReportLines() const {
  std::vector<std::string> lines;
  for (const Metric& m : metrics_) {
    std::string line = m.name + " = " + FormatNumber(m.value) + " " + m.unit;
    if (!m.base.empty()) {
      const Metric* base = Find(m.base);
      line += "  (base " + m.base + " = " +
              (base != nullptr ? FormatNumber(base->value) : "?") + ")";
    }
    if (!m.note.empty()) line += "  [" + m.note + "]";
    lines.push_back(line);
  }
  for (const std::string& o : omitted_) lines.push_back("omitted: " + o);
  return lines;
}

std::string MetricSet::JsonObject(const std::vector<std::string>& names,
                                  std::vector<std::string>* missing) const {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : names) {
    const Metric* m = Find(name);
    if (m == nullptr) {
      missing->push_back(name);
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": {\"value\": ";
    out += FormatNumber(m->value);
    out += ", \"unit\": \"";
    out += JsonEscape(m->unit);
    out += "\"}";
  }
  return out + "}";
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HostInfo DetectHost() {
  HostInfo host;
  host.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(" \t",
                                                            colon + 1));
      }
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.build_type = XSQL_BENCH_BUILD_TYPE;
  host.compiler = XSQL_BENCH_COMPILER;
  return host;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
}  // namespace xsql
