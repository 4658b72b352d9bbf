// The end-to-end socket benchmark: a real server::Server on loopback
// over a storage::DurableDatabase holding the Figure-1 instance, driven
// by closed-loop blocking server::Clients (browse, analytic, mixed),
// plus a traced run that times calls into each layer's public
// functions from this file set.
#ifndef XSQL_PERFBENCH_WORKLOADS_H_
#define XSQL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/status.h"

namespace xsql {
namespace perfbench {

enum class WorkloadKind { kBrowse, kAnalytic, kMixed };

/// Parses "browse" | "analytic" | "mixed".
Result<WorkloadKind> ParseWorkload(const std::string& name);
const char* WorkloadName(WorkloadKind kind);

struct Config {
  WorkloadKind kind = WorkloadKind::kBrowse;
  uint64_t seed = 1;
  /// Length of each timed window.
  double seconds = 10;
  /// Run the traced replay (per-layer metrics) after the timed window.
  bool trace = false;
  /// Figure-1 scale factor (16 = 1,131 persons, 960 employees).
  size_t scale = 16;
  /// Set-ups per run; setup_s is their median.
  int setup_repeats = 3;
  /// Read statements the traced replay samples.
  size_t trace_samples = 200;
  /// Scratch directory for database directories and scratch WALs.
  std::string work_dir;
};

/// The configuration a workload name implies (trace samples).
Config DefaultConfig(WorkloadKind kind);

/// Share of server.core_us within which the per-layer self times of one
/// sampled statement, and of the whole sample, must account for it; a
/// statement or sample outside it fails the run.
constexpr double kStageShareBound = 0.25;

struct RunResult {
  /// End-to-end metrics (always) and per-layer metrics (traced runs).
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure diagnostics (wrong, failed or refused replies,
  /// lost acknowledged writes, stage sums outside kStageShareBound).
  std::vector<std::string> failures;
  /// Configuration and host lines recorded with the result.
  std::vector<std::string> record;
};

/// Runs one benchmark invocation. Fails only on infrastructure errors
/// (a server that cannot start, a directory that cannot be written);
/// wrong answers are counted in the result instead.
Result<RunResult> RunBenchmark(const Config& config);

/// The end-to-end metric names every untraced run reports, and the
/// per-layer names every traced run reports.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace perfbench
}  // namespace xsql

#endif  // XSQL_PERFBENCH_WORKLOADS_H_
