// xsql_e2e: one run of the end-to-end socket benchmark.
//
//   xsql_e2e --workload browse|analytic|mixed --seed N --seconds S
//            --trace 0|1 --work-dir DIR
//
// Prints the run's configuration and every metric by name and unit,
// then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits non-zero, without a result line, when the run
// cannot be carried out.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using xsql::perfbench::Config;

int Usage(const std::string& why) {
  std::cerr << "xsql_e2e: " << why
            << "\nusage: xsql_e2e --workload browse|analytic|mixed --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  auto kind = xsql::perfbench::ParseWorkload(workload);
  if (!kind.ok()) return Usage(kind.status().ToString());
  if (seconds <= 0 || (trace != 0 && trace != 1) || work_dir.empty()) {
    return Usage("--seconds, --trace and --work-dir are required");
  }

  Config config = xsql::perfbench::DefaultConfig(*kind);
  config.seed = seed;
  config.seconds = seconds;
  config.trace = trace == 1;
  config.work_dir = work_dir;
  auto result = xsql::perfbench::RunBenchmark(config);
  if (!result.ok()) {
    std::cerr << "xsql_e2e: run failed: " << result.status().ToString()
              << "\n";
    return 1;
  }

  for (const std::string& line : result->record) {
    std::cout << "# " << line << "\n";
  }
  for (const std::string& line : result->metrics.ReportLines()) {
    std::cout << line << "\n";
  }
  for (const std::string& f : result->failures) {
    std::cout << "FAILED: " << f << "\n";
  }
  const auto& names = config.trace ? xsql::perfbench::PerLayerMetricNames()
                                   : xsql::perfbench::EndToEndMetricNames();
  std::vector<std::string> missing;
  const std::string metrics = result->metrics.JsonObject(names, &missing);
  if (!missing.empty()) {
    for (const std::string& name : missing) {
      std::cerr << "xsql_e2e: metric " << name << " was not measured\n";
    }
    return 1;
  }
  const bool correct = result->failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result->attempted
            << ", \"failed\": " << result->failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return 0;
}
