// perfbench — runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.jsonl>] [--quick]
//
// Human-readable lines first; the last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}.  Usually launched through
// run.py, which builds this binary first.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "jobs.hpp"
#include "util/logging.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--quick]\n"
            << "workloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      options.quick = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.seconds < 0.0) {
    return usage("--seconds is required");
  }
  try {
    (void)perfbench::job_spec(options.workload, options.quick);
  } catch (const std::exception& error) {
    return usage(error.what());
  }

  marsit::set_log_level(marsit::LogLevel::kWarning);
  const perfbench::Outcome outcome = perfbench::run_benchmark(options);
  for (const perfbench::Metric& metric : outcome.metrics) {
    std::cout << options.workload << " " << metric.name << " = "
              << metric.value << " " << metric.unit << "\n";
  }
  for (const std::string& failure : outcome.failures) {
    std::cout << "FAILED " << failure << "\n";
  }
  std::cout << perfbench::outcome_json(outcome) << std::endl;
  return 0;
}
