// One benchmark invocation: run a workload, gate its outputs, and compute
// either the end-to-end metrics (tracing off) or the per-layer metrics (the
// separate traced run).  See README.md for what each metric means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Minimum measuring time; required (negative until given).  An
  /// untraced invocation always makes at least two timed runs, so their
  /// digests can be compared; a traced one at least one pass through every
  /// backend.
  double seconds = -1.0;
  bool trace = false;
  /// The self-test's shrunken workloads (job_spec(name, true)).
  bool quick = false;
  /// Where a traced invocation writes its spans as JSON lines; empty
  /// writes nothing.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  bool correct() const {
    return attempted > 0 && failed == 0 && failures.empty();
  }
};

Outcome run_benchmark(const Options& options);

/// The one-line result object: correct, attempted, failed, metrics.
std::string outcome_json(const Outcome& outcome);

}  // namespace perfbench
