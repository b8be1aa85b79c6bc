#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three benchmark workloads. Each one generates its inputs from the
// run's seed, sets the stack up (several times, reporting the median),
// drives it for the measured window, checks every served output with
// the oracle, and — in a traced run — replays the window's request list
// through the layers' public calls with spans around each call.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  ///< hot-search | cold-plan | mixed-wire
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured window
  bool trace = false;    ///< per-layer run instead of end-to-end run
  bool tiny = false;     ///< self-test scale: small inputs, short set-up
  /// Feed the oracle one deliberately wrong member (self-test: the run
  /// must then fail its correctness check).
  bool corrupt_member = false;
  std::string work_dir;  ///< working space (WAL data dirs, span dumps)
};

struct RunResult {
  Report end_to_end;  ///< always measured (untraced)
  Report per_layer;   ///< filled by traced runs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures
  std::vector<std::string> notes;   ///< human-readable run facts (stderr)
};

/// Runs `config.workload`; an unknown name fails with an error.
RunResult RunWorkload(const RunConfig& config);

/// Workload names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
