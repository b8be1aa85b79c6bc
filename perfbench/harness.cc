// perfbench: the end-to-end benchmark of the serving stack.
//
//   perfbench --workload <hot-search|cold-plan|mixed-wire> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>] [--tiny]
//             [--corrupt-member]
//
// Runs one workload (see perfbench/README.md), prints every metric with
// its unit and sample count to stderr, and prints one JSON object as the
// last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from the traced replay. Exits 1 when any output fails
// its correctness check, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--tiny] "
               "[--corrupt-member]\n");
}

bool ParseArgs(int argc, char** argv, perfbench::RunConfig& config) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      const char* v = value("--workload");
      if (v == nullptr) return false;
      config.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      const char* v = value("--seed");
      if (v == nullptr) return false;
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      const char* v = value("--seconds");
      if (v == nullptr) return false;
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      const char* v = value("--trace");
      if (v == nullptr) return false;
      config.trace = std::string(v) == "1";
    } else if (arg == "--work-dir") {
      const char* v = value("--work-dir");
      if (v == nullptr) return false;
      config.work_dir = v;
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt-member") {
      config.corrupt_member = true;
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!have_workload || !(config.seconds > 0)) return false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    if (name == config.workload) return true;
  }
  std::fprintf(stderr, "error: unknown workload %s\n", config.workload.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".";
  if (!ParseArgs(argc, argv, config)) {
    Usage();
    return 2;
  }
  std::filesystem::create_directories(config.work_dir);

  perfbench::RunResult result = perfbench::RunWorkload(config);
  const perfbench::Report& report =
      config.trace ? result.per_layer : result.end_to_end;

  std::fprintf(stderr, "workload %s, seed %llu, %s run\n",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.trace ? "traced" : "untraced");
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  for (const perfbench::Metric& metric : report.metrics()) {
    if (!std::isfinite(metric.value)) {
      result.errors.push_back("metric " + metric.name + " is not finite");
    }
    std::fprintf(stderr, "  %-32s %14.6f %-9s", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
    if (metric.samples > 0) std::fprintf(stderr, " (n=%zu)", metric.samples);
    std::fprintf(stderr, "\n");
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "ERROR: %s\n", error.c_str());
  }

  const bool correct = result.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const perfbench::Metric& metric : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
