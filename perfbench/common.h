#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared vocabulary of the benchmark harness: clocks, sample sets,
// the named-metric report, and the served outputs the oracle checks.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e3;
}

/// Prints a progress line with the seconds since the first call to
/// stderr (stdout carries only the result line).
inline void Progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[%8.3f s] %s\n", SecondsBetween(start, Clock::now()),
               what.c_str());
}

/// A set of latency (or other) samples with nearest-rank quantiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
    return sorted[index];
  }

  double Sum() const {
    double sum = 0;
    for (double value : values_) sum += value;
    return sum;
  }
  double Mean() const { return values_.empty() ? 0 : Sum() / size(); }

 private:
  std::vector<double> values_;
};

/// One printed metric: name, value, unit and the sample count behind it
/// (0 for counters and ratios that are not percentiles).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// The metrics of one run, in emission order.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Adds `<name>.p50` and `<name>.p99` of `samples`.
  void AddPercentiles(const std::string& name, const Samples& samples,
                      const std::string& unit) {
    Add(name + ".p50", samples.Quantile(0.50), unit, samples.size());
    Add(name + ".p99", samples.Quantile(0.99), unit, samples.size());
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// A served enumeration as the client saw it: members rendered to fact
/// text, each member's facts sorted (families compare as sets).
struct EnumerateObservation {
  std::string target;
  std::vector<std::vector<std::string>> members;
  bool exhausted = false;
  std::uint64_t model_version = 0;
};

/// A served membership decision.
struct DecideObservation {
  std::string target;
  std::vector<std::string> candidate;  ///< sorted fact texts
  bool verdict = false;
  std::uint64_t model_version = 0;
};

/// Everything one run served, for the oracle.
struct Observations {
  std::vector<EnumerateObservation> enumerations;
  std::vector<DecideObservation> decides;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
