#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recording for the traced run. Each client thread owns
// one SpanLog (no locks, no sharing while recording); the logs are
// merged, checked and written out after the run. A span is recorded by
// the harness around one call into a public function of a layer, so the
// names are the layer boundaries the harness can see from outside.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t request = 0;   ///< request id shared by one request's spans
  std::size_t parent = 0;      ///< index in the same log; kNoParent = root
  double start_us = 0;         ///< since the log's epoch
  double end_us = 0;
  std::vector<std::pair<const char*, double>> counts;
};

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::size_t Begin(const char* name, std::uint64_t request,
                    std::size_t parent = kNoParent) {
    Span span;
    span.name = name;
    span.request = request;
    span.parent = parent;
    span.start_us = Now();
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
  }
  void End(std::size_t span) { spans_[span].end_us = Now(); }
  void Count(std::size_t span, const char* key, double value) {
    spans_[span].counts.emplace_back(key, value);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Records one span on an optional log: a no-op when `log` is null, so
/// the same replay code runs traced and untraced.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request,
             std::size_t parent = kNoParent)
      : log_(log), index_(log ? log->Begin(name, request, parent) : 0) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (log_ != nullptr && !ended_) log_->End(index_);
    ended_ = true;
  }
  void Count(const char* key, double value) {
    if (log_ != nullptr) log_->Count(index_, key, value);
  }
  std::size_t index() const { return log_ ? index_ : kNoParent; }

 private:
  SpanLog* log_;
  std::size_t index_;
  bool ended_ = false;
};

/// Per-span-name totals over a whole traced run.
struct LayerTotals {
  std::string name;
  std::size_t spans = 0;
  double self_ms = 0;   ///< sum of self times
  Samples duration_ms;  ///< one sample per span
};

/// The analysed trace: self times per span name, the share of request
/// time each layer owns, and the consistency check that every request's
/// self times sum to its `request` span.
struct TraceSummary {
  std::vector<LayerTotals> layers;  ///< sorted by name
  std::size_t requests = 0;
  double request_ms = 0;            ///< sum of root `request` durations
  double max_self_sum_error_us = 0; ///< worst |sum(self) - request| seen
  std::size_t malformed = 0;        ///< children outside their parent

  const LayerTotals* Find(const std::string& name) const;
  /// Sum of self times of every span whose name starts with `prefix`,
  /// as a share of all request time.
  double SelfShare(const std::string& prefix) const;
};

/// Computes self times (duration minus the union of child intervals) and
/// checks nesting. Writes the span dump as JSON lines to `dump_path`
/// when it is non-empty.
TraceSummary AnalyseTrace(const std::vector<const SpanLog*>& logs,
                          const std::string& dump_path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
