#include "perfbench/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

const LayerTotals* TraceSummary::Find(const std::string& name) const {
  for (const LayerTotals& layer : layers) {
    if (layer.name == name) return &layer;
  }
  return nullptr;
}

double TraceSummary::SelfShare(const std::string& prefix) const {
  if (request_ms <= 0) return 0;
  double self_ms = 0;
  for (const LayerTotals& layer : layers) {
    if (layer.name.rfind(prefix, 0) == 0) self_ms += layer.self_ms;
  }
  return self_ms / request_ms;
}

namespace {

/// Length of the union of [start, end) intervals, clipped to
/// [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

TraceSummary AnalyseTrace(const std::vector<const SpanLog*>& logs,
                          const std::string& dump_path) {
  TraceSummary summary;
  std::map<std::string, LayerTotals> by_name;
  std::FILE* dump =
      dump_path.empty() ? nullptr : std::fopen(dump_path.c_str(), "w");

  for (std::size_t log_index = 0; log_index < logs.size(); ++log_index) {
    const std::vector<Span>& spans = logs[log_index]->spans();
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& span : spans) {
      if (span.parent == kNoParent) continue;
      const Span& parent = spans[span.parent];
      if (span.start_us < parent.start_us || span.end_us > parent.end_us ||
          span.request != parent.request) {
        ++summary.malformed;
      }
      children[span.parent].emplace_back(span.start_us, span.end_us);
    }
    // Self-time sums per root, to check against the root's duration.
    std::vector<double> tree_self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double duration = span.end_us - span.start_us;
      const double self =
          duration - CoveredLength(children[i], span.start_us, span.end_us);
      std::size_t root = i;
      while (spans[root].parent != kNoParent) root = spans[root].parent;
      tree_self[root] += self;

      LayerTotals& layer = by_name[span.name];
      layer.name = span.name;
      ++layer.spans;
      layer.self_ms += self / 1e3;
      layer.duration_ms.Add(duration / 1e3);

      if (dump != nullptr) {
        std::fprintf(dump,
                     "{\"log\": %zu, \"id\": %zu, \"parent\": %lld, "
                     "\"request\": %llu, \"name\": \"%s\", "
                     "\"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"self_us\": %.3f",
                     log_index, i,
                     span.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(span.parent),
                     static_cast<unsigned long long>(span.request), span.name,
                     span.start_us, span.end_us, self);
        for (const auto& [key, value] : span.counts) {
          std::fprintf(dump, ", \"%s\": %.6g", key, value);
        }
        std::fprintf(dump, "}\n");
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != kNoParent) continue;
      const double duration = spans[i].end_us - spans[i].start_us;
      ++summary.requests;
      summary.request_ms += duration / 1e3;
      summary.max_self_sum_error_us = std::max(
          summary.max_self_sum_error_us, std::fabs(tree_self[i] - duration));
    }
  }
  if (dump != nullptr) std::fclose(dump);
  for (auto& [name, layer] : by_name) summary.layers.push_back(std::move(layer));
  return summary;
}

}  // namespace perfbench
