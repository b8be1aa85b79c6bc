// Sharded serving walkthrough: one logical model partitioned across N
// engines behind one Service — routing, scatter/gather streaming, delta
// fan-out through the ordered write lane, and the per-shard stats rows.
//
// Build & run:  ./build/sharded_serving [num_shards]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "whyprov.h"

namespace {

constexpr const char* kProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";
constexpr const char* kDatabase = R"(
  edge(a, m1). edge(m1, b).
  edge(a, m2). edge(m2, b).
  edge(c, n1). edge(n1, d).
  edge(c, n2). edge(n2, d).
)";

}  // namespace

int main(int argc, char** argv) {
  const std::size_t num_shards =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 2;

  whyprov::ServiceOptions options;
  options.num_shards = num_shards == 0 ? 2 : num_shards;
  auto service =
      whyprov::Service::FromText(kProgram, kDatabase, "path", options);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().message().c_str());
    return 1;
  }
  std::printf("serving 'path' across %zu shards (%s partitioning)\n\n",
              service.value()->num_shards(),
              std::string(whyprov::ShardPolicyName(
                              service.value()->shard_map().policy()))
                  .c_str());

  // Cross-shard scatter/gather: both targets stream concurrently on
  // their owning shards; the merge yields every member of the first
  // request before any member of the second (stable ordering).
  std::vector<whyprov::EnumerateRequest> requests(2);
  requests[0].target_text = "path(a, b)";
  requests[1].target_text = "path(c, d)";
  auto merged = service.value()->StreamMany(requests, /*stream_capacity=*/2);
  if (!merged.ok()) {
    std::fprintf(stderr, "error: %s\n", merged.status().message().c_str());
    return 1;
  }
  const whyprov::datalog::SymbolTable& symbols =
      service.value()->engine().model().symbols();
  while (auto member = merged.value()->Pop()) {
    std::string line = "  {";
    for (std::size_t i = 0; i < member->size(); ++i) {
      if (i > 0) line += ", ";
      line += whyprov::datalog::FactToString((*member)[i], symbols);
    }
    std::printf("%s}\n", line.c_str());
  }
  merged.value()->Wait();

  // A write fans out through the ordered delta lane; in-flight reads
  // keep their snapshots, later reads see the new version.
  whyprov::DeltaRequest delta;
  delta.removed_fact_texts = {"edge(a, m2)"};
  whyprov::Request request;
  request.op = std::move(delta);
  auto ticket = service.value()->Submit(std::move(request));
  if (ticket.ok()) {
    const whyprov::Response& response = ticket.value().Wait();
    std::printf("\ndelta -> version %llu (%s)\n",
                static_cast<unsigned long long>(response.model_version),
                std::string(whyprov::util::StatusCodeName(
                                response.status.code()))
                    .c_str());
  }

  const whyprov::ServiceStats stats = service.value()->stats();
  std::printf("\n%llu completed, %.0f q/s, version skew %llu\n",
              static_cast<unsigned long long>(stats.completed),
              stats.queries_per_second,
              static_cast<unsigned long long>(stats.version_skew));
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const whyprov::ShardStats& shard = stats.shards[s];
    std::printf(
        "  shard %zu: v%llu, %llu served, %llu deltas applied / %llu "
        "skipped, %zu snapshot(s) ~%zu bytes\n",
        s, static_cast<unsigned long long>(shard.model_version),
        static_cast<unsigned long long>(shard.completed),
        static_cast<unsigned long long>(shard.deltas_applied),
        static_cast<unsigned long long>(shard.deltas_skipped),
        shard.retained_snapshots, shard.retained_snapshot_bytes);
  }
  return 0;
}
