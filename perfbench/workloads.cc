#include "perfbench/workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "datalog/parser.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/whyprov_c.h"
#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "scenarios/scenarios.h"
#include "service/service.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace perfbench {

namespace wp = whyprov;
namespace dl = whyprov::datalog;

namespace {

constexpr std::size_t kMemberCap = 16;  ///< members per enumeration
constexpr std::size_t kWorkers = 2;     ///< mixed-wire serving workers
constexpr int kSetupReps = 5;           ///< set-ups per run (median kept)
/// hot-search's screen: conflicts allowed per 16-member enumeration.
constexpr std::int64_t kScreenConflicts = 20000;
/// Deadline of every timed request, far above any workload's p99 (about
/// 0.1 s): a request that stalls (seen twice in about 25 hot-search runs,
/// once for about 80 s) then fails and is counted instead of holding a
/// client past the run's time limit.
constexpr double kRequestDeadlineS = 10;
/// Seed of every workload's instance: its database, hot-search's target
/// set, mixed-wire's popularity order and toggled facts. The run's --seed
/// draws the request stream over that instance (which targets in which
/// order, the mix, arrival times). Across instance seeds the cold-plan
/// graph's answer count ranges 74k-217k and its evaluation 1.6-5.7 s,
/// and hot-search's throughput follows the hardness of its 48 targets —
/// more than any run-to-run bound can absorb.
constexpr std::uint64_t kInstanceSeed = 1;

/// While it lives, restricts the calling thread to `count` of the CPUs it
/// may run on (the highest-numbered ones); threads started meanwhile keep
/// that restriction for good. The closed-loop workloads run their clients
/// and workers this way: a hand-off between threads on one CPU is a
/// context switch, while one to another (idle, virtual) CPU waits for the
/// host to wake that CPU, which put up to 6 % of cold-plan's window into
/// queueing and moved its throughput by a quarter from run to run.
class CpuPin {
 public:
  explicit CpuPin(std::size_t count) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    std::size_t kept = 0;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && kept < count; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &pinned);
        ++kept;
      }
    }
    active_ = sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
  }
  ~CpuPin() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t OracleThreads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0 : values[values.size() / 2];
}

std::vector<std::string> RenderMember(const wp::Engine& engine,
                                      const std::vector<dl::Fact>& member) {
  std::vector<std::string> texts;
  texts.reserve(member.size());
  for (const dl::Fact& fact : member) texts.push_back(engine.FactToText(fact));
  std::sort(texts.begin(), texts.end());
  return texts;
}

/// Client-side latency tallies of the measured (untraced) window.
struct Tally {
  Samples request_ms;       ///< every read, submit (or due) -> final
  Samples first_member_ms;  ///< submit (or due) -> first member
  Samples member_gap_ms;    ///< between consecutive members
  Samples decide_ms;
  Samples delta_ms;
  Samples queue_ms;  ///< Response::queue_seconds (in-process only)
  Samples exec_ms;   ///< Response::exec_seconds (in-process only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;
  std::uint64_t reads_within_limit = 0;

  void Merge(const Tally& other) {
    request_ms.Append(other.request_ms);
    first_member_ms.Append(other.first_member_ms);
    member_gap_ms.Append(other.member_gap_ms);
    decide_ms.Append(other.decide_ms);
    delta_ms.Append(other.delta_ms);
    queue_ms.Append(other.queue_ms);
    exec_ms.Append(other.exec_ms);
    attempted += other.attempted;
    failed += other.failed;
    reads += other.reads;
    reads_within_limit += other.reads_within_limit;
  }

  void AddRead(double ms, bool ok, double limit_ms) {
    request_ms.Add(ms);
    ++reads;
    if (ok && ms <= limit_ms) ++reads_within_limit;
  }
};

/// The end-to-end metrics of a measured window of `window_s` seconds:
/// the ones that repeat across runs on every workload (see README.md for
/// the latency percentiles, which are per-layer metrics for that reason).
void AddEndToEnd(const Tally& tally, double window_s, double setup_s,
                 double peak_rss_mb, Report& report) {
  const double ok = static_cast<double>(tally.attempted - tally.failed);
  report.Add("setup_s", setup_s, "s", kSetupReps);
  report.Add("throughput_rps", window_s > 0 ? ok / window_s : 0, "req/s",
             tally.attempted);
  report.Add("slo_attainment",
             tally.reads ? static_cast<double>(tally.reads_within_limit) /
                               static_cast<double>(tally.reads)
                         : 0,
             "fraction", tally.reads);
  report.Add("ok_frac",
             tally.attempted ? ok / static_cast<double>(tally.attempted) : 0,
             "fraction", tally.attempted);
  report.Add("peak_rss_mb", peak_rss_mb, "MiB");
}

/// The client-side latency percentiles of the measured window, reported
/// with the per-layer metrics of a traced run.
void AddWindowLatencies(const Tally& tally, Report& report) {
  report.AddPercentiles("e2e.request_ms", tally.request_ms, "ms");
  report.AddPercentiles("e2e.first_member_ms", tally.first_member_ms, "ms");
  report.AddPercentiles("e2e.member_gap_ms", tally.member_gap_ms, "ms");
  report.AddPercentiles("e2e.decide_ms", tally.decide_ms, "ms");
  report.AddPercentiles("delta_ms", tally.delta_ms, "ms");
}

// ---------------------------------------------------------------------------
// The traced replay: one request list driven through the layers' public
// calls (Engine::Prepare, PreparedQuery::Enumerate/Decide,
// Enumeration::Next, Engine::FactToText, Engine::ApplyDelta), with a span
// around each call.
// ---------------------------------------------------------------------------

struct ReplayOp {
  enum class Kind { kEnumerate, kDecide, kDelta };
  Kind kind = Kind::kEnumerate;
  dl::FactId target = dl::kInvalidFact;
  std::string target_text;
  std::vector<dl::Fact> candidate;
  std::vector<std::string> candidate_text;  ///< wire workloads
  wp::DeltaRequest delta;
};

struct PlanInfo {
  double closure_ms = 0;
  double encode_ms = 0;
  double simplify_ms = 0;
  double closure_nodes = 0;
  double vars = 0;
  double clauses = 0;
  double clauses_before_simplify = 0;
};

struct ReplayTally {
  Samples enumerate_request_ms;
  Samples propagations;
  Samples conflicts;
  Samples decisions;
  std::size_t facts_rendered = 0;
  std::size_t deltas = 0;
  double delta_facts_touched = 0;
  double delta_facts_deleted = 0;
  double delta_facts_rederived = 0;
  std::size_t errors = 0;
  std::map<const void*, PlanInfo> plans;  ///< keyed by plan identity

  void Merge(const ReplayTally& other) {
    enumerate_request_ms.Append(other.enumerate_request_ms);
    propagations.Append(other.propagations);
    conflicts.Append(other.conflicts);
    decisions.Append(other.decisions);
    facts_rendered += other.facts_rendered;
    deltas += other.deltas;
    delta_facts_touched += other.delta_facts_touched;
    delta_facts_deleted += other.delta_facts_deleted;
    delta_facts_rederived += other.delta_facts_rederived;
    errors += other.errors;
    plans.insert(other.plans.begin(), other.plans.end());
  }
};

/// Replays `ops` on `engine` (deltas on `writable`, which may be null when
/// the list has none). `log` null = untraced pass.
void Replay(const wp::Engine& engine, wp::Engine* writable,
            const std::vector<ReplayOp>& ops, std::uint64_t request_base,
            SpanLog* log, ReplayTally& tally) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ReplayOp& op = ops[i];
    const std::uint64_t id = request_base + i;
    const Clock::time_point start = Clock::now();
    ScopedSpan request(log, "request", id);
    if (op.kind == ReplayOp::Kind::kDelta) {
      ScopedSpan span(log, "datalog.delta", id, request.index());
      auto stats = writable->ApplyDelta(op.delta);
      span.End();
      if (!stats.ok()) {
        ++tally.errors;
        continue;
      }
      span.Count("facts_touched", stats.value().facts_touched);
      span.Count("facts_deleted", stats.value().facts_deleted);
      span.Count("facts_rederived", stats.value().facts_rederived);
      span.Count("plans_invalidated", stats.value().plans_invalidated);
      ++tally.deltas;
      tally.delta_facts_touched += stats.value().facts_touched;
      tally.delta_facts_deleted += stats.value().facts_deleted;
      tally.delta_facts_rederived += stats.value().facts_rederived;
      continue;
    }

    wp::PrepareRequest prepare;
    prepare.target = op.target;
    prepare.target_text = op.target_text;
    ScopedSpan prepare_span(log, "engine.prepare", id, request.index());
    auto prepared = engine.Prepare(prepare);
    prepare_span.End();
    if (!prepared.ok()) {
      ++tally.errors;
      continue;
    }
    const wp::PreparedQuery& query = prepared.value();
    const wp::provenance::PlanTimings& timings = query.timings();
    prepare_span.Count("closure_ms", timings.closure_seconds * 1e3);
    prepare_span.Count("encode_ms", timings.encode_seconds * 1e3);
    prepare_span.Count("simplify_ms", timings.simplify_seconds * 1e3);
    if (log != nullptr && !tally.plans.contains(&query.formula())) {
      PlanInfo info;
      info.closure_ms = timings.closure_seconds * 1e3;
      info.encode_ms = timings.encode_seconds * 1e3;
      info.simplify_ms = timings.simplify_seconds * 1e3;
      info.closure_nodes = static_cast<double>(query.closure().nodes().size());
      info.vars = query.formula().num_vars;
      info.clauses = static_cast<double>(query.formula().num_clauses());
      info.clauses_before_simplify = static_cast<double>(
          query.encoding().num_clauses + query.encoding().acyclicity.clauses);
      tally.plans.emplace(&query.formula(), info);
    }

    if (op.kind == ReplayOp::Kind::kDecide) {
      wp::DecideRequest decide;
      decide.candidate = op.candidate;
      ScopedSpan span(log, "sat.decide", id, request.index());
      if (!query.Decide(decide).ok()) ++tally.errors;
      continue;
    }

    wp::EnumerateRequest enumerate;
    enumerate.max_members = kMemberCap;
    ScopedSpan load_span(log, "sat.load", id, request.index());
    auto enumeration = query.Enumerate(enumerate);
    load_span.End();
    if (!enumeration.ok()) {
      ++tally.errors;
      continue;
    }
    while (true) {
      ScopedSpan next_span(log, "sat.next", id, request.index());
      auto member = enumeration.value().Next();
      next_span.End();
      if (!member) break;
      ScopedSpan render_span(log, "engine.render", id, request.index());
      for (const dl::Fact& fact : *member) {
        const std::string text = engine.FactToText(fact);
        tally.facts_rendered += text.empty() ? 0 : 1;
      }
    }
    const wp::sat::SolverStats& stats = enumeration.value().solver().stats();
    request.Count("propagations", static_cast<double>(stats.propagations));
    request.Count("conflicts", static_cast<double>(stats.conflicts));
    request.Count("decisions", static_cast<double>(stats.decisions));
    request.End();
    tally.propagations.Add(static_cast<double>(stats.propagations));
    tally.conflicts.Add(static_cast<double>(stats.conflicts));
    tally.decisions.Add(static_cast<double>(stats.decisions));
    tally.enumerate_request_ms.Add(MillisBetween(start, Clock::now()));
  }
}

/// Replays one op list per thread, untraced then traced, and fills the
/// per-layer report. Returns the traced pass's summary.
struct ReplayOutcome {
  TraceSummary trace;
  ReplayTally tally;
  double overhead_frac = 0;
  wp::PlanCacheStats cache;  ///< traced pass only
};

ReplayOutcome ReplayLists(const wp::Engine& engine, wp::Engine* writable,
                          const std::vector<std::vector<ReplayOp>>& lists,
                          const std::string& dump_path) {
  ReplayOutcome outcome;
  auto run_pass = [&](bool traced, std::vector<std::unique_ptr<SpanLog>>& logs,
                      std::vector<ReplayTally>& tallies) {
    const Clock::time_point epoch = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < lists.size(); ++t) {
      logs.push_back(traced ? std::make_unique<SpanLog>(epoch) : nullptr);
    }
    tallies.resize(lists.size());
    for (std::size_t t = 0; t < lists.size(); ++t) {
      threads.emplace_back([&, t] {
        Replay(engine, writable, lists[t],
               static_cast<std::uint64_t>(t) << 40, logs[t].get(),
               tallies[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    return SecondsBetween(epoch, Clock::now());
  };

  std::vector<std::unique_ptr<SpanLog>> untraced_logs;
  std::vector<ReplayTally> untraced_tallies;
  const double untraced_s = run_pass(false, untraced_logs, untraced_tallies);

  const wp::PlanCacheStats before = engine.plan_cache_stats();
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<ReplayTally> tallies;
  const double traced_s = run_pass(true, logs, tallies);
  const wp::PlanCacheStats after = engine.plan_cache_stats();
  outcome.cache.hits = after.hits - before.hits;
  outcome.cache.misses = after.misses - before.misses;
  outcome.cache.evictions = after.evictions - before.evictions;
  outcome.cache.invalidated = after.invalidated - before.invalidated;

  for (const ReplayTally& tally : tallies) outcome.tally.Merge(tally);
  std::vector<const SpanLog*> views;
  for (const auto& log : logs) views.push_back(log.get());
  outcome.trace = AnalyseTrace(views, dump_path);
  outcome.overhead_frac = untraced_s > 0 ? traced_s / untraced_s - 1 : 0;
  return outcome;
}

/// The per-layer metrics that come from the traced replay.
void AddTraceMetrics(const ReplayOutcome& replay, Report& report) {
  const TraceSummary& trace = replay.trace;
  const ReplayTally& tally = replay.tally;
  auto durations = [&](const char* name) -> Samples {
    const LayerTotals* layer = trace.Find(name);
    return layer ? layer->duration_ms : Samples();
  };
  auto self_ms = [&](const char* name) {
    const LayerTotals* layer = trace.Find(name);
    return layer ? layer->self_ms : 0.0;
  };
  const double requests = std::max<double>(1, trace.requests);

  report.AddPercentiles("datalog.delta_ms", durations("datalog.delta"), "ms");
  report.Add("datalog.delta_facts_touched",
             tally.deltas ? tally.delta_facts_touched / tally.deltas : 0,
             "count", tally.deltas);
  report.Add("datalog.rederive_ratio",
             tally.delta_facts_deleted > 0
                 ? tally.delta_facts_rederived / tally.delta_facts_deleted
                 : 0,
             "fraction", tally.deltas);
  report.AddPercentiles("engine.prepare_ms", durations("engine.prepare"), "ms");
  const double lookups =
      static_cast<double>(replay.cache.hits + replay.cache.misses);
  report.Add("plan_cache.hit_ratio",
             lookups > 0 ? static_cast<double>(replay.cache.hits) / lookups : 0,
             "fraction");
  report.Add("plan_cache.misses", static_cast<double>(replay.cache.misses),
             "count");
  report.Add("plan_cache.evictions",
             static_cast<double>(replay.cache.evictions), "count");
  report.Add("plan_cache.invalidations",
             static_cast<double>(replay.cache.invalidated), "count");
  report.Add("engine.render_us",
             tally.facts_rendered
                 ? self_ms("engine.render") * 1e3 / tally.facts_rendered
                 : 0,
             "us", tally.facts_rendered);

  PlanInfo mean;
  for (const auto& [key, info] : tally.plans) {
    mean.closure_ms += info.closure_ms;
    mean.encode_ms += info.encode_ms;
    mean.simplify_ms += info.simplify_ms;
    mean.closure_nodes += info.closure_nodes;
    mean.vars += info.vars;
    mean.clauses += info.clauses;
    mean.clauses_before_simplify += info.clauses_before_simplify;
  }
  const std::size_t plans = tally.plans.size();
  const double per_plan = plans ? 1.0 / static_cast<double>(plans) : 0;
  report.Add("plan.closure_ms", mean.closure_ms * per_plan, "ms", plans);
  report.Add("plan.closure_nodes", mean.closure_nodes * per_plan, "count",
             plans);
  report.Add("plan.encode_ms", mean.encode_ms * per_plan, "ms", plans);
  report.Add("plan.vars", mean.vars * per_plan, "count", plans);
  report.Add("plan.clauses", mean.clauses * per_plan, "count", plans);
  report.Add("plan.simplify_ms", mean.simplify_ms * per_plan, "ms", plans);
  report.Add("plan.simplify_clause_ratio",
             mean.clauses_before_simplify > 0
                 ? mean.clauses / mean.clauses_before_simplify
                 : 0,
             "fraction", plans);

  report.Add("sat.load_ms", durations("sat.load").Quantile(0.5), "ms",
             durations("sat.load").size());
  report.AddPercentiles("sat.next_ms", durations("sat.next"), "ms");
  report.AddPercentiles("sat.decide_ms", durations("sat.decide"), "ms");
  report.Add("sat.propagations", tally.propagations.Mean(), "count",
             tally.propagations.size());
  report.Add("sat.conflicts", tally.conflicts.Mean(), "count",
             tally.conflicts.size());
  report.Add("sat.decisions", tally.decisions.Mean(), "count",
             tally.decisions.size());
  const double search_s = (self_ms("sat.load") + self_ms("sat.next")) / 1e3;
  report.Add("sat.propagations_per_s",
             search_s > 0 ? tally.propagations.Sum() / search_s : 0, "1/s");

  for (const char* name : {"request", "engine.prepare", "sat.load", "sat.next",
                           "sat.decide", "engine.render", "datalog.delta"}) {
    report.Add(std::string("self_ms.") + name, self_ms(name) / requests, "ms",
               trace.requests);
  }
  report.Add("trace.sat_share", trace.SelfShare("sat."), "fraction");
  report.Add("trace.prepare_share", trace.SelfShare("engine.prepare"),
             "fraction");
  report.Add("trace.overhead_frac", replay.overhead_frac, "fraction");
}

/// The dominant-layer and span-consistency checks of a traced run. The
/// dominant-layer claims are about the full-scale inputs, so a tiny run
/// only reports the shares.
void CheckTrace(const RunConfig& config, const ReplayOutcome& replay,
                RunResult& result) {
  const std::string& workload = config.workload;
  const TraceSummary& trace = replay.trace;
  if (trace.malformed != 0) {
    result.errors.push_back("trace: spans outside their parent");
  }
  // Self times partition each request span up to clock rounding.
  if (trace.max_self_sum_error_us > 1.0) {
    result.errors.push_back("trace: self times do not sum to the request");
  }
  if (replay.tally.errors != 0) {
    result.errors.push_back("trace: replayed requests failed");
  }
  const double sat = trace.SelfShare("sat.");
  const double prepare = trace.SelfShare("engine.prepare");
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace: sat.* self share %.3f, engine.prepare self share %.3f",
                sat, prepare);
  result.notes.push_back(line);
  if (config.tiny) return;
  if (workload == "hot-search" && !(sat > 0.5)) {
    result.errors.push_back("trace: sat.* is not the majority on hot-search");
  }
  if (workload == "cold-plan" && !(prepare > 0.5)) {
    result.errors.push_back(
        "trace: engine.prepare is not the majority on cold-plan");
  }
  if (workload == "mixed-wire" && !(sat < 0.1)) {
    result.errors.push_back("trace: sat.* is not under a tenth on mixed-wire");
  }
}

void CheckOracle(const wp::Engine& oracle, const Observations& observed,
                 RunResult& result) {
  OracleReport report =
      CheckWithOracle(oracle, observed, kMemberCap, OracleThreads());
  char line[200];
  std::snprintf(line, sizeof(line),
                "oracle: %zu targets, %zu (target, member) pairs, %zu "
                "exhausted families, %zu decide verdicts, %zu CDCL "
                "fallbacks, %zu errors",
                report.targets, report.pairs, report.families, report.decides,
                report.fallbacks, report.errors.size());
  result.notes.push_back(line);
  if (report.pairs == 0) result.errors.push_back("oracle: nothing checked");
  for (std::size_t i = 0; i < report.errors.size() && i < 10; ++i) {
    result.errors.push_back("oracle: " + report.errors[i]);
  }
  if (report.errors.size() > 10) {
    result.errors.push_back("oracle: ... and " +
                            std::to_string(report.errors.size() - 10) +
                            " more");
  }
}

/// Self-test hook: replaces one served member by the empty set, which
/// is never a member of a derived fact's family.
void CorruptOneMember(Observations& observed) {
  for (EnumerateObservation& request : observed.enumerations) {
    if (!request.members.empty()) {
      request.members.front().clear();
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// hot-search and cold-plan: a closed loop of clients on the
// in-process Service over a TransClosure graph.
// ---------------------------------------------------------------------------

struct GraphParams {
  wp::scenarios::GraphKind kind;
  std::size_t nodes;
  std::size_t edges;
  bool hot;                 ///< warmed fixed target set vs fresh answers
  std::size_t hot_targets;  ///< hot-search: sampled answers, all warmed
  double read_limit_ms;     ///< slo_attainment limit
  std::size_t clients;      ///< closed-loop client threads
  std::size_t workers;      ///< serving worker threads
  std::size_t cpus;         ///< CPUs the clients and workers share
};

GraphParams GraphParamsFor(const RunConfig& config) {
  const bool hot = config.workload == "hot-search";
  if (hot) {
    return config.tiny ? GraphParams{wp::scenarios::GraphKind::kSocial, 24,
                                     60, true, 8, 100, 2, 2, 2}
                       : GraphParams{wp::scenarios::GraphKind::kSocial, 96,
                                     300, true, 48, 100, 2, 2, 2};
  }
  return config.tiny ? GraphParams{wp::scenarios::GraphKind::kSparse, 300,
                                   450, false, 0, 10, 1, 1, 1}
                     : GraphParams{wp::scenarios::GraphKind::kSparse, 3000,
                                   4500, false, 0, 10, 1, 1, 1};
}

/// Raw served outputs (ids of the serving engine), rendered to text after
/// the window so rendering costs nothing inside it. Members are stored
/// flat — per member its fact count, then per fact (predicate, arity,
/// args...) — so a window's outputs cost little memory next to the
/// stack's own (peak_rss_mb measures the whole process).
struct RawEnumerate {
  dl::FactId target = dl::kInvalidFact;
  bool exhausted = false;
  std::size_t members = 0;
  std::vector<std::uint32_t> words;

  void AddMember(const std::vector<dl::Fact>& member) {
    ++members;
    words.push_back(static_cast<std::uint32_t>(member.size()));
    for (const dl::Fact& fact : member) {
      words.push_back(fact.predicate);
      words.push_back(static_cast<std::uint32_t>(fact.args.size()));
      words.insert(words.end(), fact.args.begin(), fact.args.end());
    }
  }

  std::vector<std::vector<dl::Fact>> Members() const {
    std::vector<std::vector<dl::Fact>> decoded;
    std::size_t at = 0;
    for (std::size_t m = 0; m < members; ++m) {
      std::vector<dl::Fact>& member = decoded.emplace_back();
      for (std::uint32_t f = words[at++]; f > 0; --f) {
        dl::Fact& fact = member.emplace_back();
        fact.predicate = words[at++];
        const std::uint32_t arity = words[at++];
        fact.args.assign(words.begin() + at, words.begin() + at + arity);
        at += arity;
      }
    }
    return decoded;
  }
};
struct RawDecide {
  dl::FactId target;
  std::vector<dl::Fact> candidate;
  bool verdict;
};
struct ClientRecord {
  Tally tally;
  std::string first_failure;

  void Fail(const wp::util::Status& status) {
    if (tally.failed++ == 0) first_failure = status.message();
  }
  std::vector<RawEnumerate> enumerations;
  std::vector<RawDecide> decides;
  std::vector<ReplayOp> ops;
  Clock::time_point last_completion;
};

/// The edge graph of a TransClosure database, for shortest-path Decide
/// candidates on cold-plan.
class EdgeGraph {
 public:
  explicit EdgeGraph(const dl::Database& database) {
    for (const dl::Fact& fact : database.facts()) {
      if (fact.args.size() != 2) continue;
      out_[fact.args[0]].push_back(&fact);
    }
  }

  /// Edges of a shortest path from `from` to `to` (empty if none).
  std::vector<dl::Fact> ShortestPath(dl::SymbolId from, dl::SymbolId to) const {
    std::unordered_map<dl::SymbolId, const dl::Fact*> via;
    std::deque<dl::SymbolId> frontier = {from};
    via[from] = nullptr;
    while (!frontier.empty() && !via.contains(to)) {
      const dl::SymbolId node = frontier.front();
      frontier.pop_front();
      auto it = out_.find(node);
      if (it == out_.end()) continue;
      for (const dl::Fact* edge : it->second) {
        if (via.try_emplace(edge->args[1], edge).second) {
          frontier.push_back(edge->args[1]);
        }
      }
    }
    std::vector<dl::Fact> path;
    if (!via.contains(to) || from == to) return path;
    for (dl::SymbolId node = to; node != from;) {
      const dl::Fact* edge = via.at(node);
      path.push_back(*edge);
      node = edge->args[0];
    }
    return path;
  }

 private:
  std::unordered_map<dl::SymbolId, std::vector<const dl::Fact*>> out_;
};

RunResult RunGraphWorkload(const RunConfig& config) {
  RunResult result;
  const GraphParams params = GraphParamsFor(config);

  // --- set-up, kSetupReps times; the last stack serves the window.
  std::vector<double> setup_times;
  std::vector<double> eval_times;
  std::optional<wp::scenarios::GeneratedScenario> scenario;
  std::unique_ptr<wp::Service> service;
  std::vector<dl::FactId> targets;
  std::vector<std::vector<dl::Fact>> warm_members;
  std::vector<RawEnumerate> warm_raw;
  // hot-search's target set is instance data, chosen once and untimed: a
  // sampled answer whose 16 members need more than kScreenConflicts
  // conflicts is left out and counted in hot.slow_targets. One such
  // request would hold a client for the whole window, and a deadline does
  // not stop its search promptly. A conflict budget does, deterministically.
  std::vector<std::string> hot_set;
  std::size_t slow_targets = 0;
  if (params.hot) {
    Progress("screening the hot set");
    const wp::scenarios::GeneratedScenario instance =
        wp::scenarios::MakeTransClosure(params.kind, params.nodes,
                                        params.edges, kInstanceSeed);
    wp::EngineOptions screen_options;
    screen_options.sampling_seed = kInstanceSeed;
    screen_options.solver.conflict_budget = kScreenConflicts;
    const wp::Engine screen = instance.MakeEngine(screen_options);
    for (dl::FactId target : screen.SampleAnswers(2 * params.hot_targets)) {
      if (hot_set.size() == params.hot_targets) break;
      wp::EnumerateRequest request;
      request.target = target;
      request.max_members = kMemberCap;
      auto enumeration = screen.Enumerate(request);
      if (!enumeration.ok()) continue;
      while (enumeration.value().Next()) {
      }
      if (enumeration.value().incomplete()) {
        ++slow_targets;
      } else {
        hot_set.push_back(screen.FactToText(target));
      }
    }
  }
  Progress("set-up");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    warm_raw.clear();
    warm_members.clear();
    const Clock::time_point start = Clock::now();
    scenario = wp::scenarios::MakeTransClosure(params.kind, params.nodes,
                                               params.edges, kInstanceSeed);
    const Clock::time_point eval_start = Clock::now();
    wp::Engine engine = scenario->MakeEngine();
    eval_times.push_back(SecondsBetween(eval_start, Clock::now()));
    wp::ServiceOptions service_options;
    service_options.num_threads = params.workers;
    {
      const CpuPin pin(params.cpus);  // the workers inherit it
      service = std::make_unique<wp::Service>(std::move(engine),
                                              service_options);
    }
    if (params.hot) {
      targets.clear();
      for (const std::string& text : hot_set) {
        auto id = service->engine().FactIdOf(text);
        if (!id.ok()) {
          result.errors.push_back("hot target lost: " + text);
          return result;
        }
        targets.push_back(id.value());
      }
      // Warm every plan; the first member of each target seeds Decides.
      for (dl::FactId target : targets) {
        wp::EnumerateRequest request;
        request.target = target;
        request.max_members = kMemberCap;
        auto stream = service->Stream(request, kMemberCap);
        if (!stream.ok()) {
          result.errors.push_back("warm-up refused: " +
                                  stream.status().message());
          return result;
        }
        RawEnumerate raw;
        raw.target = target;
        std::vector<dl::Fact> first_member;
        while (auto member = stream.value().second->Pop()) {
          if (raw.members == 0) first_member = *member;
          raw.AddMember(*member);
        }
        const wp::Response& response = stream.value().first.Wait();
        raw.exhausted = response.exhausted;
        warm_members.push_back(std::move(first_member));
        warm_raw.push_back(std::move(raw));
      }
    } else {
      targets = service->engine().AnswerFactIds();
      wp::util::Rng rng(config.seed);
      for (std::size_t i = targets.size(); i > 1; --i) {
        std::swap(targets[i - 1], targets[rng.UniformInt(i)]);
      }
    }
    setup_times.push_back(SecondsBetween(start, Clock::now()));
  }
  Progress("window");
  const wp::Engine& engine = service->engine();
  const EdgeGraph graph(scenario->database);
  if (targets.empty()) {
    result.errors.push_back("the generated model has no answers");
    return result;
  }

  // --- the measured window: closed-loop clients.
  const double window_s = config.trace ? config.seconds / 3 : config.seconds;
  std::vector<ClientRecord> records(params.clients);
  std::atomic<std::size_t> next_fresh{0};
  const wp::PlanCacheStats cache_before = engine.plan_cache_stats();
  const Clock::time_point window_start = Clock::now();
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(window_s));
  auto client = [&](std::size_t c) {
    ClientRecord& record = records[c];
    // hot-search cycles through its own seeded order of the target set:
    // every target gets the same share of requests, so a run's cost does
    // not hinge on how often the draw happened to hit the few targets
    // whose members are hard to find.
    wp::util::Rng rng(config.seed * 1000003 + c + 1);
    std::vector<std::size_t> order(targets.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
    for (std::size_t i = 0; Clock::now() < window_end; ++i) {
      ReplayOp op;
      // Of every 4 requests the 4th decides; decides alternate between a
      // member and that member minus one fact.
      const bool decide = i % 4 == 3;
      const std::size_t decides = i / 4;  // decides before this request
      const bool true_variant = decides % 2 == 0;
      if (params.hot) {
        // Enumerations and decides each walk the whole order; a decide
        // target gets both variants in turn.
        const std::size_t index =
            order[(decide ? decides / 2 : i - decides) % order.size()];
        op.target = targets[index];
        if (decide) op.candidate = warm_members[index];
      } else {
        op.target = targets[next_fresh++ % targets.size()];
        if (decide) {
          const dl::Fact& fact = engine.model().fact(op.target);
          op.candidate = graph.ShortestPath(fact.args[0], fact.args[1]);
        }
      }
      if (decide && !true_variant && !op.candidate.empty()) {
        op.candidate.pop_back();
      }
      op.kind = decide ? ReplayOp::Kind::kDecide : ReplayOp::Kind::kEnumerate;
      ++record.tally.attempted;
      const Clock::time_point start = Clock::now();
      if (decide) {
        wp::DecideRequest decide_request;
        decide_request.target = op.target;
        decide_request.candidate = op.candidate;
        wp::Request request;
        request.op = std::move(decide_request);
        request.deadline_seconds = kRequestDeadlineS;
        auto ticket = service->Submit(std::move(request));
        wp::util::Status status = ticket.status();
        if (ticket.ok()) {
          const wp::Response& response = ticket.value().Wait();
          status = response.status;
          if (status.ok()) {
            record.decides.push_back({op.target, op.candidate, response.member});
          }
          record.tally.queue_ms.Add(response.queue_seconds * 1e3);
          record.tally.exec_ms.Add(response.exec_seconds * 1e3);
        }
        const double ms = MillisBetween(start, Clock::now());
        record.tally.decide_ms.Add(ms);
        record.tally.AddRead(ms, status.ok(), params.read_limit_ms);
        if (!status.ok()) record.Fail(status);
      } else {
        wp::EnumerateRequest request;
        request.target = op.target;
        request.max_members = kMemberCap;
        auto stream = service->Stream(request, kMemberCap, kRequestDeadlineS);
        wp::util::Status status = stream.status();
        RawEnumerate raw;
        raw.target = op.target;
        if (stream.ok()) {
          Clock::time_point previous = start;
          while (auto member = stream.value().second->Pop()) {
            const Clock::time_point now = Clock::now();
            (raw.members == 0 ? record.tally.first_member_ms
                              : record.tally.member_gap_ms)
                .Add(MillisBetween(previous, now));
            previous = now;
            raw.AddMember(*member);
          }
          const wp::Response& response = stream.value().first.Wait();
          status = response.status;
          raw.exhausted = response.exhausted;
          record.tally.queue_ms.Add(response.queue_seconds * 1e3);
          record.tally.exec_ms.Add(response.exec_seconds * 1e3);
        }
        record.tally.AddRead(MillisBetween(start, Clock::now()), status.ok(),
                             params.read_limit_ms);
        if (status.ok()) {
          record.enumerations.push_back(std::move(raw));
        } else {
          record.Fail(status);
        }
      }
      record.last_completion = Clock::now();
      record.ops.push_back(std::move(op));
    }
  };
  std::vector<std::thread> threads;
  {
    const CpuPin pin(params.cpus);  // the clients inherit it
    for (std::size_t c = 0; c < params.clients; ++c) {
      threads.emplace_back(client, c);
    }
  }
  for (std::thread& thread : threads) thread.join();
  const double peak_rss_mb = PeakRssMb();

  Tally tally;
  Clock::time_point last = window_start;
  for (const ClientRecord& record : records) {
    tally.Merge(record.tally);
    last = std::max(last, record.last_completion);
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  for (const ClientRecord& record : records) {
    if (!record.first_failure.empty()) {
      result.notes.push_back("a failure: " + record.first_failure);
    }
  }
  AddEndToEnd(tally, SecondsBetween(window_start, last), Median(setup_times),
              peak_rss_mb, result.end_to_end);
  const wp::PlanCacheStats cache_after = engine.plan_cache_stats();
  char line[200];
  std::snprintf(line, sizeof(line),
                "window: %llu requests, plan cache %zu hits / %zu misses",
                static_cast<unsigned long long>(tally.attempted),
                cache_after.hits - cache_before.hits,
                cache_after.misses - cache_before.misses);
  result.notes.push_back(line);
  if (slow_targets > 0) {
    result.notes.push_back(std::to_string(slow_targets) +
                           " sampled answer(s) exceeded the screen's conflict "
                           "budget and were left out");
  }

  // --- traced replay of the same request lists.
  if (config.trace) {
    Progress("traced replay");
    std::vector<std::vector<ReplayOp>> lists;
    for (const ClientRecord& record : records) lists.push_back(record.ops);
    const ReplayOutcome replay =
        ReplayLists(engine, nullptr, lists,
                    config.work_dir + "/trace-" + config.workload + ".jsonl");
    Report& report = result.per_layer;
    report.Add("datalog.eval_s", Median(eval_times), "s", kSetupReps);
    report.Add("hot.slow_targets", static_cast<double>(slow_targets),
               "count");
    AddTraceMetrics(replay, report);
    report.AddPercentiles("service.queue_ms", tally.queue_ms, "ms");
    report.AddPercentiles("service.exec_ms", tally.exec_ms, "ms");
    report.Add("service.rejected",
               static_cast<double>(service->stats().rejected), "count");
    AddWindowLatencies(tally, report);
    report.Add("wal.appends", 0, "count");
    report.Add("wal.bytes_per_delta", 0, "B");
    report.Add("storage.checkpoints", 0, "count");
    report.Add("net.overhead_ms.p50", 0, "ms");
    report.Add("loadgen.lag_ms.p99", 0, "ms");
    CheckTrace(config, replay, result);
  }

  // --- correctness: every served output against the oracle.
  Observations observed;
  auto add_enumeration = [&](const RawEnumerate& raw) {
    EnumerateObservation observation;
    observation.target = engine.FactToText(raw.target);
    for (const auto& member : raw.Members()) {
      observation.members.push_back(RenderMember(engine, member));
    }
    observation.exhausted = raw.exhausted;
    observed.enumerations.push_back(std::move(observation));
  };
  for (const RawEnumerate& raw : warm_raw) add_enumeration(raw);
  for (const ClientRecord& record : records) {
    for (const RawEnumerate& raw : record.enumerations) add_enumeration(raw);
    for (const RawDecide& raw : record.decides) {
      observed.decides.push_back({engine.FactToText(raw.target),
                                  RenderMember(engine, raw.candidate),
                                  raw.verdict, 0});
    }
  }
  if (config.corrupt_member) CorruptOneMember(observed);
  records.clear();
  Progress("oracle");
  const wp::Engine oracle = scenario->MakeEngine(OracleOptions());
  CheckOracle(oracle, observed, result);
  return result;
}

// ---------------------------------------------------------------------------
// mixed-wire: an open loop at a fixed Poisson rate over loopback TCP to
// net::Server on the C ABI service, durable, serving Andersen.
// ---------------------------------------------------------------------------

struct WireParams {
  std::size_t statements;
  double rate_per_s;          ///< offered Poisson rate
  double read_limit_ms;       ///< slo_attainment limit
  std::size_t decide_targets; ///< most popular answers that get Decides
  std::size_t delta_facts;    ///< seeded database facts the deltas toggle
};

WireParams WireParamsFor(const RunConfig& config) {
  return config.tiny ? WireParams{400, 200, 20, 16, 4}
                     : WireParams{8000, 400, 20, 64, 16};
}

/// Sleeps until shortly before `due`, then spins: a sleeping generator
/// wakes late by up to milliseconds on a virtual machine, and a busy one
/// also keeps the machine's cores from idling between requests.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
  while (Clock::now() < due) {
  }
}

/// A request the sender put on the wire, awaiting its final frame.
struct Pending {
  std::uint64_t id = 0;
  ReplayOp::Kind kind = ReplayOp::Kind::kEnumerate;
  std::string target;
  std::vector<std::string> candidate;
  std::string fact;     ///< delta: the toggled fact
  bool remove = false;  ///< delta: remove (else restore) `fact`
  Clock::time_point due;
};

/// A delta as executed: the model version it produced and whether it
/// changed the database. Pipelined deltas may execute out of submission
/// order (the server answers in order but runs requests concurrently),
/// so which versions hold the generated database is worked out from
/// these records, not from submission order.
struct DeltaRecord {
  std::uint64_t version = 0;
  std::string fact;
  bool remove = false;
  bool effective = false;
};

/// The model versions in [0, `last`] at which no toggled fact was missing,
/// i.e. the database was the generated one.
std::vector<bool> GeneratedVersions(std::vector<DeltaRecord> deltas,
                                    std::uint64_t last) {
  std::sort(deltas.begin(), deltas.end(),
            [](const DeltaRecord& a, const DeltaRecord& b) {
              return a.version < b.version;
            });
  std::vector<bool> generated(last + 1, false);
  std::map<std::string, bool> missing;
  std::size_t missing_count = 0;
  std::size_t next = 0;
  for (std::uint64_t version = 0; version <= last; ++version) {
    for (; next < deltas.size() && deltas[next].version == version; ++next) {
      const DeltaRecord& delta = deltas[next];
      if (!delta.effective) continue;
      bool& gone = missing[delta.fact];
      if (gone != delta.remove) {
        missing_count += delta.remove ? 1 : -1;
        gone = delta.remove;
      }
    }
    generated[version] = missing_count == 0;
  }
  return generated;
}

/// Sender -> receiver hand-off (one connection, responses in order).
class PendingQueue {
 public:
  void Push(Pending pending) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  std::optional<Pending> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    return pending;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
};

/// A served C ABI stack behind net::Server; destroys both in order.
struct WireStack {
  whyprov_service* service = nullptr;
  std::unique_ptr<wp::net::Server> server;

  WireStack() = default;
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;
  ~WireStack() { Reset(); }
  void Reset() {
    if (server) server->Stop();
    server.reset();
    whyprov_service_destroy(service);
    service = nullptr;
  }
};

RunResult RunMixedWire(const RunConfig& config) {
  RunResult result;
  const WireParams params = WireParamsFor(config);
  namespace fs = std::filesystem;

  // The oracle doubles as the remote caller's knowledge of the data: the
  // answer texts to request, Decide candidates, and facts to toggle.
  const wp::scenarios::GeneratedScenario oracle_inputs =
      wp::scenarios::MakeAndersen(params.statements, kInstanceSeed);
  const wp::Engine oracle = oracle_inputs.MakeEngine(OracleOptions());
  const std::vector<std::string> answers = AnswerTexts(oracle);
  if (answers.empty()) {
    result.errors.push_back("the generated model has no answers");
    return result;
  }
  wp::util::Rng rng(kInstanceSeed);  // popularity order and toggled facts
  std::vector<std::string> by_popularity = answers;
  for (std::size_t i = by_popularity.size(); i > 1; --i) {
    std::swap(by_popularity[i - 1], by_popularity[rng.UniformInt(i)]);
  }
  std::vector<double> zipf_cdf(by_popularity.size());
  double mass = 0;
  for (std::size_t r = 0; r < zipf_cdf.size(); ++r) {
    mass += 1.0 / static_cast<double>(r + 1);
    zipf_cdf[r] = mass;
  }
  auto zipf = [&](wp::util::Rng& stream, std::size_t limit) {
    const double u = stream.UniformDouble() * zipf_cdf[limit - 1];
    return static_cast<std::size_t>(
        std::upper_bound(zipf_cdf.begin(), zipf_cdf.begin() + limit, u) -
        zipf_cdf.begin());
  };
  const std::size_t decide_targets =
      std::min(params.decide_targets, by_popularity.size());
  std::vector<std::vector<std::string>> decide_members(decide_targets);
  for (std::size_t r = 0; r < decide_targets; ++r) {
    wp::EnumerateRequest request;
    request.target_text = by_popularity[r];
    request.max_members = 1;
    auto enumeration = oracle.Enumerate(request);
    if (enumeration.ok()) {
      if (auto member = enumeration.value().Next()) {
        decide_members[r] = RenderMember(oracle, *member);
      }
    }
  }
  // Toggled facts: seeded database facts whose removal leaves every answer
  // derivable, so no read fails while one is removed. Each candidate is
  // tried on a throwaway engine: removed, answers counted, restored.
  std::vector<std::string> toggled;
  {
    wp::Engine probe = oracle_inputs.MakeEngine(OracleOptions());
    const std::vector<dl::Fact>& database = oracle_inputs.database.facts();
    for (std::size_t tries = 0;
         toggled.size() < params.delta_facts && tries < 64 * params.delta_facts;
         ++tries) {
      const std::string fact =
          probe.FactToText(database[rng.UniformInt(database.size())]);
      if (std::find(toggled.begin(), toggled.end(), fact) != toggled.end()) {
        continue;
      }
      wp::DeltaRequest remove;
      remove.removed_fact_texts = {fact};
      wp::DeltaRequest restore;
      restore.added_fact_texts = {fact};
      const bool removed = probe.ApplyDelta(remove).ok();
      if (removed && probe.AnswerFactIds().size() == answers.size()) {
        toggled.push_back(fact);
      }
      if (removed && !probe.ApplyDelta(restore).ok()) break;
    }
  }
  if (toggled.size() < params.delta_facts) {
    result.errors.push_back("too few database facts can be toggled");
    return result;
  }

  // --- set-up, kSetupReps times, each on a fresh data_dir.
  Progress("set-up");
  std::vector<double> setup_times;
  WireStack stack;
  std::optional<wp::scenarios::GeneratedScenario> scenario;
  std::string data_dir;
  std::optional<wp::net::Client> connection;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    connection.reset();
    stack.Reset();
    if (!data_dir.empty()) fs::remove_all(data_dir);
    data_dir = config.work_dir + "/mixed-wire-data-" + std::to_string(rep);
    fs::remove_all(data_dir);
    fs::create_directories(data_dir);
    const Clock::time_point start = Clock::now();
    scenario = wp::scenarios::MakeAndersen(params.statements, kInstanceSeed);
    whyprov_options options;
    whyprov_options_init(&options);
    options.num_threads = kWorkers;
    options.data_dir = data_dir.c_str();
    options.wal_fsync = 0;  // the default: the WAL is written, not synced
    char error[256] = {0};
    if (whyprov_service_create(scenario->program.ToString().c_str(),
                               scenario->database.ToString().c_str(),
                               scenario->answer_predicate.c_str(), &options,
                               &stack.service, error,
                               sizeof(error)) != WHYPROV_OK) {
      result.errors.push_back(std::string("cannot create service: ") + error);
      return result;
    }
    stack.server = std::make_unique<wp::net::Server>(stack.service);
    if (!stack.server->Start(0).ok()) {
      result.errors.push_back("cannot start the server");
      return result;
    }
    auto client = wp::net::Client::Connect("127.0.0.1", stack.server->port());
    if (!client.ok()) {
      result.errors.push_back("cannot connect to the server");
      return result;
    }
    connection = std::move(client).value();
    setup_times.push_back(SecondsBetween(start, Clock::now()));
  }

  // --- the measured window: open loop, one pipelined connection driven
  // by a sender thread and a receiver thread.
  Progress("window");
  const double window_s = config.trace ? config.seconds / 3 : config.seconds;
  Tally tally;
  Samples lag_ms;
  Samples enumerate_wire_ms;
  std::vector<ReplayOp> ops;
  std::vector<EnumerateObservation> enumerations;
  std::vector<DecideObservation> decides;
  std::vector<DeltaRecord> deltas;
  std::size_t deltas_sent = 0;
  std::atomic<bool> connection_failed{false};
  PendingQueue queue;
  wp::net::Client& wire = *connection;
  const Clock::time_point window_start = Clock::now();
  Clock::time_point last_completion = window_start;

  std::thread receiver([&] {
    while (auto pending = queue.Pop()) {
      EnumerateObservation observation;
      Clock::time_point previous = pending->due;
      auto on_member = [&](const std::vector<std::string>& member) {
        const Clock::time_point now = Clock::now();
        (observation.members.empty() ? tally.first_member_ms
                                     : tally.member_gap_ms)
            .Add(MillisBetween(previous, now));
        previous = now;
        std::vector<std::string> sorted = member;
        std::sort(sorted.begin(), sorted.end());
        observation.members.push_back(std::move(sorted));
        return true;
      };
      auto outcome = connection_failed
                         ? wp::util::Result<wp::net::Outcome>(
                               wp::util::Status::Error("connection failed"))
                         : wire.AwaitFinal(pending->id, on_member);
      const Clock::time_point done = Clock::now();
      last_completion = done;
      const double ms = MillisBetween(pending->due, done);
      if (!outcome.ok()) connection_failed = true;
      const bool ok = outcome.ok() && outcome.value().ok();
      if (!ok) {
        if (tally.failed++ == 0) {
          result.notes.push_back(
              "first failure: " +
              (outcome.ok() ? outcome.value().final.status_message
                            : outcome.status().message()));
        }
      }
      switch (pending->kind) {
        case ReplayOp::Kind::kEnumerate:
          tally.AddRead(ms, ok, params.read_limit_ms);
          enumerate_wire_ms.Add(ms);
          if (ok) {
            observation.target = pending->target;
            observation.exhausted =
                (outcome.value().final.enumerate_flags &
                 WHYPROV_ENUM_EXHAUSTED) != 0;
            observation.model_version = outcome.value().final.model_version;
            enumerations.push_back(std::move(observation));
          }
          break;
        case ReplayOp::Kind::kDecide:
          tally.AddRead(ms, ok, params.read_limit_ms);
          tally.decide_ms.Add(ms);
          if (ok) {
            decides.push_back({pending->target, pending->candidate,
                               outcome.value().final.verdict != 0,
                               outcome.value().final.model_version});
          }
          break;
        case ReplayOp::Kind::kDelta:
          tally.delta_ms.Add(ms);
          if (ok && outcome.value().final.has_delta) {
            const whyprov_delta_stats& stats = outcome.value().final.delta;
            deltas.push_back(
                {stats.model_version, pending->fact, pending->remove,
                 (pending->remove ? stats.facts_removed : stats.facts_added) >
                     0});
          }
          break;
      }
    }
  });

  // The sender: Poisson arrivals, 80 % streamed enumerations over
  // Zipf-popular answers, 15 % decides, 5 % deltas that remove one seeded
  // database fact and restore it on the next delta.
  wp::util::Rng schedule(config.seed * 7919 + 17);
  double due_s = 0;
  while (!connection_failed) {
    due_s += -std::log(1.0 - schedule.UniformDouble()) / params.rate_per_s;
    if (due_s >= window_s) break;
    const Clock::time_point due =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_s));
    const double pick = schedule.UniformDouble();
    Pending pending;
    pending.id = wire.NextRequestId();
    pending.due = due;
    ReplayOp op;
    wp::util::Status sent;
    if (pick < 0.80) {
      pending.kind = ReplayOp::Kind::kEnumerate;
      pending.target = by_popularity[zipf(schedule, by_popularity.size())];
      op.target_text = pending.target;
      WaitUntil(due);
      lag_ms.Add(MillisBetween(due, Clock::now()));
      wp::net::EnumerateFrame frame;
      frame.request_id = pending.id;
      frame.target = pending.target;
      frame.max_members = kMemberCap;
      frame.stream = 1;
      frame.batch_size = 1;
      frame.deadline_seconds = kRequestDeadlineS;
      queue.Push(pending);
      sent = wire.Send(frame);
    } else if (pick < 0.95) {
      pending.kind = ReplayOp::Kind::kDecide;
      op.kind = ReplayOp::Kind::kDecide;
      const std::size_t rank = zipf(schedule, decide_targets);
      pending.target = by_popularity[rank];
      pending.candidate = decide_members[rank];
      if (schedule.UniformInt(2) == 1 && !pending.candidate.empty()) {
        pending.candidate.pop_back();
      }
      op.target_text = pending.target;
      op.candidate_text = pending.candidate;
      WaitUntil(due);
      lag_ms.Add(MillisBetween(due, Clock::now()));
      wp::net::DecideFrame frame;
      frame.request_id = pending.id;
      frame.target = pending.target;
      frame.candidate_facts = pending.candidate;
      frame.deadline_seconds = kRequestDeadlineS;
      queue.Push(pending);
      sent = wire.Send(frame);
    } else {
      pending.kind = ReplayOp::Kind::kDelta;
      op.kind = ReplayOp::Kind::kDelta;
      const std::string& fact = toggled[(deltas_sent / 2) % toggled.size()];
      wp::net::DeltaFrame frame;
      frame.request_id = pending.id;
      frame.deadline_seconds = kRequestDeadlineS;
      pending.fact = fact;
      pending.remove = deltas_sent % 2 == 0;
      if (pending.remove) {
        frame.removed_facts = {fact};
        op.delta.removed_fact_texts = {fact};
      } else {
        frame.added_facts = {fact};
        op.delta.added_fact_texts = {fact};
      }
      ++deltas_sent;
      WaitUntil(due);
      lag_ms.Add(MillisBetween(due, Clock::now()));
      queue.Push(pending);
      sent = wire.Send(frame);
    }
    ++tally.attempted;
    ops.push_back(std::move(op));
    if (!sent.ok()) connection_failed = true;
  }
  queue.Close();
  receiver.join();
  const double peak_rss_mb = PeakRssMb();
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  if (connection_failed) result.errors.push_back("the connection failed");
  AddEndToEnd(tally, SecondsBetween(window_start, last_completion),
              Median(setup_times), peak_rss_mb, result.end_to_end);

  // Leave the database as generated: restore every toggled fact (a fact
  // that is present makes its part of the delta a no-op).
  {
    auto restored = wire.ApplyDelta(toggled, {});
    if (!restored.ok() || !restored.value().ok()) {
      result.errors.push_back("cannot restore the toggled facts");
    }
    ops.push_back({});
    ops.back().kind = ReplayOp::Kind::kDelta;
    ops.back().delta.added_fact_texts = toggled;
  }
  auto stats = wire.Stats();
  if (!stats.ok()) {
    result.errors.push_back("STATS failed");
    return result;
  }
  const whyprov_stats live = stats.value();
  connection.reset();
  stack.Reset();

  // --- durability: reopen a stack on the run's data_dir.
  Progress("durability check");
  {
    wp::EngineOptions options;
    options.data_dir = data_dir;
    wp::Service reopened(scenario->MakeEngine(options));
    if (!reopened.durability_status().ok()) {
      result.errors.push_back("durability: reopen failed: " +
                              reopened.durability_status().message());
    } else if (reopened.engine().model_version() != live.model_version) {
      result.errors.push_back(
          "durability: reopened version " +
          std::to_string(reopened.engine().model_version()) + " != live " +
          std::to_string(live.model_version));
    } else if (AnswerTexts(reopened.engine()) != answers) {
      result.errors.push_back("durability: answer set changed");
    }
    result.notes.push_back("durability: reopened at version " +
                           std::to_string(reopened.engine().model_version()));
  }
  fs::remove_all(data_dir);

  // --- traced replay of the window's request list on an in-process engine.
  if (config.trace) {
    Progress("traced replay");
    const Clock::time_point eval_start = Clock::now();
    wp::Engine engine = scenario->MakeEngine();
    const double eval_s = SecondsBetween(eval_start, Clock::now());
    {
      // Decide candidates travel as text on the wire; parse them into the
      // replay engine's symbol table.
      const auto state = engine.PinSnapshot();
      const wp::util::MutexLock lock(*state->parse_mutex);
      for (ReplayOp& op : ops) {
        for (const std::string& text : op.candidate_text) {
          auto fact = dl::Parser::ParseFact(engine.program().symbols_ptr(),
                                            text);
          if (!fact.ok()) {
            result.errors.push_back("unparsable candidate " + text);
            return result;
          }
          op.candidate.push_back(std::move(fact).value());
        }
      }
    }
    const ReplayOutcome replay =
        ReplayLists(engine, &engine, {ops},
                    config.work_dir + "/trace-" + config.workload + ".jsonl");
    Report& report = result.per_layer;
    report.Add("datalog.eval_s", eval_s, "s");
    report.Add("hot.slow_targets", 0, "count");
    AddTraceMetrics(replay, report);
    report.Add("service.queue_ms.p50", 0, "ms");
    report.Add("service.queue_ms.p99", 0, "ms");
    report.Add("service.exec_ms.p50", 0, "ms");
    report.Add("service.exec_ms.p99", 0, "ms");
    report.Add("service.rejected", static_cast<double>(live.rejected),
               "count");
    AddWindowLatencies(tally, report);
    report.Add("wal.appends", static_cast<double>(live.wal_appends), "count");
    report.Add("wal.bytes_per_delta",
               live.wal_appends ? static_cast<double>(live.wal_bytes) /
                                      static_cast<double>(live.wal_appends)
                                : 0,
               "B");
    report.Add("storage.checkpoints",
               static_cast<double>(live.checkpoints_written), "count");
    report.Add("net.overhead_ms.p50",
               enumerate_wire_ms.Quantile(0.5) -
                   replay.tally.enumerate_request_ms.Quantile(0.5),
               "ms", enumerate_wire_ms.size());
    report.Add("loadgen.lag_ms.p99", lag_ms.Quantile(0.99), "ms",
               lag_ms.size());
    CheckTrace(config, replay, result);
  }

  char line[200];
  std::snprintf(line, sizeof(line),
                "window: %llu requests (%zu deltas), loadgen lag p99 %.3f ms, "
                "wal appends %llu, checkpoints %llu",
                static_cast<unsigned long long>(tally.attempted), deltas_sent,
                lag_ms.Quantile(0.99),
                static_cast<unsigned long long>(live.wal_appends),
                static_cast<unsigned long long>(live.checkpoints_written));
  result.notes.push_back(line);

  // --- correctness: reads served on the generated database against the
  // oracle.
  const std::vector<bool> generated =
      GeneratedVersions(deltas, live.model_version);
  auto on_generated = [&](std::uint64_t version) {
    return version < generated.size() && generated[version];
  };
  Observations observed;
  for (EnumerateObservation& observation : enumerations) {
    if (on_generated(observation.model_version)) {
      observed.enumerations.push_back(std::move(observation));
    }
  }
  for (DecideObservation& decide : decides) {
    if (on_generated(decide.model_version)) {
      observed.decides.push_back(std::move(decide));
    }
  }
  if (config.corrupt_member) CorruptOneMember(observed);
  Progress("oracle");
  CheckOracle(oracle, observed, result);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"hot-search", "cold-plan",
                                                 "mixed-wire"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  if (config.workload == "hot-search" || config.workload == "cold-plan") {
    return RunGraphWorkload(config);
  }
  if (config.workload == "mixed-wire") return RunMixedWire(config);
  RunResult result;
  result.errors.push_back("unknown workload " + config.workload);
  return result;
}

}  // namespace perfbench
