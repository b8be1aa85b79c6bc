// Tests of sharded serving: ShardMap policies (by-predicate partitioning
// with dependency-closure delta fan-out, fact-range striping over lockstep
// replicas), the Service router, and — the core contract — bit-identical
// results: the same scenario served with 1, 2, and 4 shards under both
// policies must produce exactly the enumeration/decision/explain
// transcript of the one-engine Service, including across interleaved
// ApplyDelta. Also covers cancellation mid-scatter/gather, ordered
// MemberMerge gathering, per-shard stats (queue depth, q/s, snapshot
// retention, version skew), and the shard-local write path. The CI runs
// this binary under ThreadSanitizer.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenarios/scenarios.h"
#include "tests/workspace.h"
#include "whyprov.h"

namespace whyprov {
namespace {

using whyprov::testing::MemberToString;
namespace dl = whyprov::datalog;

// --- ShardMap ------------------------------------------------------------

constexpr const char* kTwoTowerProgram = R"(
  p(X) :- a(X).
  p(X) :- p(Y), ap(Y, X).
  q(X) :- b(X).
  q(X) :- q(Y), bq(Y, X).
)";
constexpr const char* kTwoTowerDatabase = R"(
  a(a1). ap(a1, a2). ap(a2, a3).
  b(b1). bq(b1, b2). bq(b2, b3).
)";

testing::Workspace TwoTowers() {
  return testing::MakeWorkspace(kTwoTowerProgram, kTwoTowerDatabase);
}

TEST(ShardMapTest, AutoFallsBackToFactRangeForSinglePredicate) {
  auto ws = testing::MakeWorkspace(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).",
      "edge(a, b). edge(b, c).");
  auto predicate = ws.symbols->FindPredicate("path");
  ASSERT_TRUE(predicate.ok());
  auto map = ShardMap::Build(ws.program, 4);
  ASSERT_TRUE(map.ok()) << map.status().message();
  EXPECT_EQ(map.value().policy(), ShardPolicy::kByFactRange);
  // Replicas: every delta reaches every shard.
  EXPECT_EQ(map.value().ShardsForDelta({}).size(), 4u);
}

TEST(ShardMapTest, ByPredicatePartitionsClosuresAndPrunesDeltas) {
  auto ws = TwoTowers();
  const auto p = ws.symbols->FindPredicate("p");
  const auto a = ws.symbols->FindPredicate("a");
  const auto b = ws.symbols->FindPredicate("b");
  ASSERT_TRUE(p.ok() && a.ok() && b.ok());
  auto map = ShardMap::Build(ws.program, 2);
  ASSERT_TRUE(map.ok()) << map.status().message();
  EXPECT_EQ(map.value().policy(), ShardPolicy::kByPredicate);

  // p's tower and q's tower are independent: a delta on `a` must reach
  // exactly the shard owning p, and never q's.
  const std::size_t p_shard = map.value().OwnerOfPredicate(p.value());
  const auto a_targets = map.value().ShardsForDelta({a.value()});
  ASSERT_EQ(a_targets.size(), 1u);
  EXPECT_EQ(a_targets.front(), p_shard);
  const auto b_targets = map.value().ShardsForDelta({b.value()});
  ASSERT_EQ(b_targets.size(), 1u);
  EXPECT_NE(b_targets.front(), p_shard);
  // A delta touching both towers fans out to both shards.
  EXPECT_EQ(map.value().ShardsForDelta({a.value(), b.value()}).size(), 2u);
}

TEST(ShardMapTest, ByPredicateNeedsEnoughPredicates) {
  auto ws = TwoTowers();
  const auto p = ws.symbols->FindPredicate("p");
  ASSERT_TRUE(p.ok());
  auto map =
      ShardMap::Build(ws.program, 4, ShardPolicy::kByPredicate);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), util::StatusCode::kInvalidArgument);
  // kAuto degrades to fact-range instead of failing.
  auto fallback = ShardMap::Build(ws.program, 4);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback.value().policy(), ShardPolicy::kByFactRange);
}

// --- datalog partition utilities -----------------------------------------

TEST(PartitionTest, SlicedModelAnswersItsClosureBitForBit) {
  auto ws = TwoTowers();
  const auto p = ws.symbols->FindPredicate("p");
  ASSERT_TRUE(p.ok());

  // Slice to p's dependency closure: the q tower must be gone, and the
  // sliced engine's p-families must equal the full engine's as sets.
  const auto closure_list = dl::DependencyClosure(ws.program, {p.value()});
  const std::unordered_set<dl::PredicateId> closure(closure_list.begin(),
                                                    closure_list.end());
  auto sliced_program = dl::SliceProgram(ws.program, closure);
  ASSERT_TRUE(sliced_program.ok());
  EXPECT_EQ(sliced_program.value().rules().size(), 2u);
  dl::Database sliced_db = dl::SliceDatabase(ws.database, closure);
  EXPECT_EQ(sliced_db.size(), 3u);  // a(a1), ap(a1, a2), ap(a2, a3)

  Engine full = Engine::FromParts(ws.program, ws.database, p.value());
  Engine sliced = Engine::FromParts(std::move(sliced_program).value(),
                                    std::move(sliced_db), p.value());
  for (const char* target : {"p(a1)", "p(a2)", "p(a3)"}) {
    EnumerateRequest request;
    request.target_text = target;
    auto full_members = full.Enumerate(request);
    auto sliced_members = sliced.Enumerate(request);
    ASSERT_TRUE(full_members.ok() && sliced_members.ok());
    std::set<std::string> full_set, sliced_set;
    for (const auto& member : full_members.value().All()) {
      full_set.insert(MemberToString(member, *ws.symbols));
    }
    for (const auto& member : sliced_members.value().All()) {
      sliced_set.insert(MemberToString(member, *ws.symbols));
    }
    EXPECT_EQ(sliced_set, full_set) << target;
  }
  // The q tower is not derivable in the slice.
  EnumerateRequest q_request;
  q_request.target_text = "q(b1)";
  EXPECT_FALSE(sliced.Enumerate(q_request).ok());
}

// --- the equivalence harness --------------------------------------------

/// One front end under test: anything that can submit a Request and
/// block for its Response.
using SubmitFn = std::function<Response(Request)>;

/// Replays a scripted mixed workload — enumerate / decide / explain over
/// every target, interleaved with awaited remove-then-restore deltas —
/// and renders every result into a transcript. Bit-identical serving
/// means bit-identical transcripts.
std::vector<std::string> RunScript(const SubmitFn& submit,
                                   const std::vector<std::string>& targets,
                                   const std::vector<std::string>& churn,
                                   const dl::SymbolTable& symbols) {
  std::vector<std::string> transcript;
  // Per-target Decide candidates, captured from the first enumeration so
  // every front end derives them from its own (identical) answers.
  std::vector<std::vector<dl::Fact>> candidates(targets.size());

  const auto read_phase = [&](const std::string& label) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      EnumerateRequest enumerate;
      enumerate.target_text = targets[i];
      enumerate.max_members = 8;
      Request request;
      request.op = std::move(enumerate);
      Response response = submit(std::move(request));
      std::string line = label + " enum " + targets[i] + " " +
                         std::string(util::StatusCodeName(
                             response.status.code()));
      for (const auto& member : response.members) {
        line += " " + MemberToString(member, symbols);
      }
      transcript.push_back(std::move(line));
      if (candidates[i].empty() && !response.members.empty()) {
        candidates[i] = response.members.front();
      }

      if (!candidates[i].empty()) {
        DecideRequest decide;
        decide.target_text = targets[i];
        decide.candidate = candidates[i];
        Request decide_request;
        decide_request.op = std::move(decide);
        Response verdict = submit(std::move(decide_request));
        transcript.push_back(
            label + " decide " + targets[i] + " " +
            std::string(util::StatusCodeName(verdict.status.code())) +
            (verdict.status.ok() ? (verdict.member ? " member" : " non-member")
                                 : ""));
      }

      ExplainRequest explain;
      explain.target_text = targets[i];
      Request explain_request;
      explain_request.op = std::move(explain);
      Response explanation = submit(std::move(explain_request));
      std::string explain_line =
          label + " explain " + targets[i] + " " +
          std::string(util::StatusCodeName(explanation.status.code()));
      if (explanation.explanation.has_value()) {
        explain_line +=
            " " + MemberToString(explanation.explanation->member, symbols) +
            " tree=" + std::to_string(explanation.explanation->tree.size());
      }
      transcript.push_back(std::move(explain_line));
    }
  };

  read_phase("v0");
  for (std::size_t d = 0; d < churn.size(); ++d) {
    DeltaRequest remove;
    remove.removed_fact_texts = {churn[d]};
    Request request;
    request.op = std::move(remove);
    Response response = submit(std::move(request));
    transcript.push_back(
        "del " + churn[d] + " " +
        std::string(util::StatusCodeName(response.status.code())));
    read_phase("d" + std::to_string(d));
  }
  for (std::size_t d = 0; d < churn.size(); ++d) {
    DeltaRequest restore;
    restore.added_fact_texts = {churn[d]};
    Request request;
    request.op = std::move(restore);
    Response response = submit(std::move(request));
    transcript.push_back(
        "add " + churn[d] + " " +
        std::string(util::StatusCodeName(response.status.code())));
  }
  read_phase("restored");
  return transcript;
}

SubmitFn Submitter(Service& service) {
  return [&service](Request request) {
    auto ticket = service.Submit(std::move(request));
    EXPECT_TRUE(ticket.ok()) << ticket.status().message();
    if (!ticket.ok()) return Response();
    return ticket.value().Take();
  };
}

/// Samples targets and churn facts from a scenario deterministically.
void ScenarioScript(const scenarios::GeneratedScenario& scenario,
                    std::size_t num_targets, std::size_t num_churn,
                    std::vector<std::string>& targets,
                    std::vector<std::string>& churn) {
  Engine probe = scenario.MakeEngine();
  for (const dl::FactId id : probe.SampleAnswers(num_targets)) {
    targets.push_back(probe.FactToText(id));
  }
  const std::vector<dl::Fact>& facts = scenario.database.facts();
  for (std::size_t i = 1; i <= num_churn && i <= facts.size(); ++i) {
    const dl::Fact& fact = facts[(i * facts.size()) / (num_churn + 1)];
    churn.push_back(dl::FactToString(fact, scenario.database.symbols()));
  }
}

/// The scenario stacks: every (shard count, policy) pair, skipped where
/// the scenario has too few intensional predicates for by-predicate.
class ShardedEquivalenceTest
    : public ::testing::TestWithParam<testing::Stack> {
 protected:
  void Check(const scenarios::GeneratedScenario& scenario) {
    if (!testing::Supports(scenario.program, GetParam())) {
      GTEST_SKIP() << scenario.scenario_name
                   << " has too few intensional predicates";
    }
    std::vector<std::string> targets;
    std::vector<std::string> churn;
    ScenarioScript(scenario, /*num_targets=*/3, /*num_churn=*/2, targets,
                   churn);
    ASSERT_FALSE(targets.empty());

    const auto predicate =
        scenario.symbols->FindPredicate(scenario.answer_predicate);
    ASSERT_TRUE(predicate.ok());

    // The one-engine reference, run once per scenario instance.
    static std::map<std::string, std::vector<std::string>> references;
    std::vector<std::string>& expected =
        references[scenario.scenario_name + "/" + scenario.database_name];
    if (expected.empty()) {
      Service reference(scenario.MakeEngine());
      expected = RunScript(Submitter(reference), targets, churn,
                           *scenario.symbols);
    }

    ServiceOptions options;
    options.num_shards = GetParam().num_shards;
    options.policy = GetParam().policy;
    auto sharded = Service::Create(scenario.program, scenario.database,
                                   predicate.value(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().message();
    const std::vector<std::string> actual = RunScript(
        Submitter(*sharded.value()), targets, churn, *scenario.symbols);
    EXPECT_EQ(actual, expected)
        << scenario.scenario_name << " diverged at "
        << GetParam().num_shards << " shards ("
        << ShardPolicyName(sharded.value()->shard_map().policy()) << ")";
  }
};

// The six scenario generators: sharded serving must be invisible in the
// results on every one of them, across interleaved deltas.

TEST_P(ShardedEquivalenceTest, TransClosureSparse) {
  Check(scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60,
                                    20240611));
}

TEST_P(ShardedEquivalenceTest, TransClosureSocial) {
  Check(scenarios::MakeTransClosure(scenarios::GraphKind::kSocial, 16, 24,
                                    20240611));
}

TEST_P(ShardedEquivalenceTest, Doctors) {
  Check(scenarios::MakeDoctors(1, 100, 20240611));
}

TEST_P(ShardedEquivalenceTest, Andersen) {
  Check(scenarios::MakeAndersen(100, 20240611));
}

TEST_P(ShardedEquivalenceTest, Galen) {
  Check(scenarios::MakeGalen(20, 20240611));
}

TEST_P(ShardedEquivalenceTest, Csda) {
  Check(scenarios::MakeCsda("httpd", 200, 20240611));
}

INSTANTIATE_TEST_SUITE_P(Stacks, ShardedEquivalenceTest,
                         ::testing::ValuesIn(testing::AllStacks()),
                         testing::StackName);

// --- routing semantics ---------------------------------------------------

TEST(ShardedRoutingTest, FactRangeAcceptsIdsAndTexts) {
  auto scenario =
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60, 7);
  const auto predicate =
      scenario.symbols->FindPredicate(scenario.answer_predicate);
  ASSERT_TRUE(predicate.ok());
  ServiceOptions options;
  options.num_shards = 2;
  auto sharded = Service::Create(scenario.program, scenario.database,
                                 predicate.value(), options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded.value()->shard_map().policy(),
            ShardPolicy::kByFactRange);

  // Lockstep replicas: ids from the reference engine route everywhere.
  const auto targets = sharded.value()->engine().SampleAnswers(2);
  ASSERT_FALSE(targets.empty());
  for (const dl::FactId id : targets) {
    EnumerateRequest by_id;
    by_id.target = id;
    by_id.max_members = 4;
    Request request;
    request.op = by_id;
    auto ticket = sharded.value()->Submit(std::move(request));
    ASSERT_TRUE(ticket.ok()) << ticket.status().message();
    const Response& response = ticket.value().Wait();
    EXPECT_TRUE(response.status.ok()) << response.status.message();

    EnumerateRequest by_text;
    by_text.target_text = sharded.value()->engine().FactToText(id);
    by_text.max_members = 4;
    Request text_request;
    text_request.op = by_text;
    auto text_ticket = sharded.value()->Submit(std::move(text_request));
    ASSERT_TRUE(text_ticket.ok());
    EXPECT_EQ(text_ticket.value().Wait().members_emitted,
              response.members_emitted);
  }

  // An unknown target surfaces the engine's own error through the ticket,
  // exactly like the unsharded service.
  EnumerateRequest unknown;
  unknown.target_text = "path(nope, nowhere)";
  Request request;
  request.op = std::move(unknown);
  auto ticket = sharded.value()->Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  EXPECT_FALSE(ticket.value().Wait().status.ok());
}

TEST(ShardedRoutingTest, ByPredicateRejectsBareIds) {
  auto ws = TwoTowers();
  const auto p = ws.symbols->FindPredicate("p");
  ASSERT_TRUE(p.ok());
  ServiceOptions options;
  options.num_shards = 2;
  auto sharded = Service::Create(ws.program, ws.database, p.value(), options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded.value()->shard_map().policy(), ShardPolicy::kByPredicate);

  EnumerateRequest by_id;
  by_id.target = 0;  // shard-local: meaningless through the router
  Request request;
  request.op = by_id;
  auto ticket = sharded.value()->Submit(std::move(request));
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), util::StatusCode::kInvalidArgument);
}

// --- delta fan-out, version skew, per-shard stats ------------------------

using ShardedDeltaTest = ::testing::TestWithParam<testing::Stack>;

TEST_P(ShardedDeltaTest, PrunedFanOutSkewsVersionsAndCountsSkips) {
  auto served = testing::Serve(GetParam(), kTwoTowerProgram,
                               kTwoTowerDatabase, "p");
  ASSERT_NE(served, nullptr);
  Service& service = *served;
  // Only by-predicate with several shards prunes: q's shard never sees a
  // delta on p's tower. Replicas (and a lone shard) take every delta.
  const bool pruned = service.num_shards() > 1 &&
                      service.shard_map().policy() == ShardPolicy::kByPredicate;

  DeltaRequest delta;
  delta.removed_fact_texts = {"ap(a2, a3)"};
  Request request;
  request.op = std::move(delta);
  auto ticket = service.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok()) << ticket.status().message();
  const Response& response = ticket.value().Wait();
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.model_version, 1u);

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.shards.size(),
            service.num_shards() > 1 ? service.num_shards() : 0u);
  EXPECT_EQ(stats.version_skew, pruned ? 1u : 0u);
  std::uint64_t applied = 0, skipped = 0;
  for (const ShardStats& shard : stats.shards) {
    applied += shard.deltas_applied;
    skipped += shard.deltas_skipped;
    EXPECT_GE(shard.retained_snapshots, 1u);
    EXPECT_GT(shard.retained_snapshot_bytes, 0u);
  }
  EXPECT_EQ(applied, stats.shards.size() - (pruned ? 1u : 0u));
  EXPECT_EQ(skipped, pruned ? 1u : 0u);

  // The pruned shard still answers its tower, bit-identically.
  EnumerateRequest q3;
  q3.target_text = "q(b3)";
  Request q_request;
  q_request.op = std::move(q3);
  auto q_ticket = service.Submit(std::move(q_request));
  ASSERT_TRUE(q_ticket.ok());
  const Response& q_response = q_ticket.value().Wait();
  ASSERT_TRUE(q_response.status.ok());
  EXPECT_EQ(q_response.members_emitted, 1u);

  // p's tower lost its a3 derivation.
  EnumerateRequest p3;
  p3.target_text = "p(a3)";
  Request p_request;
  p_request.op = std::move(p3);
  auto p_ticket = service.Submit(std::move(p_request));
  ASSERT_TRUE(p_ticket.ok());
  EXPECT_FALSE(p_ticket.value().Wait().status.ok());
}

TEST_P(ShardedDeltaTest, MalformedDeltaTextFailsThroughTheTicket) {
  auto served = testing::Serve(GetParam(), kTwoTowerProgram,
                               kTwoTowerDatabase, "p");
  ASSERT_NE(served, nullptr);

  DeltaRequest delta;
  delta.added_fact_texts = {"((garbage"};
  Request request;
  request.op = std::move(delta);
  auto ticket = served->Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket.value().Wait().status.code(),
            util::StatusCode::kParseError);

  // No shard applied anything: versions stay at 0.
  EXPECT_EQ(served->stats().model_version, 0u);
}

TEST_P(ShardedDeltaTest, UncoveredPredicateFactsLandOnTheDefaultShard) {
  auto served = testing::Serve(GetParam(), kTwoTowerProgram,
                               kTwoTowerDatabase, "p");
  ASSERT_NE(served, nullptr);
  Service& service = *served;

  // A fact over a predicate no rule mentions is in no by-predicate
  // shard's partition; it must still be written (shard 0) and readable
  // back through the router, like on one engine.
  DeltaRequest delta;
  delta.added_fact_texts = {"annotation(a1)"};
  Request request;
  request.op = std::move(delta);
  auto ticket = service.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  const Response& response = ticket.value().Wait();
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  ASSERT_TRUE(response.delta.has_value());
  EXPECT_EQ(response.delta->facts_added, 1u);

  EnumerateRequest read;
  read.target_text = "annotation(a1)";
  Request read_request;
  read_request.op = std::move(read);
  auto read_ticket = service.Submit(std::move(read_request));
  ASSERT_TRUE(read_ticket.ok());
  const Response& read_response = read_ticket.value().Wait();
  ASSERT_TRUE(read_response.status.ok()) << read_response.status.message();
  EXPECT_EQ(read_response.members_emitted, 1u);
}

TEST_P(ShardedDeltaTest, FactRangeDeltasKeepReplicasLockstep) {
  auto scenario =
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60, 7);
  if (!testing::Supports(scenario.program, GetParam())) {
    GTEST_SKIP() << "TransClosure has one intensional predicate";
  }
  const auto predicate =
      scenario.symbols->FindPredicate(scenario.answer_predicate);
  ASSERT_TRUE(predicate.ok());
  ServiceOptions options;
  options.num_shards = GetParam().num_shards;
  options.policy = GetParam().policy;
  auto sharded = Service::Create(scenario.program, scenario.database,
                                 predicate.value(), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  Service& service = *sharded.value();

  const std::string churn = dl::FactToString(
      scenario.database.facts().front(), *scenario.symbols);
  for (int round = 0; round < 3; ++round) {
    DeltaRequest delta;
    if (round % 2 == 0) {
      delta.removed_fact_texts = {churn};
    } else {
      delta.added_fact_texts = {churn};
    }
    Request request;
    request.op = std::move(delta);
    auto ticket = service.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(ticket.value().Wait().status.ok())
        << ticket.value().Wait().status.message();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.version_skew, 0u);
  EXPECT_EQ(stats.model_version, 3u);
  ASSERT_EQ(stats.shards.size(),
            service.num_shards() > 1 ? service.num_shards() : 0u);
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.model_version, 3u);
    EXPECT_EQ(shard.deltas_applied, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Stacks, ShardedDeltaTest,
                         ::testing::ValuesIn(
                             testing::StacksFor(kTwoTowerProgram)),
                         testing::StackName);

// --- scatter/gather ------------------------------------------------------

constexpr const char* kDiamondProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";
constexpr const char* kDiamondDatabase = R"(
  edge(a, m1). edge(m1, b).
  edge(a, m2). edge(m2, b).
  edge(a, m3). edge(m3, b).
  edge(c, n1). edge(n1, d).
  edge(c, n2). edge(n2, d).
)";

std::unique_ptr<Service> MakeDiamondService(std::size_t num_shards,
                                            std::size_t num_threads = 0,
                                            std::size_t queue = 64) {
  ServiceOptions options;
  options.num_shards = num_shards;
  options.num_threads = num_threads;
  options.queue_capacity = queue;
  auto sharded =
      Service::FromText(kDiamondProgram, kDiamondDatabase, "path", options);
  EXPECT_TRUE(sharded.ok()) << sharded.status().message();
  return std::move(sharded).value();
}

using ShardedStreamTest = ::testing::TestWithParam<testing::Stack>;

TEST_P(ShardedStreamTest, StreamManyGathersInRequestOrder) {
  auto service = testing::Serve(GetParam(), kDiamondProgram, kDiamondDatabase,
                                "path");
  ASSERT_NE(service, nullptr);
  std::vector<EnumerateRequest> requests(2);
  requests[0].target_text = "path(a, b)";  // 3 members
  requests[1].target_text = "path(c, d)";  // 2 members
  auto merged = service->StreamMany(requests, /*stream_capacity=*/1);
  ASSERT_TRUE(merged.ok()) << merged.status().message();

  // Stable ordering: every path(a, b) member strictly precedes every
  // path(c, d) member, whatever shard produced what. (A member's first
  // fact is its sorted minimum: "edge(a, ..." vs "edge(c, ...".)
  std::vector<std::string> seen;
  while (auto member = merged.value()->Pop()) {
    ASSERT_FALSE(member->empty());
    seen.push_back(
        dl::FactToString(member->front(), service->engine().model().symbols())
            .substr(0, 7));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"edge(a,", "edge(a,", "edge(a,",
                                            "edge(c,", "edge(c,"}));
  merged.value()->Wait();
  EXPECT_TRUE(merged.value()->final_status().ok());
}

TEST_P(ShardedStreamTest, CloseMidScatterGatherCancelsEveryPart) {
  ServiceOptions options;
  options.num_threads = 2;
  auto service = testing::Serve(GetParam(), kDiamondProgram, kDiamondDatabase,
                                "path", options);
  ASSERT_NE(service, nullptr);
  std::vector<EnumerateRequest> requests(4);
  requests[0].target_text = "path(a, b)";
  requests[1].target_text = "path(c, d)";
  requests[2].target_text = "path(a, b)";
  requests[3].target_text = "path(c, d)";
  auto merged = service->StreamMany(requests, /*stream_capacity=*/1);
  ASSERT_TRUE(merged.ok()) << merged.status().message();

  // Take one member, then abandon the whole gather mid-flight.
  ASSERT_TRUE(merged.value()->Pop().has_value());
  merged.value()->Close();
  merged.value()->Wait();
  for (const MemberMerge::Part& part : merged.value()->parts()) {
    const Response& response = part.ticket.Wait();
    EXPECT_TRUE(response.status.ok() ||
                response.status.code() == util::StatusCode::kCancelled)
        << response.status.message();
  }
  EXPECT_FALSE(merged.value()->Pop().has_value());

  // The service stays healthy: a fresh request completes normally.
  EnumerateRequest after;
  after.target_text = "path(a, b)";
  Request request;
  request.op = std::move(after);
  auto ticket = service->Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket.value().Wait().status.ok());
}

INSTANTIATE_TEST_SUITE_P(Stacks, ShardedStreamTest,
                         ::testing::ValuesIn(
                             testing::StacksFor(kDiamondProgram)),
                         testing::StackName);

TEST(ShardedBatchTest, BatchesMatchUnshardedService) {
  auto scenario = scenarios::MakeDoctors(1, 100, 20240611);
  const auto predicate =
      scenario.symbols->FindPredicate(scenario.answer_predicate);
  ASSERT_TRUE(predicate.ok());

  Engine probe = scenario.MakeEngine();
  std::vector<EnumerateRequest> requests;
  for (const dl::FactId id : probe.SampleAnswers(4)) {
    EnumerateRequest request;
    request.target_text = probe.FactToText(id);
    request.max_members = 4;
    requests.push_back(std::move(request));
  }
  ASSERT_FALSE(requests.empty());

  Service reference(scenario.MakeEngine());
  const BatchEnumerateResult expected = reference.EnumerateBatch(requests);

  ServiceOptions options;
  options.num_shards = 2;
  auto sharded = Service::Create(scenario.program, scenario.database,
                                 predicate.value(), options);
  ASSERT_TRUE(sharded.ok());
  const BatchEnumerateResult actual =
      sharded.value()->EnumerateBatch(requests);

  ASSERT_EQ(actual.outcomes.size(), expected.outcomes.size());
  for (std::size_t i = 0; i < actual.outcomes.size(); ++i) {
    EXPECT_EQ(actual.outcomes[i].status.ok(),
              expected.outcomes[i].status.ok());
    EXPECT_EQ(actual.outcomes[i].members, expected.outcomes[i].members)
        << "batch outcome " << i << " diverged";
  }
  EXPECT_EQ(actual.stats.succeeded, expected.stats.succeeded);
  EXPECT_EQ(actual.stats.members_emitted, expected.stats.members_emitted);
}

// --- stats & accounting --------------------------------------------------

TEST(ShardedStatsTest, AggregatesAndPerShardRows) {
  auto service = MakeDiamondService(2);
  for (int i = 0; i < 4; ++i) {
    EnumerateRequest enumerate;
    enumerate.target_text = i % 2 == 0 ? "path(a, b)" : "path(c, d)";
    Request request;
    request.op = std::move(enumerate);
    auto ticket = service->Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    ticket.value().Wait();
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.succeeded, 4u);
  EXPECT_GT(stats.queries_per_second, 0.0);
  EXPECT_GE(stats.retained_snapshots, 2u);  // one live snapshot per shard
  EXPECT_GT(stats.retained_snapshot_bytes, 0u);
  ASSERT_EQ(stats.shards.size(), 2u);
  std::uint64_t shard_completed = 0;
  for (const ShardStats& shard : stats.shards) {
    shard_completed += shard.completed;
    EXPECT_GE(shard.retained_snapshots, 1u);
  }
  EXPECT_EQ(shard_completed, 4u);
}

}  // namespace
}  // namespace whyprov
