#ifndef WHYPROV_TESTS_WORKSPACE_H_
#define WHYPROV_TESTS_WORKSPACE_H_

// Shared test helpers: parse a program and a database into one
// workspace; serve text on each shard count and partition policy.

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/program.h"
#include "service/service.h"
#include "shard/shard_map.h"

namespace whyprov::testing {

struct Workspace {
  std::shared_ptr<datalog::SymbolTable> symbols;
  datalog::Program program;
  datalog::Database database;

  datalog::Fact ParseFact(const std::string& text) const {
    auto fact = datalog::Parser::ParseFact(symbols, text);
    EXPECT_TRUE(fact.ok()) << fact.status().message();
    return std::move(fact).value();
  }
};

inline Workspace MakeWorkspace(const char* program_text,
                               const char* database_text) {
  auto symbols = std::make_shared<datalog::SymbolTable>();
  auto program = datalog::Parser::ParseProgram(symbols, program_text);
  EXPECT_TRUE(program.ok()) << program.status().message();
  auto database = datalog::Parser::ParseDatabase(symbols, database_text);
  EXPECT_TRUE(database.ok()) << database.status().message();
  return Workspace{symbols, std::move(program).value(),
                   std::move(database).value()};
}

/// Renders a provenance member (set of facts) as a canonical string like
/// "{S(a), T(a, a, d)}" for readable assertions.
inline std::string MemberToString(const std::vector<datalog::Fact>& member,
                                  const datalog::SymbolTable& symbols) {
  std::string out = "{";
  for (std::size_t i = 0; i < member.size(); ++i) {
    if (i > 0) out += ", ";
    out += datalog::FactToString(member[i], symbols);
  }
  out += "}";
  return out;
}

/// Renders a whole family as a set of canonical member strings.
inline std::set<std::string> FamilyToStrings(
    const std::set<std::vector<datalog::Fact>>& family,
    const datalog::SymbolTable& symbols) {
  std::set<std::string> out;
  for (const auto& member : family) {
    out.insert(MemberToString(member, symbols));
  }
  return out;
}

/// One serving stack the Service suites run over: how many shard engines,
/// partitioned how.
struct Stack {
  std::size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kByFactRange;
};

/// Names parameterised tests like ".../Shards2ByPredicate".
inline std::string StackName(const ::testing::TestParamInfo<Stack>& info) {
  return "Shards" + std::to_string(info.param.num_shards) +
         (info.param.policy == ShardPolicy::kByPredicate ? "ByPredicate"
                                                         : "FactRange");
}

/// True iff `program` can be partitioned as `stack` asks (by-predicate
/// needs at least one intensional predicate per shard).
inline bool Supports(const datalog::Program& program, const Stack& stack) {
  return ShardMap::Build(program, stack.num_shards, stack.policy).ok();
}

/// N in {1, 2, 4} times both policies: the stacks every serving
/// behaviour is checked on.
inline std::vector<Stack> AllStacks() {
  std::vector<Stack> stacks;
  for (const std::size_t num_shards : {1, 2, 4}) {
    for (const ShardPolicy policy :
         {ShardPolicy::kByFactRange, ShardPolicy::kByPredicate}) {
      stacks.push_back(Stack{num_shards, policy});
    }
  }
  return stacks;
}

/// The stacks `program_text` supports.
inline std::vector<Stack> StacksFor(const char* program_text) {
  const Workspace ws = MakeWorkspace(program_text, "");
  std::vector<Stack> stacks;
  for (const Stack& stack : AllStacks()) {
    if (Supports(ws.program, stack)) stacks.push_back(stack);
  }
  return stacks;
}

/// Serves program/database text on `stack` (null, with a test failure,
/// when the service cannot be built).
inline std::unique_ptr<Service> Serve(
    const Stack& stack, const char* program_text, const char* database_text,
    const char* answer_predicate, ServiceOptions options = ServiceOptions(),
    EngineOptions engine_options = EngineOptions()) {
  options.num_shards = stack.num_shards;
  options.policy = stack.policy;
  auto service = Service::FromText(program_text, database_text,
                                   answer_predicate, options, engine_options);
  EXPECT_TRUE(service.ok()) << service.status().message();
  if (!service.ok()) return nullptr;
  return std::move(service).value();
}

}  // namespace whyprov::testing

#endif  // WHYPROV_TESTS_WORKSPACE_H_
