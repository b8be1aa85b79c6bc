#include "perfbench/oracle.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "datalog/parser.h"
#include "util/cancellation.h"
#include "util/mutex.h"

namespace perfbench {

namespace wp = whyprov;

wp::EngineOptions OracleOptions() {
  wp::EngineOptions options;
  options.solver_backend = "dpll";
  options.plan_simplify = wp::sat::SimplifyMode::kOff;
  options.plan_cache_capacity = 0;
  return options;
}

std::vector<std::string> AnswerTexts(const wp::Engine& engine) {
  std::vector<std::string> texts;
  for (wp::datalog::FactId id : engine.AnswerFactIds()) {
    texts.push_back(engine.FactToText(id));
  }
  std::sort(texts.begin(), texts.end());
  return texts;
}

namespace {

using Member = std::vector<std::string>;  // sorted fact texts

/// Everything the oracle checks for one target, with the candidate
/// facts parsed into the oracle's symbol table up front (parsing
/// mutates the table, so it stays on one thread).
struct TargetWork {
  std::string target;
  wp::datalog::Fact target_fact;
  bool exhausted = false;
  std::set<Member> members;
  std::vector<std::vector<wp::datalog::Fact>> member_facts;  // parallel
  struct Decide {
    std::vector<wp::datalog::Fact> candidate;
    bool served = false;     ///< the served verdict
    bool derivable = true;   ///< target derivable from the candidate alone
  };
  std::vector<Decide> decides;
  std::vector<std::string> errors;
  std::size_t fallbacks = 0;  ///< checks DPLL left to CDCL
};

/// Time a DPLL check may take before CDCL redoes it, and the time CDCL
/// gets before the check counts as failed.
constexpr double kDpllBudgetS = 0.5;
constexpr double kCdclBudgetS = 20;

std::string Describe(const Member& member) {
  std::string text = "{";
  for (std::size_t i = 0; i < member.size(); ++i) {
    text += (i ? ", " : "") + member[i];
  }
  return text + "}";
}

/// True iff `target` is in the least model of the oracle's program over
/// `facts` alone. A candidate the target is not derivable from is no
/// member of its family; this settles most negative Decide verdicts by
/// plain evaluation, where a DPLL refutation could take exponential time.
/// The engine it builds shares the oracle's symbol table, so it runs on
/// the thread that parses, before the checker threads start.
bool DerivableFrom(const wp::Engine& oracle,
                   const std::vector<wp::datalog::Fact>& facts,
                   const wp::datalog::Fact& target) {
  wp::datalog::Database database(oracle.program().symbols_ptr());
  for (const wp::datalog::Fact& fact : facts) database.Insert(fact);
  wp::EngineOptions options = OracleOptions();
  options.parse_mutex = oracle.PinSnapshot()->parse_mutex;
  const wp::Engine engine =
      wp::Engine::FromParts(oracle.program(), std::move(database),
                            oracle.answer_predicate(), options);
  const auto id = engine.model().Find(target);
  return id.has_value() && engine.model().alive(*id);
}

/// Members of `prepared`'s family, up to `cap`, as sorted fact texts.
/// Returns nullopt when the backend gave up or ran out of time.
std::optional<std::set<Member>> Family(const wp::Engine& oracle,
                                       const wp::PreparedQuery& prepared,
                                       std::size_t cap,
                                       const std::string& backend,
                                       double timeout_seconds) {
  wp::EnumerateRequest request;
  request.max_members = cap;
  request.solver_backend = backend;
  request.timeout_seconds = timeout_seconds;
  auto enumeration = prepared.Enumerate(request);
  if (!enumeration.ok()) return std::nullopt;
  std::set<Member> family;
  while (auto member = enumeration.value().Next()) {
    Member texts;
    for (const wp::datalog::Fact& fact : *member) {
      texts.push_back(oracle.FactToText(fact));
    }
    std::sort(texts.begin(), texts.end());
    family.insert(std::move(texts));
  }
  if (enumeration.value().hit_timeout() || enumeration.value().incomplete()) {
    return std::nullopt;
  }
  return family;
}

/// The oracle's verdict on `candidate`; nullopt when the backend gave up
/// or ran out of time.
std::optional<bool> Verdict(const wp::PreparedQuery& prepared,
                            const std::vector<wp::datalog::Fact>& candidate,
                            const std::string& backend,
                            double timeout_seconds) {
  wp::util::CancellationSource budget;
  budget.SetTimeout(timeout_seconds);
  wp::DecideRequest request;
  request.candidate = candidate;
  request.solver_backend = backend;
  request.cancellation = budget.token();
  auto verdict = prepared.Decide(request);
  if (!verdict.ok()) return std::nullopt;
  return verdict.value();
}

void CheckTarget(const wp::Engine& oracle, std::size_t member_cap,
                 TargetWork& work) {
  // By id: parsing the text here would touch the symbol table, which
  // other checker threads read without the parse lock.
  const auto target_id = oracle.model().Find(work.target_fact);
  if (!target_id) {
    work.errors.push_back("not an answer of the oracle: " + work.target);
    return;
  }
  auto prepared = oracle.Prepare(*target_id);
  if (!prepared.ok()) {
    work.errors.push_back("oracle cannot prepare " + work.target + ": " +
                          prepared.status().message());
    return;
  }
  const wp::PreparedQuery& query = prepared.value();
  // DPLL first; a check it cannot settle within kDpllBudgetS (refuting is
  // exponential for it) is redone by the CDCL backend without a budget.
  auto verdict = [&](const std::vector<wp::datalog::Fact>& candidate) {
    if (auto answer = Verdict(query, candidate, "", kDpllBudgetS)) {
      return answer;
    }
    ++work.fallbacks;
    return Verdict(query, candidate, "cdcl", kCdclBudgetS);
  };
  if (work.exhausted) {
    // The served family was complete: it must equal the oracle's.
    auto family = Family(oracle, query, member_cap + 1, "", kDpllBudgetS);
    if (!family) {
      ++work.fallbacks;
      family = Family(oracle, query, member_cap + 1, "cdcl", kCdclBudgetS);
    }
    if (!family) {
      work.errors.push_back("oracle cannot enumerate " + work.target);
    } else if (*family != work.members) {
      work.errors.push_back("family of " + work.target + ": served " +
                            std::to_string(work.members.size()) +
                            " members, oracle " +
                            std::to_string(family->size()));
    }
  } else {
    std::size_t index = 0;
    for (const Member& member : work.members) {
      const auto answer = verdict(work.member_facts[index++]);
      if (!answer.value_or(false)) {
        work.errors.push_back("not a member of " + work.target + ": " +
                              Describe(member));
      }
    }
  }
  for (const TargetWork::Decide& decide : work.decides) {
    if (!decide.served && !decide.derivable) {
      continue;  // confirmed: not even derivable from the candidate
    }
    const auto answer = verdict(decide.candidate);
    if (!answer || *answer != decide.served) {
      work.errors.push_back("decide verdict mismatch on " + work.target);
    }
  }
}

}  // namespace

OracleReport CheckWithOracle(const wp::Engine& oracle,
                             const Observations& observed,
                             std::size_t member_cap, std::size_t threads) {
  OracleReport report;
  std::map<std::string, TargetWork> by_target;

  for (const EnumerateObservation& request : observed.enumerations) {
    std::set<Member> distinct(request.members.begin(), request.members.end());
    if (distinct.size() != request.members.size()) {
      report.errors.push_back("repeated member in one request for " +
                              request.target);
    }
    if (!request.exhausted && request.members.size() != member_cap) {
      report.errors.push_back(
          "request for " + request.target + " returned " +
          std::to_string(request.members.size()) +
          " members without exhausting its family");
    }
    TargetWork& work = by_target[request.target];
    work.target = request.target;
    work.exhausted = work.exhausted || request.exhausted;
    work.members.insert(distinct.begin(), distinct.end());
  }
  std::map<std::pair<std::string, Member>, bool> verdicts;
  for (const DecideObservation& decide : observed.decides) {
    auto [it, inserted] = verdicts.try_emplace(
        std::make_pair(decide.target, decide.candidate), decide.verdict);
    if (!inserted && it->second != decide.verdict) {
      report.errors.push_back("inconsistent verdicts on " + decide.target);
    }
  }

  // Parse every fact the oracle needs on this thread.
  const auto state = oracle.PinSnapshot();
  const auto& symbols = oracle.program().symbols_ptr();
  auto parse = [&](const Member& texts,
                   std::vector<wp::datalog::Fact>& facts) -> bool {
    const wp::util::MutexLock lock(*state->parse_mutex);
    for (const std::string& text : texts) {
      auto fact = wp::datalog::Parser::ParseFact(symbols, text);
      if (!fact.ok()) return false;
      facts.push_back(std::move(fact).value());
    }
    return true;
  };
  for (const auto& [key, verdict] : verdicts) {
    TargetWork& work = by_target[key.first];
    work.target = key.first;
    std::vector<wp::datalog::Fact> facts;
    if (!parse(key.second, facts)) {
      report.errors.push_back("unparsable candidate for " + key.first);
      continue;
    }
    work.decides.push_back({std::move(facts), verdict, true});
  }
  std::vector<TargetWork*> work_list;
  for (auto& [target, work] : by_target) {
    std::vector<wp::datalog::Fact> target_fact;
    if (!parse({target}, target_fact)) {
      report.errors.push_back("unparsable target " + target);
      continue;
    }
    work.target_fact = target_fact.front();
    for (TargetWork::Decide& decide : work.decides) {
      if (!decide.served) {
        decide.derivable =
            DerivableFrom(oracle, decide.candidate, work.target_fact);
      }
    }
    if (!work.exhausted) {
      for (const Member& member : work.members) {
        std::vector<wp::datalog::Fact> facts;
        if (!parse(member, facts)) {
          report.errors.push_back("unparsable member of " + target);
        }
        work.member_facts.push_back(std::move(facts));
      }
    }
    report.pairs += work.members.size();
    report.families += work.exhausted ? 1 : 0;
    report.decides += work.decides.size();
    work_list.push_back(&work);
  }
  report.targets = work_list.size();

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < work_list.size(); i = next++) {
      const Clock::time_point start = Clock::now();
      CheckTarget(oracle, member_cap, *work_list[i]);
      const double seconds = SecondsBetween(start, Clock::now());
      if (seconds > 2) {
        std::fprintf(stderr, "slow oracle check: %s took %.1f s\n",
                     work_list[i]->target.c_str(), seconds);
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back(worker);
  }
  worker();
  for (std::thread& thread : pool) thread.join();
  for (TargetWork* work : work_list) {
    report.fallbacks += work->fallbacks;
    report.errors.insert(report.errors.end(), work->errors.begin(),
                         work->errors.end());
  }
  return report;
}

}  // namespace perfbench
