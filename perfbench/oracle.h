#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The output oracle: an engine built from the same generated inputs as
// the served stack but configured to share as little as possible with
// what performance work changes — the DPLL backend, no plan-time
// simplification, no plan cache. Every served (target, member) pair and
// every served Decide verdict is confirmed against it. A check DPLL
// cannot settle within a short budget (refutations are exponential for
// it) is redone with the CDCL backend on the same unsimplified,
// uncached plan, and counted; one CDCL cannot settle either fails.

#include <cstddef>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "perfbench/common.h"
#include "scenarios/scenarios.h"

namespace perfbench {

/// Options of the oracle engine (see the file comment).
whyprov::EngineOptions OracleOptions();

struct OracleReport {
  std::size_t targets = 0;          ///< distinct targets checked
  std::size_t pairs = 0;            ///< distinct (target, member) pairs
  std::size_t families = 0;         ///< exhausted families compared as sets
  std::size_t decides = 0;          ///< distinct (target, candidate) verdicts
  std::size_t fallbacks = 0;        ///< checks DPLL left to CDCL
  std::vector<std::string> errors;  ///< empty = every check passed
};

/// Checks `observed` against `oracle`:
///   * members are distinct within a request, and a request that did
///     not exhaust its family returned exactly `member_cap` members;
///   * every distinct (target, member) pair is a member per the oracle;
///   * a family some request exhausted equals the oracle's whole family,
///     compared as sets (order is free);
///   * every distinct Decide verdict equals the oracle's.
/// Runs on up to `threads` threads.
OracleReport CheckWithOracle(const whyprov::Engine& oracle,
                             const Observations& observed,
                             std::size_t member_cap, std::size_t threads);

/// The rendered answer set of an engine (sorted fact texts).
std::vector<std::string> AnswerTexts(const whyprov::Engine& engine);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
