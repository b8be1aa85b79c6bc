// Parameterized sweeps over the SAT solver's configuration space: every
// option combination must preserve correctness (against brute force), and
// the Luby sequence must be the real thing.

#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sat/dimacs.h"
#include "sat/dpll_solver.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace whyprov::sat {
namespace {

CnfFormula RandomThreeCnf(util::Rng& rng, int num_vars, int num_clauses) {
  CnfFormula formula;
  formula.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const Var v = static_cast<Var>(rng.UniformInt(num_vars));
      const Lit lit = Lit::Make(v, !rng.Bernoulli(0.5));
      bool dup = false;
      for (Lit l : clause) {
        if (l.var() == v) dup = true;
      }
      if (!dup) clause.push_back(lit);
    }
    formula.clauses.push_back(clause);
  }
  return formula;
}

// (phase_saving, restart_base, var_decay, reduce_base)
using OptionTuple = std::tuple<bool, int, double, int>;

class SolverOptionsTest : public ::testing::TestWithParam<OptionTuple> {};

TEST_P(SolverOptionsTest, CorrectUnderAllConfigurations) {
  const auto& [phase_saving, restart_base, var_decay, reduce_base] =
      GetParam();
  SolverOptions options;
  options.phase_saving = phase_saving;
  options.restart_base = restart_base;
  options.var_decay = var_decay;
  options.reduce_base = reduce_base;

  util::Rng rng(0x0b7 + restart_base);
  for (int trial = 0; trial < 10; ++trial) {
    const CnfFormula formula = RandomThreeCnf(rng, 10, 43);  // near threshold
    const bool expected = BruteForceSat(formula);
    Solver solver(options);
    formula.LoadInto(solver);
    if (!solver.ok()) {
      EXPECT_FALSE(expected);
      continue;
    }
    EXPECT_EQ(solver.Solve() == SolveResult::kSat, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverOptionsTest,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(2, 100),
                       ::testing::Values(0.8, 0.95),
                       ::testing::Values(16, 4000)));

TEST(SolverOptionsTest, TinyReduceBaseStillSolvesUnsat) {
  // Aggressive clause deletion must not break completeness.
  SolverOptions options;
  options.reduce_base = 8;
  options.reduce_increment = 4;
  Solver solver(options);
  // Pigeonhole 5 into 4.
  const int holes = 4, pigeons = 5;
  auto var = [&](int p, int h) { return Lit::Make(p * holes + h, false); };
  for (int i = 0; i < pigeons * holes; ++i) solver.NewVar();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(var(p, h));
    ASSERT_TRUE(solver.AddClause(clause));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(solver.AddClause({~var(p1, h), ~var(p2, h)}));
      }
    }
  }
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().deleted_clauses, 0u);
}

TEST(SolverOptionsTest, PolarityHintsSteerTheFirstModel) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddBinary(Lit::Make(a, false), Lit::Make(b, false)));
  solver.SetPolarity(a, true);
  solver.SetPolarity(b, false);
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(a), LBool::kTrue);
  EXPECT_EQ(solver.ModelValue(b), LBool::kFalse);
}

TEST(SolverOptionsTest, ActivityHintsChangeDecisionOrder) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  // a free, b free: whichever is decided first gets its phase; hint b up
  // with phase true while a stays default (false).
  solver.BumpActivityHint(b, 10.0);
  solver.SetPolarity(b, true);
  ASSERT_TRUE(solver.AddBinary(Lit::Make(a, false), Lit::Make(b, false)));
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(b), LBool::kTrue);
}

// Enumerates up to `max_models` models of `formula`, blocking each on the
// values of its first `num_selectors` variables (as the provenance
// enumerator blocks on fact selectors); returns their projections.
// `after_solve` sees the solver after every Solve call.
template <typename AfterSolve>
std::set<std::vector<bool>> EnumerateProjections(SolverInterface& solver,
                                                 const CnfFormula& formula,
                                                 int num_selectors,
                                                 AfterSolve after_solve) {
  formula.LoadInto(solver);
  std::set<std::vector<bool>> models;
  while (solver.ok()) {
    const SolveResult result = solver.Solve();
    after_solve();
    if (result != SolveResult::kSat) break;
    std::vector<bool> model;
    std::vector<Lit> blocking;
    for (Var v = 0; v < num_selectors; ++v) {
      model.push_back(solver.ModelValue(v) == LBool::kTrue);
      blocking.push_back(Lit::Make(v, model.back()));
    }
    EXPECT_TRUE(models.insert(model).second) << "a projection repeated";
    if (!solver.AddClause(blocking)) break;
  }
  return models;
}

TEST(SolverOptionsTest, ArenaStaysBoundedUnderFrequentReductions) {
  // A tiny reduce_base reduces the learnt database every few conflicts
  // over a long enumeration. Reduction compacts the clause arena, so its
  // allocation must track the clauses still in use instead of growing
  // with every clause ever learnt.
  SolverOptions options;
  options.reduce_base = 8;
  options.reduce_increment = 1;
  util::Rng rng(0xa4e7a);
  const CnfFormula formula = RandomThreeCnf(rng, 150, 600);
  Solver cdcl(options);
  Solver::ArenaUsage usage;
  const auto models = EnumerateProjections(cdcl, formula, 12, [&] {
    usage = cdcl.arena_usage();
    // Compaction reserves exactly the live words; appends at most double.
    EXPECT_LE(usage.capacity, 2 * usage.live_words + 16);
  });
  EXPECT_GT(models.size(), 16u);
  // Each freed clause held at least 8 words (3 literals, header and
  // activity, padded): kept, they would have broken the bound above.
  EXPECT_GT(cdcl.stats().deleted_clauses * 8, 4 * usage.live_words);

  // The same options on a formula small enough for the DPLL backend,
  // blocking on every variable: both must find the same models.
  util::Rng small_rng(0xa4e7a);
  const CnfFormula small = RandomThreeCnf(small_rng, 40, 144);
  Solver small_cdcl(options);
  const auto cdcl_models = EnumerateProjections(small_cdcl, small, 40, [] {});
  DpllSolver dpll;
  const auto dpll_models = EnumerateProjections(dpll, small, 40, [] {});
  EXPECT_GT(cdcl_models.size(), 50u);
  EXPECT_GT(small_cdcl.stats().deleted_clauses, 100u);
  EXPECT_EQ(cdcl_models, dpll_models);
}

}  // namespace
}  // namespace whyprov::sat
