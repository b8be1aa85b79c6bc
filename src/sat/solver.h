#ifndef WHYPROV_SAT_SOLVER_H_
#define WHYPROV_SAT_SOLVER_H_

#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sat/clause.h"
#include "sat/solver_interface.h"
#include "sat/types.h"

namespace whyprov::sat {

/// A conflict-driven clause-learning (CDCL) SAT solver: the repository's
/// stand-in for Glucose and the default `SolverInterface` backend
/// (registry name "cdcl"). Implements two-watched-literal propagation,
/// VSIDS decisions with phase saving, first-UIP conflict analysis with
/// recursive clause minimization, LBD-based learnt-clause database
/// reduction, Luby restarts, solving under assumptions, and incremental
/// clause addition between solve calls (the blocking-clause enumeration
/// loop depends on the latter).
///
/// The search is a pure function of the loaded formula, the options and
/// the calls made: apart from a deadline hint, no clock, address or hash
/// order reaches a decision. The golden trajectory tests in
/// tests/test_sat_solver.cc pin it.
///
/// Layout. Clauses live in one `ClauseArena` of 32-bit words, referenced
/// by word offset. Values are kept per literal, so reading a literal's
/// value is one byte load. A watcher holds the clause reference and a
/// blocker literal; a binary clause's watcher has bit 0 of the reference
/// set, and its blocker is the clause's other literal, so propagation
/// settles it without reading the arena. Binary watchers share the watch
/// lists with longer clauses, in the order they were attached.
///
/// Memory. `ReduceDB` frees the worse half of the learnt clauses and then
/// compacts the arena (`CollectGarbage`): the live clauses move to a new
/// buffer in address order, and the watchers, the reasons and the learnt
/// list are rewritten in place, keeping their order. The arena therefore
/// holds only the problem clauses and the learnt clauses still in use
/// (see `arena_usage`), however long an enumeration runs.
class Solver : public SolverInterface {
 public:
  explicit Solver(SolverOptions options = SolverOptions());

  // The solver owns raw watch/trail state referenced by index; copying
  // would be error-prone and is never needed.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Creates a fresh variable and returns it.
  Var NewVar() override;

  /// Number of variables created.
  int NumVars() const override { return static_cast<int>(level_.size()); }

  /// Adds a clause (over existing variables). Returns false iff the clause
  /// makes the formula trivially unsatisfiable (empty after simplification
  /// at level 0). Safe to call between Solve() calls.
  using SolverInterface::AddClause;
  bool AddClause(std::span<const Lit> lits) override;

  /// Solves the current formula under the given assumptions.
  SolveResult Solve(const std::vector<Lit>& assumptions = {}) override;

  /// Value of a variable in the last model. Only valid after kSat.
  LBool ModelValue(Var v) const override { return model_[v]; }

  /// Cumulative statistics.
  const SolverStats& stats() const override { return stats_; }

  /// True while the formula is not known to be trivially UNSAT.
  bool ok() const override { return ok_; }

  /// Registry name of this backend.
  std::string_view name() const override { return "cdcl"; }

  /// Replaces the conflict budget (applies to subsequent Solve calls).
  void SetConflictBudget(std::int64_t budget) override {
    options_.conflict_budget = budget;
  }

  /// Installs a deadline hint: Solve() estimates its conflict throughput
  /// online (conflicts per second over the current call) and, at every
  /// restart boundary, clamps the next restart's conflict budget to what
  /// it can afford before `deadline` — so a deadline-bound search returns
  /// kUnknown gracefully at a boundary instead of being chopped
  /// mid-restart by the interrupt poll.
  void SetDeadlineHint(std::chrono::steady_clock::time_point deadline)
      override {
    deadline_hint_ = deadline;
  }

  void ClearDeadlineHint() override { deadline_hint_.reset(); }

  /// Sets the phase the next decision on `v` will try first (phase saving
  /// overwrites it once the search assigns and unassigns `v`). Callers use
  /// this to seed the search with a known near-solution.
  void SetPolarity(Var v, bool prefer_true) override {
    polarity_[v] = prefer_true ? 0 : 1;
  }

  /// Raises `v`'s VSIDS activity so it is decided before unhinted
  /// variables. Combined with SetPolarity this lets a caller steer the
  /// first descent onto a known model.
  void BumpActivityHint(Var v, double amount) override {
    activity_[v] += amount;
    if (heap_position_[v] >= 0) HeapUpdate(v);
  }

  /// The clause arena's size against what the search still uses, for
  /// bounded-memory checks: `capacity` words are allocated, `live_words`
  /// of them belong to problem clauses and to learnt clauses not yet
  /// reduced away.
  struct ArenaUsage {
    std::size_t capacity = 0;
    std::size_t live_words = 0;
  };
  ArenaUsage arena_usage() const;

 private:
  struct Watcher {
    ClauseRef tagged = kNoClause;  // clause reference; bit 0 set = binary
    Lit blocker;  // clause satisfied if true; a binary's other literal

    ClauseRef clause() const { return tagged & ~ClauseRef{1}; }
    bool binary() const { return (tagged & 1) != 0; }
  };

  // --- assignment & trail ---
  LBool Value(Var v) const { return values_[2 * v]; }
  LBool Value(Lit l) const { return values_[l.index()]; }
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }
  void UncheckedEnqueue(Lit l, ClauseRef reason) {
    assert(Value(l) == LBool::kUndef);
    values_[l.index()] = LBool::kTrue;
    values_[(~l).index()] = LBool::kFalse;
    level_[l.var()] = DecisionLevel();
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }
  void CancelUntil(int level);

  // --- search ---
  ClauseRef Propagate();
  void Analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level,
               int& lbd);
  bool LitRedundant(Lit l, std::uint32_t abstract_levels);
  Lit PickBranchLit();
  SolveResult Search(std::int64_t conflicts_allowed,
                     const std::vector<Lit>& assumptions);
  void AttachClause(ClauseRef ref);
  Clause ReasonFor(Lit implied);
  void ReduceDB();
  void CollectGarbage();
  int ComputeLbd(const std::vector<Lit>& lits);

  // --- VSIDS heap ---
  void VarBumpActivity(Var v);
  void VarDecayActivity() { var_inc_ /= options_.var_decay; }
  void ClauseBumpActivity(Clause c);
  void ClauseDecayActivity() { clause_inc_ /= options_.clause_decay; }
  void HeapInsert(Var v);
  void HeapUpdate(Var v);
  Var HeapPop();
  bool HeapEmpty() const { return heap_.empty(); }
  void HeapSiftUp(int i);
  void HeapSiftDown(int i);
  bool HeapLess(Var a, Var b) const { return activity_[a] > activity_[b]; }

  SolverOptions options_;
  bool ok_ = true;

  ClauseArena arena_;
  std::size_t problem_words_ = 0;  // arena words of problem clauses
  std::vector<ClauseRef> learnt_clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()

  std::vector<LBool> values_;           // by Lit::index()
  std::vector<std::uint8_t> polarity_;  // saved phase (1 = false), by var
  std::vector<int> level_;              // by var
  std::vector<ClauseRef> reason_;       // by var
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;  // by var
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<int> heap_position_;  // by var; -1 = not in heap
  std::vector<Var> heap_;

  // scratch buffers for AddClause, Search and Analyze
  std::vector<Lit> add_buffer_;
  std::vector<Lit> learnt_buffer_;
  std::vector<std::uint8_t> seen_;  // by var
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;
  // ComputeLbd: level_stamp_[level] == lbd_stamp_ marks a counted level
  std::vector<std::uint64_t> level_stamp_;
  std::uint64_t lbd_stamp_ = 0;

  std::vector<LBool> model_;
  SolverStats stats_;
  int reduce_threshold_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_hint_;
};

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_SOLVER_H_
