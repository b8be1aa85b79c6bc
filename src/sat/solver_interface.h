#ifndef WHYPROV_SAT_SOLVER_INTERFACE_H_
#define WHYPROV_SAT_SOLVER_INTERFACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "sat/types.h"

namespace whyprov::sat {

/// Outcome of a solve call.
enum class SolveResult { kSat, kUnsat, kUnknown };

/// Search statistics, cumulative over the solver's lifetime. Backends fill
/// what they can measure and leave the rest at zero.
struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t minimized_literals = 0;
};

/// Tunable parameters; defaults follow MiniSat/Glucose folklore. Backends
/// honour the subset that applies to them: the CDCL solver uses all of
/// them, the DPLL backend none (it has no VSIDS/restarts/learning), and
/// the external dimacs-pipe backend ignores them entirely — bound an
/// external solver via its own command-line flags instead.
struct SolverOptions {
  double var_decay = 0.95;          ///< VSIDS activity decay
  double clause_decay = 0.999;      ///< learnt clause activity decay
  int restart_base = 100;           ///< Luby restart unit, in conflicts
  bool phase_saving = true;         ///< reuse last polarity on decisions
  int reduce_base = 4000;           ///< learnt clauses before first reduce
  int reduce_increment = 1000;      ///< growth of the reduce threshold
  /// Stop after this many conflicts (<0 = off).
  std::int64_t conflict_budget = -1;
};

/// The backend-neutral incremental SAT solver interface the provenance
/// layer is written against. A backend must support:
///
///   * variable creation interleaved with clause addition,
///   * incremental clause addition *between* Solve() calls (the
///     blocking-clause enumeration loop of Section 5.2 depends on it),
///   * model extraction after a kSat answer.
///
/// The phase/activity hints are optional accelerators: backends that
/// cannot steer their search simply inherit the no-op defaults, and
/// callers must not rely on them for correctness.
class SolverInterface {
 public:
  virtual ~SolverInterface() = default;

  /// Creates a fresh variable and returns it.
  virtual Var NewVar() = 0;

  /// Number of variables created.
  virtual int NumVars() const = 0;

  /// Adds a clause (over existing variables). Returns false iff the clause
  /// makes the formula trivially unsatisfiable. Safe to call between
  /// Solve() calls. Backends copy what they keep: `lits` is only read.
  virtual bool AddClause(std::span<const Lit> lits) = 0;

  /// Convenience forms. A backend that overrides AddClause re-exports
  /// these with `using SolverInterface::AddClause`.
  bool AddClause(std::initializer_list<Lit> lits) {
    return AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool AddUnit(Lit a) { return AddClause({a}); }
  bool AddBinary(Lit a, Lit b) { return AddClause({a, b}); }
  bool AddTernary(Lit a, Lit b, Lit c) { return AddClause({a, b, c}); }

  /// Solves the current formula under the given assumptions.
  virtual SolveResult Solve(const std::vector<Lit>& assumptions = {}) = 0;

  /// Value of a variable in the last model. Only valid after kSat.
  virtual LBool ModelValue(Var v) const = 0;

  /// Value of a literal in the last model. Only valid after kSat.
  bool ModelLitTrue(Lit l) const {
    return EvalLit(ModelValue(l.var()), l) == LBool::kTrue;
  }

  /// Cumulative statistics.
  virtual const SolverStats& stats() const = 0;

  /// True while the formula is not known to be trivially UNSAT.
  virtual bool ok() const = 0;

  /// The backend's registry name (e.g. "cdcl").
  virtual std::string_view name() const = 0;

  /// Replaces the conflict budget (applies to subsequent Solve calls).
  /// Backends without budget support ignore it.
  virtual void SetConflictBudget(std::int64_t budget) { (void)budget; }

  /// Installs a cooperative interruption check: backends poll `poll`
  /// periodically while Solve() searches and, once it returns true,
  /// abandon the search and return kUnknown promptly. This is what makes
  /// request deadlines and cancellation (`util::CancellationToken`) bite
  /// *inside* a long solve instead of only between solves. An empty
  /// function clears the check. Backends that cannot poll mid-search
  /// (e.g. an external process) check at least on Solve() entry.
  virtual void SetInterruptCheck(std::function<bool()> poll) {
    interrupt_check_ = std::move(poll);
  }

  /// Optional deadline hint: backends that can budget their search use it
  /// to *degrade gracefully* — estimate their conflict rate online and
  /// stop at a restart boundary with kUnknown shortly before `deadline`,
  /// instead of burning the remaining budget on a search the interruption
  /// poll is about to chop mid-restart. Purely advisory: the installed
  /// interrupt check (see SetInterruptCheck) remains the authoritative
  /// stop, and backends without budget support ignore the hint.
  virtual void SetDeadlineHint(
      std::chrono::steady_clock::time_point deadline) {
    (void)deadline;
  }

  /// Removes a previously installed deadline hint (no-op by default).
  virtual void ClearDeadlineHint() {}

  /// Optional hint: the phase the next decision on `v` should try first.
  virtual void SetPolarity(Var v, bool prefer_true) {
    (void)v;
    (void)prefer_true;
  }

  /// Optional hint: raise `v`'s decision priority by `amount`.
  virtual void BumpActivityHint(Var v, double amount) {
    (void)v;
    (void)amount;
  }

 protected:
  /// True once the installed check demands a stop. Amortise calls (the
  /// check may read a clock): poll every few dozen conflicts, not every
  /// propagation.
  bool InterruptRequested() const {
    return interrupt_check_ && interrupt_check_();
  }

 private:
  std::function<bool()> interrupt_check_;
};

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_SOLVER_INTERFACE_H_
