#ifndef WHYPROV_SAT_DPLL_SOLVER_H_
#define WHYPROV_SAT_DPLL_SOLVER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sat/solver_interface.h"
#include "sat/types.h"

namespace whyprov::sat {

/// A plain DPLL solver (registry name "dpll"): unit propagation plus
/// chronological backtracking, no clause learning. Deliberately simple —
/// it exists as an independently-implemented second backend so the
/// provenance layer can be cross-checked against the CDCL solver, and as
/// a reference for plugging further backends into `SolverFactory`.
///
/// Every Solve() restarts from scratch over the current clause set, which
/// makes incremental blocking-clause enumeration trivially correct (if
/// quadratically slower than CDCL). Practical for the small-to-medium
/// formulas the tests use; do not point it at a 100k-variable encoding.
class DpllSolver : public SolverInterface {
 public:
  explicit DpllSolver(SolverOptions options = SolverOptions());

  DpllSolver(const DpllSolver&) = delete;
  DpllSolver& operator=(const DpllSolver&) = delete;

  Var NewVar() override;
  int NumVars() const override { return num_vars_; }
  using SolverInterface::AddClause;
  bool AddClause(std::span<const Lit> lits) override;
  SolveResult Solve(const std::vector<Lit>& assumptions = {}) override;
  LBool ModelValue(Var v) const override { return model_[v]; }
  const SolverStats& stats() const override { return stats_; }
  bool ok() const override { return ok_; }
  std::string_view name() const override { return "dpll"; }

  /// Honoured: branching on `v` tries `prefer_true` first.
  void SetPolarity(Var v, bool prefer_true) override {
    prefer_true_[v] = prefer_true;
  }

 private:
  /// Recursive DPLL over a copy-per-branch assignment vector. Fills
  /// `model_` and returns true when an extension of `assigns` satisfies
  /// every clause.
  bool Search(std::vector<LBool>& assigns);

  /// Runs unit propagation to fixpoint; returns false on conflict. When
  /// the formula is fully satisfied, sets `*satisfied` and leaves
  /// `*branch_var` untouched; otherwise `*branch_var` is an unassigned
  /// variable of some unsatisfied clause.
  bool Propagate(std::vector<LBool>& assigns, bool* satisfied,
                 Var* branch_var);

  SolverOptions options_;
  int num_vars_ = 0;
  /// Set when the interrupt check fired mid-search: the enclosing Solve()
  /// reports kUnknown instead of treating the abandoned branch as UNSAT.
  bool interrupted_ = false;
  /// Amortises the interrupt poll to every 64th Search() node.
  std::uint64_t poll_steps_ = 0;
  std::vector<std::vector<Lit>> clauses_;
  std::vector<bool> prefer_true_;
  std::vector<LBool> model_;
  SolverStats stats_;
  bool ok_ = true;
};

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_DPLL_SOLVER_H_
