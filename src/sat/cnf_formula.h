#ifndef WHYPROV_SAT_CNF_FORMULA_H_
#define WHYPROV_SAT_CNF_FORMULA_H_

#include <cstddef>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "sat/solver_interface.h"
#include "sat/types.h"

namespace whyprov::sat {

/// A backend-neutral CNF formula plus optional search hints: the compile
/// artifact of the prepare/execute split. An encoder records variables,
/// clauses, and phase/activity hints once (via `ClauseRecorder`); each
/// execution then replays the formula into a fresh backend with
/// `LoadInto`. The struct is immutable after recording, so one formula can
/// back any number of concurrent solver instances.
struct CnfFormula {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
  /// SetPolarity hints recorded at encode time (see SolverInterface).
  std::vector<std::pair<Var, bool>> polarity_hints;
  /// BumpActivityHint hints recorded at encode time.
  std::vector<std::pair<Var, double>> activity_hints;
  /// True once an empty clause was recorded (trivially unsatisfiable).
  bool contains_empty_clause = false;

  std::size_t num_clauses() const { return clauses.size(); }

  /// Total literal count, for size reporting.
  std::size_t num_literals() const;

  /// Replays the formula into a fresh backend: creates `num_vars`
  /// variables, adds every clause, and forwards the recorded hints.
  /// Stops early (like the encoders do) once the backend reports the
  /// formula trivially unsatisfiable.
  void LoadInto(SolverInterface& solver) const;
};

/// A `SolverInterface` that solves nothing: it records every variable,
/// clause, and hint into a `CnfFormula`. Encoders written against the
/// solver interface (CnfEncoder, EncodeAcyclicity) thereby double as
/// formula compilers without any change.
class ClauseRecorder final : public SolverInterface {
 public:
  /// Records into `*out`, which must outlive the recorder and start empty.
  explicit ClauseRecorder(CnfFormula* out) : out_(out) {}

  Var NewVar() override { return out_->num_vars++; }
  int NumVars() const override { return out_->num_vars; }

  using SolverInterface::AddClause;
  bool AddClause(std::span<const Lit> lits) override {
    if (lits.empty()) out_->contains_empty_clause = true;
    out_->clauses.emplace_back(lits.begin(), lits.end());
    return !out_->contains_empty_clause;
  }

  /// A recorder cannot search; encoding code never calls Solve on it.
  SolveResult Solve(const std::vector<Lit>& assumptions = {}) override {
    (void)assumptions;
    return SolveResult::kUnknown;
  }

  LBool ModelValue(Var v) const override {
    (void)v;
    return LBool::kUndef;
  }

  const SolverStats& stats() const override { return stats_; }
  bool ok() const override { return !out_->contains_empty_clause; }
  std::string_view name() const override { return "recorder"; }

  void SetPolarity(Var v, bool prefer_true) override {
    out_->polarity_hints.emplace_back(v, prefer_true);
  }

  void BumpActivityHint(Var v, double amount) override {
    out_->activity_hints.emplace_back(v, amount);
  }

 private:
  CnfFormula* out_;
  SolverStats stats_;
};

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_CNF_FORMULA_H_
