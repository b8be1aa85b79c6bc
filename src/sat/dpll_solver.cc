#include "sat/dpll_solver.h"

#include <algorithm>
#include <utility>

namespace whyprov::sat {

DpllSolver::DpllSolver(SolverOptions options) : options_(options) {}

Var DpllSolver::NewVar() {
  prefer_true_.push_back(false);
  model_.push_back(LBool::kUndef);
  return num_vars_++;
}

bool DpllSolver::AddClause(std::span<const Lit> input) {
  if (!ok_) return false;
  // Level-0 simplification: drop duplicates, detect tautologies.
  std::vector<Lit> lits(input.begin(), input.end());
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].var() == lits[i - 1].var()) return true;  // l and ~l
  }
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  clauses_.push_back(std::move(lits));
  return true;
}

bool DpllSolver::Propagate(std::vector<LBool>& assigns, bool* satisfied,
                           Var* branch_var) {
  bool changed = true;
  while (changed) {
    changed = false;
    *satisfied = true;
    *branch_var = kUndefVar;
    for (const std::vector<Lit>& clause : clauses_) {
      int num_undef = 0;
      Lit undef_lit;
      bool clause_satisfied = false;
      for (Lit l : clause) {
        const LBool value = EvalLit(assigns[l.var()], l);
        if (value == LBool::kTrue) {
          clause_satisfied = true;
          break;
        }
        if (value == LBool::kUndef) {
          ++num_undef;
          undef_lit = l;
        }
      }
      if (clause_satisfied) continue;
      if (num_undef == 0) {
        ++stats_.conflicts;
        return false;  // conflict
      }
      *satisfied = false;
      if (num_undef == 1) {
        assigns[undef_lit.var()] =
            undef_lit.negated() ? LBool::kFalse : LBool::kTrue;
        ++stats_.propagations;
        changed = true;
      } else if (*branch_var == kUndefVar) {
        *branch_var = undef_lit.var();
      }
    }
  }
  return true;
}

bool DpllSolver::Search(std::vector<LBool>& assigns) {
  if (interrupted_) return false;
  if ((++poll_steps_ & 63) == 0 && InterruptRequested()) {
    interrupted_ = true;
    return false;
  }
  bool satisfied = false;
  Var branch = kUndefVar;
  if (!Propagate(assigns, &satisfied, &branch)) return false;
  if (satisfied) {
    model_ = assigns;
    // Pin don't-care variables so ModelValue never reports kUndef.
    for (Var v = 0; v < num_vars_; ++v) {
      if (model_[v] == LBool::kUndef) {
        model_[v] = prefer_true_[v] ? LBool::kTrue : LBool::kFalse;
      }
    }
    return true;
  }
  // Propagation left an unsatisfied clause with >= 2 undefined literals.
  ++stats_.decisions;
  const bool first_phase = prefer_true_[branch];
  for (const bool phase : {first_phase, !first_phase}) {
    std::vector<LBool> copy = assigns;
    copy[branch] = phase ? LBool::kTrue : LBool::kFalse;
    if (Search(copy)) return true;
  }
  return false;
}

SolveResult DpllSolver::Solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return SolveResult::kUnsat;
  interrupted_ = false;
  if (InterruptRequested()) return SolveResult::kUnknown;
  std::vector<LBool> assigns(num_vars_, LBool::kUndef);
  for (Lit l : assumptions) {
    const LBool forced = l.negated() ? LBool::kFalse : LBool::kTrue;
    if (assigns[l.var()] != LBool::kUndef && assigns[l.var()] != forced) {
      return SolveResult::kUnsat;
    }
    assigns[l.var()] = forced;
  }
  if (Search(assigns)) return SolveResult::kSat;
  return interrupted_ ? SolveResult::kUnknown : SolveResult::kUnsat;
}

}  // namespace whyprov::sat
