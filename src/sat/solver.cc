#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <utility>

namespace whyprov::sat {

namespace {

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
/// (MiniSat's formulation: find the finite subsequence containing index i
/// and the position of i within it.)
std::int64_t Luby(std::int64_t i) {
  std::int64_t size = 1;
  std::int64_t sequence = 0;
  while (size < i + 1) {
    ++sequence;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --sequence;
    i %= size;
  }
  return static_cast<std::int64_t>(1) << sequence;
}

}  // namespace

Solver::Solver(SolverOptions options) : options_(options) {
  reduce_threshold_ = options_.reduce_base;
}

Var Solver::NewVar() {
  const Var v = static_cast<Var>(level_.size());
  values_.push_back(LBool::kUndef);
  values_.push_back(LBool::kUndef);
  // Saved phase: 1 means the last (or preferred) value is FALSE, so a
  // fresh variable is first decided negative (the MiniSat default).
  polarity_.push_back(1);
  level_.push_back(0);
  reason_.push_back(kNoClause);
  activity_.push_back(0.0);
  heap_position_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  HeapInsert(v);
  return v;
}

bool Solver::AddClause(std::span<const Lit> lits) {
  if (!ok_) return false;
  CancelUntil(0);

  // Simplify: sort, dedup, drop literals false at level 0, detect
  // tautologies and literals true at level 0.
  std::vector<Lit>& simplified = add_buffer_;
  simplified.assign(lits.begin(), lits.end());
  std::sort(simplified.begin(), simplified.end());
  std::size_t kept = 0;
  Lit previous = kUndefLit;
  for (Lit l : simplified) {
    if (Value(l) == LBool::kTrue || (previous.defined() && l == ~previous)) {
      return true;  // satisfied or tautological: vacuous
    }
    if (Value(l) == LBool::kFalse || l == previous) continue;
    simplified[kept++] = l;
    previous = l;
  }
  simplified.resize(kept);

  if (simplified.empty()) {
    ok_ = false;
    return false;
  }
  if (simplified.size() == 1) {
    UncheckedEnqueue(simplified[0], kNoClause);
    if (Propagate() != kNoClause) ok_ = false;
    return ok_;
  }
  const ClauseRef ref = arena_.Allocate(simplified, false);
  problem_words_ += arena_.WordsOf(ref);
  AttachClause(ref);
  return true;
}

void Solver::AttachClause(ClauseRef ref) {
  const Clause c = arena_.At(ref);
  assert(c.size() >= 2);
  const ClauseRef tagged = c.size() == 2 ? ref | 1 : ref;
  watches_[(~c[0]).index()].push_back(Watcher{tagged, c[1]});
  watches_[(~c[1]).index()].push_back(Watcher{tagged, c[0]});
}

void Solver::CancelUntil(int target_level) {
  if (DecisionLevel() <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Lit l = trail_[i - 1];
    const Var v = l.var();
    if (options_.phase_saving) polarity_[v] = l.negated() ? 1 : 0;
    values_[l.index()] = LBool::kUndef;
    values_[(~l).index()] = LBool::kUndef;
    reason_[v] = kNoClause;
    if (heap_position_[v] < 0) HeapInsert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

ClauseRef Solver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    const Lit false_lit = ~p;
    ++stats_.propagations;
    std::vector<Watcher>& watchers = watches_[p.index()];
    Watcher* const begin = watchers.data();
    Watcher* const end = begin + watchers.size();
    Watcher* keep = begin;
    for (Watcher* i = begin; i != end;) {
      const Watcher w = *i++;
      // Fast path: the blocker already satisfies the clause.
      const LBool blocker_value = Value(w.blocker);
      if (blocker_value == LBool::kTrue) {
        *keep++ = w;
        continue;
      }
      ClauseRef conflict = kNoClause;
      if (w.binary()) {
        // The blocker is the other literal: the clause is unit or false.
        *keep++ = w;
        if (blocker_value == LBool::kUndef) {
          UncheckedEnqueue(w.blocker, w.clause());
          continue;
        }
        // Analyze reads a conflict clause as propagation ordered it.
        Clause c = arena_.At(w.clause());
        c.Set(0, w.blocker);
        c.Set(1, false_lit);
        conflict = w.clause();
      } else {
        Clause c = arena_.At(w.clause());
        // Normalise so that the false literal ~p is at position 1.
        if (c[0] == false_lit) c.Swap(0, 1);
        assert(c[1] == false_lit);
        // If the first literal is true the clause is satisfied.
        const Lit first = c[0];
        const LBool first_value = Value(first);
        if (first_value == LBool::kTrue) {
          *keep++ = Watcher{w.tagged, first};
          continue;
        }
        // Look for a new literal to watch.
        bool moved = false;
        const std::uint32_t size = c.size();
        for (std::uint32_t k = 2; k < size; ++k) {
          const Lit candidate = c[k];
          if (Value(candidate) != LBool::kFalse) {
            c.Set(1, candidate);
            c.Set(k, false_lit);
            watches_[(~candidate).index()].push_back(Watcher{w.tagged, first});
            moved = true;
            break;
          }
        }
        if (moved) continue;
        // Clause is unit or conflicting.
        *keep++ = Watcher{w.tagged, first};
        if (first_value == LBool::kUndef) {
          UncheckedEnqueue(first, w.clause());
          continue;
        }
        conflict = w.clause();
      }
      // Conflict: keep the remaining watchers and bail out.
      while (i != end) *keep++ = *i++;
      watchers.resize(static_cast<std::size_t>(keep - begin));
      propagate_head_ = trail_.size();
      return conflict;
    }
    watchers.resize(static_cast<std::size_t>(keep - begin));
  }
  return kNoClause;
}

Clause Solver::ReasonFor(Lit implied) {
  Clause c = arena_.At(reason_[implied.var()]);
  // Propagation leaves a binary clause as it was attached; bring the
  // implied literal to the front, where longer reasons keep it.
  if (c.size() == 2 && c[0] != implied) c.Swap(0, 1);
  assert(c[0] == implied);
  return c;
}

int Solver::ComputeLbd(const std::vector<Lit>& lits) {
  // Count distinct decision levels: a level is counted once it carries
  // this call's stamp.
  if (level_stamp_.size() <= static_cast<std::size_t>(DecisionLevel())) {
    level_stamp_.resize(static_cast<std::size_t>(DecisionLevel()) + 1, 0);
  }
  ++lbd_stamp_;
  int count = 0;
  for (Lit l : lits) {
    std::uint64_t& stamp = level_stamp_[level_[l.var()]];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++count;
    }
  }
  return count;
}

void Solver::Analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     int& bt_level, int& lbd) {
  learnt.clear();
  learnt.push_back(kUndefLit);  // placeholder for the asserting literal

  int counter = 0;  // literals of the current level awaiting resolution
  Lit p = kUndefLit;
  std::size_t trail_index = trail_.size();

  do {
    Clause c = p == kUndefLit ? arena_.At(conflict) : ReasonFor(p);
    if (c.learnt()) ClauseBumpActivity(c);
    for (std::uint32_t i = (p == kUndefLit ? 0 : 1); i < c.size(); ++i) {
      const Lit q = c[i];
      const Var v = q.var();
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      analyze_clear_.push_back(q);
      VarBumpActivity(v);
      if (level_[v] >= DecisionLevel()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Select the next literal of the current level to resolve on.
    while (!seen_[trail_[trail_index - 1].var()]) --trail_index;
    p = trail_[--trail_index];
    seen_[p.var()] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[learnt[i].var()] & 31);
  }
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[learnt[i].var()] == kNoClause ||
        !LitRedundant(learnt[i], abstract_levels)) {
      learnt[kept++] = learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  learnt.resize(kept);

  // Backtrack level: the second-highest level in the clause.
  if (learnt.size() == 1) {
    bt_level = 0;
  } else {
    std::size_t max_index = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_index].var()]) {
        max_index = i;
      }
    }
    std::swap(learnt[1], learnt[max_index]);
    bt_level = level_[learnt[1].var()];
  }

  lbd = ComputeLbd(learnt);

  for (Lit l : analyze_clear_) seen_[l.var()] = 0;
  analyze_clear_.clear();
}

bool Solver::LitRedundant(Lit l, std::uint32_t abstract_levels) {
  // MiniSat's recursive minimization: l is redundant if every literal in
  // its reason (transitively) is already seen or at level 0.
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit current = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason_[current.var()] != kNoClause);
    const Clause c = ReasonFor(~current);
    for (std::uint32_t i = 1; i < c.size(); ++i) {
      const Lit q = c[i];
      const Var v = q.var();
      if (seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNoClause ||
          ((1u << (level_[v] & 31)) & abstract_levels) == 0) {
        // Not removable: undo the marks added during this check.
        for (std::size_t j = top; j < analyze_clear_.size(); ++j) {
          seen_[analyze_clear_[j].var()] = 0;
        }
        analyze_clear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      analyze_clear_.push_back(q);
      analyze_stack_.push_back(q);
    }
  }
  return true;
}

void Solver::VarBumpActivity(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_position_[v] >= 0) HeapUpdate(v);
}

void Solver::ClauseBumpActivity(Clause c) {
  c.set_activity(c.activity() + clause_inc_);
  if (c.activity() > 1e20) {
    for (ClauseRef ref : learnt_clauses_) {
      Clause learnt = arena_.At(ref);
      learnt.set_activity(learnt.activity() * 1e-20);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::HeapInsert(Var v) {
  heap_position_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  HeapSiftUp(heap_position_[v]);
}

void Solver::HeapUpdate(Var v) { HeapSiftUp(heap_position_[v]); }

Var Solver::HeapPop() {
  const Var top = heap_[0];
  heap_position_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_position_[heap_[0]] = 0;
    HeapSiftDown(0);
  }
  return top;
}

void Solver::HeapSiftUp(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!HeapLess(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_position_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_position_[v] = i;
}

void Solver::HeapSiftDown(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && HeapLess(heap_[child + 1], heap_[child])) ++child;
    if (!HeapLess(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_position_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_position_[v] = i;
}

Lit Solver::PickBranchLit() {
  while (!HeapEmpty()) {
    const Var v = HeapPop();
    if (Value(v) == LBool::kUndef) {
      return Lit::Make(v, polarity_[v]);
    }
  }
  return kUndefLit;
}

void Solver::ReduceDB() {
  // Sort learnt clauses so that high-LBD, low-activity clauses come first
  // and remove the worse half, keeping "glue" clauses (LBD <= 2) and
  // clauses currently locked as reasons.
  std::sort(learnt_clauses_.begin(), learnt_clauses_.end(),
            [&](ClauseRef a, ClauseRef b) {
              const Clause ca = arena_.At(a);
              const Clause cb = arena_.At(b);
              if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
              return ca.activity() < cb.activity();
            });
  auto locked = [&](ClauseRef ref) {
    const Clause c = arena_.At(ref);
    return Value(c[0]) == LBool::kTrue && reason_[c[0].var()] == ref;
  };
  const std::size_t target = learnt_clauses_.size() / 2;
  std::size_t kept = 0;
  std::size_t removed = 0;
  for (ClauseRef ref : learnt_clauses_) {
    const Clause c = arena_.At(ref);
    if (removed < target && c.lbd() > 2 && c.size() > 2 && !locked(ref)) {
      arena_.Free(ref);
      ++removed;
      ++stats_.deleted_clauses;
    } else {
      learnt_clauses_[kept++] = ref;
    }
  }
  learnt_clauses_.resize(kept);
  CollectGarbage();
}

void Solver::CollectGarbage() {
  ClauseArena to;
  arena_.MoveLiveTo(to);
  // Every reference the solver holds moves with its clause; freed
  // clauses lose their watchers. Surviving watchers keep their order, so
  // propagation visits clauses exactly as it would have.
  for (std::vector<Watcher>& watchers : watches_) {
    std::size_t keep = 0;
    for (const Watcher& w : watchers) {
      if (arena_.At(w.clause()).deleted()) continue;
      const ClauseRef moved = arena_.Forwarded(w.clause());
      watchers[keep++] = Watcher{w.binary() ? moved | 1 : moved, w.blocker};
    }
    watchers.resize(keep);
  }
  for (Lit l : trail_) {
    ClauseRef& reason = reason_[l.var()];
    if (reason != kNoClause) reason = arena_.Forwarded(reason);
  }
  for (ClauseRef& ref : learnt_clauses_) ref = arena_.Forwarded(ref);
  arena_ = std::move(to);
}

Solver::ArenaUsage Solver::arena_usage() const {
  ArenaUsage usage;
  usage.capacity = arena_.capacity();
  usage.live_words = problem_words_;
  for (ClauseRef ref : learnt_clauses_) usage.live_words += arena_.WordsOf(ref);
  return usage;
}

SolveResult Solver::Search(std::int64_t conflicts_allowed,
                           const std::vector<Lit>& assumptions) {
  std::int64_t conflicts_here = 0;
  std::int64_t steps = 0;
  std::vector<Lit>& learnt = learnt_buffer_;

  while (true) {
    // Cooperative interruption (deadlines, cancellation), amortised so
    // the poll — which may read a clock — stays off the hot path. Solve()
    // re-polls after every kUnknown to tell an interrupt from a restart.
    if ((++steps & 63) == 0 && InterruptRequested()) {
      CancelUntil(0);
      return SolveResult::kUnknown;
    }
    const ClauseRef conflict = Propagate();
    if (conflict != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) return SolveResult::kUnsat;
      int bt_level = 0;
      int lbd = 0;
      Analyze(conflict, learnt, bt_level, lbd);
      CancelUntil(bt_level);
      if (learnt.size() == 1) {
        UncheckedEnqueue(learnt[0], kNoClause);
      } else {
        const ClauseRef ref = arena_.Allocate(learnt, true);
        arena_.At(ref).set_lbd(static_cast<std::uint32_t>(lbd));
        learnt_clauses_.push_back(ref);
        ++stats_.learnt_clauses;
        AttachClause(ref);
        ClauseBumpActivity(arena_.At(ref));
        UncheckedEnqueue(learnt[0], ref);
      }
      VarDecayActivity();
      ClauseDecayActivity();
      if (static_cast<int>(learnt_clauses_.size()) >= reduce_threshold_) {
        ReduceDB();
        reduce_threshold_ += options_.reduce_increment;
      }
      continue;
    }

    if (conflicts_allowed >= 0 && conflicts_here >= conflicts_allowed) {
      ++stats_.restarts;
      CancelUntil(0);
      return SolveResult::kUnknown;  // restart
    }
    if (options_.conflict_budget >= 0 &&
        static_cast<std::int64_t>(stats_.conflicts) >=
            options_.conflict_budget) {
      CancelUntil(0);
      return SolveResult::kUnknown;
    }

    // Respect assumptions before free decisions.
    Lit next = kUndefLit;
    while (DecisionLevel() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[DecisionLevel()];
      if (Value(a) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
      } else if (Value(a) == LBool::kFalse) {
        // The assumptions are jointly inconsistent with the formula.
        CancelUntil(0);
        return SolveResult::kUnsat;
      } else {
        next = a;
        break;
      }
    }

    if (next == kUndefLit) {
      next = PickBranchLit();
      if (next == kUndefLit) {
        // All variables assigned: a model.
        model_.resize(level_.size());
        for (std::size_t v = 0; v < model_.size(); ++v) {
          model_[v] = values_[2 * v];
        }
        CancelUntil(0);
        return SolveResult::kSat;
      }
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    UncheckedEnqueue(next, kNoClause);
  }
}

SolveResult Solver::Solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return SolveResult::kUnsat;
  if (InterruptRequested()) return SolveResult::kUnknown;
  CancelUntil(0);
  if (Propagate() != kNoClause) {
    ok_ = false;
    return SolveResult::kUnsat;
  }
  // Online conflict-rate estimation for the deadline hint: measured over
  // this Solve() call only, so a long-lived incremental solver re-learns
  // the rate of the formula it currently has.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point solve_start = Clock::now();
  const std::uint64_t conflicts_at_start = stats_.conflicts;
  std::int64_t restart = 0;
  while (true) {
    std::int64_t budget = Luby(restart) * options_.restart_base;
    if (deadline_hint_.has_value()) {
      const double remaining =
          std::chrono::duration<double>(*deadline_hint_ - Clock::now())
              .count();
      if (remaining <= 0) return SolveResult::kUnknown;  // budget spent
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - solve_start).count();
      const std::uint64_t done = stats_.conflicts - conflicts_at_start;
      if (done > 0 && elapsed > 0) {
        // Spend at most ~80% of the projected remaining conflict
        // throughput: the margin is what turns "chopped mid-restart by
        // the poll" into "returned kUnknown at a boundary".
        const auto affordable =
            static_cast<std::int64_t>(done / elapsed * remaining * 0.8);
        if (affordable < 1) return SolveResult::kUnknown;
        budget = std::min(budget, affordable);
      }
    }
    const SolveResult result = Search(budget, assumptions);
    if (result != SolveResult::kUnknown) return result;
    if (InterruptRequested()) return SolveResult::kUnknown;
    if (options_.conflict_budget >= 0 &&
        static_cast<std::int64_t>(stats_.conflicts) >=
            options_.conflict_budget) {
      return SolveResult::kUnknown;
    }
    ++restart;
  }
}

}  // namespace whyprov::sat
