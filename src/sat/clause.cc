#include "sat/clause.h"

#include <cassert>

namespace whyprov::sat {

std::size_t ClauseArena::Words(std::size_t num_lits, bool learnt) {
  const std::size_t words = Clause::kHeader + num_lits + (learnt ? 2 : 0);
  return words + (words & 1);
}

ClauseRef ClauseArena::Allocate(std::span<const Lit> lits, bool learnt) {
  assert(lits.size() >= 2);
  const std::size_t ref = words_.size();
  assert(ref + Words(lits.size(), learnt) < kNoClause);
  words_.resize(ref + Words(lits.size(), learnt));
  words_[ref] = static_cast<std::uint32_t>(lits.size());
  words_[ref + 1] = learnt ? Clause::kLearnt : 0;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    words_[ref + Clause::kHeader + i] =
        static_cast<std::uint32_t>(lits[i].index());
  }
  return static_cast<ClauseRef>(ref);
}

void ClauseArena::Free(ClauseRef ref) {
  words_[ref + 1] |= Clause::kDeleted;
  wasted_ += WordsOf(ref);
}

std::size_t ClauseArena::WordsOf(ClauseRef ref) const {
  return Words(words_[ref], (words_[ref + 1] & Clause::kLearnt) != 0);
}

void ClauseArena::MoveLiveTo(ClauseArena& to) {
  assert(to.words_.empty());
  to.words_.reserve(words_.size() - wasted_);
  for (std::size_t ref = 0; ref < words_.size();) {
    const std::size_t words = WordsOf(static_cast<ClauseRef>(ref));
    if ((words_[ref + 1] & Clause::kDeleted) == 0) {
      const std::size_t moved = to.words_.size();
      to.words_.insert(to.words_.end(), words_.begin() + ref,
                       words_.begin() + ref + words);
      words_[ref + Clause::kHeader] = static_cast<std::uint32_t>(moved);
    }
    ref += words;
  }
}

}  // namespace whyprov::sat
