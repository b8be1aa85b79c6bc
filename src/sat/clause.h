#ifndef WHYPROV_SAT_CLAUSE_H_
#define WHYPROV_SAT_CLAUSE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "sat/types.h"

namespace whyprov::sat {

/// Reference to a clause: its word offset in a `ClauseArena`. Every clause
/// occupies an even number of words, so offsets are even and bit 0 is free
/// for the solver to tag binary clauses in its watchers.
using ClauseRef = std::uint32_t;

/// Sentinel for "no clause" (e.g. a decision's reason). Odd, so it is
/// never a clause's offset.
inline constexpr ClauseRef kNoClause = 0xffffffffu;

/// A view of one clause inside a `ClauseArena`: a pointer to its header.
/// Valid until the arena allocates or is compacted.
class Clause {
 public:
  explicit Clause(std::uint32_t* header) : words_(header) {}

  std::uint32_t size() const { return words_[0]; }
  Lit operator[](std::uint32_t i) const {
    return Lit::FromIndex(static_cast<std::int32_t>(words_[kHeader + i]));
  }
  void Set(std::uint32_t i, Lit lit) {
    words_[kHeader + i] = static_cast<std::uint32_t>(lit.index());
  }
  void Swap(std::uint32_t i, std::uint32_t j) {
    std::swap(words_[kHeader + i], words_[kHeader + j]);
  }

  /// Learnt clauses participate in clause-database reduction.
  bool learnt() const { return (words_[1] & kLearnt) != 0; }
  /// Set by `ClauseArena::Free` until the next compaction.
  bool deleted() const { return (words_[1] & kDeleted) != 0; }
  /// Literal-block distance at learning time (Glucose's quality measure):
  /// the number of distinct decision levels among the clause's literals.
  std::uint32_t lbd() const { return words_[1] >> kFlagBits; }
  void set_lbd(std::uint32_t lbd) {
    words_[1] = (words_[1] & kFlagMask) | (lbd << kFlagBits);
  }

  /// Bump-and-decay activity used to break LBD ties during reduction.
  /// Learnt clauses only: it is stored after the literals.
  double activity() const {
    double value;
    std::memcpy(&value, words_ + kHeader + size(), sizeof(value));
    return value;
  }
  void set_activity(double value) {
    std::memcpy(words_ + kHeader + size(), &value, sizeof(value));
  }

 private:
  friend class ClauseArena;

  static constexpr std::uint32_t kHeader = 2;  // size, flags and LBD
  static constexpr std::uint32_t kLearnt = 1u << 0;
  static constexpr std::uint32_t kDeleted = 1u << 1;
  static constexpr std::uint32_t kFlagBits = 2;
  static constexpr std::uint32_t kFlagMask = (1u << kFlagBits) - 1;

  std::uint32_t* words_;
};

/// Owns all clauses of a solver in one contiguous buffer of 32-bit words.
/// A clause at offset `ref` is laid out as
///
///   ref + 0      size (number of literals, >= 2)
///   ref + 1      flag bits (learnt, deleted), then the LBD
///   ref + 2 ...  the literals, as `Lit::index()` codes
///   (learnt)     the activity, a double over two words
///   (padding)    one zero word if needed to make the total even
///
/// Words are read and written as `std::uint32_t`; the activity is copied
/// with `memcpy`, so no access depends on the buffer's alignment beyond
/// that of `std::uint32_t`.
///
/// Deletion is two-step, as in MiniSat's `ClauseAllocator`: `Free` marks a
/// clause and counts its words as wasted; `MoveLiveTo` later copies every
/// unmarked clause, in address order, into a fresh arena and leaves in
/// each old clause a forwarding reference that `Forwarded` reads, so the
/// owner can rewrite every `ClauseRef` it holds before it drops the old
/// buffer.
class ClauseArena {
 public:
  /// Appends a clause of at least two literals; returns its reference.
  ClauseRef Allocate(std::span<const Lit> lits, bool learnt);

  Clause At(ClauseRef ref) { return Clause(words_.data() + ref); }

  /// Marks a clause deleted; its words stay until `MoveLiveTo`.
  void Free(ClauseRef ref);

  /// Words a clause occupies (header, literals, activity and padding).
  std::size_t WordsOf(ClauseRef ref) const;

  /// Copies every clause not freed into `to` (which must be empty), in
  /// address order. Afterwards this arena answers `Forwarded` and is
  /// otherwise only good for destruction.
  void MoveLiveTo(ClauseArena& to);

  /// The reference in the target of `MoveLiveTo` of a clause it copied.
  ClauseRef Forwarded(ClauseRef ref) const {
    return words_[ref + Clause::kHeader];
  }

  /// Words allocated, in use or not.
  std::size_t capacity() const { return words_.capacity(); }

 private:
  static std::size_t Words(std::size_t num_lits, bool learnt);

  std::vector<std::uint32_t> words_;
  std::size_t wasted_ = 0;
};

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_CLAUSE_H_
