#ifndef WHYPROV_SAT_TYPES_H_
#define WHYPROV_SAT_TYPES_H_

#include <cstdint>
#include <limits>

namespace whyprov::sat {

/// A Boolean variable, numbered densely from 0.
using Var = std::int32_t;

/// Sentinel for "no variable".
inline constexpr Var kUndefVar = -1;

/// A literal: a variable with a sign. Encoded as 2*var + (negated ? 1 : 0)
/// so that a literal indexes watch lists directly.
class Lit {
 public:
  /// An invalid literal (use for sentinels only).
  constexpr Lit() : code_(-2) {}

  /// Builds the positive (negated=false) or negative literal of `v`.
  static constexpr Lit Make(Var v, bool negated) {
    return Lit(v + v + (negated ? 1 : 0));
  }

  /// The literal whose index() is `index` (an index from a valid literal).
  static constexpr Lit FromIndex(std::int32_t index) { return Lit(index); }

  /// The underlying variable.
  constexpr Var var() const { return code_ >> 1; }

  /// True iff this is the negative literal.
  constexpr bool negated() const { return (code_ & 1) != 0; }

  /// Dense index for watch lists: in [0, 2*num_vars).
  constexpr std::int32_t index() const { return code_; }

  /// The complementary literal.
  constexpr Lit operator~() const { return Lit(code_ ^ 1); }

  friend constexpr bool operator==(Lit a, Lit b) {
    return a.code_ == b.code_;
  }
  friend constexpr bool operator!=(Lit a, Lit b) {
    return a.code_ != b.code_;
  }
  friend constexpr bool operator<(Lit a, Lit b) { return a.code_ < b.code_; }

  /// True iff this literal is valid (was built via Make).
  constexpr bool defined() const { return code_ >= 0; }

 private:
  explicit constexpr Lit(std::int32_t code) : code_(code) {}
  std::int32_t code_;
};

/// Sentinel literal.
inline constexpr Lit kUndefLit{};

/// Three-valued Boolean used for partial assignments.
enum class LBool : std::uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

/// Evaluates a literal under a variable value: flips kTrue/kFalse when the
/// literal is negative, keeps kUndef.
inline LBool EvalLit(LBool var_value, Lit lit) {
  if (var_value == LBool::kUndef) return LBool::kUndef;
  const bool value = (var_value == LBool::kTrue) != lit.negated();
  return value ? LBool::kTrue : LBool::kFalse;
}

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_TYPES_H_
