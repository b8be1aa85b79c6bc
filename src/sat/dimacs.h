#ifndef WHYPROV_SAT_DIMACS_H_
#define WHYPROV_SAT_DIMACS_H_

#include <string>
#include <string_view>
#include <vector>

#include "sat/cnf_formula.h"
#include "sat/types.h"
#include "util/status.h"

namespace whyprov::sat {

// DIMACS CNF text for `CnfFormula`: DIMACS variable i is solver variable
// i-1, a negative literal is a negated one. Used by tests, the
// dimacs-pipe backend, and the exhaustive reference solver below.

/// Parses DIMACS CNF text ("p cnf <vars> <clauses>" header, 'c' comments,
/// zero-terminated clauses).
util::Result<CnfFormula> ParseDimacs(std::string_view text);

/// Renders a formula's variables and clauses as DIMACS CNF text, with
/// `assumptions` appended as unit clauses. Hints are not rendered.
std::string WriteDimacs(const CnfFormula& formula,
                        const std::vector<Lit>& assumptions = {});

/// Exhaustive truth-table satisfiability check (reference implementation
/// for property tests; practical up to ~24 variables). Returns a model as
/// sign-per-variable when satisfiable.
bool BruteForceSat(const CnfFormula& formula,
                   std::vector<bool>* model = nullptr);

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_DIMACS_H_
