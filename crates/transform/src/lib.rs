#![warn(missing_docs)]

//! Source-to-source transformations: LDL1.5 → LDL1, negation elimination,
//! and the LPS translation.
//!
//! The paper defines LDL1.5 (§4) as LDL1 plus usability features that
//! "can be thought of as source rewriting rules or macros which can be
//! expanded into LDL1 rules":
//!
//! * [`body_angle`] — `<t>` patterns in rule bodies (§4.1). `System` does
//!   not run it: the evaluator matches a body `<t>` natively, and this
//!   macro is the oracle that matcher is tested against;
//! * [`head_terms`] — complex head terms mixing tuples, functors and `<…>`
//!   at any nesting depth (§4.2), via the Distribution / Grouping / Nesting
//!   rewrite rules, their degenerate cases, and the alternative grouping
//!   semantics (ii)′;
//! * [`neg_elim`] — the §3.3 observation that grouping subsumes negation:
//!   any admissible program can be made *positive* using a `⊥` sentinel;
//! * [`lps`] — the §5 embedding of Kuper's LPS (rules with bounded
//!   universal quantifiers) into LDL1.
//!
//! All transformations generate fresh names containing `'`, which the lexer
//! rejects in user programs, so they can never capture user predicates.
//!
//! ### Evaluability
//!
//! The paper's rewrites are *semantic* macros; two of them, taken literally,
//! produce rules that are not range-restricted (the §4.1 `collect` rule and
//! the §3.3 `ok(T̄, ⊥)` fact quantify over all of `U`). We specialize each
//! expansion with a *domain* predicate derived from the positive literals
//! that bind the relevant variables at the use site, which preserves the
//! semantics at every reachable instance while keeping the output
//! bottom-up-evaluable. The same technique makes the §5 translation
//! executable (the paper's version leaves the quantified set variables
//! unbound in the auxiliary rules).

pub mod body_angle;
pub mod head_terms;
pub mod lps;
pub mod neg_elim;

use ldl_ast::program::Program;

/// Compile an LDL1.5 program down to core LDL1 by the paper's macros:
/// eliminate body `<t>` patterns, then complex head terms, repeating until
/// the program is plain LDL1. `System` runs only the head rewrite; this is
/// the whole §4 expansion, kept as an oracle.
pub fn ldl15_to_ldl1(program: &Program) -> Result<Program, TransformError> {
    let p = body_angle::eliminate_body_groups(program)?;
    head_terms::eliminate_complex_heads(&p, head_terms::GroupingSemantics::PerGroup)
}

/// Errors raised by the source transformations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// A `<…>` occurs somewhere the rewrite rules do not reach (inside an
    /// enumerated set, `scons`, or arithmetic).
    UnsupportedGroupPosition(String),
    /// A rule shape the transformation cannot handle.
    Unsupported(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::UnsupportedGroupPosition(s) => {
                write!(f, "<...> in an unsupported position: {s}")
            }
            TransformError::Unsupported(s) => write!(f, "unsupported rule shape: {s}"),
        }
    }
}

impl std::error::Error for TransformError {}
