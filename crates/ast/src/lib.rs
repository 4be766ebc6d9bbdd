#![warn(missing_docs)]

//! Abstract syntax for LDL1 / LDL1.5 programs.
//!
//! Follows §2.1 of the paper:
//!
//! * *simple terms*: variables, constants, `f(t₁…tₙ)`;
//! * *LDL1 terms* add `{}` (the empty set), `scons`, enumerated sets
//!   `{t₁,…,tₙ}` (sugar for nested `scons`), and grouping terms `<X>`;
//! * LDL1.5 (§4) additionally allows arbitrary *head terms* mixing tuples,
//!   functors and `<…>` at any nesting depth, and `<t>` patterns in bodies —
//!   the `ldl-transform` crate macro-expands the heads away, and the
//!   evaluator matches a body `<t>` natively;
//! * a *rule* is `head <- body` with a positive head predicate and a
//!   (possibly empty) sequence of body literals; a rule with `<…>` in its
//!   head is a *grouping rule* and must have an all-positive body.
//!
//! Well-formedness (§2.1 restrictions plus the §7 range-restriction needed
//! for bottom-up evaluation) is checked by [`wf`].

pub mod gensym;
pub mod literal;
pub mod program;
pub mod rule;
pub mod term;
pub mod wf;

pub use literal::{Atom, Literal};
pub use program::Program;
pub use rule::Rule;
pub use term::{Term, Var};
