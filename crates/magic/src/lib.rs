#![warn(missing_docs)]

//! Magic-set compilation of admissible LDL1 programs (§6).
//!
//! The pipeline follows the paper's three steps:
//!
//! 1. **sips** ([`sip`]) — for each rule and each binding pattern of its
//!    head, a *sideways information passing strategy* describing how
//!    bindings flow through the body. Our default sip is the greedy
//!    executable ordering, restricted per the paper: variables that occur in
//!    the head only inside a grouped argument `<X>` never carry bindings
//!    (§6's footnoted condition), and negated literals receive bindings but
//!    supply none.
//! 2. **adornment** ([`adorn`]) — starting from the query's binding
//!    pattern, specialize every reachable IDB predicate by a `b`/`f`
//!    string, exactly as in \[BR87\].
//! 3. **Generalized Supplementary Magic Sets rewriting** ([`rewrite`]) —
//!    `magic_p` predicates restrict each rule, with one magic rule per IDB
//!    body literal reading the sip-preceding literals, plus the query seed;
//!    a prefix that binds what a magic rule needs is joined once, into a
//!    supplementary predicate that the magic rule and the rest of the body
//!    read.
//!
//! The rewritten program "is not layered because of such cyclicity" between
//! magic predicates and guarded bodies; [`eval`] implements the §6
//! evaluation discipline — grouping and negation are applied only once the
//! sub-program feeding them is saturated for every magic tuple seen so far,
//! which is sound because a magic tuple's downward closure is saturated
//! together with it (see `eval`'s module docs).

pub mod adorn;
pub mod eval;
pub mod rewrite;
pub mod sip;

pub use adorn::{AdornedProgram, Adornment};
pub use eval::MagicEvaluator;
pub use rewrite::{rewrite_magic, MagicProgram};
