#![warn(missing_docs)]

//! The LDL1 universe of values.
//!
//! The paper (§2.2) defines the LDL1 universe `U` as the ω-closure of the
//! Herbrand universe `U₀` under finite subsets and (non-`scons`) function
//! application:
//!
//! ```text
//! G_{n,0} = U_{n-1} ∪ F(U_{n-1})          (F = finite subsets)
//! G_{n,j} = G_{n,j-1} ∪ { f(t₁..t_k) | tᵢ ∈ G_{n,j-1} }
//! U_n     = ⋃_j G_{n,j},    U = ⋃_n U_n
//! ```
//!
//! [`Value`] is a finite representation of elements of `U`: integers, strings,
//! atoms, compound terms over interned functors, and canonical finite sets.
//! The crate also provides:
//!
//! * one append-only arena with lock-free reads, in two process-global
//!   instances: [`Symbol`]'s names, and [`intern`]'s hash-consed values,
//!   each distinct ground value a dense [`ValueId`] — the representation
//!   the evaluation engine runs on,
//! * the total order on values used to keep sets canonical,
//! * the *domination* partial order of §2.4 (both the basic, argument-wise
//!   variant and the "more elaborate" recursive variant from the Remark),
//! * ground facts ([`Fact`]) and interpretations ([`FactSet`]),
//! * integer arithmetic used by the built-in arithmetic predicates.

mod arena;
pub mod arith;
pub mod fact;
pub mod fxhash;
pub mod intern;
pub mod order;
pub mod set;
pub mod symbol;
pub mod value;

pub use fact::{Fact, FactSet};
pub use intern::ValueId;
pub use order::{dominates, dominates_elaborate, fact_dominates, factset_dominated};
pub use set::SetValue;
pub use symbol::Symbol;
pub use value::Value;
