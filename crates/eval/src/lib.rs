#![warn(missing_docs)]

//! Bottom-up evaluation of admissible LDL1 programs (§3.2).
//!
//! The evaluator implements the layered fixpoint of Theorem 1: given an
//! admissible program `P` with layering `L₁, …, Lₙ` and an input database
//! `M₀`, it computes `Mᵢ = Lᵢ(Mᵢ₋₁)` layer by layer, where within a layer
//! (Lemma 3.2.3):
//!
//! 1. grouping rules are applied **once**, grouping over the facts of the
//!    lower layers only (admissibility guarantees their body predicates are
//!    strictly below), then
//! 2. the remaining rules run to a fixpoint, with negated literals tested
//!    against the (already complete) lower layers.
//!
//! The result is a minimal model of `P` w.r.t. `M₀` (unique when `P` is
//! positive). Rule bodies are compiled to index-backed join plans
//! ([`plan`]), once per program ([`compiled`]), lowered to register
//! programs ([`ram`], [`exec`]), and iterated semi-naively ([`fixpoint`]).
//! Every pattern is matched, and every built-in evaluated, on the register
//! file by one matcher ([`builtins`]). [`model`] is the reference the
//! engine is tested against: the §2.2 truth definition ([`check_model`],
//! also used to reproduce the §2.3/§2.4 counterexamples) and the §3.2
//! fixpoint executed literally ([`reference_model`]), which shares the
//! matcher and the built-ins but not the executor.

pub mod budget;
pub mod builtins;
pub mod compiled;
pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod fixpoint;
pub mod grouping;
pub mod model;
pub mod plan;
pub mod ram;
pub mod retract;
pub mod stats;

pub use budget::{Budget, CancelToken, ResourceKind};
pub use compiled::{Compiled, PlanTable};
pub use engine::{EvalOptions, Evaluator, QueryAnswer};
pub use error::EvalError;
pub use explain::explain;
pub use model::{check_model, reference_model, ModelViolation};
pub use retract::apply_mutations;
pub use stats::EvalStats;
