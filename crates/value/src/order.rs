//! The domination partial order of §2.4.
//!
//! Classical set-inclusion minimality fails for LDL1 (§2.3): intersections of
//! models need not be models, and positive programs can have several
//! incomparable set-inclusion-minimal models. The paper therefore compares
//! models through *domination*:
//!
//! * **basic**: a U-fact `p(s₁…sₙ)` is dominated by `p(s₁′…sₙ′)` iff for each
//!   argument position, set arguments satisfy `sᵢ ⊆ sᵢ′` and non-set
//!   arguments are equal;
//! * **elaborate** (the Remark): the relation is pushed inside compound terms
//!   (argument-wise) and inside sets (`∀a ∈ s ∃b ∈ s′, a ≤ b`).
//!
//! A model `M` is *minimal* iff there is no model `M′ ≠ M` with
//! `(M′ − M) ≤ (M − M′)`, where a fact-set `A` is dominated by `B` when every
//! fact of `A` is the image of some fact of `B` under a preserving function —
//! equivalently, every fact in `A` is dominated by some fact in `B`.

use crate::fact::{Fact, FactSet};
use crate::value::Value;

/// Basic domination on values *at argument position level*: sets by `⊆`,
/// everything else by equality (§2.4, first definition).
pub fn dominates(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Set(sa), Value::Set(sb)) => sa.iter().all(|x| sb.contains(x)),
        _ => a == b,
    }
}

/// Elaborate domination on values (§2.4 Remark): recursive through compound
/// terms and sets.
pub fn dominates_elaborate(a: &Value, b: &Value) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (Value::Compound(ca), Value::Compound(cb)) => {
            ca.functor() == cb.functor()
                && ca.arity() == cb.arity()
                && ca
                    .args()
                    .iter()
                    .zip(cb.args())
                    .all(|(x, y)| dominates_elaborate(x, y))
        }
        (Value::Set(sa), Value::Set(sb)) => sa
            .iter()
            .all(|x| sb.iter().any(|y| dominates_elaborate(x, y))),
        _ => false,
    }
}

/// Basic domination on U-facts: same predicate and arity, argument-wise
/// [`dominates`].
pub fn fact_dominates(a: &Fact, b: &Fact) -> bool {
    a.pred() == b.pred()
        && a.arity() == b.arity()
        && a.args().iter().zip(b.args()).all(|(x, y)| dominates(x, y))
}

/// Fact-set domination `A ≤ B`: every fact of `A` is dominated by some fact
/// of `B` (the image-of-a-preserving-function condition).
pub fn factset_dominated(a: &FactSet, b: &FactSet) -> bool {
    a.iter().all(|fa| b.iter().any(|fb| fact_dominates(fa, fb)))
}

/// The §2.4 minimality comparison: is `cand` "at least as small" a model as
/// `m`, i.e. does `(cand − m) ≤ (m − cand)` hold with `cand ≠ m`?
///
/// If this returns true for some model `cand`, then `m` is *not* minimal.
pub fn strictly_smaller_model(cand: &FactSet, m: &FactSet) -> bool {
    if cand == m {
        return false;
    }
    let cand_minus_m: FactSet = cand.difference(m).cloned().collect();
    let m_minus_cand: FactSet = m.difference(cand).cloned().collect();
    factset_dominated(&cand_minus_m, &m_minus_cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn set(xs: &[i64]) -> Value {
        Value::set(xs.iter().map(|&i| Value::int(i)))
    }

    fn fact(p: &str, args: Vec<Value>) -> Fact {
        Fact::new(Symbol::intern(p), args)
    }

    #[test]
    fn basic_domination_on_sets() {
        assert!(dominates(&set(&[1]), &set(&[1, 2])));
        assert!(!dominates(&set(&[1, 3]), &set(&[1, 2])));
        assert!(dominates(&set(&[]), &set(&[])));
    }

    #[test]
    fn basic_domination_on_non_sets_is_equality() {
        assert!(dominates(&Value::int(1), &Value::int(1)));
        assert!(!dominates(&Value::int(1), &Value::int(2)));
        // Basic domination does NOT look inside compounds.
        let f1 = Value::compound("f", vec![set(&[1])]);
        let f12 = Value::compound("f", vec![set(&[1, 2])]);
        assert!(!dominates(&f1, &f12));
    }

    #[test]
    fn elaborate_domination_reaches_inside_compounds() {
        let f1 = Value::compound("f", vec![set(&[1])]);
        let f12 = Value::compound("f", vec![set(&[1, 2])]);
        assert!(dominates_elaborate(&f1, &f12));
        assert!(!dominates_elaborate(&f12, &f1));
    }

    #[test]
    fn elaborate_domination_inside_sets_uses_exists() {
        // {{1}} ≤ {{1,2},{3}} because {1} ≤ {1,2}.
        let a = Value::set(vec![set(&[1])]);
        let b = Value::set(vec![set(&[1, 2]), set(&[3])]);
        assert!(dominates_elaborate(&a, &b));
        assert!(!dominates_elaborate(&b, &a));
    }

    #[test]
    fn elaborate_is_reflexive_and_extends_basic() {
        let vals = [Value::int(3), set(&[1, 2]), Value::atom("x")];
        for v in &vals {
            assert!(dominates_elaborate(v, v));
        }
        for a in &vals {
            for b in &vals {
                if dominates(a, b) {
                    assert!(dominates_elaborate(a, b));
                }
            }
        }
    }

    #[test]
    fn fact_domination_requires_same_predicate() {
        let f = fact("p", vec![set(&[1])]);
        let g = fact("q", vec![set(&[1, 2])]);
        assert!(!fact_dominates(&f, &g));
        let g2 = fact("p", vec![set(&[1, 2])]);
        assert!(fact_dominates(&f, &g2));
    }

    /// The §2.4 example: M₂ = {q(1), p({1})} is smaller than
    /// M₁ = {q(1), q(2), p({1,2})} because
    /// M₂−M₁ = {p({1})} ≤ {p({1,2}), q(2)} = M₁−M₂.
    #[test]
    fn paper_section_24_example() {
        let m1: FactSet = [
            fact("q", vec![Value::int(1)]),
            fact("q", vec![Value::int(2)]),
            fact("p", vec![set(&[1, 2])]),
        ]
        .into_iter()
        .collect();
        let m2: FactSet = [fact("q", vec![Value::int(1)]), fact("p", vec![set(&[1])])]
            .into_iter()
            .collect();
        assert!(strictly_smaller_model(&m2, &m1));
        assert!(!strictly_smaller_model(&m1, &m2));
    }

    #[test]
    fn equal_sets_are_not_strictly_smaller() {
        let m: FactSet = [fact("q", vec![Value::int(1)])].into_iter().collect();
        assert!(!strictly_smaller_model(&m.clone(), &m));
    }
}
