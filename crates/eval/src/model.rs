//! The reference semantics: §2.2 model checking and the §3.2 fixpoint,
//! executed literally.
//!
//! Independently of the engine ([`crate::fixpoint`], [`crate::exec`]), this
//! module defines what a program *means* in the most direct code that can
//! compute it, for tests to compare the engine against:
//!
//! * [`check_model`] decides whether a given interpretation (a finite set
//!   of U-facts) *is a model* of a program: every rule must evaluate to
//!   true under it (§2.2). Used to reproduce the paper's model-theoretic
//!   examples — the §2.2 model example, the §2.3 failures (intersection of
//!   models not a model, the Russell-style program with no model, positive
//!   programs with several minimal models) — and to verify that the
//!   engine's computed model is indeed a model.
//! * [`reference_model`] computes the standard model by iterating
//!   `R(M) = ⋃ r(M) ∪ M` layer by layer (§3.2, Theorem 1) — no deltas, no
//!   statistics, no lowering, no budget.
//!
//! Both are built on `apply_rule`, the paper's `r(M)`: a tree-walking
//! interpreter over the engine's own plans ([`RulePlan::compile`]) that
//! enumerates every body solution (it never reads the existential tail),
//! matches with the term-tree matcher ([`crate::unify`]), walks the
//! relation for an `_`-negation, and counts nothing.

use std::fmt;

use ldl_ast::program::Program;
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;
use ldl_storage::{resolve_fact, Database};
use ldl_stratify::Stratification;
use ldl_value::{Fact, FactSet, Symbol, ValueId};

use crate::bindings::Bindings;
use crate::builtins::eval_builtin;
use crate::error::EvalError;
use crate::grouping::Groups;
use crate::plan::{check_arity, ensure_plan_indexes, has_anon, HeadKind, RulePlan, Step};
use crate::stats::EvalStats;
use crate::unify::{eval_term, match_slice};

/// Enumerate the solutions of `plan`'s body against `db`, calling `k` once
/// per solution with the satisfying bindings. Scans probe a hash index when
/// `db` happens to hold one on the bound columns and walk the relation
/// otherwise.
fn run_body(plan: &RulePlan, db: &Database, k: &mut dyn FnMut(&mut Bindings)) {
    run_steps(plan, 0, db, &mut Bindings::new(), k);
}

fn run_steps(
    plan: &RulePlan,
    i: usize,
    db: &Database,
    b: &mut Bindings,
    k: &mut dyn FnMut(&mut Bindings),
) {
    let Some(step) = plan.steps.get(i) else {
        k(b);
        return;
    };
    match step {
        Step::Scan {
            pred,
            args,
            index_cols,
        } => {
            let Some(rel) = db.relation(*pred) else {
                return; // a positive literal over ∅ has no solutions
            };
            let mut on_tuple = |tuple: &[ValueId], b: &mut Bindings| {
                match_slice(args, tuple, b, &mut |b2| {
                    run_steps(plan, i + 1, db, b2, k);
                });
            };
            let idx = if index_cols.is_empty() {
                None
            } else {
                rel.index(index_cols)
            };
            let Some(idx) = idx else {
                for tuple in rel.iter() {
                    on_tuple(tuple, b);
                }
                return;
            };
            let key: Option<Vec<ValueId>> =
                index_cols.iter().map(|&c| eval_term(&args[c], b)).collect();
            // A key term outside U matches no tuple.
            if let Some(key) = key {
                for &pos in idx.probe(&key) {
                    on_tuple(rel.get(pos), b);
                }
            }
        }
        Step::NegScan { pred, args, .. } => {
            if neg_holds(*pred, args, db, b) {
                run_steps(plan, i + 1, db, b, k);
            }
        }
        Step::BuiltinStep {
            builtin,
            args,
            negated,
        } => {
            if *negated {
                let mut any = false;
                eval_builtin(*builtin, args, b, &mut |_| any = true);
                if !any {
                    run_steps(plan, i + 1, db, b, k);
                }
            } else {
                eval_builtin(*builtin, args, b, &mut |b2| {
                    run_steps(plan, i + 1, db, b2, k);
                });
            }
        }
    }
}

/// §3.2 (2′): does ¬Bθ hold, i.e. is Bθ ∉ M? Named variables are bound here
/// (planner guarantee); anonymous variables make this a negated
/// *existential* — the shape of the paper's own §6 rule
/// `young(X, <Y>) <- ¬a(X, Z), sg(X, Y)` when written safely as `~a(X, _)`
/// ("X has no descendants") — decided by walking the relation to the first
/// match, with no index.
fn neg_holds(pred: Symbol, args: &[Term], db: &Database, b: &mut Bindings) -> bool {
    let Some(rel) = db.relation(pred) else {
        return true;
    };
    if args.iter().any(has_anon) {
        let mut any = false;
        for tuple in rel.iter() {
            match_slice(args, tuple, b, &mut |_| any = true);
            if any {
                return false;
            }
        }
        return true;
    }
    // An argument outside U: Bθ is not a U-fact, so it is certainly not in
    // M; the negation succeeds.
    let vals: Option<Vec<ValueId>> = args.iter().map(|t| eval_term(t, b)).collect();
    vals.is_none_or(|vals| !rel.contains(&vals))
}

/// §3.2's `r(M)`: the head tuples rule `plan` derives from `db` in one
/// application, duplicates included.
///
/// A simple head is projected once per body solution; an argument
/// evaluating outside `U` (scons onto a non-set, arithmetic failure)
/// derives nothing (the applicability condition). A grouping head
/// `p(t̄, <Y>)` partitions the solutions by the variables of `t̄` and
/// derives one tuple per non-empty class (§2.2).
pub(crate) fn apply_rule(plan: &RulePlan, db: &Database) -> Vec<Vec<ValueId>> {
    match plan.head_kind {
        HeadKind::Simple => {
            let mut out = Vec::new();
            run_body(plan, db, &mut |b| {
                let tuple: Option<Vec<ValueId>> =
                    plan.head.args.iter().map(|t| eval_term(t, b)).collect();
                out.extend(tuple);
            });
            out
        }
        HeadKind::Grouping {
            group_pos,
            group_var,
        } => {
            let zbar = plan.head.vars_outside_group();
            let mut groups = Groups::default();
            run_body(plan, db, &mut |b| {
                // Range restriction guarantees Y and Z̄ are bound; an
                // unbound variable here means the rule slipped past
                // well-formedness — fail loudly.
                let Some(y) = b.get(group_var) else {
                    panic!("group variable {group_var} unbound in grouping rule");
                };
                let key: Option<Vec<ValueId>> = zbar.iter().map(|&z| b.get(z)).collect();
                let Some(key) = key else {
                    panic!("head variable unbound in grouping rule");
                };
                groups.add(key, y, || {
                    plan.head
                        .args
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != group_pos)
                        .map(|(_, t)| eval_term(t, b))
                        .collect()
                });
            });
            groups.into_tuples(group_pos)
        }
    }
}

/// The standard model of `program` w.r.t. `edb` (Theorem 1), computed by
/// the definition: take the canonical layering, and within each layer
/// repeat `R_{i+1}(M) = ⋃ r(R_i(M)) ∪ R_i(M)` — every rule of the layer
/// applied to the same `R_i(M)` — until nothing is added.
///
/// Grouping rules take part in every round: admissibility puts their body
/// predicates strictly below the layer, so each round re-derives the same
/// groups (Lemma 3.2.3's "apply them once, first" is an optimization this
/// reference does not need). `program` must be well-formed, as for
/// [`check_model`]; an inadmissible program or an unschedulable rule is an
/// error. Cost is that of naive iteration — every round re-derives
/// everything — so this is the oracle the engine is tested against, not a
/// way to run programs.
pub fn reference_model(program: &Program, edb: &Database) -> Result<Database, EvalError> {
    let strat = Stratification::canonical(program)?;
    let mut m = edb.clone();
    for layer in &strat.rules_by_layer {
        let plans: Vec<RulePlan> = layer
            .iter()
            .map(|&ri| RulePlan::compile(&program.rules[ri], None))
            .collect::<Result<_, _>>()?;
        loop {
            // Indexes only shorten the scans (a relation first derived in
            // this layer gets its index the round after it appears).
            for plan in &plans {
                ensure_plan_indexes(plan, &mut m, &mut EvalStats::default())?;
            }
            let derived: Vec<(Symbol, Vec<ValueId>)> = plans
                .iter()
                .flat_map(|plan| {
                    apply_rule(plan, &m)
                        .into_iter()
                        .map(|t| (plan.head.pred, t))
                })
                .collect();
            let mut grew = false;
            for (pred, tuple) in derived {
                check_arity(&m, pred, tuple.len())?;
                grew |= m.insert_id_slice(pred, &tuple);
            }
            if !grew {
                break;
            }
        }
    }
    Ok(m)
}

/// A witness that an interpretation is not a model.
#[derive(Clone, Debug)]
pub struct ModelViolation {
    /// The rule that evaluates to false.
    pub rule: Rule,
    /// A required head fact missing from the interpretation.
    pub missing: Fact,
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {} requires {} which the interpretation lacks",
            self.rule, self.missing
        )
    }
}

/// Is `m` a model of `program` (§2.2)? Returns the first violation found.
///
/// `m` is a model iff `r(m) ⊆ m` for every rule `r`: each body solution's
/// head fact — for a grouping rule, each `Z̄`-class's fact with its
/// non-empty finite group — must be present. Only range-restricted rules
/// are supported (the §7 restriction) — the search for satisfying bindings
/// then ranges over `m` itself rather than over all of `U`.
pub fn check_model(program: &Program, m: &FactSet) -> Result<(), ModelViolation> {
    let mut db = Database::from_fact_set(m);
    for rule in &program.rules {
        let plan = match RulePlan::compile(rule, None) {
            Ok(p) => p,
            Err(EvalError::Unschedulable { .. }) => {
                // A rule we cannot enumerate bindings for; with range
                // restriction enforced upstream this cannot happen.
                panic!("model checking requires range-restricted rules: {rule}")
            }
            Err(e) => panic!("model checking failed to compile {rule}: {e}"),
        };
        if let Err(e) = ensure_plan_indexes(&plan, &mut db, &mut EvalStats::default()) {
            panic!("model checking cannot run {rule}: {e}");
        }
        for tuple in apply_rule(&plan, &db) {
            let required = resolve_fact(plan.head.pred, &tuple);
            if !m.contains(&required) {
                return Err(ModelViolation {
                    rule: rule.clone(),
                    missing: required,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;
    use ldl_value::Value;

    fn facts(list: &[Fact]) -> FactSet {
        list.iter().cloned().collect()
    }

    fn set(xs: &[i64]) -> Value {
        Value::set(xs.iter().map(|&i| Value::int(i)))
    }

    /// §2.2 example: q(X) <- p(X), h(X); p(<X>) <- r(X); r(1); h({1}).
    /// {r(1), h({1}), p({1}), q({1})} is a model; {r(1), h({1}), p({1,2})}
    /// is not.
    #[test]
    fn section_22_example() {
        let p = parse_program(
            "q(X) <- p(X), h(X).\n\
             p(<X>) <- r(X).\n\
             r(1).\n\
             h({1}).",
        )
        .unwrap();
        let good = facts(&[
            Fact::new("r", vec![Value::int(1)]),
            Fact::new("h", vec![set(&[1])]),
            Fact::new("p", vec![set(&[1])]),
            Fact::new("q", vec![set(&[1])]),
        ]);
        assert!(check_model(&p, &good).is_ok());

        let bad = facts(&[
            Fact::new("r", vec![Value::int(1)]),
            Fact::new("h", vec![set(&[1])]),
            Fact::new("p", vec![set(&[1, 2])]),
        ]);
        let err = check_model(&p, &bad).unwrap_err();
        // p(<X>) <- r(X) demands p({1}).
        assert_eq!(err.missing, Fact::new("p", vec![set(&[1])]));
    }

    /// §2.3: models are not closed under intersection for LDL1.
    #[test]
    fn intersection_of_models_not_a_model() {
        let p = parse_program("p(<X>) <- q(X).").unwrap();
        let a = facts(&[
            Fact::new("q", vec![Value::int(1)]),
            Fact::new("q", vec![Value::int(2)]),
            Fact::new("p", vec![set(&[1, 2])]),
        ]);
        let b = facts(&[
            Fact::new("q", vec![Value::int(2)]),
            Fact::new("q", vec![Value::int(3)]),
            Fact::new("p", vec![set(&[2, 3])]),
        ]);
        assert!(check_model(&p, &a).is_ok());
        assert!(check_model(&p, &b).is_ok());
        let inter: FactSet = a.intersection(&b).cloned().collect();
        // A ∩ B = {q(2)} — not a model: p({2}) is missing.
        let err = check_model(&p, &inter).unwrap_err();
        assert_eq!(err.missing, Fact::new("p", vec![set(&[2])]));
    }

    /// §2.3: the Russell-style program has no model; every candidate built
    /// from grouped p-sets fails.
    #[test]
    fn russell_program_has_no_finite_model() {
        let p = parse_program("p(<X>) <- p(X). p(1).").unwrap();
        // p(1) alone: the grouping rule demands p({1}).
        let m1 = facts(&[Fact::new("p", vec![Value::int(1)])]);
        assert!(check_model(&p, &m1).is_err());
        // Chase the requirement a few steps: each candidate spawns a new one.
        let m2 = facts(&[
            Fact::new("p", vec![Value::int(1)]),
            Fact::new("p", vec![set(&[1])]),
        ]);
        assert!(check_model(&p, &m2).is_err());
        let m3 = facts(&[
            Fact::new("p", vec![Value::int(1)]),
            Fact::new("p", vec![set(&[1])]),
            Fact::new("p", vec![Value::set(vec![Value::int(1), set(&[1])])]),
        ]);
        assert!(check_model(&p, &m3).is_err());
    }

    /// §2.3 / §2.4: P = {p(<X>) <- q(X); q(Y) <- w(S,Y), p(S); q(1);
    /// w({1},7)} has two incomparable minimal models M₁ and M₂.
    #[test]
    fn two_minimal_models_program() {
        let p = parse_program(
            "p(<X>) <- q(X).\n\
             q(Y) <- w(S, Y), p(S).\n\
             q(1).\n\
             w({1}, 7).",
        )
        .unwrap();
        let base = [
            Fact::new("q", vec![Value::int(1)]),
            Fact::new("w", vec![set(&[1]), Value::int(7)]),
        ];
        // M = base is not a model.
        assert!(check_model(&p, &facts(&base)).is_err());
        // Even adding p({7}) does not make it one (the paper notes this).
        let mut with_p7 = base.to_vec();
        with_p7.push(Fact::new("p", vec![set(&[7])]));
        assert!(check_model(&p, &facts(&with_p7)).is_err());
        // M₁ = M ∪ {q(2)... } — wait, the paper's M₁ uses q(7) from w({1},7):
        // p({1}) forces q(7) (via w), then p must group {1, 7}: the paper's
        // M₁ = M ∪ {q(7), p({1,7})}. Checked here:
        let m1 = facts(&[
            Fact::new("q", vec![Value::int(1)]),
            Fact::new("w", vec![set(&[1]), Value::int(7)]),
            Fact::new("q", vec![Value::int(7)]),
            Fact::new("p", vec![set(&[1, 7])]),
        ]);
        assert!(check_model(&p, &m1).is_ok());
    }

    /// §2.4 minimality example: M₁ = {q(1), q(2), p({1,2})} and
    /// M₂ = {q(1), p({1})} are both models; M₂ dominates-below M₁.
    #[test]
    fn domination_minimality_example() {
        let p = parse_program(
            "q(1).\n\
             p(<X>) <- q(X).\n\
             q(2) <- p({1, 2}).",
        )
        .unwrap();
        let m1 = facts(&[
            Fact::new("q", vec![Value::int(1)]),
            Fact::new("q", vec![Value::int(2)]),
            Fact::new("p", vec![set(&[1, 2])]),
        ]);
        let m2 = facts(&[
            Fact::new("q", vec![Value::int(1)]),
            Fact::new("p", vec![set(&[1])]),
        ]);
        assert!(check_model(&p, &m1).is_ok());
        assert!(check_model(&p, &m2).is_ok());
        // M₂ is strictly smaller in the §2.4 order.
        assert!(ldl_value::order::strictly_smaller_model(&m2, &m1));
        assert!(!ldl_value::order::strictly_smaller_model(&m1, &m2));
    }

    #[test]
    fn negation_in_model_checking() {
        let p = parse_program("s(X) <- q(X), ~r(X).").unwrap();
        let ok = facts(&[
            Fact::new("q", vec![Value::int(1)]),
            Fact::new("r", vec![Value::int(1)]),
        ]);
        assert!(check_model(&p, &ok).is_ok()); // r(1) blocks the rule
        let missing_s = facts(&[Fact::new("q", vec![Value::int(1)])]);
        let err = check_model(&p, &missing_s).unwrap_err();
        assert_eq!(err.missing, Fact::new("s", vec![Value::int(1)]));
    }
}
