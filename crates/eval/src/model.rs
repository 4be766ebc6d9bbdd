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
//! Both are built on `apply_rule`, the paper's `r(M)`: a walk of the
//! engine's own plan steps ([`RulePlan::compile`]) that enumerates every
//! body solution (it never reads the existential tail), walks the relation
//! for an `_`-negation, and counts nothing. It shares with the engine what
//! a step means — each step's arguments lowered onto a register file
//! (`ram::Matching`), the one matcher and the built-ins ([`crate::builtins`]),
//! the head's lowering and the grouping of its solutions — and none of how
//! the engine runs it: no op list, no fused filters, no row forms.

use std::cell::Cell;
use std::fmt;

use ldl_ast::program::Program;
use ldl_ast::rule::Rule;
use ldl_storage::{resolve_fact, Database};
use ldl_stratify::Stratification;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{Fact, FactSet, Symbol, ValueId};

use crate::builtins::{eval_builtin, match_args, value, waited, Cont};
use crate::error::EvalError;
use crate::grouping::Groups;
use crate::plan::{check_arity, ensure_plan_indexes, has_anon, RulePlan, Step};
use crate::ram::{eval_expr, lower_head, Arg, HeadIr, Matching, Wait};
use crate::stats::EvalStats;

/// A step's lowered arguments, and the arithmetic waiting for the end of
/// its match.
type StepArgs = (Box<[Arg]>, Box<[Wait]>);

/// A plan's body with each step's arguments lowered, in step order, onto
/// one register file; a built-in's error, once met, stops the walk.
struct Walk<'a> {
    plan: &'a RulePlan,
    db: &'a Database,
    args: Vec<StepArgs>,
    error: Cell<Option<EvalError>>,
}

impl Walk<'_> {
    /// Enumerate the solutions of the steps from `i` on, calling `k` once
    /// per solution; `true` when the walk stopped. A scan probes a hash
    /// index when `db` happens to hold one on its bound columns and walks
    /// the relation otherwise.
    fn run(&self, i: usize, regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
        let Some(step) = self.plan.steps.get(i) else {
            return k(regs);
        };
        let (args, waits) = &self.args[i];
        let mut next = |regs: &mut [ValueId]| self.run(i + 1, regs, k);
        match step {
            Step::Scan {
                pred, index_cols, ..
            } => {
                let Some(rel) = self.db.relation(*pred) else {
                    return false; // a positive literal over ∅ has no solutions
                };
                let mut row = |t: &[ValueId], regs: &mut [ValueId]| {
                    match_args(args, t, waits, regs, &mut next)
                };
                match rel.index(index_cols).filter(|_| !index_cols.is_empty()) {
                    None => rel.iter().any(|t| row(t, regs)),
                    Some(idx) => {
                        let key: Option<Vec<ValueId>> =
                            index_cols.iter().map(|&c| value(&args[c], regs)).collect();
                        // A key term outside U matches no tuple.
                        key.is_some_and(|key| {
                            (idx.probe(&key).iter()).any(|&pos| row(rel.get(pos), regs))
                        })
                    }
                }
            }
            Step::NegScan {
                pred, args: terms, ..
            } => {
                let anon = terms.iter().any(has_anon);
                self.neg_holds(*pred, anon, args, waits, regs) && next(regs)
            }
            Step::BuiltinStep {
                builtin, negated, ..
            } => {
                let mut k = |regs: &mut [ValueId]| waited(waits, regs) && (*negated || next(regs));
                match eval_builtin(*builtin, args, regs, &mut k) {
                    Ok(found) if *negated => !found && next(regs),
                    Ok(stop) => stop,
                    Err(e) => {
                        self.error.set(Some(e));
                        true
                    }
                }
            }
        }
    }

    /// §3.2 (2′): does ¬Bθ hold, i.e. is Bθ ∉ M? Named variables are bound
    /// here (planner guarantee); anonymous variables make this a negated
    /// *existential* — the shape of the paper's own §6 rule
    /// `young(X, <Y>) <- ¬a(X, Z), sg(X, Y)` when written safely as
    /// `~a(X, _)` ("X has no descendants") — decided by walking the
    /// relation to the first match, with no index.
    fn neg_holds(
        &self,
        pred: Symbol,
        anon: bool,
        args: &[Arg],
        waits: &[Wait],
        regs: &mut [ValueId],
    ) -> bool {
        let Some(rel) = self.db.relation(pred) else {
            return true;
        };
        if anon {
            return !rel
                .iter()
                .any(|t| match_args(args, t, waits, regs, &mut |_| true));
        }
        // An argument outside U: Bθ is not a U-fact, so it is certainly not
        // in M; the negation succeeds.
        let vals: Option<Vec<ValueId>> = args.iter().map(|a| value(a, regs)).collect();
        vals.is_none_or(|vals| !rel.contains(&vals))
    }
}

/// §3.2's `r(M)`: the head tuples rule `plan` derives from `db` in one
/// application, duplicates included, or the error a built-in met.
///
/// A simple head is projected once per body solution; an argument
/// evaluating outside `U` (scons onto a non-set, arithmetic failure)
/// derives nothing (the applicability condition). A grouping head
/// `p(t̄, <Y>)` partitions the solutions by the variables of `t̄` and
/// derives one tuple per non-empty class (§2.2).
pub(crate) fn apply_rule(plan: &RulePlan, db: &Database) -> Result<Vec<Vec<ValueId>>, EvalError> {
    let mut names = FastMap::default();
    let mut bound = FastSet::default();
    let mut args = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let (terms, binds) = match step {
            Step::Scan { args, .. } => (args, true),
            Step::NegScan { args, .. } => (args, false),
            Step::BuiltinStep { args, negated, .. } => (args, !negated),
        };
        let mut m = Matching::new(&mut names, bound.clone());
        let lowered = m.args(terms, &bound);
        let (waits, now) = m.finish();
        args.push((lowered, waits));
        if binds {
            bound = now;
        }
    }
    let head = lower_head(plan, &mut names, &bound);
    let walk = Walk {
        plan,
        db,
        args,
        error: Cell::new(None),
    };
    let mut regs = vec![ValueId::FILLER; names.len()];
    let tuples = match &head {
        HeadIr::Simple(head) => {
            let mut out = Vec::new();
            walk.run(0, &mut regs, &mut |regs| {
                out.extend(
                    head.iter()
                        .map(|e| eval_expr(e, regs))
                        .collect::<Option<Vec<_>>>(),
                );
                false
            });
            out
        }
        HeadIr::Grouping(head) => {
            let mut groups = Groups::default();
            walk.run(0, &mut regs, &mut |regs| {
                groups.add_solution(head, regs);
                false
            });
            groups.into_tuples(head.group_pos)
        }
    };
    match walk.error.take() {
        Some(e) => Err(e),
        None => Ok(tuples),
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
            let mut derived = Vec::new();
            for plan in &plans {
                derived.push((plan.head.pred, apply_rule(plan, &m)?));
            }
            let mut grew = false;
            for (pred, tuples) in derived {
                for tuple in tuples {
                    check_arity(&m, pred, tuple.len())?;
                    grew |= m.insert_id_slice(pred, &tuple);
                }
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
        let tuples = apply_rule(&plan, &db)
            .unwrap_or_else(|e| panic!("model checking cannot run {rule}: {e}"));
        for tuple in tuples {
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
