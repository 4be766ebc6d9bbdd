//! The grouping operator (§2.2 semantics, §3.2 `r(M)` for grouping rules).
//!
//! For a rule `p(t̄, <Y>) <- body`, let `Z̄` be the variables occurring in
//! `t̄` (outside the grouping argument). The body is evaluated against `M`;
//! its solutions are partitioned by their `Z̄` values; for each class the `Y`
//! values are collected into a set `S`, and `p(t̄θ, S)` is derived. A class
//! with no solutions derives nothing — "when the set of elements to be
//! grouped is empty, the formula evaluates to true even if p does not hold
//! on the empty set" (§2.2); this is also why the §6 `young` query *fails*
//! for a person with no same-generation members.
//!
//! Group keys and accumulated elements are interned [`ValueId`]s, so both
//! the key lookup and the per-element dedup hash a few `u32`s regardless of
//! value depth. The final set is canonicalized by *structural* order
//! ([`intern::mk_set`]) — never by raw id order, which is run-dependent.

use ldl_storage::Database;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{intern, ValueId};

use crate::bindings::Bindings;
use crate::exec::run_ram;
use crate::plan::{HeadKind, RulePlan};
use crate::ram::{eval_expr, HeadIr};
use crate::stats::EvalStats;

/// The body solutions of one grouping rule, partitioned by their `Z̄`
/// values. Shared by the engine's executor ([`run_grouping_rule`]) and the
/// reference evaluator ([`crate::model`]), which differ only in how they
/// enumerate solutions.
#[derive(Default)]
pub(crate) struct Groups {
    /// key (`Z̄` values) → (evaluated non-group head args, collected `Y`
    /// values).
    #[allow(clippy::type_complexity)]
    classes: FastMap<Vec<ValueId>, (Vec<ValueId>, FastSet<ValueId>)>,
    /// Keys in first-solution order, for deterministic output.
    key_order: Vec<Vec<ValueId>>,
}

impl Groups {
    /// Record one body solution: `y` joins the class of `key`. The first
    /// solution of a class evaluates the non-group head arguments through
    /// `other` (they depend only on `Z̄`, so any representative gives the
    /// same values); `None` — an argument outside `U` — derives nothing for
    /// the class, matching the applicability condition of §3.2.
    pub(crate) fn add(
        &mut self,
        key: Vec<ValueId>,
        y: ValueId,
        other: impl FnOnce() -> Option<Vec<ValueId>>,
    ) {
        match self.classes.get_mut(&key) {
            Some((_, ys)) => {
                ys.insert(y);
            }
            None => {
                if let Some(other) = other() {
                    let mut ys = FastSet::default();
                    ys.insert(y);
                    self.key_order.push(key.clone());
                    self.classes.insert(key, (other, ys));
                }
            }
        }
    }

    /// One head tuple per class, the grouped set at `group_pos`, in
    /// first-solution order of the classes.
    pub(crate) fn into_tuples(mut self, group_pos: usize) -> Vec<Vec<ValueId>> {
        self.key_order
            .into_iter()
            .map(|key| {
                let (other, ys) = self.classes.remove(&key).expect("key recorded");
                // mk_set sorts structurally, erasing the FastSet's
                // (id-assignment-dependent) iteration order.
                let set = intern::mk_set(ys.into_iter().collect());
                let mut args = other;
                args.insert(group_pos, set);
                args
            })
            .collect()
    }
}

/// Evaluate a grouping rule once against `db`, returning the derived tuples
/// (for the plan's head predicate). The body solutions enumerated (the
/// derivation attempts charged against a fuel budget), index probes and
/// existential cuts are added to `stats`.
///
/// Admissibility guarantees every body predicate lies in a strictly lower
/// layer (§3.1 clause 2), so `db` already holds their complete relations.
pub fn run_grouping_rule(
    plan: &RulePlan,
    db: &Database,
    stats: &mut EvalStats,
) -> Vec<Vec<ValueId>> {
    let HeadKind::Grouping {
        group_pos,
        group_var,
    } = plan.head_kind
    else {
        panic!("run_grouping_rule on a non-grouping plan");
    };
    let prog = plan.lowered();
    let HeadIr::Grouping {
        group_reg,
        key_regs,
        other,
        ..
    } = &prog.head
    else {
        unreachable!("grouping plan lowers to a grouping head");
    };

    let mut groups = Groups::default();
    let mut attempts = 0u64;
    let mut regs = vec![ValueId::FILLER; prog.nregs];
    let mut b = Bindings::new();
    let (probes, cuts) = run_ram(&prog, db, None, &mut regs, &mut b, &mut |regs| {
        attempts += 1;
        // Range restriction guarantees Y and Z̄ are bound; an unbound
        // register here means the rule slipped past well-formedness — fail
        // loudly.
        let Some(y) = group_reg.map(|r| regs[r as usize]) else {
            panic!("group variable {group_var} unbound in grouping rule");
        };
        let key: Option<Vec<ValueId>> = key_regs
            .iter()
            .map(|k| k.map(|r| regs[r as usize]))
            .collect();
        let Some(key) = key else {
            panic!("head variable unbound in grouping rule");
        };
        groups.add(key, y, || {
            other.iter().map(|e| eval_expr(e, regs)).collect()
        });
    });
    stats.attempts += attempts;
    stats.index_probes += probes;
    stats.exist_cuts += cuts;
    groups.into_tuples(group_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_rule;
    use ldl_storage::resolve_fact;
    use ldl_value::{Fact, Symbol, Value};

    fn db_with(facts: &[(&str, Vec<Value>)]) -> Database {
        let mut db = Database::new();
        for (p, args) in facts {
            db.insert_tuple(*p, args.clone());
        }
        db
    }

    fn plan(src: &str) -> RulePlan {
        RulePlan::compile(&parse_rule(src).unwrap(), None).unwrap()
    }

    fn run(plan: &RulePlan, db: &Database) -> Vec<Fact> {
        let tuples = run_grouping_rule(plan, db, &mut EvalStats::new());
        assert_eq!(
            tuples,
            crate::model::apply_rule(plan, db),
            "engine grouping diverges from the reference"
        );
        tuples
            .into_iter()
            .map(|t| resolve_fact(plan.head.pred, &t))
            .collect()
    }

    #[test]
    fn paper_part_example() {
        // §1: p = {(1,2),(1,7),(2,3),(2,4),(3,5),(3,6)} ⇒
        // part = {(1,{2,7}), (2,{3,4}), (3,{5,6})}.
        let db = db_with(&[
            ("p", vec![Value::int(1), Value::int(2)]),
            ("p", vec![Value::int(1), Value::int(7)]),
            ("p", vec![Value::int(2), Value::int(3)]),
            ("p", vec![Value::int(2), Value::int(4)]),
            ("p", vec![Value::int(3), Value::int(5)]),
            ("p", vec![Value::int(3), Value::int(6)]),
        ]);
        let facts = run(&plan("part(P, <S>) <- p(P, S)."), &db);
        assert_eq!(facts.len(), 3);
        let expect = |p: i64, s: &[i64]| {
            Fact::new(
                "part",
                vec![Value::int(p), Value::set(s.iter().map(|&i| Value::int(i)))],
            )
        };
        assert!(facts.contains(&expect(1, &[2, 7])));
        assert!(facts.contains(&expect(2, &[3, 4])));
        assert!(facts.contains(&expect(3, &[5, 6])));
    }

    #[test]
    fn empty_body_derives_nothing() {
        let db = Database::new();
        let facts = run(&plan("part(P, <S>) <- p(P, S)."), &db);
        assert!(facts.is_empty());
    }

    #[test]
    fn grouping_with_no_other_args() {
        // all(<X>) <- q(X): one tuple holding the whole column.
        let db = db_with(&[("q", vec![Value::int(1)]), ("q", vec![Value::int(2)])]);
        let facts = run(&plan("all(<X>) <- q(X)."), &db);
        assert_eq!(facts.len(), 1);
        assert_eq!(
            facts[0],
            Fact::new("all", vec![Value::set(vec![Value::int(1), Value::int(2)])])
        );
    }

    #[test]
    fn duplicate_y_values_deduplicate() {
        let db = db_with(&[
            ("e", vec![Value::int(1), Value::int(5)]),
            ("e", vec![Value::int(2), Value::int(5)]),
        ]);
        // s(<Y>) <- e(_, Y): Y = 5 twice, grouped set {5}.
        let facts = run(&plan("s(<Y>) <- e(_, Y)."), &db);
        assert_eq!(facts.len(), 1);
        assert_eq!(
            facts[0],
            Fact::new("s", vec![Value::set(vec![Value::int(5)])])
        );
    }

    #[test]
    fn group_var_also_outside_group_gives_singletons() {
        // §2.2: "when a variable X appearing in head of a rule also appears
        // as <X> in the same head then the grouped set is a singleton".
        let db = db_with(&[("q", vec![Value::int(1)]), ("q", vec![Value::int(2)])]);
        let facts = run(&plan("w(X, <X>) <- q(X)."), &db);
        assert_eq!(facts.len(), 2);
        assert!(facts.contains(&Fact::new(
            "w",
            vec![Value::int(1), Value::set(vec![Value::int(1)])]
        )));
        assert!(facts.contains(&Fact::new(
            "w",
            vec![Value::int(2), Value::set(vec![Value::int(2)])]
        )));
    }

    #[test]
    fn group_position_first() {
        let db = db_with(&[("p", vec![Value::int(1), Value::int(2)])]);
        let facts = run(&plan("part(<S>, P) <- p(P, S)."), &db);
        assert_eq!(
            facts[0],
            Fact::new("part", vec![Value::set(vec![Value::int(2)]), Value::int(1)])
        );
        let _ = Symbol::intern("part");
    }

    #[test]
    fn grouped_sets_can_nest() {
        // Sets of sets: w(<S>) over set-valued column.
        let db = db_with(&[
            ("h", vec![Value::set(vec![Value::int(1)])]),
            ("h", vec![Value::set(vec![Value::int(2)])]),
        ]);
        let facts = run(&plan("w(<S>) <- h(S)."), &db);
        assert_eq!(facts.len(), 1);
        let expected = Value::set(vec![
            Value::set(vec![Value::int(1)]),
            Value::set(vec![Value::int(2)]),
        ]);
        assert_eq!(facts[0], Fact::new("w", vec![expected]));
    }
}
