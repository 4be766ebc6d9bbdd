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

use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{intern, ValueId};

use crate::ram::{eval_expr, GroupHead};

/// The body solutions of one grouping rule, partitioned by their `Z̄`
/// values. Shared by the engine's executor (a pass's [`crate::exec::Sink`])
/// and the reference evaluator ([`crate::model`]), which differ only in how
/// they enumerate solutions.
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

    /// Record one body solution of the lowered grouping `head`, read from
    /// the register file. Out of line: see [`crate::exec::Out`]'s emit.
    #[inline(never)]
    pub(crate) fn add_solution(&mut self, head: &GroupHead, regs: &[ValueId]) {
        // Range restriction guarantees Y and Z̄ are bound; an unbound
        // register here means the rule slipped past well-formedness — fail
        // loudly.
        let Some(y) = head.group_reg.map(|r| regs[r as usize]) else {
            panic!("group variable {} unbound in grouping rule", head.group_var);
        };
        let key: Option<Vec<ValueId>> = head
            .key_regs
            .iter()
            .map(|k| k.map(|r| regs[r as usize]))
            .collect();
        let Some(key) = key else {
            panic!("head variable unbound in grouping rule");
        };
        self.add(key, y, || {
            head.other.iter().map(|e| eval_expr(e, regs)).collect()
        });
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

#[cfg(test)]
mod tests {
    use crate::fixpoint::{derive, RoundTask};
    use crate::plan::RulePlan;
    use crate::stats::EvalStats;
    use ldl_parser::parse_rule;
    use ldl_storage::{resolve_fact, Database};
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

    /// The pass a round runs for `plan`, checked against the reference.
    fn run(plan: &RulePlan, db: &Database) -> Vec<Fact> {
        let task = RoundTask::new(plan, None, false);
        let mut tuples = Vec::new();
        derive(&task, db, &mut EvalStats::new()).for_each(&mut |t| tuples.push(t.to_vec()));
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
