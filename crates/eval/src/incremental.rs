//! Delta-driven incremental model maintenance.
//!
//! After the layered fixpoint of Theorem 1 has produced a model `Mₙ`, new
//! EDB tuples do not require recomputing `Mₙ` from an empty IDB. The
//! append-only storage already gives every relation a delta-as-index-range
//! representation, and the §3.1 layering tells us exactly how far a change
//! can reach:
//!
//! * A layer that reads a changed predicate only through **positive,
//!   non-grouping** literals is monotone in it: the old conclusions all
//!   remain valid, and the new ones are exactly those derivable with at
//!   least one new tuple — so *the new tuples are the initial frontier*:
//!   the layer runs the engine's one semi-naive loop
//!   ([`delta_loop`]) with the changed
//!   predicates marked at their first new tuple beside the layer's own
//!   heads, and that is all there is to insertion maintenance.
//! * A layer with a **negated** literal or a **grouping** body over a
//!   changed predicate is not monotone: `~p(…)` can flip from true to
//!   false, and a grouped set `<X>` must be *replaced* by a larger set, not
//!   kept alongside it. Admissibility guarantees such reads look strictly
//!   *down* the layering, so the damage is confined to that layer and
//!   everything above: those layers are truncated back to their EDB state
//!   and re-evaluated (`strata_replayed` counts them).
//!
//! The result is pointwise identical to a from-scratch evaluation — the
//! incremental-≡-full property test in `tests/properties.rs` fuzzes this
//! over programs mixing recursion, negation, and grouping.

use ldl_ast::program::Program;
use ldl_storage::{Database, Relation};
use ldl_stratify::{LayerSensitivity, Stratification};

use crate::error::EvalError;
use crate::fixpoint::{
    delta_loop, ensure_head_relations, evaluate_layers, frontier_at, len_of, DeltaFrontier, Drive,
    LayerSplit, PlanCache,
};

/// Propagate newly inserted EDB tuples through an evaluated model, in
/// place — the insertion phase of [`crate::retract::apply_mutations`], run
/// on the batch's [`Drive`] so the deletion sweep and the insertion
/// propagation share one budget.
///
/// Preconditions:
/// * `db` is a model of `program` w.r.t. the pre-change EDB, *plus* the new
///   tuples already appended — `changed` maps each changed predicate to the
///   insertion position of its first new tuple;
/// * `edb` is the post-change extensional database (used to rebuild IDB
///   relations when a stratum must replay);
/// * `program` has already passed well-formedness (the initial evaluation
///   checked it).
///
/// On return `db` is a model of `program` w.r.t. the post-change EDB.
pub(crate) fn apply_update(
    program: &Program,
    strat: &Stratification,
    sens: &[LayerSensitivity],
    edb: &Database,
    db: &mut Database,
    mut changed: DeltaFrontier,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    debug_assert_eq!(sens.len(), strat.num_layers());
    let mut cache = PlanCache::default();
    for (k, sens_k) in sens.iter().enumerate() {
        let layer_rules = &strat.rules_by_layer[k];
        drive.meter.set_context(
            k,
            layer_rules.first().map(|&ri| program.rules[ri].head.pred),
        );
        if changed.keys().any(|&p| sens_k.requires_replay_for(p)) {
            return replay_from(program, strat, edb, db, k, drive);
        }
        if !changed.keys().any(|p| sens_k.positive.contains(p)) {
            drive.stats.strata_skipped += 1;
            continue; // no changed predicate reaches this layer
        }

        // Monotone delta propagation. Grouping rules of this layer are
        // untouched: their body predicates are all unchanged (otherwise the
        // replay branch above would have fired).
        let split = LayerSplit::classify(program, layer_rules);
        ensure_head_relations(program, layer_rules, db)?;

        let pre = frontier_at(db, split.preds.iter().copied());

        // The layer's own heads have nothing new yet; every changed
        // predicate is new from its first new tuple on (also where it is
        // one of the heads — new EDB tuples for an IDB predicate). The
        // first round restricts one changed occurrence at a time while the
        // others see the full, new-tuple-inclusive relation, which covers
        // every derivation using at least one new tuple; whatever it
        // derives lands above `pre` and keeps the loop going.
        let mut frontier = pre.clone();
        frontier.extend(changed.iter().map(|(&p, &lo)| (p, lo)));
        delta_loop(program, &split.rest, &mut cache, db, &mut frontier, drive)?;
        drive.stats.strata_delta += 1;

        // New facts of this layer's predicates join the frontier for the
        // layers above. (A predicate already in `changed` — new EDB tuples
        // for an IDB predicate — keeps its earlier, lower mark.)
        for (&p, &lo) in &pre {
            if len_of(db, p) > lo {
                changed.entry(p).or_insert(lo);
            }
        }
    }
    Ok(())
}

/// Truncate every IDB relation of layers ≥ `k` back to its EDB state and
/// re-evaluate those layers. Lower layers are already final (they were
/// either untouched or delta-updated before `k` was reached), so this is
/// exactly the `Mₖ = Lₖ(Mₖ₋₁)` suffix of Theorem 1's computation.
pub(crate) fn replay_from(
    program: &Program,
    strat: &Stratification,
    edb: &Database,
    db: &mut Database,
    k: usize,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    for rules in strat.rules_by_layer.iter().skip(k) {
        for &ri in rules {
            let head = &program.rules[ri].head;
            match edb.relation(head.pred) {
                Some(r) => db.set_relation(head.pred, r.clone()),
                None => db.set_relation(head.pred, Relation::new(head.arity())),
            }
        }
    }
    drive.stats.strata_replayed += (strat.num_layers() - k) as u64;
    evaluate_layers(program, db, strat, k, drive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalOptions;
    use crate::stats::EvalStats;
    use ldl_parser::parse_program;
    use ldl_value::{Fact, Symbol, Value};

    fn setup(
        src: &str,
        edb_facts: &[(&str, Vec<Value>)],
    ) -> (Program, Stratification, Database, Database) {
        let program = parse_program(src).unwrap();
        let strat = Stratification::canonical(&program).unwrap();
        let mut edb = Database::new();
        for (p, args) in edb_facts {
            edb.insert_tuple(*p, args.clone());
        }
        let mut stats = EvalStats::new();
        let db =
            crate::fixpoint::evaluate(&program, &edb, &strat, &EvalOptions::default(), &mut stats)
                .unwrap();
        (program, strat, edb, db)
    }

    fn commit(
        program: &Program,
        strat: &Stratification,
        edb: &mut Database,
        db: &mut Database,
        facts: &[(&str, Vec<Value>)],
    ) -> EvalStats {
        let mut changed = DeltaFrontier::default();
        for (p, args) in facts {
            let f = Fact::new(*p, args.clone());
            let lo = len_of(db, f.pred());
            if db.insert(f.clone()) {
                changed.entry(f.pred()).or_insert(lo);
            }
            edb.insert(f);
        }
        let sens = strat.sensitivity(program);
        let mut stats = EvalStats::new();
        let opts = EvalOptions::default();
        apply_update(
            program,
            strat,
            &sens,
            edb,
            db,
            changed,
            &mut Drive::new(&opts, &mut stats),
        )
        .unwrap();
        stats
    }

    fn full(program: &Program, edb: &Database) -> Database {
        let strat = Stratification::canonical(program).unwrap();
        let mut stats = EvalStats::new();
        crate::fixpoint::evaluate(program, edb, &strat, &EvalOptions::default(), &mut stats)
            .unwrap()
    }

    const TC: &str = "r(X, Y) <- e(X, Y).\nr(X, Y) <- e(X, Z), r(Z, Y).";

    #[test]
    fn monotone_delta_extends_closure() {
        let (program, strat, mut edb, mut db) = setup(
            TC,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(3)]),
            ],
        );
        // Bridge 3 → 4: closure gains (3,4), (2,4), (1,4).
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(3), Value::int(4)])],
        );
        assert_eq!(stats.facts_derived, 3);
        assert_eq!(stats.strata_replayed, 0);
        assert_eq!(stats.strata_delta, 1);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn duplicate_commit_is_noop() {
        let (program, strat, mut edb, mut db) =
            setup(TC, &[("e", vec![Value::int(1), Value::int(2)])]);
        let before = db.to_fact_set();
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(1), Value::int(2)])],
        );
        assert_eq!(stats.facts_derived, 0);
        assert_eq!(db.to_fact_set(), before);
    }

    #[test]
    fn negation_layer_replays() {
        let src = "anc(X, Y) <- par(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   leaf(X) <- node(X), ~par(X, _).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("par", vec![Value::atom("a"), Value::atom("b")]),
                ("node", vec![Value::atom("a")]),
                ("node", vec![Value::atom("b")]),
            ],
        );
        assert!(db.contains(&Fact::new("leaf", vec![Value::atom("b")])));
        // b acquires a child: leaf(b) must be *retracted* — only the
        // truncate-and-replay path can do that.
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("par", vec![Value::atom("b"), Value::atom("c")])],
        );
        assert!(stats.strata_replayed > 0);
        assert!(!db.contains(&Fact::new("leaf", vec![Value::atom("b")])));
        assert!(db.contains(&Fact::new("anc", vec![Value::atom("a"), Value::atom("c")])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn grouping_layer_replays_with_replaced_sets() {
        let src = "kids(P, <K>) <- par(P, K).";
        let (program, strat, mut edb, mut db) =
            setup(src, &[("par", vec![Value::atom("p"), Value::atom("a")])]);
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("par", vec![Value::atom("p"), Value::atom("b")])],
        );
        assert!(stats.strata_replayed > 0);
        // The old singleton {a} is gone; only the replaced set remains.
        let kids = db.relation(Symbol::intern("kids")).unwrap();
        assert_eq!(kids.len(), 1);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn unaffected_upper_strata_are_skipped() {
        // Two independent towers: changes to e1 never touch the q tower.
        let src = "p(X) <- e1(X).\n\
                   q(X) <- e2(X), ~e3(X).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[("e1", vec![Value::int(1)]), ("e2", vec![Value::int(7)])],
        );
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e1", vec![Value::int(2)])],
        );
        assert_eq!(stats.strata_replayed, 0);
        assert!(stats.strata_skipped + stats.strata_delta == strat.num_layers() as u64);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn replay_only_from_affected_layer_up() {
        // Layer 0: closure (monotone). Above it, a negation layer.
        let src = "r(X, Y) <- e(X, Y).\n\
                   r(X, Y) <- e(X, Z), r(Z, Y).\n\
                   iso(X) <- node(X), ~r(X, _).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("node", vec![Value::int(1)]),
                ("node", vec![Value::int(3)]),
            ],
        );
        assert!(db.contains(&Fact::new("iso", vec![Value::int(3)])));
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(3), Value::int(1)])],
        );
        // r's own layer is *not* replayed — the new edge seeds its deltas —
        // but iso's layer is (r appears negated there)… unless r's layer is
        // processed first and the replay starts above it.
        assert!(stats.strata_replayed >= 1);
        assert!(stats.strata_replayed < strat.num_layers() as u64 || strat.num_layers() == 1);
        assert!(!db.contains(&Fact::new("iso", vec![Value::int(3)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn mutual_recursion_delta_propagates() {
        let src = "even_r(X) <- zero(X).\n\
                   even_r(Y) <- odd_r(X), succ(X, Y).\n\
                   odd_r(Y) <- even_r(X), succ(X, Y).";
        let mut facts: Vec<(&str, Vec<Value>)> = vec![("zero", vec![Value::int(0)])];
        for i in 0..10 {
            facts.push(("succ", vec![Value::int(i), Value::int(i + 1)]));
        }
        let (program, strat, mut edb, mut db) = setup(src, &facts);
        // Extend the chain: both predicates must advance.
        let stats = commit(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[
                ("succ", vec![Value::int(10), Value::int(11)]),
                ("succ", vec![Value::int(11), Value::int(12)]),
            ],
        );
        assert_eq!(stats.strata_replayed, 0);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }
}
