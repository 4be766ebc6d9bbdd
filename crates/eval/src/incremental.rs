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
//!   least one new tuple — so the existing semi-naive machinery is *seeded*
//!   with the new tuples as the initial delta ([`DeltaRestriction`] passes,
//!   one per occurrence of a changed predicate), then run to fixpoint
//!   within the layer.
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
use ldl_value::fxhash::FastMap;
use ldl_value::Symbol;

use std::sync::Arc;

use crate::budget::BudgetMeter;
use crate::engine::EvalOptions;
use crate::error::EvalError;
use crate::fixpoint::{
    counting_eligible, delta_loop_cached, evaluate_layers_metered, len_of, run_round, LayerSplit,
    PlanCache, RoundTask,
};
use crate::plan::{ensure_plan_indexes, DeltaRestriction, RulePlan};
use crate::pool::Pool;
use crate::retract::counting_insert_layer;
use crate::stats::EvalStats;

/// The changed-predicate frontier: for each predicate, the insertion
/// position of its first new tuple in the model database (the delta is
/// `[lo, len)`).
pub type DeltaFrontier = FastMap<Symbol, usize>;

/// Propagate newly inserted EDB tuples through an evaluated model, in
/// place — the insertion phase of [`crate::retract::apply_mutations`],
/// metered by the batch's [`BudgetMeter`] so the deletion sweep and the
/// insertion propagation share one budget.
///
/// Preconditions:
/// * `db` is a model of `program` w.r.t. the pre-change EDB, *plus* the new
///   tuples already appended (their start positions recorded in `changed`);
/// * `edb` is the post-change extensional database (used to rebuild IDB
///   relations when a stratum must replay);
/// * `program` has already passed well-formedness (the initial evaluation
///   checked it).
///
/// On return `db` is a model of `program` w.r.t. the post-change EDB.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_update_metered(
    program: &Program,
    strat: &Stratification,
    sens: &[LayerSensitivity],
    edb: &Database,
    db: &mut Database,
    mut changed: DeltaFrontier,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    debug_assert_eq!(sens.len(), strat.num_layers());
    let pool = Pool::new(opts.effective_parallelism());
    let mut cache = PlanCache::default();
    for (k, sens_k) in sens.iter().enumerate() {
        meter.set_context(
            k,
            strat.rules_by_layer[k]
                .first()
                .map(|&ri| program.rules[ri].head.pred),
        );
        if changed.keys().any(|&p| sens_k.requires_replay_for(p)) {
            cache.fold_into(stats);
            return replay_from(program, strat, edb, db, k, opts, stats, meter);
        }
        if !changed.keys().any(|p| sens_k.positive.contains(p)) {
            stats.strata_skipped += 1;
            continue; // no changed predicate reaches this layer
        }

        // Monotone delta propagation. Grouping rules of this layer are
        // untouched: their body predicates are all unchanged (otherwise the
        // replay branch above would have fired).
        let split = LayerSplit::classify(program, &strat.rules_by_layer[k]);
        split.ensure_head_relations(program, db)?;

        let pre: DeltaFrontier = split.preds.iter().map(|&p| (p, len_of(db, p))).collect();

        // A layer carrying derivation counts needs *exact* delta passes:
        // the one-occurrence-at-a-time seed scheme below enumerates a
        // derivation once per changed occurrence it uses, which is fine for
        // sets (duplicates merge away) but would inflate counts. The
        // counting variant decomposes the delta exactly instead.
        let counting = counting_eligible(program, &split)
            && !split.preds.is_empty()
            && split
                .preds
                .iter()
                .all(|&p| db.relation(p).is_some_and(|r| r.counts_enabled()));
        if counting {
            counting_insert_layer(program, &split, db, &changed, opts, stats, meter)?;
        } else {
            // Seed: one delta-restricted pass per occurrence of a changed
            // predicate in a rule body. Restricting one occurrence at a time
            // while the others see the full (new-tuple-inclusive) relation
            // covers every derivation that uses at least one new tuple. Each
            // pass runs a delta-first plan variant — the same cached role the
            // semi-naive loop uses, so its cost is proportional to the delta,
            // not to the database. All seed passes read the same snapshot, so
            // they run as one parallel round; anything a seed pass derives
            // lands above `pre` and is picked up by the delta loop below.
            let mut seed: Vec<(Arc<RulePlan>, DeltaRestriction)> = Vec::new();
            for &ri in &split.rest {
                for (occ, lit) in program.rules[ri].body.iter().enumerate() {
                    if !lit.positive
                        || ldl_ast::program::Builtin::resolve(lit.atom.pred, lit.atom.arity())
                            .is_some()
                    {
                        continue;
                    }
                    if let Some(&lo) = changed.get(&lit.atom.pred) {
                        let hi = len_of(db, lit.atom.pred) as u32;
                        if (lo as u32) < hi {
                            let variant = cache.get(program, ri, occ + 1, db)?;
                            ensure_plan_indexes(&variant, db);
                            let restrict = DeltaRestriction {
                                step: 0,
                                lo: lo as u32,
                                hi,
                            };
                            seed.push((variant, restrict));
                        }
                    }
                }
            }
            let tasks: Vec<RoundTask<'_>> = seed
                .iter()
                .map(|(variant, restrict)| RoundTask {
                    plan: variant,
                    restrict: Some(*restrict),
                })
                .collect();
            run_round(&tasks, db, &pool, opts, stats, meter)?;
            drop(tasks);
            drop(seed);

            // Everything the seed round derived sits above `pre`; let the
            // ordinary semi-naive delta loop run the layer to fixpoint from
            // there.
            delta_loop_cached(
                program,
                &split,
                &mut cache,
                db,
                pre.clone(),
                &pool,
                opts,
                stats,
                meter,
            )?;
        }
        stats.strata_delta += 1;

        // New facts of this layer's predicates join the frontier for the
        // layers above. (A predicate already in `changed` — new EDB tuples
        // for an IDB predicate — keeps its earlier, lower mark.)
        for &p in &split.preds {
            if len_of(db, p) > pre[&p] {
                changed.entry(p).or_insert(pre[&p]);
            }
        }
    }
    cache.fold_into(stats);
    Ok(())
}

/// Truncate every IDB relation of layers ≥ `k` back to its EDB state and
/// re-evaluate those layers. Lower layers are already final (they were
/// either untouched or delta-updated before `k` was reached), so this is
/// exactly the `Mₖ = Lₖ(Mₖ₋₁)` suffix of Theorem 1's computation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_from(
    program: &Program,
    strat: &Stratification,
    edb: &Database,
    db: &mut Database,
    k: usize,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
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
    stats.strata_replayed += (strat.num_layers() - k) as u64;
    evaluate_layers_metered(program, db, strat, k, opts, stats, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;
    use ldl_value::{Fact, Value};

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
        apply_update_metered(
            program,
            strat,
            &sens,
            edb,
            db,
            changed,
            &opts,
            &mut stats,
            &mut BudgetMeter::new(&opts.budget),
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

    use ldl_value::Symbol;
}
