//! Model maintenance: one bottom-up sweep per mutation batch.
//!
//! [`apply_mutations`] is the transactional entry point behind the `ldl1`
//! mutation-batch API: it applies a net set of EDB retractions and
//! assertions to an already-evaluated model *in place*, producing the same
//! fact set a from-scratch evaluation over the post-batch EDB would. A batch
//! is one state transition, so it is maintained the way Theorem 1 computes a
//! model — one pass up the strata, `Mₖ = Lₖ(Mₖ₋₁)`: the retractions are
//! tombstoned and the assertions appended up front, then each stratum, with
//! everything below it already final, takes one of three arms, chosen by
//! the sensitivity analysis ([`LayerSensitivity`]) from what the batch's
//! deletion and insertion frontiers reach:
//!
//! * **Skip**: neither frontier reaches the stratum.
//! * **Replay**: a changed predicate is read under negation or inside a
//!   grouping body (`~p(…)` flips, a grouped set `<X>` is *replaced*, not
//!   extended), a retraction is aimed at a grouping head, or deletions reach
//!   rule heads the rederive guard cannot anchor on (`rederive_compatible`).
//!   Admissibility makes such reads look strictly *down* the layering, so
//!   the damage is confined to this stratum and everything above: the
//!   suffix is truncated back to the post-batch EDB and re-evaluated, once,
//!   and the sweep is over.
//! * **Maintain**: **DRed** for the deletions that reach it — overdelete
//!   everything derivable from a deleted tuple, then rederive the
//!   overdeleted tuples the surviving facts still support — then the
//!   **delta** pass for the insertions: a stratum reading a grown predicate
//!   only positively is monotone in it, so the new tuples are the initial
//!   frontier. Each feeds its net losses and growth to the strata above.
//!
//! All of it runs on the engine's one semi-naive loop ([`delta_loop`]); what
//! is specific to each phase is its frontier. Doing both halves at a
//! stratum before moving up is sound for the reason each is alone: the lower
//! relations are final; overdeletion may over-approximate (it joins against
//! lower relations that already hold the batch's insertions) because
//! rederivation restores exactly what the post-batch facts support; and the
//! insertion delta of a monotone stratum does not depend on its deletions.
//!
//! Everything runs on one [`Drive`] — one set of counters, one budget meter: a
//! batch that trips its budget mid-flight aborts as a unit, and the EDB's
//! change log, open while the batch is applied, rewinds it to its rows,
//! positions and liveness (`Database::rewind`), so a retry replays the
//! exact same insertion positions.

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::{Builtin, Program};
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;
use ldl_storage::{Database, Relation};
use ldl_stratify::{LayerSchedule, LayerSensitivity, Stratification};
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{Fact, Symbol, ValueId};

/// An owned row snapshot — tuples pulled out of a relation's arena so they
/// survive the mutations the deletion passes perform on it.
type Row = Vec<ValueId>;
use crate::engine::EvalOptions;
use crate::error::EvalError;
use crate::fixpoint::{
    delta_loop, ensure_head_relations, evaluate_layers, frontier_at, len_of, DeltaFrontier, Drive,
    PlanCache,
};
use crate::stats::EvalStats;

/// One layer's rules as maintenance reads them: the whole layer at once,
/// not component by component as a cold evaluation runs it.
struct LayerSplit {
    /// Grouping-head rules.
    grouping: Vec<usize>,
    /// The other rules, in program order.
    rest: Vec<usize>,
    /// Head predicates of `rest`: the semi-naive deltas.
    preds: FastSet<Symbol>,
}

impl LayerSplit {
    fn of(layer: &LayerSchedule) -> LayerSplit {
        let comps = || layer.components.iter();
        let mut rest: Vec<usize> = comps().flat_map(|c| c.rules.iter().copied()).collect();
        rest.sort_unstable();
        LayerSplit {
            grouping: layer.grouping.clone(),
            rest,
            preds: comps().flat_map(|c| c.preds.iter().copied()).collect(),
        }
    }
}

/// Apply a net mutation batch — `retractions` and `assertions`, both
/// already validated and deduplicated by the caller — to an evaluated
/// model, in place.
///
/// Preconditions:
/// * `db` is a model of `program` w.r.t. `edb`;
/// * every retraction is currently present in `edb`, and no fact appears in
///   both lists (the `ldl1` batch builder nets mutations before calling);
/// * `program` passed well-formedness when the model was built.
///
/// On success `edb` holds the post-batch extensional database and `db` is a
/// model of `program` w.r.t. it. On error (typically a tripped
/// [`crate::Budget`]) `edb` is rewound to its rows, positions and liveness
/// (sketches and statistics epochs rebuilt) and `db` is left
/// *inconsistent*: the caller must discard it and re-evaluate from `edb`.
/// A retried batch therefore reproduces the exact same insertion positions.
#[allow(clippy::too_many_arguments)]
pub fn apply_mutations(
    program: &Program,
    strat: &Stratification,
    sens: &[LayerSensitivity],
    edb: &mut Database,
    db: &mut Database,
    retractions: &[Fact],
    assertions: &[Fact],
    opts: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    debug_assert_eq!(sens.len(), strat.num_layers());
    // Predicates defined by rules: a retraction on one of those is a
    // *support* loss — the fact may survive via a derivation — and must be
    // resolved at the defining stratum, not applied to `db` up front.
    let idb_heads: FastSet<Symbol> = program.rules.iter().map(|r| r.head.pred).collect();

    // Phase 1: apply the batch to the EDB under a change log, which an
    // abort reads backwards. Pure-EDB retractions are deleted from the
    // model immediately and seed the deletion frontier; assertions are
    // appended to the model and seed the insertion frontier.
    edb.open_log(0);
    edb.apply(retractions, assertions);
    let mut deleted: FastMap<Symbol, Vec<Row>> = FastMap::default();
    let mut pending: FastMap<Symbol, Vec<Row>> = FastMap::default();
    let mut inserted = DeltaFrontier::default();
    for f in retractions {
        let tuple = ldl_storage::intern_ids(f.args());
        if idb_heads.contains(&f.pred()) {
            pending.entry(f.pred()).or_default().push(tuple);
        } else if db.remove_ids(f.pred(), &tuple).is_some() {
            stats.facts_retracted += 1;
            deleted.entry(f.pred()).or_default().push(tuple);
        }
    }
    for f in assertions {
        let lo = len_of(db, f.pred());
        if db.insert(f.clone()) {
            inserted.entry(f.pred()).or_insert(lo);
        }
    }

    // Phase 2: the sweep, on one drive — the batch aborts as a unit.
    let result = sweep(
        program,
        strat,
        sens,
        edb,
        db,
        deleted,
        pending,
        inserted,
        &mut Drive::new(opts, stats),
    );
    // No EDB log outlives the commit: model-less commits would grow it.
    if result.is_err() {
        edb.rewind();
    } else {
        edb.close_log();
    }
    stats.record_arena(db);
    result
}

/// The one pass up the strata (module docs): skip, replay the suffix and
/// stop, or DRed-then-delta, per stratum. What the batch has changed below
/// the stratum it is at:
/// * `deleted`: tuples the model lost, per predicate, in loss order;
/// * `pending`: retracted EDB facts of rule-defined predicates — support
///   losses their defining stratum has yet to resolve;
/// * `inserted`: predicates the model gained tuples of, each marked at its
///   first new one.
#[allow(clippy::too_many_arguments)]
fn sweep(
    program: &Program,
    strat: &Stratification,
    sens: &[LayerSensitivity],
    edb: &Database,
    db: &mut Database,
    mut deleted: FastMap<Symbol, Vec<Row>>,
    mut pending: FastMap<Symbol, Vec<Row>>,
    mut inserted: DeltaFrontier,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    let mut cache = PlanCache::default();
    for (k, sens_k) in sens.iter().enumerate() {
        let layer_rules = &strat.rules_by_layer[k];
        let head_of = |ri: &usize| program.rules[*ri].head.pred;
        let lost = deleted.keys().any(|p| sens_k.positive.contains(p))
            || layer_rules
                .iter()
                .any(|ri| pending.contains_key(&head_of(ri)));
        let grew = inserted.keys().any(|p| sens_k.positive.contains(p));
        let flipped = deleted
            .keys()
            .chain(inserted.keys())
            .any(|&p| sens_k.requires_replay_for(p));
        if !(lost || grew || flipped) {
            drive.stats.strata_skipped += 1;
            continue;
        }

        // Changes under negation or grouping bodies flip conclusions the
        // differential passes cannot revise one by one; a retraction aimed
        // at a grouping head replaces a set rather than removing a tuple;
        // and a rule head DRed cannot anchor its rederive join on (see
        // `rederive_compatible`) leaves nothing to guard with.
        drive.meter.set_context(k, layer_rules.first().map(head_of));
        let split = LayerSplit::of(&strat.schedule[k]);
        if flipped
            || split
                .grouping
                .iter()
                .any(|ri| pending.contains_key(&head_of(ri)))
            || (lost && !rederive_compatible(program, &split))
        {
            return replay_from(program, strat, edb, db, k, drive);
        }
        ensure_head_relations(program, layer_rules, db)?;
        // Marked before DRed: rederivation joins against relations that
        // already hold the batch's insertions, so it can derive tuples only
        // the new model has — whatever it appends is a delta below, too.
        let pre = grew.then(|| frontier_at(db, split.preds.iter().copied()));

        if lost {
            let heads = layer_heads(program, &split);
            let layer_pending: Vec<(Symbol, Vec<Row>)> = heads
                .iter()
                .filter_map(|&(h, _)| pending.remove(&h).map(|ts| (h, ts)))
                .collect();
            let losses = dred_delete_layer(
                program,
                &split,
                &heads,
                edb,
                db,
                &deleted,
                &layer_pending,
                drive,
            )?;
            drive.stats.facts_retracted += losses.len() as u64;
            for (h, t) in losses {
                deleted.entry(h).or_default().push(t);
            }
        }
        if let Some(pre) = pre {
            // Every grown predicate is new from its first new tuple on
            // (also where it is one of the heads — new EDB tuples for an
            // IDB predicate). The first round restricts one grown
            // occurrence at a time while the others see the full,
            // new-tuple-inclusive relation, which covers every derivation
            // using at least one new tuple; whatever it derives lands above
            // `pre` and keeps the loop going. Grouping rules are untouched:
            // a grown predicate in one of their bodies would have replayed.
            let mut frontier = pre.clone();
            frontier.extend(&inserted);
            delta_loop(program, &split.rest, &mut cache, db, &mut frontier, drive)?;
            drive.stats.strata_delta += 1;
            // New facts of this layer join the frontier for the layers
            // above (a head already in `inserted` keeps its lower mark).
            for (&p, &lo) in &pre {
                if len_of(db, p) > lo {
                    inserted.entry(p).or_insert(lo);
                }
            }
        }
    }
    debug_assert!(pending.is_empty());
    Ok(())
}

/// Truncate every IDB relation of layers ≥ `k` back to its EDB state and
/// re-evaluate those layers. Lower layers are already final (untouched or
/// maintained before `k` was reached), so this is exactly the
/// `Mₖ = Lₖ(Mₖ₋₁)` suffix of Theorem 1's computation.
fn replay_from(
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

/// This layer's fixpoint head predicates with their arities, in first-rule
/// order — the deterministic iteration order every deletion pass uses.
fn layer_heads(program: &Program, split: &LayerSplit) -> Vec<(Symbol, usize)> {
    let mut heads: Vec<(Symbol, usize)> = Vec::new();
    for &ri in &split.rest {
        let head = &program.rules[ri].head;
        if !heads.iter().any(|&(h, _)| h == head.pred) {
            heads.push((head.pred, head.arity()));
        }
    }
    heads
}

/// Can this head argument be used as a *pattern* in a body literal?
/// Variables, constants, and free compounds unify against stored values;
/// evaluating terms (arithmetic, `scons`, set enumeration, grouping) do not
/// invert.
fn invertible(t: &Term) -> bool {
    match t {
        Term::Var(_) | Term::Const(_) => true,
        Term::Compound(_, args) => args.iter().all(invertible),
        _ => false,
    }
}

/// Can DRed anchor this layer's rederive join? The join puts `del$h(…)` in
/// front of each rule body with the head's arguments as patterns and every
/// non-invertible argument replaced by `_`. The guard is only a work
/// limiter — whatever the guarded rules derive comes from surviving facts,
/// so it belongs to the new model whether or not it was overdeleted — but
/// how much it limits decides the gate:
///
/// * every head argument invertible: the guard matches exactly the
///   overdeleted tuples, in any layer;
/// * a non-recursive layer whose every head keeps at least one invertible
///   argument: the weaker guard re-joins each overdeleted tuple's anchor
///   group, once — one round, no cascade.
///
/// A head with no invertible argument has no anchor. In a recursive layer
/// the weakened guard re-joins whole anchor groups round after round behind
/// an overdeletion that already cascades through everything built on the
/// lost tuple (every superset, for the BOM's set-valued closure) — sound,
/// but measured slower than replay (EXPERIMENTS.md P24). Both replay.
fn rederive_compatible(program: &Program, split: &LayerSplit) -> bool {
    let heads = || split.rest.iter().map(|&ri| &program.rules[ri].head);
    if heads().all(|h| h.args.iter().all(invertible)) {
        return true;
    }
    let recursive = split.rest.iter().any(|&ri| {
        program.rules[ri]
            .body
            .iter()
            .any(|l| split.preds.contains(&l.atom.pred))
    });
    !recursive && heads().all(|h| h.args.iter().any(invertible))
}

fn scratch_name(prefix: &str, p: Symbol) -> Symbol {
    Symbol::intern(&format!("{prefix}${p}"))
}

/// Run synthesised `rules` to their semi-naive fixpoint from `frontier` —
/// the shape of both DRed phases. The rules mix scratch relations, so they
/// form a program (and get a plan cache) of their own.
fn scratch_fixpoint(
    rules: Vec<Rule>,
    mut frontier: DeltaFrontier,
    db: &mut Database,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    let program = Program::from_rules(rules);
    let all: Vec<usize> = (0..program.len()).collect();
    let mut cache = PlanCache::default();
    delta_loop(&program, &all, &mut cache, db, &mut frontier, drive)
}

/// DRed for one stratum: overdelete everything derivable from a lost
/// tuple, then rederive what the surviving facts still support. Returns
/// the net losses in overdeletion order.
#[allow(clippy::too_many_arguments)]
fn dred_delete_layer(
    program: &Program,
    split: &LayerSplit,
    heads: &[(Symbol, usize)],
    edb: &Database,
    db: &mut Database,
    deleted: &FastMap<Symbol, Vec<Row>>,
    layer_pending: &[(Symbol, Vec<Row>)],
    drive: &mut Drive<'_>,
) -> Result<Vec<(Symbol, Row)>, EvalError> {
    drive.meter.check()?;
    let layer_set = &split.preds;
    let is_deletable = |l: &Literal| {
        l.positive
            && Builtin::resolve(l.atom.pred, l.atom.arity()).is_none()
            && (deleted.contains_key(&l.atom.pred) || layer_set.contains(&l.atom.pred))
    };
    // Deletable body occurrences per rule, in body order — the pivots of
    // the overdeletion variants.
    let rule_occs: Vec<(usize, Vec<usize>)> = split
        .rest
        .iter()
        .map(|&ri| {
            let occs = program.rules[ri]
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| is_deletable(l))
                .map(|(i, _)| i)
                .collect();
            (ri, occs)
        })
        .collect();

    // A lower-frontier occurrence *after* the pivot must read the
    // pre-deletion value (OLD = NEW ∪ deleted); occurrences before the
    // pivot read the surviving relation, so each lost solution is covered
    // by its first deleted occurrence. `old$q` is materialized only where
    // actually needed.
    let mut needs_old: FastSet<Symbol> = FastSet::default();
    for (ri, occs) in &rule_occs {
        for &j in occs.iter().skip(1) {
            let p = program.rules[*ri].body[j].atom.pred;
            if deleted.contains_key(&p) && !layer_set.contains(&p) {
                needs_old.insert(p);
            }
        }
    }

    // Scratch relations: del$h per stratum head (seeded with this
    // stratum's pending EDB-support losses), del$q per lower frontier
    // predicate (seeded with its losses), old$q where required.
    let mut temp: Vec<Symbol> = Vec::new();
    for &(h, arity) in heads {
        let dn = scratch_name("del", h);
        db.set_relation(dn, Relation::new(arity));
        temp.push(dn);
    }
    for (h, tuples) in layer_pending {
        for t in tuples {
            db.relation_mut(scratch_name("del", *h), t.len())
                .insert_slice(t);
        }
    }
    for (&q, tuples) in deleted {
        let Some(qrel) = db.relation(q) else { continue };
        let arity = qrel.arity();
        if needs_old.contains(&q) {
            let mut orel = Relation::new(arity);
            for t in qrel.iter() {
                orel.insert_slice(t);
            }
            for t in tuples {
                orel.insert_slice(t);
            }
            let on = scratch_name("old", q);
            db.set_relation(on, orel);
            temp.push(on);
        }
        let mut drel = Relation::new(arity);
        for t in tuples {
            drel.insert_slice(t);
        }
        let dn = scratch_name("del", q);
        db.set_relation(dn, drel);
        temp.push(dn);
    }

    // Overdeletion rules: one variant per deletable occurrence (the
    // pivot), head rewritten to del$h, the pivot to del$p, and later
    // lower-frontier occurrences to old$q. Same-stratum occurrences other
    // than the pivot keep reading the stratum's relations, which still
    // hold their pre-deletion contents throughout this fixpoint. Every
    // del$ relation is a delta from its first tuple on, and the pivot is a
    // variant's only del$ literal: the first round joins each variant
    // pivot-first over the seeded losses, later rounds over what del$h
    // gained.
    let mut del_rules: Vec<Rule> = Vec::new();
    let mut del_frontier: DeltaFrontier = heads
        .iter()
        .map(|&(h, _)| (scratch_name("del", h), 0))
        .collect();
    for (ri, occs) in &rule_occs {
        let rule = &program.rules[*ri];
        for (vi, &occ) in occs.iter().enumerate() {
            let mut synth = rule.clone();
            synth.head = Atom::new(scratch_name("del", rule.head.pred), rule.head.args.clone());
            let pivot = scratch_name("del", rule.body[occ].atom.pred);
            synth.body[occ].atom.pred = pivot;
            del_frontier.insert(pivot, 0);
            for &j in &occs[vi + 1..] {
                let p = rule.body[j].atom.pred;
                if needs_old.contains(&p) {
                    synth.body[j].atom.pred = scratch_name("old", p);
                }
            }
            del_rules.push(synth);
        }
    }
    scratch_fixpoint(del_rules, del_frontier, db, drive)?;

    // Remove the overdeleted tuples, then rederive: a tuple comes back if
    // it is still an EDB fact, or if some rule body still derives it from
    // the surviving facts.
    let mut over: Vec<(Symbol, Vec<Row>)> = Vec::new();
    for &(h, _) in heads {
        let dn = scratch_name("del", h);
        let candidates: Vec<Row> = db
            .relation(dn)
            .map(|r| r.iter().map(<[ValueId]>::to_vec).collect())
            .unwrap_or_default();
        let mut removed = Vec::new();
        for t in candidates {
            if db.remove_ids(h, &t).is_some() {
                removed.push(t);
            }
        }
        over.push((h, removed));
    }
    for (h, removed) in &over {
        if let Some(erel) = edb.relation(*h) {
            for t in removed {
                if erel.contains(t) {
                    db.insert_id_slice(*h, t);
                }
            }
        }
    }
    // Rederivation rules: each stratum rule guarded by del$h(head args) in
    // front of its body, a non-invertible argument as `_` (see
    // `rederive_compatible`). del$h is a delta from its first tuple on, the
    // stratum's heads from their current length: the first round is the
    // del$h-first join — O(overdeleted), not O(stratum) — and later rounds
    // join what came back.
    let rederive_rules: Vec<Rule> = split
        .rest
        .iter()
        .map(|&ri| {
            let mut synth = program.rules[ri].clone();
            let anchor = synth.head.args.iter();
            let anchor = anchor.map(|a| if invertible(a) { a.clone() } else { Term::Anon });
            let guard = Atom::new(scratch_name("del", synth.head.pred), anchor.collect());
            synth.body.insert(0, Literal::pos(guard));
            synth
        })
        .collect();
    let mut rederive_frontier = frontier_at(db, layer_set.iter().copied());
    rederive_frontier.extend(heads.iter().map(|&(h, _)| (scratch_name("del", h), 0)));
    scratch_fixpoint(rederive_rules, rederive_frontier, db, drive)?;

    for name in temp {
        db.remove_relation(name);
    }
    let mut out: Vec<(Symbol, Row)> = Vec::new();
    for (h, removed) in over {
        for t in removed {
            if !db.relation(h).is_some_and(|r| r.contains(&t)) {
                out.push((h, t));
            }
        }
    }
    drive.stats.strata_dred += 1;
    drive.meter.check()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;
    use ldl_value::Value;

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

    fn mutate(
        program: &Program,
        strat: &Stratification,
        edb: &mut Database,
        db: &mut Database,
        retract: &[(&str, Vec<Value>)],
        assert: &[(&str, Vec<Value>)],
    ) -> EvalStats {
        let sens = strat.sensitivity(program);
        let mut stats = EvalStats::new();
        let retractions: Vec<Fact> = retract
            .iter()
            .map(|(p, args)| Fact::new(*p, args.clone()))
            .collect();
        let assertions: Vec<Fact> = assert
            .iter()
            .map(|(p, args)| Fact::new(*p, args.clone()))
            .collect();
        apply_mutations(
            program,
            strat,
            &sens,
            edb,
            db,
            &retractions,
            &assertions,
            &EvalOptions::default(),
            &mut stats,
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

    #[test]
    fn dred_retraction_removes_unsupported_facts() {
        // Non-recursive, two rules for one head.
        let src = "p(X) <- e(X).\np(X) <- f(X).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("e", vec![Value::int(1)]),
                ("f", vec![Value::int(1)]),
                ("e", vec![Value::int(2)]),
            ],
        );
        // p(1) has two derivations: removing e(1) keeps it alive.
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(1)])],
            &[],
        );
        assert_eq!(stats.strata_dred, 1);
        assert_eq!(stats.strata_replayed, 0);
        assert!(db.contains(&Fact::new("p", vec![Value::int(1)])));
        // Removing f(1) kills the last support.
        mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("f", vec![Value::int(1)])],
            &[],
        );
        assert!(!db.contains(&Fact::new("p", vec![Value::int(1)])));
        assert!(db.contains(&Fact::new("p", vec![Value::int(2)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn dred_projection_multiplicity_is_exact() {
        // Projection: p(X) <- e(X, Y) has one derivation per Y. Deleting
        // one of two witnesses must keep p alive; deleting both kills it.
        let src = "p(X) <- e(X, Y).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("e", vec![Value::int(1), Value::int(10)]),
                ("e", vec![Value::int(1), Value::int(11)]),
            ],
        );
        mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(1), Value::int(10)])],
            &[],
        );
        assert!(db.contains(&Fact::new("p", vec![Value::int(1)])));
        mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(1), Value::int(11)])],
            &[],
        );
        assert!(!db.contains(&Fact::new("p", vec![Value::int(1)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn dred_self_join_subsets_are_exact() {
        // Two occurrences of e in one rule: a derivation using two deleted
        // tuples is covered by its first deleted occurrence.
        let src = "p(X, Z) <- e(X, Y), e(Y, Z).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(3)]),
                ("e", vec![Value::int(2), Value::int(2)]),
            ],
        );
        // Delete both tuples feeding p(1,3) (via 1→2→3) in one batch, plus
        // the self-loop feeding p(2,2): every subset size is exercised.
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(2)]),
            ],
            &[],
        );
        assert_eq!(stats.strata_dred, 1);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    type Case = (Program, Stratification, Database, Database);
    type Tuple = (&'static str, Vec<Value>);

    /// Apply the batch and hold the maintained model to the paper's
    /// definition: §3.2 run literally over the surviving EDB.
    fn mutate_vs_reference(case: &mut Case, retract: &[Tuple], assert: &[Tuple]) -> EvalStats {
        let (program, strat, edb, db) = case;
        let stats = mutate(program, strat, edb, db, retract, assert);
        let reference = crate::model::reference_model(program, edb).unwrap();
        assert_eq!(db.to_fact_set(), reference.to_fact_set());
        stats
    }

    fn ints(p: &'static str, rows: &[&[i64]]) -> Vec<Tuple> {
        rows.iter()
            .map(|r| (p, r.iter().map(|&i| Value::int(i)).collect()))
            .collect()
    }

    fn holds(case: &Case, pred: &str, args: Vec<Value>) -> bool {
        case.3.contains(&Fact::new(pred, args))
    }

    #[test]
    fn arithmetic_head_keeps_second_rule_support() {
        // `P + P` does not invert: the rederive guard is `del$d(X, _)`.
        let src = "d(X, P + P) <- b(X, P).\nd(X, Q) <- c(X, Q).";
        let facts = [ints("b", &[&[1, 2], &[2, 5]]), ints("c", &[&[1, 4]])].concat();
        let mut case = setup(src, &facts);
        let d14 = || vec![Value::int(1), Value::int(4)];
        let stats = mutate_vs_reference(&mut case, &ints("b", &[&[1, 2]]), &[]);
        assert_eq!((stats.strata_dred, stats.strata_replayed), (1, 0));
        assert!(holds(&case, "d", d14()), "c(1, 4) still derives it");
        let stats = mutate_vs_reference(&mut case, &ints("c", &[&[1, 4]]), &[]);
        assert_eq!((stats.strata_dred, stats.strata_replayed), (1, 0));
        assert!(!holds(&case, "d", d14()));
    }

    #[test]
    fn arithmetic_head_keeps_a_sum_with_two_derivations() {
        // s(1, 3) = 1 + 2 = 2 + 1: losing a(1, 1) overdeletes it, and the
        // anchored rederive must bring it back from a(1, 2), b(1, 1).
        let src = "s(X, P + Q) <- a(X, P), b(X, Q).";
        let facts = [
            ints("a", &[&[1, 1], &[1, 2]]),
            ints("b", &[&[1, 2], &[1, 1]]),
        ]
        .concat();
        let mut case = setup(src, &facts);
        let stats = mutate_vs_reference(&mut case, &ints("a", &[&[1, 1]]), &[]);
        assert_eq!((stats.strata_dred, stats.strata_replayed), (1, 0));
        assert!(holds(&case, "s", vec![Value::int(1), Value::int(3)]));
        assert!(!holds(&case, "s", vec![Value::int(1), Value::int(2)]));
    }

    #[test]
    fn set_valued_head_is_anchored_on_its_plain_argument() {
        let src = "pair(X, {X, Y}) <- e(X, Y).";
        let mut case = setup(src, &ints("e", &[&[1, 2], &[2, 1], &[1, 3], &[1, 1]]));
        let pair = |x: i64, s: [i64; 2]| vec![Value::int(x), Value::set(s.map(Value::int))];
        let stats = mutate_vs_reference(&mut case, &ints("e", &[&[1, 2]]), &[]);
        assert_eq!((stats.strata_dred, stats.strata_replayed), (1, 0));
        assert!(!holds(&case, "pair", pair(1, [1, 2])));
        assert!(holds(&case, "pair", pair(2, [1, 2])));
        assert!(holds(&case, "pair", pair(1, [1, 3])));
    }

    #[test]
    fn head_without_an_anchor_replays() {
        let src = "s(P + Q) <- a(P), b(Q).";
        let facts = [ints("a", &[&[1], &[2]]), ints("b", &[&[2], &[1]])].concat();
        let mut case = setup(src, &facts);
        let stats = mutate_vs_reference(&mut case, &ints("a", &[&[1]]), &[]);
        assert!(stats.strata_replayed >= 1);
        assert_eq!(stats.strata_dred, 0);
        assert!(holds(&case, "s", vec![Value::int(3)]));
    }

    #[test]
    fn recursive_arithmetic_head_replays() {
        // A weakened guard in a recursive layer would let the overdeletion
        // of one distance cascade through every distance of the node.
        let src = "dist(X, 0) <- src(X).\n\
                   dist(Y, D + 1) <- dist(X, D), edge(X, Y), D < 6.";
        // A chain 1→2→3→4, a self-loop on 2, and the shortcut 1→3.
        let edges: [&[i64]; 5] = [&[1, 2], &[2, 3], &[3, 4], &[2, 2], &[1, 3]];
        let mut case = setup(src, &[ints("src", &[&[1]]), ints("edge", &edges)].concat());
        for gone in [[2, 2], [1, 3]] {
            let stats = mutate_vs_reference(&mut case, &ints("edge", &[&gone]), &[]);
            assert!(stats.strata_replayed >= 1);
            assert_eq!(stats.strata_dred, 0);
        }
        assert!(holds(&case, "dist", vec![Value::int(4), Value::int(3)]));
        assert!(!holds(&case, "dist", vec![Value::int(4), Value::int(2)]));
    }

    #[test]
    fn bom_price_update_replays() {
        // §1's bill of materials: `tc({X}, C)` heads a recursive layer.
        let src = "part(P, <S>) <- p(P, S).\n\
                   tc({X}, C) <- q(X, C).\n\
                   tc({X}, C) <- part(X, S), tc(S, C).\n\
                   tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                               tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
                   result(X, C) <- tc({X}, C).";
        let facts = [
            ints("p", &[&[1, 2], &[1, 3], &[2, 4], &[2, 5]]),
            ints("q", &[&[3, 7], &[4, 20], &[5, 10]]),
        ]
        .concat();
        let mut case = setup(src, &facts);
        let (old, new) = (ints("q", &[&[5, 10]]), ints("q", &[&[5, 11]]));
        let stats = mutate_vs_reference(&mut case, &old, &new);
        assert!(stats.strata_replayed >= 1);
        assert_eq!(stats.strata_dred, 0);
        assert!(holds(&case, "result", vec![Value::int(1), Value::int(38)]));
    }

    const TC: &str = "r(X, Y) <- e(X, Y).\nr(X, Y) <- e(X, Z), r(Z, Y).";

    #[test]
    fn dred_retraction_on_transitive_closure() {
        let (program, strat, mut edb, mut db) = setup(
            TC,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(3)]),
                ("e", vec![Value::int(1), Value::int(3)]),
            ],
        );
        // Removing 2→3 kills r(2,3) but r(1,3) survives via the direct edge.
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(2), Value::int(3)])],
            &[],
        );
        assert_eq!(stats.strata_dred, 1);
        assert_eq!(stats.strata_replayed, 0);
        assert!(!db.contains(&Fact::new("r", vec![Value::int(2), Value::int(3)])));
        assert!(db.contains(&Fact::new("r", vec![Value::int(1), Value::int(3)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn dred_rederives_through_alternate_paths() {
        // A diamond: 1→2→4 and 1→3→4; deleting one path keeps r(1,4).
        let (program, strat, mut edb, mut db) = setup(
            TC,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(4)]),
                ("e", vec![Value::int(1), Value::int(3)]),
                ("e", vec![Value::int(3), Value::int(4)]),
            ],
        );
        mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(2), Value::int(4)])],
            &[],
        );
        assert!(db.contains(&Fact::new("r", vec![Value::int(1), Value::int(4)])));
        assert!(!db.contains(&Fact::new("r", vec![Value::int(2), Value::int(4)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn retracting_edb_fact_of_idb_head_keeps_derivable_tuple() {
        // r(1,2) is both stored and derivable: retracting the stored fact
        // must keep the derivable tuple (and vice versa kill it when the
        // derivation goes too).
        let (program, strat, mut edb, mut db) = setup(
            TC,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("r", vec![Value::int(1), Value::int(2)]),
                ("r", vec![Value::int(7), Value::int(8)]),
            ],
        );
        mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("r", vec![Value::int(1), Value::int(2)])],
            &[],
        );
        assert!(db.contains(&Fact::new("r", vec![Value::int(1), Value::int(2)])));
        mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("r", vec![Value::int(7), Value::int(8)])],
            &[],
        );
        assert!(!db.contains(&Fact::new("r", vec![Value::int(7), Value::int(8)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn deletion_under_negation_replays() {
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
        assert!(!db.contains(&Fact::new("leaf", vec![Value::atom("a")])));
        // a loses its only child: leaf(a) must *appear* — only replay can
        // create facts from a deletion under negation.
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("par", vec![Value::atom("a"), Value::atom("b")])],
            &[],
        );
        assert!(stats.strata_replayed > 0);
        assert!(db.contains(&Fact::new("leaf", vec![Value::atom("a")])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn grouping_reader_replays_on_deletion() {
        let src = "kids(P, <K>) <- par(P, K).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("par", vec![Value::atom("p"), Value::atom("a")]),
                ("par", vec![Value::atom("p"), Value::atom("b")]),
            ],
        );
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("par", vec![Value::atom("p"), Value::atom("b")])],
            &[],
        );
        assert!(stats.strata_replayed > 0);
        let kids = db.relation(Symbol::intern("kids")).unwrap();
        assert_eq!(kids.live_len(), 1);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    #[test]
    fn mixed_batch_retract_and_assert_in_one_commit() {
        let (program, strat, mut edb, mut db) = setup(
            TC,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(3)]),
            ],
        );
        // Swap the 2→3 edge for 2→4 in a single transaction.
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(2), Value::int(3)])],
            &[("e", vec![Value::int(2), Value::int(4)])],
        );
        assert!(stats.facts_retracted > 0);
        assert!(!db.contains(&Fact::new("r", vec![Value::int(1), Value::int(3)])));
        assert!(db.contains(&Fact::new("r", vec![Value::int(1), Value::int(4)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

    /// A batch is one sweep: where its retraction and its assertion both
    /// reach a grouping body or a negated literal, the suffix replays once
    /// — the work of the retraction alone — not once per half.
    #[test]
    fn mixed_batch_replays_its_suffix_once() {
        let atoms = |p: &'static str, rows: &[&[&str]]| -> Vec<Tuple> {
            rows.iter()
                .map(|r| (p, r.iter().map(|a| Value::atom(a)).collect()))
                .collect()
        };
        let salary = |who: &'static str, s: i64| -> Tuple {
            let args = vec![Value::atom("sales"), Value::atom(who), Value::int(s)];
            ("salary", args)
        };
        let family = [
            atoms("node", &[&["a"], &["b"], &["c"]]),
            atoms("par", &[&["a", "b"]]),
        ]
        .concat();
        // (program, EDB, retracted, asserted, the head whose stratum replays)
        let cases: [(&str, Vec<Tuple>, Tuple, Tuple, &str); 3] = [
            (
                "total(D, <S>) <- salary(D, _, S).",
                vec![salary("joe", 10), salary("ann", 20)],
                salary("joe", 10),
                salary("joe", 30),
                "total",
            ),
            (
                "leaf(X) <- node(X), ~par(X, _).",
                family.clone(),
                atoms("par", &[&["a", "b"]]).remove(0),
                atoms("par", &[&["a", "c"]]).remove(0),
                "leaf",
            ),
            // Not an update: the two halves change different facts.
            (
                "leaf(X) <- node(X), ~par(X, _).\nroot(X) <- node(X), ~par(_, X).",
                family,
                atoms("par", &[&["a", "b"]]).remove(0),
                atoms("par", &[&["b", "c"]]).remove(0),
                "leaf",
            ),
        ];
        for (src, facts, gone, new, head) in cases {
            let mut case = setup(src, &facts);
            let suffix = (case.1.num_layers() - case.1.layer(Symbol::intern(head))) as u64;
            let alone = mutate_vs_reference(&mut case, std::slice::from_ref(&gone), &[]);
            let mixed = mutate_vs_reference(&mut setup(src, &facts), &[gone], &[new]);
            assert_eq!(alone.strata_replayed, suffix, "{src}");
            assert_eq!(
                (mixed.strata_replayed, mixed.rules_fired, mixed.lowerings),
                (suffix, alone.rules_fired, alone.lowerings),
                "{src}"
            );
        }
    }

    /// DRed runs against relations that already hold the batch's
    /// insertions, so its rederivation can derive a tuple only the new
    /// model has — `r(1, 3)` here, through the new edge 1→2 and the
    /// restored `r(2, 3)`. The stratum above must still see it as new.
    #[test]
    fn rederived_through_an_inserted_tuple_feeds_the_strata_above() {
        let src = "r(X, Y) <- e(X, Y).\n\
                   r(X, Y) <- e(X, Z), r(Z, Y).\n\
                   far(X, Y) <- r(X, Y), ~near(Y).";
        let mut case = setup(src, &ints("e", &[&[2, 3], &[2, 4], &[4, 3]]));
        let stats = mutate_vs_reference(&mut case, &ints("e", &[&[2, 3]]), &ints("e", &[&[1, 2]]));
        let how = (stats.strata_dred, stats.strata_delta, stats.strata_replayed);
        assert_eq!(how, (1, 2, 0));
        assert!(holds(&case, "far", vec![Value::int(1), Value::int(3)]));
    }

    #[test]
    fn budget_abort_rolls_the_edb_back_bit_identically() {
        use crate::budget::Budget;
        let (program, strat, mut edb, mut db) = setup(
            TC,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(3)]),
            ],
        );
        let before: Vec<(Symbol, Vec<Row>)> = {
            let mut preds: Vec<Symbol> = edb.predicates().collect();
            preds.sort_by_key(|p| p.to_string());
            preds
                .into_iter()
                .map(|p| {
                    let r = edb.relation(p).unwrap();
                    (p, r.iter().map(<[ValueId]>::to_vec).collect())
                })
                .collect()
        };
        let sens = strat.sensitivity(&program);
        let mut stats = EvalStats::new();
        let opts = EvalOptions {
            budget: Budget {
                fuel: Some(0),
                ..Budget::default()
            },
            ..EvalOptions::default()
        };
        let err = apply_mutations(
            &program,
            &strat,
            &sens,
            &mut edb,
            &mut db,
            &[Fact::new("e", vec![Value::int(2), Value::int(3)])],
            &[Fact::new("e", vec![Value::int(3), Value::int(4)])],
            &opts,
            &mut stats,
        );
        assert!(matches!(err, Err(EvalError::ResourceExhausted { .. })));
        // The EDB is exactly what it was — same tuples, same positions.
        let after: Vec<(Symbol, Vec<Row>)> = {
            let mut preds: Vec<Symbol> = edb.predicates().collect();
            preds.sort_by_key(|p| p.to_string());
            preds
                .into_iter()
                .map(|p| {
                    let r = edb.relation(p).unwrap();
                    (p, r.iter().map(<[ValueId]>::to_vec).collect())
                })
                .collect()
        };
        assert_eq!(before, after);
        assert_eq!(edb.log_base(), None, "no log outlives the commit");
    }

    #[test]
    fn deletions_cascade_across_strata() {
        // Layer 0 non-recursive (p), layer above recursive over p. The
        // `~stop` literal forces the layer boundary — all-positive rules
        // would collapse into one stratum.
        let src = "p(X, Y) <- e(X, Y).\n\
                   q(X, Y) <- p(X, Y), ~stop(X).\n\
                   q(X, Y) <- p(X, Z), q(Z, Y), ~stop(X).";
        let (program, strat, mut edb, mut db) = setup(
            src,
            &[
                ("e", vec![Value::int(1), Value::int(2)]),
                ("e", vec![Value::int(2), Value::int(3)]),
            ],
        );
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[("e", vec![Value::int(2), Value::int(3)])],
            &[],
        );
        assert_eq!(stats.strata_dred, 2);
        assert!(!db.contains(&Fact::new("q", vec![Value::int(1), Value::int(3)])));
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }

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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
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

    /// Replay re-runs a layer as a cold evaluation does, one component at a
    /// time: `anc` to its fixpoint, then `far`. `~blocked` lifts both above
    /// `src`, and `far` reads `src` under negation, so a node losing its
    /// only edge replays the layer.
    #[test]
    fn replay_runs_a_multi_component_layer() {
        let src = "src(X) <- par(X, _).\n\
                   anc(X, Y) <- par(X, Y), ~blocked(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 2, ~src(Y).";
        let chain: [&[i64]; 6] = [&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let mut case = setup(src, &ints("par", &chain));
        let layer = &case.1.schedule[case.1.layer(Symbol::intern("far"))];
        let comps: Vec<(Vec<usize>, bool)> = layer
            .components
            .iter()
            .map(|c| (c.rules.clone(), c.recursive))
            .collect();
        assert_eq!(comps, [(vec![1, 2], true), (vec![3], false)]);
        assert!(holds(&case, "far", vec![Value::int(0), Value::int(6)]));

        let stats = mutate_vs_reference(&mut case, &ints("par", &[&[3, 4]]), &[]);
        assert_eq!(stats.strata_replayed, 1);
        assert!(holds(&case, "far", vec![Value::int(0), Value::int(3)]));
        assert!(!holds(&case, "far", vec![Value::int(0), Value::int(6)]));
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
        let stats = mutate(
            &program,
            &strat,
            &mut edb,
            &mut db,
            &[],
            &[
                ("succ", vec![Value::int(10), Value::int(11)]),
                ("succ", vec![Value::int(11), Value::int(12)]),
            ],
        );
        assert_eq!(stats.strata_replayed, 0);
        assert_eq!(db.to_fact_set(), full(&program, &edb).to_fact_set());
    }
}
