//! Model maintenance: one bottom-up sweep per mutation batch.
//!
//! [`apply_mutations`] is the transactional entry point behind the `ldl1`
//! mutation-batch API: it applies a net set of EDB retractions and
//! assertions to an already-evaluated model *in place*, producing the same
//! fact set a from-scratch evaluation over the post-batch EDB would. A batch
//! is one state transition, so it is maintained the way Theorem 1 computes a
//! model — one pass up the schedule cold evaluation runs
//! ([`ldl_stratify::Stratification::entries`]: each layer's grouping rules,
//! then its components, dependency-first; by Theorem 2 every entry may be a
//! layer of its own). The retractions are tombstoned and the assertions appended up
//! front, then each entry, with everything before it already final, takes
//! one of three arms, chosen by its read sets ([`Component::reads`]) from
//! what the batch's deletion and insertion frontiers reach:
//!
//! * **Skip**: neither frontier reaches the entry.
//! * **Replay**: a changed predicate is read under negation or inside a
//!   grouping body (`~p(…)` flips, a grouped set `<X>` is *replaced*, not
//!   extended), or deletions reach heads DRed cannot maintain — a grouping
//!   head, or one the rederive guard cannot anchor on
//!   (`rederive_compatible`). Admissibility makes such reads look strictly
//!   *down* the layering, so the entry's inputs are final: its heads are
//!   reset to their post-batch EDB rows and it runs as cold evaluation runs
//!   it. The difference between the old rows and the new is then applied
//!   to the old relations and handed up like any other change.
//! * **Maintain**: **DRed** for the deletions that reach it — overdelete
//!   everything derivable from a deleted tuple, then rederive the
//!   overdeleted tuples the surviving facts still support — then the
//!   **delta** pass for the insertions: an entry reading a grown predicate
//!   only positively is monotone in it, so the new tuples are the initial
//!   frontier. Each feeds its net losses and growth to the entries above.
//!
//! The deletion frontier is one *ledger*: per predicate, a [`Relation`] of
//! the tuples the batch has cost the model, in loss order. A retracted fact
//! of a predicate no rule defines is lost at once. One of a rule-defined
//! predicate may still be derived, so it enters that predicate's ledger as
//! a *candidate*, for the predicate's entry to settle. DRed moves the
//! ledger's relations into the model as the `del$p` relations its rules
//! read, and settles the head's own in place: it tombstones the candidates
//! the head never held and the tuples that came back, and what is left is
//! the head's net loss. Replay makes its difference's losses the head's
//! ledger, in place of the candidates.
//!
//! All of it runs on the engine's one semi-naive loop ([`delta_loop`]); what
//! is specific to each phase is its frontier. Doing both halves at an entry
//! before moving up is sound for the reason each is alone: the lower
//! relations are final; overdeletion may over-approximate (it joins against
//! lower relations that already hold the batch's insertions) because
//! rederivation restores exactly what the post-batch facts support; and the
//! insertion delta of a monotone entry does not depend on its deletions.
//!
//! Everything runs on one [`Drive`] — one set of counters, one budget meter: a
//! batch that trips its budget mid-flight aborts as a unit, and the EDB's
//! change log, open while the batch is applied, rewinds it to its rows,
//! positions and liveness (`Database::rewind`), so a retry replays the
//! exact same insertion positions.

use std::sync::{Arc, PoisonError};

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Program;
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;
use ldl_storage::{Database, IdRows, Relation};
use ldl_stratify::Component;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::Symbol;

use crate::compiled::{Compiled, PlanTable};
use crate::engine::EvalOptions;
use crate::error::EvalError;
use crate::fixpoint::{
    delta_loop, ensure_head_relations, frontier_at, len_of, run_entry, DeltaFrontier, Drive,
};
use crate::stats::EvalStats;

/// The batch's losses (module docs): per predicate, the tuples the model
/// has lost, in loss order — for a rule-defined predicate whose entry has
/// not run yet, the candidates that entry settles. Never an empty relation.
type Ledger = FastMap<Symbol, Relation>;

/// Apply a net mutation batch — `retractions` and `assertions`, both
/// already validated, deduplicated and interned by the caller — to an
/// evaluated model, in place.
///
/// Preconditions:
/// * `db` is a model of `compiled`'s program w.r.t. `edb`;
/// * every retraction is currently present in `edb`, and no fact appears in
///   both lists (the `ldl1` batch builder nets mutations before calling);
/// * the program passed well-formedness when the model was built.
///
/// On success `edb` holds the post-batch extensional database and `db` is a
/// model of the program w.r.t. it. On error (typically a tripped
/// [`crate::Budget`]) `edb` is rewound to its rows, positions and liveness
/// and `db` is left
/// *inconsistent*: the caller must discard it and re-evaluate from `edb`.
/// A retried batch therefore reproduces the exact same insertion positions.
pub fn apply_mutations(
    compiled: &Compiled,
    edb: &mut Database,
    db: &mut Database,
    retractions: &IdRows,
    assertions: &IdRows,
    opts: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    // Predicates defined by rules: a retraction on one of those is a
    // *support* loss — the fact may survive via a derivation — and must be
    // resolved at the defining entry, not applied to `db` up front.
    let rules = &compiled.program().rules;
    let idb_heads: FastSet<Symbol> = rules.iter().map(|r| r.head.pred).collect();

    // Phase 1: apply the batch to the EDB under a change log, which an
    // abort reads backwards. Pure-EDB retractions are deleted from the
    // model immediately and open the ledger, beside the candidates;
    // assertions are appended to the model and seed the insertion frontier.
    edb.open_log(0);
    edb.apply(retractions, assertions).expect("validated");
    let mut ledger = Ledger::default();
    let mut inserted = DeltaFrontier::default();
    for (pred, tuple) in retractions.iter() {
        if !idb_heads.contains(&pred) {
            if db.remove_ids(pred, tuple).is_none() {
                continue;
            }
            stats.facts_retracted += 1;
        }
        let lost = ledger
            .entry(pred)
            .or_insert_with(|| Relation::new(tuple.len()));
        lost.insert_slice(tuple);
    }
    for (pred, tuple) in assertions.iter() {
        let lo = len_of(db, pred);
        if db.insert_id_slice(pred, tuple) {
            inserted.entry(pred).or_insert(lo);
        }
    }

    // Phase 2: the sweep, on one drive — the batch aborts as a unit.
    let mut drive = Drive::new(opts, stats);
    let result = sweep(compiled, edb, db, ledger, inserted, &mut drive);
    // No EDB log outlives the commit: model-less commits would grow it.
    if result.is_err() {
        edb.rewind();
    } else {
        edb.close_log();
    }
    stats.record_arena(db);
    result
}

/// The one pass up the schedule (module docs): skip, replay, or
/// DRed-then-delta, per entry. What the batch has changed before the entry
/// it is at: the `ledger` of its losses, and `inserted`, the predicates the
/// model gained tuples of, each marked at its first new one.
fn sweep(
    compiled: &Compiled,
    edb: &Database,
    db: &mut Database,
    mut ledger: Ledger,
    mut inserted: DeltaFrontier,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    let (program, plans) = (compiled.program(), compiled.plans());
    for (at, (layer, entry)) in compiled.stratification().entries().enumerate() {
        let reads = &entry.reads;
        let lost = ledger
            .keys()
            .any(|p| entry.preds.contains(p) || reads.positive.contains(p));
        let grew = inserted.keys().any(|p| reads.positive.contains(p));
        let flipped = ledger
            .keys()
            .chain(inserted.keys())
            .any(|&p| reads.requires_replay_for(p));
        if !(lost || grew || flipped) {
            drive.stats.strata_skipped += 1;
            continue;
        }

        // Changes under negation or grouping bodies flip conclusions the
        // differential passes cannot revise one by one, and a head DRed
        // cannot rederive (see `rederive_compatible`) leaves nothing to
        // guard with.
        if flipped || (lost && !rederive_compatible(program, entry)) {
            let (ledger, ins) = (&mut ledger, &mut inserted);
            replay(plans, layer, entry, edb, db, ledger, ins, drive)?;
            continue;
        }
        drive.set_context(layer, entry.preds.first().copied());
        ensure_head_relations(program, &entry.rules, db)?;
        // Marked before DRed: rederivation joins against relations that
        // already hold the batch's insertions, so it can derive tuples only
        // the new model has — whatever it appends is a delta below, too.
        let pre = grew.then(|| frontier_at(db, entry.preds.iter().copied()));

        if lost {
            dred(compiled, at, entry, edb, db, &mut ledger, drive)?;
        }
        if let Some(pre) = pre {
            // Every grown predicate is new from its first new tuple on
            // (also where it is one of the heads — new EDB tuples for an
            // IDB predicate). The first round restricts one grown
            // occurrence at a time while the others see the full,
            // new-tuple-inclusive relation, which covers every derivation
            // using at least one new tuple; whatever it derives lands above
            // `pre` and keeps the loop going. A grouping rule is never a
            // pass: a grown predicate in its body would have replayed.
            let mut frontier = pre.clone();
            frontier.extend(&inserted);
            delta_loop(
                plans,
                &entry.rules,
                entry.recursive,
                db,
                &mut frontier,
                drive,
            )?;
            drive.stats.strata_delta += 1;
            // New facts of this entry join the frontier for the entries
            // above (a head already in `inserted` keeps its lower mark).
            for (&p, &lo) in &pre {
                if len_of(db, p) > lo {
                    inserted.entry(p).or_insert(lo);
                }
            }
        }
    }
    // Every candidate was settled by its entry: a tuple the ledger holds is
    // gone from the model, or came back as one of the batch's new tuples.
    debug_assert!(ledger.iter().all(|(p, lost)| lost.iter().all(|t| {
        let at = db.relation(*p).and_then(|r| r.position_of(t));
        at.is_none_or(|at| inserted.get(p).is_some_and(|&lo| at as usize >= lo))
    })));
    Ok(())
}

/// Make `lost` head `h`'s ledger entry: its net losses, in place of the
/// candidates its entry has settled.
fn settle(ledger: &mut Ledger, h: Symbol, lost: Relation, drive: &mut Drive<'_>) {
    drive.stats.facts_retracted += lost.live_len() as u64;
    if lost.is_empty() {
        ledger.remove(&h);
    } else {
        ledger.insert(h, lost);
    }
}

/// Replay one entry: reset its heads to their post-batch EDB rows and run
/// it as cold evaluation does. Everything before it is final, so by
/// Theorem 2 that computes exactly its relations in the new model. Then
/// bring the old relations to the new rows by their difference: rows in
/// both keep their positions (and an open change log sees only the
/// difference), the losses are tombstoned and become the heads' ledger,
/// and the gains are appended and marked in `inserted` — the entries above
/// join only the difference.
#[allow(clippy::too_many_arguments)]
fn replay(
    plans: &PlanTable,
    layer: usize,
    entry: &Component,
    edb: &Database,
    db: &mut Database,
    ledger: &mut Ledger,
    inserted: &mut DeltaFrontier,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    ensure_head_relations(plans.program(), &entry.rules, db)?;
    let mut old: Vec<Relation> = Vec::new();
    for &h in &entry.preds {
        let rel = db.relation_mut(h, 0);
        let fresh = edb.relation(h).cloned();
        let fresh = fresh.unwrap_or_else(|| Relation::new(rel.arity()));
        old.push(std::mem::replace(rel, fresh));
    }
    run_entry(plans, layer, entry, db, drive)?;
    for (&h, mut new) in entry.preds.iter().zip(old) {
        // The old relation goes back, with its indexes and change log;
        // `new` takes the replayed rows.
        let rel = db.relation_mut(h, 0);
        std::mem::swap(rel, &mut new);
        let mut lost = Relation::new(rel.arity());
        for t in rel.iter().filter(|t| !new.contains(t)) {
            lost.insert_slice(t);
        }
        for t in lost.iter() {
            rel.remove_slice(t);
        }
        let lo = rel.len();
        for t in new.iter() {
            rel.insert_slice(t);
        }
        if rel.len() > lo {
            inserted.entry(h).or_insert(lo);
        }
        settle(ledger, h, lost, drive);
    }
    drive.stats.strata_replayed += 1;
    Ok(())
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

/// Can DRed maintain this entry? Not a grouping head: a lost body tuple
/// *replaces* its group's set, which no rederive brings back — and a head
/// a grouping rule shares with simple ones is the same head. Otherwise it
/// is whether DRed can anchor the rederive join, which puts `del$h(…)` in
/// front of each rule body with the head's arguments as patterns and every
/// non-invertible argument replaced by `_`. The guard is only a work
/// limiter — whatever the guarded rules derive comes from surviving facts,
/// so it belongs to the new model whether or not it was overdeleted — but
/// how much it limits decides the gate:
///
/// * every head argument invertible: the guard matches exactly the
///   overdeleted tuples, in any entry;
/// * a non-recursive entry whose every head keeps at least one invertible
///   argument: the weaker guard re-joins each overdeleted tuple's anchor
///   group, once — one round, no cascade.
///
/// A head with no invertible argument has no anchor. In a recursive entry
/// the weakened guard re-joins whole anchor groups round after round behind
/// an overdeletion that already cascades through everything built on the
/// lost tuple (every superset, for the BOM's set-valued closure) — sound,
/// but measured slower than replay (EXPERIMENTS.md P24). All three replay.
fn rederive_compatible(program: &Program, entry: &Component) -> bool {
    let heads = || entry.rules.iter().map(|&ri| &program.rules[ri].head);
    !heads().any(|h| h.has_group())
        && (heads().all(|h| h.args.iter().all(invertible))
            || (!entry.recursive && heads().all(|h| h.args.iter().any(invertible))))
}

fn scratch_name(prefix: &str, p: Symbol) -> Symbol {
    Symbol::intern(&format!("{prefix}${p}"))
}

/// DRed's programs for one schedule entry and one set of lower predicates
/// with losses, built once per [`Compiled`] (`Compiled::dred`): the
/// overdeletion variants and the guarded rederivation rules, each with a
/// plan table of its own, and the scratch relations they read, named once.
#[derive(Debug)]
pub(crate) struct DredPlans {
    /// Per lower predicate with losses the rules read, in first-occurrence
    /// order: the predicate, its `del$q`, and its `old$q` where an
    /// occurrence after a pivot reads the pre-deletion relation.
    lower: Vec<(Symbol, Symbol, Option<Symbol>)>,
    /// Per head of the entry: the predicate and its `del$h`.
    heads: Vec<(Symbol, Symbol)>,
    /// The overdeletion variants.
    overdelete: PlanTable,
    /// The `del$` relations the variants join as deltas, from their first
    /// tuple on: every head's, and every pivot's.
    overdelete_deltas: Vec<Symbol>,
    /// Every rule of the entry, guarded by its head's `del$h`.
    rederive: PlanTable,
}

impl DredPlans {
    /// The programs for `entry` when the batch has cost the model tuples of
    /// each of `lower` — the lower predicates its rules read positively.
    fn new(program: &Program, entry: &Component, lower: &[Symbol]) -> DredPlans {
        let heads = &entry.preds;
        let del = |p| scratch_name("del", p);
        let is_deletable = |l: &Literal| {
            l.positive
                && l.builtin().is_none()
                && (lower.contains(&l.atom.pred) || heads.contains(&l.atom.pred))
        };
        // Deletable body occurrences per rule, in body order — the pivots
        // of the overdeletion variants.
        let rule_occs: Vec<(&Rule, Vec<usize>)> = entry
            .rules
            .iter()
            .map(|&ri| {
                let rule = &program.rules[ri];
                let occs = rule.body.iter().enumerate();
                (
                    rule,
                    occs.filter(|(_, l)| is_deletable(l))
                        .map(|(i, _)| i)
                        .collect(),
                )
            })
            .collect();

        // A lower occurrence *after* the pivot must read the pre-deletion
        // value (OLD = NEW ∪ deleted); occurrences before the pivot read the
        // surviving relation, so each lost solution is covered by its first
        // deleted occurrence. `old$q` is materialized only where needed.
        let mut needs_old: FastSet<Symbol> = FastSet::default();
        for (rule, occs) in &rule_occs {
            for &j in occs.iter().skip(1) {
                let p = rule.body[j].atom.pred;
                if !heads.contains(&p) {
                    needs_old.insert(p);
                }
            }
        }
        let old = |p| needs_old.contains(&p).then(|| scratch_name("old", p));

        // Overdeletion rules: one variant per deletable occurrence (the
        // pivot), head rewritten to del$h, the pivot to del$p, and later
        // lower occurrences to old$q. Occurrences of the entry's heads
        // other than the pivot keep reading its relations, which still hold
        // their pre-deletion contents throughout this fixpoint. Every
        // del$ relation is a delta from its first tuple on, and the pivot is
        // a variant's only del$ literal: the first round joins each variant
        // pivot-first over the ledger's losses, later rounds over what
        // del$h gained.
        let mut del_rules: Vec<Rule> = Vec::new();
        let mut overdelete_deltas: Vec<Symbol> = heads.iter().map(|&h| del(h)).collect();
        for (rule, occs) in &rule_occs {
            for (vi, &occ) in occs.iter().enumerate() {
                let mut synth = (*rule).clone();
                synth.head = Atom::new(del(rule.head.pred), rule.head.args.clone());
                let pivot = del(rule.body[occ].atom.pred);
                synth.body[occ].atom.pred = pivot;
                if !overdelete_deltas.contains(&pivot) {
                    overdelete_deltas.push(pivot);
                }
                for &j in &occs[vi + 1..] {
                    if let Some(old) = old(rule.body[j].atom.pred) {
                        synth.body[j].atom.pred = old;
                    }
                }
                del_rules.push(synth);
            }
        }

        // Rederivation rules: each rule of the entry guarded by del$h(head
        // args) in front of its body, a non-invertible argument as `_` (see
        // `rederive_compatible`).
        let rederive_rules: Vec<Rule> = rule_occs
            .iter()
            .map(|(rule, _)| {
                let mut synth = (*rule).clone();
                let anchor = synth.head.args.iter();
                let anchor = anchor.map(|a| if invertible(a) { a.clone() } else { Term::Anon });
                let guard = Atom::new(del(synth.head.pred), anchor.collect());
                synth.body.insert(0, Literal::pos(guard));
                synth
            })
            .collect();

        DredPlans {
            lower: lower.iter().map(|&q| (q, del(q), old(q))).collect(),
            heads: heads.iter().map(|&h| (h, del(h))).collect(),
            overdelete: PlanTable::new(Program::from_rules(del_rules)),
            overdelete_deltas,
            rederive: PlanTable::new(Program::from_rules(rederive_rules)),
        }
    }
}

/// Run the synthesised program `plans` plans to its semi-naive fixpoint
/// from `frontier` — the shape of both DRed phases. Its passes are
/// unmarked: the rules read their own `del$` heads.
fn scratch_fixpoint(
    plans: &PlanTable,
    mut frontier: DeltaFrontier,
    db: &mut Database,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    let all: Vec<usize> = (0..plans.program().len()).collect();
    delta_loop(plans, &all, true, db, &mut frontier, drive)
}

/// DRed for the entry at position `at` of the schedule: overdelete
/// everything derivable from a lost tuple, then rederive what the
/// surviving facts still support. The ledger lends the losses of each lower
/// predicate the rules read as its `del$q`, and each head's candidates as
/// its `del$h`, to which overdeletion adds; settled in place, `del$h`
/// returns as the head's net losses, in overdeletion order.
fn dred(
    compiled: &Compiled,
    at: usize,
    entry: &Component,
    edb: &Database,
    db: &mut Database,
    ledger: &mut Ledger,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    drive.check()?;
    // The lower predicates with losses the rules read, which pick the
    // entry's programs.
    let program = compiled.program();
    let mut lower: Vec<Symbol> = Vec::new();
    for l in entry.rules.iter().flat_map(|&ri| &program.rules[ri].body) {
        let p = l.atom.pred;
        let lost = ledger.contains_key(&p) && !entry.preds.contains(&p);
        if l.positive && l.builtin().is_none() && lost && !lower.contains(&p) {
            lower.push(p);
        }
    }
    let plans = {
        let mut table = compiled.dred.lock().unwrap_or_else(PoisonError::into_inner);
        let key = (at, lower);
        let build =
            |(_, lower): &(usize, Vec<Symbol>)| Arc::new(DredPlans::new(program, entry, lower));
        table.entry(key).or_insert_with_key(build).clone()
    };

    // Scratch relations: del$q per lower predicate, moved in from the
    // ledger (with old$q where required), and del$h per head, its
    // candidates or empty.
    for &(q, del_q, old_q) in &plans.lower {
        let lost = ledger.remove(&q).expect("a lower pivot has losses");
        if let Some(old_q) = old_q {
            let mut old = Relation::new(lost.arity());
            let survivors = db.relation(q).into_iter().flat_map(Relation::iter);
            for t in survivors.chain(lost.iter()) {
                old.insert_slice(t);
            }
            db.set_relation(old_q, old);
        }
        db.set_relation(del_q, lost);
    }
    for &(h, del_h) in &plans.heads {
        let arity = db.relation(h).map_or(0, Relation::arity);
        let candidates = ledger.remove(&h).unwrap_or_else(|| Relation::new(arity));
        db.set_relation(del_h, candidates);
    }
    let frontier = plans.overdelete_deltas.iter().map(|&p| (p, 0)).collect();
    scratch_fixpoint(&plans.overdelete, frontier, db, drive)?;

    // Remove the overdeleted tuples. Overdeletion joins lower relations
    // that already hold the batch's insertions, so it can reach a tuple the
    // head never held: no loss, it leaves the ledger — and the rederive
    // guard, which only bounds work. A removed tuple still stored in the
    // EDB comes straight back.
    let mut row = Vec::new();
    for &(h, del_h) in &plans.heads {
        let mut candidates = db.remove_relation(del_h).expect("installed above");
        for pos in 0..candidates.len() as u32 {
            if db.remove_ids(h, candidates.get(pos)).is_none() {
                // Through a copy: a relation cannot lend the row it removes.
                row.clear();
                row.extend_from_slice(candidates.get(pos));
                candidates.remove_slice(&row);
            }
        }
        if let Some(stored) = edb.relation(h) {
            for t in candidates.iter().filter(|t| stored.contains(t)) {
                db.insert_id_slice(h, t);
            }
        }
        db.set_relation(del_h, candidates);
    }
    // Rederivation: del$h is a delta from its first tuple on, the entry's
    // heads from their current length: the first round is the del$h-first
    // join — O(overdeleted), not O(entry) — and later rounds join what
    // came back.
    let mut frontier = frontier_at(db, entry.preds.iter().copied());
    frontier.extend(plans.heads.iter().map(|&(_, del_h)| (del_h, 0)));
    scratch_fixpoint(&plans.rederive, frontier, db, drive)?;

    // What came back, from the EDB or through a rule, is no loss either:
    // tombstoned, it leaves del$h holding the head's net losses.
    for &(h, del_h) in &plans.heads {
        let mut lost = db.remove_relation(del_h).expect("installed above");
        let rel = db.relation(h).expect("a head relation");
        for pos in 0..lost.len() as u32 {
            if let Some(at) = rel.position_of(lost.get(pos)) {
                lost.remove_slice(rel.get(at));
            }
        }
        settle(ledger, h, lost, drive);
    }
    for &(q, del_q, old_q) in &plans.lower {
        ledger.insert(q, db.remove_relation(del_q).expect("installed above"));
        if let Some(old_q) = old_q {
            db.remove_relation(old_q);
        }
    }
    drive.stats.strata_dred += 1;
    drive.check()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, ResourceKind};
    use ldl_parser::parse_program;
    use ldl_value::{Fact, Value, ValueId};

    type Case = (Compiled, Database, Database);
    type Tuple = (&'static str, Vec<Value>);

    fn setup(src: &str, edb_facts: &[Tuple]) -> Case {
        let compiled = Compiled::new(parse_program(src).unwrap()).unwrap();
        let mut edb = Database::new();
        for (p, args) in edb_facts {
            edb.insert_tuple(*p, args.clone());
        }
        let (strat, mut stats) = (compiled.stratification(), EvalStats::new());
        let opts = EvalOptions::default();
        let db =
            crate::fixpoint::evaluate(compiled.plans(), &edb, strat, &opts, &mut stats).unwrap();
        (compiled, edb, db)
    }

    /// Apply the batch and hold the maintained model to the paper's
    /// definition: §3.2 run literally over the surviving EDB.
    fn mutate_vs_reference(case: &mut Case, retract: &[Tuple], assert: &[Tuple]) -> EvalStats {
        let (compiled, edb, db) = case;
        let facts = |ts: &[Tuple]| -> Vec<Fact> {
            ts.iter()
                .map(|(p, args)| Fact::new(*p, args.clone()))
                .collect()
        };
        let mut stats = EvalStats::new();
        let (del, ins) = (
            IdRows::intern(&facts(retract)),
            IdRows::intern(&facts(assert)),
        );
        let opts = EvalOptions::default();
        apply_mutations(compiled, edb, db, &del, &ins, &opts, &mut stats).unwrap();
        let reference = crate::model::reference_model(compiled.program(), edb).unwrap();
        assert_eq!(db.to_fact_set(), reference.to_fact_set());
        stats
    }

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&i| Value::int(i)).collect()
    }

    fn ints(p: &'static str, rows: &[&[i64]]) -> Vec<Tuple> {
        rows.iter().map(|r| (p, vals(r))).collect()
    }

    fn atoms(p: &'static str, rows: &[&[&str]]) -> Vec<Tuple> {
        let row = |r: &[&str]| r.iter().map(|a| Value::atom(a)).collect();
        rows.iter().map(|r| (p, row(r))).collect()
    }

    fn holds(case: &Case, pred: &str, args: Vec<Value>) -> bool {
        case.2.contains(&Fact::new(pred, args))
    }

    #[test]
    fn dred_retraction_removes_unsupported_facts() {
        // Non-recursive, two rules for one head.
        let facts = [ints("e", &[&[1]]), ints("f", &[&[1]]), ints("e", &[&[2]])].concat();
        let mut case = setup("p(X) <- e(X).\np(X) <- f(X).", &facts);
        // p(1) has two derivations: removing e(1) keeps it alive.
        let stats = mutate_vs_reference(&mut case, &ints("e", &[&[1]]), &[]);
        assert_eq!((stats.strata_dred, stats.strata_replayed), (1, 0));
        assert!(holds(&case, "p", vals(&[1])));
        // Removing f(1) kills the last support.
        mutate_vs_reference(&mut case, &ints("f", &[&[1]]), &[]);
        assert!(!holds(&case, "p", vals(&[1])));
        assert!(holds(&case, "p", vals(&[2])));
    }

    #[test]
    fn dred_projection_multiplicity_is_exact() {
        // Projection: p(X) <- e(X, Y) has one derivation per Y. Deleting
        // one of two witnesses must keep p alive; deleting both kills it.
        let mut case = setup("p(X) <- e(X, Y).", &ints("e", &[&[1, 10], &[1, 11]]));
        mutate_vs_reference(&mut case, &ints("e", &[&[1, 10]]), &[]);
        assert!(holds(&case, "p", vals(&[1])));
        mutate_vs_reference(&mut case, &ints("e", &[&[1, 11]]), &[]);
        assert!(!holds(&case, "p", vals(&[1])));
    }

    #[test]
    fn dred_self_join_subsets_are_exact() {
        // Two occurrences of e in one rule: a derivation using two deleted
        // tuples is covered by its first deleted occurrence.
        let src = "p(X, Z) <- e(X, Y), e(Y, Z).";
        let mut case = setup(src, &ints("e", &[&[1, 2], &[2, 3], &[2, 2]]));
        // Delete both tuples feeding p(1,3) (via 1→2→3) in one batch, plus
        // the self-loop feeding p(2,2): every subset size is exercised.
        let stats = mutate_vs_reference(&mut case, &ints("e", &[&[1, 2], &[2, 2]]), &[]);
        assert_eq!(stats.strata_dred, 1);
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
        // `part` skips; `tc` replays; `result`, above it in the same layer,
        // runs DRed and delta on `tc`'s difference.
        let arms = (stats.strata_skipped, stats.strata_replayed);
        assert_eq!(
            (arms, stats.strata_dred, stats.strata_delta),
            ((1, 1), 1, 1)
        );
        assert!(holds(&case, "result", vec![Value::int(1), Value::int(38)]));
    }

    const TC: &str = "r(X, Y) <- e(X, Y).\nr(X, Y) <- e(X, Z), r(Z, Y).";

    #[test]
    fn dred_retraction_on_transitive_closure() {
        let mut case = setup(TC, &ints("e", &[&[1, 2], &[2, 3], &[1, 3]]));
        // Removing 2→3 kills r(2,3) but r(1,3) survives via the direct edge.
        let stats = mutate_vs_reference(&mut case, &ints("e", &[&[2, 3]]), &[]);
        assert_eq!((stats.strata_dred, stats.strata_replayed), (1, 0));
        assert!(!holds(&case, "r", vals(&[2, 3])));
        assert!(holds(&case, "r", vals(&[1, 3])));
    }

    #[test]
    fn dred_rederives_through_alternate_paths() {
        // A diamond: 1→2→4 and 1→3→4; deleting one path keeps r(1,4).
        let mut case = setup(TC, &ints("e", &[&[1, 2], &[2, 4], &[1, 3], &[3, 4]]));
        mutate_vs_reference(&mut case, &ints("e", &[&[2, 4]]), &[]);
        assert!(holds(&case, "r", vals(&[1, 4])));
        assert!(!holds(&case, "r", vals(&[2, 4])));
    }

    #[test]
    fn retracting_edb_fact_of_idb_head_keeps_derivable_tuple() {
        // r(1,2) is both stored and derivable: retracting the stored fact
        // must keep the derivable tuple (and vice versa kill it when the
        // derivation goes too).
        let facts = [ints("e", &[&[1, 2]]), ints("r", &[&[1, 2], &[7, 8]])].concat();
        let mut case = setup(TC, &facts);
        mutate_vs_reference(&mut case, &ints("r", &[&[1, 2]]), &[]);
        assert!(holds(&case, "r", vals(&[1, 2])));
        mutate_vs_reference(&mut case, &ints("r", &[&[7, 8]]), &[]);
        assert!(!holds(&case, "r", vals(&[7, 8])));
    }

    #[test]
    fn deletion_under_negation_replays() {
        let src = "anc(X, Y) <- par(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   leaf(X) <- node(X), ~par(X, _).";
        let facts = [
            atoms("par", &[&["a", "b"]]),
            atoms("node", &[&["a"], &["b"]]),
        ]
        .concat();
        let mut case = setup(src, &facts);
        assert!(!holds(&case, "leaf", vec![Value::atom("a")]));
        // a loses its only child: leaf(a) must *appear* — only replay can
        // create facts from a deletion under negation.
        let stats = mutate_vs_reference(&mut case, &atoms("par", &[&["a", "b"]]), &[]);
        assert!(stats.strata_replayed > 0);
        assert!(holds(&case, "leaf", vec![Value::atom("a")]));
    }

    #[test]
    fn grouping_reader_replays_on_deletion() {
        let par = atoms("par", &[&["p", "a"], &["p", "b"]]);
        let mut case = setup("kids(P, <K>) <- par(P, K).", &par);
        let stats = mutate_vs_reference(&mut case, &par[1..], &[]);
        assert!(stats.strata_replayed > 0);
        let kids = case.2.relation(Symbol::intern("kids")).unwrap();
        assert_eq!(kids.live_len(), 1);
    }

    #[test]
    fn mixed_batch_retract_and_assert_in_one_commit() {
        let mut case = setup(TC, &ints("e", &[&[1, 2], &[2, 3]]));
        // Swap the 2→3 edge for 2→4 in a single transaction.
        let (gone, new) = (ints("e", &[&[2, 3]]), ints("e", &[&[2, 4]]));
        let stats = mutate_vs_reference(&mut case, &gone, &new);
        assert!(stats.facts_retracted > 0);
        assert!(!holds(&case, "r", vals(&[1, 3])));
        assert!(holds(&case, "r", vals(&[1, 4])));
    }

    /// A batch is one sweep: where its retraction and its assertion both
    /// reach a grouping body or a negated literal, each entry they reach
    /// replays once — the work of the retraction alone — not once per half.
    #[test]
    fn mixed_batch_replays_its_suffix_once() {
        let salary = |who: &'static str, s: i64| -> Tuple {
            let args = vec![Value::atom("sales"), Value::atom(who), Value::int(s)];
            ("salary", args)
        };
        let family = [
            atoms("node", &[&["a"], &["b"], &["c"]]),
            atoms("par", &[&["a", "b"]]),
        ]
        .concat();
        // (program, EDB, retracted, asserted, entries replayed)
        let cases: [(&str, Vec<Tuple>, Tuple, Tuple, u64); 3] = [
            (
                "total(D, <S>) <- salary(D, _, S).",
                vec![salary("joe", 10), salary("ann", 20)],
                salary("joe", 10),
                salary("joe", 30),
                1,
            ),
            (
                "leaf(X) <- node(X), ~par(X, _).",
                family.clone(),
                atoms("par", &[&["a", "b"]]).remove(0),
                atoms("par", &[&["a", "c"]]).remove(0),
                1,
            ),
            // Not an update: the two halves change different facts. One
            // layer, two components, and `par` flips both.
            (
                "leaf(X) <- node(X), ~par(X, _).\nroot(X) <- node(X), ~par(_, X).",
                family,
                atoms("par", &[&["a", "b"]]).remove(0),
                atoms("par", &[&["b", "c"]]).remove(0),
                2,
            ),
        ];
        for (src, facts, gone, new, replayed) in cases {
            let mut case = setup(src, &facts);
            let alone = mutate_vs_reference(&mut case, std::slice::from_ref(&gone), &[]);
            let mixed = mutate_vs_reference(&mut setup(src, &facts), &[gone], &[new]);
            assert_eq!(alone.strata_replayed, replayed, "{src}");
            assert_eq!(
                (mixed.strata_replayed, mixed.rules_fired, mixed.lowerings),
                (replayed, alone.rules_fired, alone.lowerings),
                "{src}"
            );
        }
    }

    /// Replay is local to its entry. In one layer of three unrelated
    /// components, a flip under `~q` replays `a` alone: `b` and `c` skip.
    /// Above a replayed entry, its difference is an ordinary change: `u`
    /// reads `t` positively, so it runs DRed on `t`'s losses and the delta
    /// on its gains.
    #[test]
    fn replay_is_local_to_its_entry() {
        let src = "a(X) <- n(X), ~q(X).\nb(X) <- m(X), ~r(X).\nc(X) <- b(X).";
        let facts = [ints("n", &[&[1], &[2]]), ints("m", &[&[1], &[2]])].concat();
        let mut case = setup(src, &facts);
        let stats = mutate_vs_reference(&mut case, &[], &ints("q", &[&[1]]));
        let arms = (stats.strata_replayed, stats.strata_skipped);
        assert_eq!((arms, stats.rules_fired), ((1, 2), 1));

        let src = "t(X, Y) <- e(X, Y), ~blocked(X).\nu(X) <- t(X, _).";
        let facts = [ints("e", &[&[1, 2], &[2, 3]]), ints("blocked", &[&[1]])].concat();
        let mut case = setup(src, &facts);
        let stats = mutate_vs_reference(
            &mut case,
            &[ints("blocked", &[&[1]]), ints("e", &[&[2, 3]])].concat(),
            &[],
        );
        let arms = (stats.strata_replayed, stats.strata_dred, stats.strata_delta);
        assert_eq!((arms, stats.facts_retracted), ((1, 1, 1), 4));
        assert!(holds(&case, "u", vec![Value::int(1)]));
        assert!(!holds(&case, "u", vec![Value::int(2)]));
    }

    /// A head one grouping rule and one simple rule define is one entry:
    /// losing the simple rule's support does not lose a tuple the grouping
    /// rule still derives. (DRed over the simple rule alone would.)
    #[test]
    fn grouping_and_simple_rules_for_one_head_replay_together() {
        let src = "p(X, <Y>) <- e(X, Y).\np(X, S) <- f(X, S).";
        let set = |xs: &[i64]| Value::set(xs.iter().map(|&x| Value::int(x)));
        let facts = [
            ints("e", &[&[1, 2]]),
            vec![("f", vec![Value::int(1), set(&[2])])],
        ]
        .concat();
        let mut case = setup(src, &facts);
        let gone = [("f", vec![Value::int(1), set(&[2])])];
        let stats = mutate_vs_reference(&mut case, &gone, &[]);
        assert_eq!((stats.strata_replayed, stats.strata_dred), (1, 0));
        assert!(holds(&case, "p", vec![Value::int(1), set(&[2])]));
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

    /// Overdeletion joins relations that already hold the batch's
    /// insertions: losing `q(1, 2)` reaches `r(1, 3)` and also `r(1, 5)`,
    /// through the new `s(2, 5)`, which the old model never held. Settling
    /// drops it from the ledger, so neither the count nor `u`'s DRed sees a
    /// loss that never happened.
    #[test]
    fn a_candidate_the_head_never_held_is_no_loss() {
        let src = "r(X, Y) <- q(X, Z), s(Z, Y).\nu(X) <- r(X, _).";
        let mut case = setup(
            src,
            &[ints("q", &[&[1, 2]]), ints("s", &[&[2, 3]])].concat(),
        );
        let stats = mutate_vs_reference(&mut case, &ints("q", &[&[1, 2]]), &ints("s", &[&[2, 5]]));
        let arms = (stats.strata_dred, stats.strata_delta);
        assert_eq!((stats.facts_retracted, arms), (3, (2, 1)));
        assert!(!holds(&case, "r", vals(&[1, 5])));
    }

    /// A retracted stored fact of a rule-defined predicate is a candidate
    /// its entry settles. `h` groups, so its entry replays and still
    /// derives `h(1, {2})`: the replay's difference, empty, replaces the
    /// candidate, and `v`, which reads `h` positively, has nothing to do.
    #[test]
    fn a_replay_replaces_its_heads_candidates() {
        let h12 = ("h", vec![Value::int(1), Value::set([Value::int(2)])]);
        let src = "h(X, <Y>) <- e(X, Y).\nv(X) <- h(X, _).";
        let mut case = setup(src, &[ints("e", &[&[1, 2]]), vec![h12.clone()]].concat());
        let stats = mutate_vs_reference(&mut case, &[h12], &[]);
        let arms = (
            stats.strata_replayed,
            stats.strata_skipped,
            stats.strata_dred,
        );
        assert_eq!((arms, stats.facts_retracted), ((1, 1, 0), 0));
        assert!(holds(&case, "v", vals(&[1])));
    }

    #[test]
    fn budget_abort_rolls_the_edb_back_bit_identically() {
        use crate::budget::Budget;
        let (compiled, mut edb, mut db) = setup(TC, &ints("e", &[&[1, 2], &[2, 3]]));
        let rows = |edb: &Database| -> Vec<(Symbol, Vec<Vec<ValueId>>)> {
            let mut preds: Vec<Symbol> = edb.predicates().collect();
            preds.sort_by_key(|p| p.to_string());
            let rel = |p| edb.relation(p).unwrap().iter().map(<[ValueId]>::to_vec);
            preds.into_iter().map(|p| (p, rel(p).collect())).collect()
        };
        let before = rows(&edb);
        let mut stats = EvalStats::new();
        let opts = EvalOptions {
            budget: Budget {
                fuel: Some(0),
                ..Budget::default()
            },
            ..EvalOptions::default()
        };
        let err = apply_mutations(
            &compiled,
            &mut edb,
            &mut db,
            &IdRows::intern(&[Fact::new("e", vec![Value::int(2), Value::int(3)])]),
            &IdRows::intern(&[Fact::new("e", vec![Value::int(3), Value::int(4)])]),
            &opts,
            &mut stats,
        );
        assert!(matches!(err, Err(EvalError::ResourceExhausted { .. })));
        // The EDB is exactly what it was — same tuples, same positions.
        assert_eq!(before, rows(&edb));
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
        let mut case = setup(src, &ints("e", &[&[1, 2], &[2, 3]]));
        let stats = mutate_vs_reference(&mut case, &ints("e", &[&[2, 3]]), &[]);
        assert_eq!(stats.strata_dred, 2);
        assert!(!holds(&case, "q", vals(&[1, 3])));
    }

    #[test]
    fn monotone_delta_extends_closure() {
        let mut case = setup(TC, &ints("e", &[&[1, 2], &[2, 3]]));
        // Bridge 3 → 4: closure gains (3,4), (2,4), (1,4).
        let stats = mutate_vs_reference(&mut case, &[], &ints("e", &[&[3, 4]]));
        let arms = (stats.strata_replayed, stats.strata_delta);
        assert_eq!((stats.facts_derived, arms), (3, (0, 1)));
    }

    #[test]
    fn duplicate_commit_is_noop() {
        let mut case = setup(TC, &ints("e", &[&[1, 2]]));
        let before = case.2.to_fact_set();
        let stats = mutate_vs_reference(&mut case, &[], &ints("e", &[&[1, 2]]));
        assert_eq!(stats.facts_derived, 0);
        assert_eq!(case.2.to_fact_set(), before);
    }

    #[test]
    fn negation_layer_replays() {
        let src = "anc(X, Y) <- par(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   leaf(X) <- node(X), ~par(X, _).";
        let facts = [
            atoms("par", &[&["a", "b"]]),
            atoms("node", &[&["a"], &["b"]]),
        ]
        .concat();
        let mut case = setup(src, &facts);
        assert!(holds(&case, "leaf", vec![Value::atom("b")]));
        // b acquires a child: leaf(b) must be *retracted* — only replay can
        // do that.
        let stats = mutate_vs_reference(&mut case, &[], &atoms("par", &[&["b", "c"]]));
        assert!(stats.strata_replayed > 0);
        assert!(!holds(&case, "leaf", vec![Value::atom("b")]));
        assert!(holds(
            &case,
            "anc",
            vec![Value::atom("a"), Value::atom("c")]
        ));
    }

    #[test]
    fn grouping_layer_replays_with_replaced_sets() {
        let mut case = setup("kids(P, <K>) <- par(P, K).", &atoms("par", &[&["p", "a"]]));
        let stats = mutate_vs_reference(&mut case, &[], &atoms("par", &[&["p", "b"]]));
        assert!(stats.strata_replayed > 0);
        // The old singleton {a} is gone; only the replaced set remains.
        let kids = case.2.relation(Symbol::intern("kids")).unwrap();
        assert_eq!(kids.live_len(), 1);
    }

    #[test]
    fn unaffected_upper_strata_are_skipped() {
        // Two independent towers: changes to e1 never touch the q tower.
        let src = "p(X) <- e1(X).\n\
                   q(X) <- e2(X), ~e3(X).";
        let mut case = setup(src, &[ints("e1", &[&[1]]), ints("e2", &[&[7]])].concat());
        let stats = mutate_vs_reference(&mut case, &[], &ints("e1", &[&[2]]));
        let entries = case.0.stratification().entries().count() as u64;
        assert_eq!(
            (
                stats.strata_replayed,
                stats.strata_skipped + stats.strata_delta
            ),
            (0, entries)
        );
    }

    #[test]
    fn replay_only_from_affected_layer_up() {
        // Layer 0: closure (monotone). Above it, a negation layer.
        let src = "r(X, Y) <- e(X, Y).\n\
                   r(X, Y) <- e(X, Z), r(Z, Y).\n\
                   iso(X) <- node(X), ~r(X, _).";
        let facts = [ints("e", &[&[1, 2]]), ints("node", &[&[1], &[3]])].concat();
        let mut case = setup(src, &facts);
        assert!(holds(&case, "iso", vals(&[3])));
        let stats = mutate_vs_reference(&mut case, &[], &ints("e", &[&[3, 1]]));
        // r's entry is *not* replayed — the new edge seeds its deltas — but
        // iso's is (r appears negated there).
        assert_eq!((stats.strata_delta, stats.strata_replayed), (1, 1));
        assert!(!holds(&case, "iso", vals(&[3])));
    }

    /// Maintenance walks a layer as a cold evaluation runs it, one
    /// component at a time: `anc`, then `far`. `~blocked` lifts both above
    /// `src`, and `far` reads `src` under negation, so a node losing its
    /// only edge replays `far` — after `src` and `anc`, which read nothing
    /// that flipped, ran DRed.
    #[test]
    fn replay_runs_a_multi_component_layer() {
        let src = "src(X) <- par(X, _).\n\
                   anc(X, Y) <- par(X, Y), ~blocked(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 2, ~src(Y).";
        let chain: [&[i64]; 6] = [&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 5], &[5, 6]];
        let mut case = setup(src, &ints("par", &chain));
        let strat = case.0.stratification();
        let layer = &strat.schedule[strat.layer(Symbol::intern("far"))];
        let comps: Vec<(Vec<usize>, bool)> = layer
            .components
            .iter()
            .map(|c| (c.rules.clone(), c.recursive))
            .collect();
        assert_eq!(comps, [(vec![1, 2], true), (vec![3], false)]);
        assert!(holds(&case, "far", vec![Value::int(0), Value::int(6)]));

        let stats = mutate_vs_reference(&mut case, &ints("par", &[&[3, 4]]), &[]);
        assert_eq!((stats.strata_replayed, stats.strata_dred), (1, 2));
        assert!(holds(&case, "far", vec![Value::int(0), Value::int(3)]));
        assert!(!holds(&case, "far", vec![Value::int(0), Value::int(6)]));
    }

    #[test]
    fn mutual_recursion_delta_propagates() {
        let src = "even_r(X) <- zero(X).\n\
                   even_r(Y) <- odd_r(X), succ(X, Y).\n\
                   odd_r(Y) <- even_r(X), succ(X, Y).";
        let mut facts = ints("zero", &[&[0]]);
        facts.extend((0..10).map(|i| ("succ", vals(&[i, i + 1]))));
        let mut case = setup(src, &facts);
        // Extend the chain: both predicates must advance.
        let stats = mutate_vs_reference(&mut case, &[], &ints("succ", &[&[10, 11], &[11, 12]]));
        assert_eq!(stats.strata_replayed, 0);
    }

    /// The budget meters a commit's own work: a batch handed counters that
    /// earlier operations already filled runs under a limit set to what the
    /// batch alone spends, and one below it aborts at that amount.
    #[test]
    fn a_commit_on_filled_counters_meters_only_its_own_work() {
        let chain: Vec<Tuple> = (0..8).map(|i| ("e", vals(&[i, i + 1]))).collect();
        let batch = (ints("e", &[&[3, 4]]), ints("e", &[&[8, 9]]));
        let own = mutate_vs_reference(&mut setup(TC, &chain), &batch.0, &batch.1);
        assert!(own.attempts > 0 && own.facts_derived > 0);

        let commit = |budget: Budget| {
            let (compiled, mut edb, mut db) = setup(TC, &chain);
            let mut stats = EvalStats::new();
            (stats.attempts, stats.facts_derived) = (1_000_000, 1_000_000);
            let facts = |ts: &[Tuple]| -> Vec<Fact> {
                ts.iter().map(|(p, a)| Fact::new(*p, a.clone())).collect()
            };
            let opts = EvalOptions {
                budget,
                ..EvalOptions::default()
            };
            let (del, ins) = (
                IdRows::intern(&facts(&batch.0)),
                IdRows::intern(&facts(&batch.1)),
            );
            let res = apply_mutations(&compiled, &mut edb, &mut db, &del, &ins, &opts, &mut stats);
            match res {
                Ok(()) => None,
                Err(EvalError::ResourceExhausted {
                    resource, consumed, ..
                }) => Some((resource, consumed)),
                Err(e) => panic!("{e}"),
            }
        };
        let (attempts, facts) = (own.attempts, own.facts_derived);
        assert_eq!(commit(Budget::unlimited().with_fuel(attempts)), None);
        assert_eq!(commit(Budget::unlimited().with_max_facts(facts)), None);
        assert_eq!(
            commit(Budget::unlimited().with_fuel(attempts - 1)),
            Some((ResourceKind::Fuel, attempts))
        );
        assert_eq!(
            commit(Budget::unlimited().with_max_facts(facts - 1)),
            Some((ResourceKind::Facts, facts))
        );
    }
}
