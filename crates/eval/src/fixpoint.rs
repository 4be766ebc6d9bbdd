//! Layered fixpoint evaluation (Theorem 1): one semi-naive loop over one
//! kind of round.
//!
//! §3.2 has exactly one way to reach a layer's fixpoint — repeat
//! `R(M) = ⋃ r(M)`, every rule applied to the *same* `M` — and the engine
//! has exactly one of each piece of it:
//!
//! * [`run_round`] is one application of `R`: a batch of rule passes runs
//!   against an *immutable snapshot* of the database, each through the one
//!   `derive` function, which sends the body's solutions into the pass's
//!   sink (`exec::Sink`: the head projected, projected once per
//!   tuple, or grouped) and collects its derived facts into the pass's own
//!   buffer; then the buffers are merged in fixed task order — the only
//!   place derived facts enter the database. Derive-then-merge is the
//!   definition, not an optimisation: no pass of a round sees what another
//!   pass of the same round derived, and every tuple's insertion position —
//!   which the [`DeltaFrontier`] marks depend on — is a function of the
//!   program and the data alone. A pass whose rule projects away a
//!   variable bound beside its head's, in a schedule entry that does not
//!   loop, is *marked* ([`RoundTask::new`]): it drops a head tuple it has
//!   already emitted before the tuple reaches its buffer — `R(M)` is a set
//!   — keeping the first occurrence, so the merge inserts the same tuples
//!   at the same positions and probes the model only for what survives.
//! * [`delta_loop`] is the only semi-naive driver: it runs rounds of
//!   delta passes over a [`DeltaFrontier`] until no delta predicate has
//!   grown. Its callers differ only in the frontier they hand it: a
//!   schedule entry run cold (`run_entry`, after one full round), the
//!   maintenance sweep's insertion delta and DRed's phases
//!   ([`crate::retract`]), and the magic-set evaluator's staged schedule.
//! * a [`Drive`] carries what one operation's rounds share.

use std::sync::Arc;
use std::time::Instant;

use ldl_ast::program::Program;
use ldl_storage::Database;
use ldl_stratify::{Component, Stratification};
use ldl_value::fxhash::FastMap;
use ldl_value::{intern, Symbol, ValueId};

use crate::budget::ResourceKind;
use crate::compiled::PlanTable;
use crate::engine::EvalOptions;
use crate::error::EvalError;
use crate::exec::{run_ram, Out};
use crate::plan::{check_arity, DeltaRestriction, RulePlan};
use crate::ram::HeadIr;
use crate::stats::EvalStats;

/// What the rounds of one operation — a full evaluation, a mutation batch,
/// a magic-set query — share: the options they run under, the work counters
/// every round folds into, and the budget that makes the operation abort as
/// a unit.
///
/// The counters are the budget's ledger: fuel and the fact cap compare
/// `stats.attempts` and `stats.facts_derived` with their values when the
/// drive started, so a drive handed counters another operation already
/// filled meters only its own work. The deadline is resolved to an absolute
/// instant at construction, so nested fixpoints (the magic-set schedule)
/// share one clock.
pub struct Drive<'a> {
    opts: &'a EvalOptions,
    /// The operation's work counters.
    pub stats: &'a mut EvalStats,
    /// `(attempts, facts_derived)` when the drive started.
    base: (u64, u64),
    started: Instant,
    deadline: Option<Instant>,
    /// The layer (or magic stage) and a head predicate being evaluated, for
    /// abort diagnostics.
    context: (usize, Option<Symbol>),
}

impl<'a> Drive<'a> {
    /// Start an operation under `opts`, counting into `stats`; the budget's
    /// deadline clock starts now.
    pub fn new(opts: &'a EvalOptions, stats: &'a mut EvalStats) -> Drive<'a> {
        let started = Instant::now();
        Drive {
            opts,
            base: (stats.attempts, stats.facts_derived),
            stats,
            started,
            deadline: opts.budget.deadline.map(|d| started + d),
            context: (0, None),
        }
    }

    /// Record which stratum (and representative head predicate) is being
    /// evaluated, for abort diagnostics.
    pub fn set_context(&mut self, stratum: usize, pred: Option<Symbol>) {
        self.context = (stratum, pred);
    }

    /// The round-boundary check: abort if the token was cancelled or any
    /// limit is exceeded. Cheap when nothing is configured — one atomic
    /// load for the token, a compare per set limit, a clock read only under
    /// a deadline, an interner-size read only under an interner cap.
    pub fn check(&self) -> Result<(), EvalError> {
        let b = &self.opts.budget;
        let attempts = self.stats.attempts - self.base.0;
        let facts = self.stats.facts_derived - self.base.1;
        let exhausted = |resource, consumed, limit| {
            let (stratum, pred) = self.context;
            Err(EvalError::ResourceExhausted {
                resource,
                consumed,
                limit,
                stratum,
                pred: pred.map_or_else(|| "?".to_string(), |p| p.to_string()),
            })
        };
        if b.cancel.is_cancelled() {
            return exhausted(ResourceKind::Interrupt, attempts, 0);
        }
        if let Some(limit) = b.fuel.filter(|&l| attempts > l) {
            return exhausted(ResourceKind::Fuel, attempts, limit);
        }
        if let Some(limit) = b.max_facts.filter(|&l| facts > l) {
            return exhausted(ResourceKind::Facts, facts, limit);
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                let limit = b.deadline.unwrap_or_default().as_millis() as u64;
                return exhausted(
                    ResourceKind::Time,
                    (now - self.started).as_millis() as u64,
                    limit,
                );
            }
        }
        if let Some(limit) = b.max_interned {
            let len = intern::len() as u64;
            if len > limit {
                return exhausted(ResourceKind::Interner, len, limit);
            }
        }
        Ok(())
    }
}

/// Pre-create the head relation of every rule in `rule_ids` (so negation and
/// containment tests see empty relations rather than missing ones),
/// checking arity consistency.
pub fn ensure_head_relations(
    program: &Program,
    rule_ids: &[usize],
    db: &mut Database,
) -> Result<(), EvalError> {
    for &ri in rule_ids {
        let head = &program.rules[ri].head;
        check_arity(db, head.pred, head.arity())?;
        db.relation_mut(head.pred, head.arity());
    }
    Ok(())
}

/// Evaluate the program `plans` plans bottom-up over `edb` using the given
/// layering, returning the extended database `Mₙ` (EDB plus all derived
/// facts): every entry of its schedule in turn, each to its fixpoint
/// (`run_entry`).
pub fn evaluate(
    plans: &PlanTable,
    edb: &Database,
    strat: &Stratification,
    opts: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<Database, EvalError> {
    let mut db = edb.clone();
    let mut drive = Drive::new(opts, stats);
    for (layer, entry) in strat.entries() {
        run_entry(plans, layer, entry, &mut db, &mut drive)?;
    }
    Ok(db)
}

/// Run one schedule entry of `layer` to its fixpoint in place over `db`,
/// which must already hold the complete relations of every entry before it
/// — so a rule reading a lower component runs once that component is
/// complete rather than once per round of it. This is both the body of
/// [`evaluate`] and the replay arm of incremental maintenance, which runs
/// it on the mutation batch's own [`Drive`] so the batch is metered as a
/// whole.
///
/// Semi-naive: a full round 0 covers every tuple below the pre-round marks,
/// the delta loop everything above them (nothing, in a non-recursive entry:
/// no body literal reads a delta, and its one round is its fixpoint). A
/// grouping rule runs in round 0 only — Lemma 3.2.3, once, over the lower
/// layers: admissibility (§3.1 clause 2) puts its whole body strictly below
/// this layer, so no delta reaches it.
pub(crate) fn run_entry(
    plans: &PlanTable,
    layer: usize,
    entry: &Component,
    db: &mut Database,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    drive.set_context(layer, entry.preds.first().copied());
    ensure_head_relations(plans.program(), &entry.rules, db)?;
    let mut frontier = frontier_at(db, entry.preds.iter().copied());
    full_round(plans, &entry.rules, entry.recursive, db, drive)?;
    delta_loop(
        plans,
        &entry.rules,
        entry.recursive,
        db,
        &mut frontier,
        drive,
    )
}

/// One full round: every rule of `rule_ids` applied once, unrestricted, to
/// the same snapshot. `recursive` says whether the rules share a schedule
/// entry that loops (a [`Component`]'s flag): only a pass of a
/// non-recursive one is marked ([`RoundTask::new`]). Returns the number of
/// new facts.
pub fn full_round(
    plans: &PlanTable,
    rule_ids: &[usize],
    recursive: bool,
    db: &mut Database,
    drive: &mut Drive<'_>,
) -> Result<usize, EvalError> {
    let plans = rule_ids
        .iter()
        .map(|&ri| plans.prepare(ri, db, drive.stats))
        .collect::<Result<Vec<_>, _>>()?;
    let tasks: Vec<RoundTask<'_>> = plans
        .iter()
        .map(|p| RoundTask::new(p, None, recursive))
        .collect();
    run_round(&tasks, db, drive)
}

/// Which predicates are semi-naive deltas, and from where: for each key,
/// the insertion position of its first tuple that no pass has joined *as a
/// delta* yet — the delta is `[mark, len)`. Invariant: every derivation
/// whose delta-predicate tuples all sit below their marks has already been
/// performed.
pub type DeltaFrontier = FastMap<Symbol, usize>;

/// The frontier marking each of `preds` at its current length: nothing in
/// them is new (yet).
pub fn frontier_at(db: &Database, preds: impl IntoIterator<Item = Symbol>) -> DeltaFrontier {
    preds.into_iter().map(|p| (p, len_of(db, p))).collect()
}

/// The semi-naive delta loop — the engine's only one. The *keys* of
/// `frontier` say which predicates are deltas. Each round runs, for every
/// positive body occurrence (in rule order, then body order) of a frontier
/// predicate with tuples above its mark, one pass (`PlanTable::delta_pass`,
/// table role `occ + 1`) in which that occurrence reads only `[mark, len)`
/// while every other literal reads the whole relation; then the marks
/// advance to the pre-round lengths. The pass is normally the delta-first
/// variant pinning the occurrence as step 0, so its cost follows the delta.
/// When that variant would scan some relation in full once per delta tuple
/// — a relation the full plan scans first — the pass runs the full plan in
/// place instead, with the range on the occurrence's own step: one scan of
/// that relation per round rather than one per delta tuple, which is what
/// made such a rule quadratic. All passes of a round read the same
/// snapshot; a derivation needing two new tuples surfaces through whichever
/// lands first, in the next round. The loop ends when no frontier predicate
/// has grown, leaving every mark at its relation's length — so a caller
/// that keeps the frontier can add facts by other means and re-enter to
/// join exactly those. `recursive` marks passes as [`full_round`]'s does.
pub fn delta_loop(
    plans: &PlanTable,
    rule_ids: &[usize],
    recursive: bool,
    db: &mut Database,
    frontier: &mut DeltaFrontier,
    drive: &mut Drive<'_>,
) -> Result<(), EvalError> {
    let mut occs: Vec<(usize, usize, Symbol)> = Vec::new();
    for &ri in rule_ids {
        for (occ, l) in plans.program().rules[ri].body.iter().enumerate() {
            if l.positive && l.builtin().is_none() && frontier.contains_key(&l.atom.pred) {
                occs.push((ri, occ, l.atom.pred));
            }
        }
    }
    loop {
        let mut passes: Vec<(Arc<RulePlan>, DeltaRestriction)> = Vec::new();
        for &(ri, occ, pred) in &occs {
            let (lo, hi) = (frontier[&pred] as u32, len_of(db, pred) as u32);
            if lo < hi {
                let (plan, step) = plans.delta_pass(ri, occ, db, drive.stats)?;
                passes.push((plan, DeltaRestriction { step, lo, hi }));
            }
        }
        for (&p, mark) in frontier.iter_mut() {
            *mark = len_of(db, p);
        }
        if passes.is_empty() {
            return Ok(()); // nothing new feeds any literal
        }
        let tasks: Vec<RoundTask<'_>> = passes
            .iter()
            .map(|(plan, restrict)| RoundTask::new(plan, Some(*restrict), recursive))
            .collect();
        run_round(&tasks, db, drive)?;
    }
}

/// One rule pass of a round: a compiled plan, optionally restricted to a
/// tuple-position range of one scan step (in every pass the delta loop
/// schedules, the delta range of the occurrence it joins), and whether the
/// pass is *marked* to emit each head tuple once.
pub struct RoundTask<'p> {
    /// The plan to run.
    pub plan: &'p RulePlan,
    /// The scan step confined to a position range, if any.
    pub restrict: Option<DeltaRestriction>,
    /// Drop a head tuple this pass has already emitted before it reaches
    /// the pass buffer (the sink `exec::Sink::Distinct`). Set by
    /// [`RoundTask::new`] where the plan projects ([`RulePlan::projects`])
    /// and its schedule entry is not recursive: there the repeats are the
    /// pass's own, and nothing but the merge's probe of the model would
    /// drop them.
    pub distinct: bool,
}

impl<'p> RoundTask<'p> {
    /// A pass of `plan` under `restrict` in a schedule entry that is, or is
    /// not, `recursive`: marked when the entry is not recursive and the
    /// plan projects. Both facts are fixed when the program loads, so the
    /// mark reads two flags.
    pub fn new(
        plan: &'p RulePlan,
        restrict: Option<DeltaRestriction>,
        recursive: bool,
    ) -> RoundTask<'p> {
        RoundTask {
            plan,
            restrict,
            distinct: !recursive && plan.projects,
        }
    }
}

/// Derived tuples of one rule pass, stored flat in body-solution order
/// (`arity`-sized chunks of `data`), filled by the pass's sink
/// ([`crate::exec::Out`]). An unmarked pass includes duplicates: the dedup
/// decision happens at merge time against the database, and rejecting a
/// duplicate from a borrowed chunk allocates nothing. A marked pass
/// ([`RoundTask::distinct`]) holds each tuple once, at its first
/// derivation, and the merge still probes the model for it. Neither kind of
/// pass performs a per-tuple allocation.
#[derive(Default)]
pub(crate) struct DerivedBuf {
    pub(crate) arity: usize,
    pub(crate) data: Vec<ValueId>,
    /// Tuple count. Equals `data.len() / arity` except for zero-arity
    /// heads, whose tuples occupy no ids.
    pub(crate) count: usize,
}

impl DerivedBuf {
    /// Visit each derived tuple as a borrowed id-slice, in derivation order.
    pub(crate) fn for_each(&self, f: &mut impl FnMut(&[ValueId])) {
        if self.arity == 0 {
            for _ in 0..self.count {
                f(&[]);
            }
        } else {
            for t in self.data.chunks_exact(self.arity) {
                f(t);
            }
        }
    }
}

/// Run one rule pass against an immutable `db`: the one derive step of a
/// round, whatever the head. The pass's plan runs through its lowered
/// register program ([`crate::exec`]) into the sink its head and mark
/// choose ([`Out::new`]), and the pass's derivation attempts (body
/// solutions enumerated — the fuel unit), index probes, existential cuts,
/// dropped repeats and plan lowering are added to `stats`. It mutates
/// nothing else. Returns the head's id-tuples in body-solution order (an
/// unmarked pass includes duplicates; a grouping head gives one tuple per
/// group, in first-solution order).
pub(crate) fn derive(task: &RoundTask<'_>, db: &Database, stats: &mut EvalStats) -> DerivedBuf {
    let plan = task.plan;
    stats.lowerings += u64::from(plan.ram.get().is_none());
    let prog = plan.lowered();
    // A grouping rule must see *all* body solutions of its group in one
    // pass (the aggregation is not decomposable): never a range.
    debug_assert!(
        task.restrict.is_none() || matches!(prog.head, HeadIr::Simple(_)),
        "grouping pass restricted"
    );
    let mut out = Out::new(&prog.head, task.distinct);
    let (probes, cuts) = run_ram(
        &prog,
        db,
        task.restrict,
        &mut vec![ValueId::FILLER; prog.nregs],
        &mut out,
    );
    stats.attempts += out.attempts;
    stats.index_probes += probes;
    stats.exist_cuts += cuts;
    stats.dedup_inserts += out.repeats;
    out.into_buf()
}

/// Execute one evaluation round — one application of §3.2's `R` — and the
/// only place derived facts enter the database. The derive phase runs every
/// task, in task order, against the current state (immutable for the
/// duration), folding the passes' counters into the operation's stats;
/// then the buffers are merged in task order. The tuples are already
/// interned ids, so a rejected duplicate costs one hash of a few u32s.
/// Returns the number of new facts.
///
/// Budget checks bracket the round ([`Drive::check`] before the derive
/// phase and after the merge), and nothing inside it stops early: a limit
/// crossed or a token cancelled mid-round lets the round finish and aborts
/// at its boundary. A round is therefore all-or-nothing with respect to
/// aborts: either its full merge lands, or the error propagates with the
/// caller responsible for discarding `db` — a partially-built group set, in
/// particular, is never observable.
pub fn run_round(
    tasks: &[RoundTask<'_>],
    db: &mut Database,
    drive: &mut Drive<'_>,
) -> Result<usize, EvalError> {
    drive.check()?;
    if tasks.is_empty() {
        return Ok(0);
    }
    let stats = &mut *drive.stats;
    stats.rounds += 1;
    stats.compiled_rounds += 1;
    stats.rules_fired += tasks.len() as u64;
    let mut derived: Vec<(Symbol, DerivedBuf)> = Vec::with_capacity(tasks.len());
    for t in tasks {
        derived.push((t.plan.head.pred, derive(t, db, stats)));
    }

    let mut new = 0u64;
    let mut dedup = 0u64;
    for (pred, buf) in &derived {
        // One relation lookup per buffer, not per tuple; an empty buffer
        // creates no relation.
        if buf.count == 0 {
            continue;
        }
        let rel = db.relation_mut(*pred, buf.arity);
        buf.for_each(&mut |t| {
            if rel.insert_slice(t) {
                new += 1;
            } else {
                dedup += 1;
            }
        });
    }
    stats.dedup_inserts += dedup;
    stats.facts_derived += new;
    drive.check()?;
    Ok(new as usize)
}

pub(crate) fn len_of(db: &Database, p: Symbol) -> usize {
    db.relation(p).map_or(0, |r| r.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;
    use ldl_value::fxhash::FastSet;

    /// The pass `delta_loop` schedules for every delta occurrence of
    /// `rules` (every positive literal over a rule head, in a rule without a
    /// grouping head), as `[rule, occ, first literal of the plan, delta
    /// step]`.
    fn delta_passes(rules: &str) -> (Vec<[usize; 4]>, EvalStats) {
        let plans = PlanTable::new(parse_program(rules).unwrap());
        let program = plans.program();
        let heads: FastSet<Symbol> = program.rules.iter().map(|r| r.head.pred).collect();
        let mut db = Database::new();
        let mut stats = EvalStats::default();
        let mut out = Vec::new();
        for (ri, rule) in program.rules.iter().enumerate() {
            if !rule.head.simple_group_positions().is_empty() {
                continue;
            }
            for (occ, l) in rule.body.iter().enumerate() {
                if l.positive && heads.contains(&l.atom.pred) {
                    let (plan, step) = plans.delta_pass(ri, occ, &mut db, &mut stats).unwrap();
                    assert_eq!(
                        plan.literals[step], occ,
                        "the delta step runs the occurrence"
                    );
                    out.push([ri, occ, plan.literals[0], step]);
                }
            }
        }
        (out, stats)
    }

    /// §1's bill of materials, rewritten for `result(1, C)` by the form of
    /// §6 that copies each body prefix (magic and adorned names spelled
    /// without quotes; the supplementary rewrite that replaced it has no
    /// such pass, and plain evaluation's `partition` rule has one). In the
    /// two `partition` rules
    /// the delta-first variant pinning `tc_bf(S1, C1)` or `tc_bf(S2, C2)`
    /// binds nothing that indexes `m_tc_bf(S)`, so it would scan the magic
    /// set once per delta tuple: those passes run the full plan in place,
    /// which scans it once, with the delta range on the occurrence's step.
    /// Every other pass pins its delta as step 0.
    #[test]
    fn bom_partition_passes_run_the_full_plan_in_place() {
        let bom = "m_tc_bf({X}) <- m_result_bf(X).\n\
                   result_bf(X, C) <- m_result_bf(X), tc_bf({X}, C).\n\
                   tc_bf({X}, C) <- m_tc_bf({X}), q(X, C).\n\
                   m_part_bf(X) <- m_tc_bf({X}).\n\
                   m_tc_bf(S) <- m_tc_bf({X}), part_bf(X, S).\n\
                   tc_bf({X}, C) <- m_tc_bf({X}), part_bf(X, S), tc_bf(S, C).\n\
                   m_tc_bf(S1) <- m_tc_bf(S), partition(S, S1, S2), S1 /= {}, S2 /= {}.\n\
                   m_tc_bf(S2) <- m_tc_bf(S), partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                                  tc_bf(S1, C1).\n\
                   tc_bf(S, C) <- m_tc_bf(S), partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                                  tc_bf(S1, C1), tc_bf(S2, C2), +(C1, C2, C).\n\
                   part_bf(P, <S>) <- m_part_bf(P), p(P, S).";
        let (passes, stats) = delta_passes(bom);
        let in_place: Vec<[usize; 2]> = passes
            .iter()
            .filter(|[_, occ, first, _]| first != occ)
            .map(|&[ri, occ, ..]| [ri, occ])
            .collect();
        // m_tc_bf(S2)'s tc_bf(S1, C1), and tc_bf(S, C)'s two tc_bf literals.
        assert_eq!(in_place, [[7, 4], [8, 4], [8, 5]]);
        for [_, occ, first, step] in &passes {
            assert_eq!(*step == 0, first == occ, "{passes:?}");
        }
        // The first in-place pass compiled the full plan (a miss; it is the
        // one that runs), the second found it cached. A delta-first variant
        // compiled only to decide is not counted.
        let delta_first = passes.len() - in_place.len();
        assert_eq!(stats.plan_cache_misses as usize, delta_first + 2, "{stats}");
        assert_eq!(stats.plan_cache_hits, 1, "{stats}");
    }

    /// The mark, rule by rule: the plan projects ([`RulePlan::projects`])
    /// and the rule's schedule entry does not loop. `anc`'s recursive rule
    /// projects `Z` and stays unmarked; so does `far2`, which reads its own
    /// head. A `_` column projects, a variable bound only in the
    /// existential tail does not, and a head of no or three arguments is
    /// never marked.
    #[test]
    fn a_pass_is_marked_when_its_rule_projects_outside_a_loop() {
        let src = "anc(X, Y) <- par(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 1000.\n\
                   far2(X, Y) <- far2(X, Z), anc(Z, Y).\n\
                   src(X) <- par(X, _).\n\
                   busy(X) <- node(X), par(X, _).\n\
                   sum(S) <- par(X, Y), S = X + Y.\n\
                   keep(X, Y) <- par(X, Y), ~anc(Y, X).\n\
                   tri(X, Y, X) <- par(X, Z), par(Y, Z).\n\
                   some <- par(X, Z), node(Z).\n\
                   kids(X, <Y>) <- par(X, Y).";
        let compiled = crate::Compiled::new(parse_program(src).unwrap()).unwrap();
        let mut marked: Vec<String> = Vec::new();
        for (_, entry) in compiled.stratification().entries() {
            for &ri in &entry.rules {
                let plan = compiled.plans().full_plan(ri).unwrap();
                if RoundTask::new(&plan, None, entry.recursive).distinct {
                    marked.push(plan.head.pred.to_string());
                }
            }
        }
        marked.sort();
        assert_eq!(marked, ["far", "src", "sum"]);
    }

    /// The ancestor rule and its §6 rewrite keep every pass delta-first: a
    /// delta-first variant that probes everything after its delta reads no
    /// relation in full.
    #[test]
    fn ancestor_passes_stay_delta_first() {
        let plain = "anc(X, Y) <- par(X, Y).\n\
                     anc(X, Y) <- par(X, Z), anc(Z, Y).";
        let magic = "anc_bf(X, Y) <- m_anc_bf(X), par(X, Y).\n\
                     m_anc_bf(Z) <- m_anc_bf(X), par(X, Z).\n\
                     anc_bf(X, Y) <- m_anc_bf(X), par(X, Z), anc_bf(Z, Y).";
        for (rules, expect) in [(plain, 1), (magic, 4)] {
            let (passes, _) = delta_passes(rules);
            assert_eq!(passes.len(), expect, "{rules}");
            for [_, occ, first, step] in passes {
                assert_eq!((first, step), (occ, 0), "{rules}");
            }
        }
    }
}
