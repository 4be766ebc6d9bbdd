//! Layered fixpoint evaluation (Theorem 1), with parallel rounds.
//!
//! Every fixpoint here is driven by one primitive, `run_round`: apply a
//! batch of rule passes to an *immutable snapshot* of the database,
//! collecting each pass's derived facts into its own buffer, then merge the
//! buffers into the database in fixed rule order. Because §3.2 defines one
//! bottom-up step as `R(M) = ⋃ r(M)` — every rule applied to the *same*
//! `M` — the passes of a round are independent and can execute on a worker
//! pool ([`crate::pool`]); a pass whose first step scans a large range is
//! additionally cut into contiguous slices, one task per slice — the only
//! way a pass is ever split. The ordered merge makes the result — including
//! every tuple's insertion position, which the [`DeltaRestriction`]
//! frontiers and incremental maintenance depend on — bit-for-bit identical
//! at any worker count, including 1.

use std::sync::Arc;

use ldl_ast::program::{Builtin, Program};
use ldl_ast::rule::Rule;
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{Symbol, ValueId};

use crate::bindings::Bindings;
use crate::budget::{BudgetMeter, RoundGate};
use crate::engine::EvalOptions;
use crate::error::EvalError;
use crate::exec::run_ram;
use crate::grouping::run_grouping_rule;
use crate::plan::{
    ensure_indexes, ensure_plan_indexes, take_exist_cuts, take_index_probes, DeltaRestriction,
    RulePlan, Step,
};
use crate::pool::{Job, Pool};
use crate::ram::{eval_expr, take_lowerings, Expr, HeadIr};
use crate::stats::EvalStats;

/// One layer's rules, split the way Lemma 3.2.3 executes them. Rules are
/// kept as program indices — the compiled plans live in the [`PlanCache`],
/// which can re-cost them as the database grows.
pub(crate) struct LayerSplit {
    /// Grouping-head rules (run once, up front).
    pub grouping: Vec<usize>,
    /// Simple-head rules (run to fixpoint).
    pub rest: Vec<usize>,
    /// Head predicates of the fixpoint rules — the semi-naive deltas.
    pub preds: FastSet<Symbol>,
}

impl LayerSplit {
    pub(crate) fn classify(program: &Program, rule_ids: &[usize]) -> LayerSplit {
        let mut grouping = Vec::new();
        let mut rest = Vec::new();
        let mut preds: FastSet<Symbol> = FastSet::default();
        for &ri in rule_ids {
            let rule = &program.rules[ri];
            // Predicates defined by *fixpoint* rules in this layer are the
            // ones whose deltas drive semi-naive iteration. Grouping heads
            // are excluded: they are computed once, up front. (A malformed
            // multi-grouping head classifies as grouping and fails with a
            // diagnostic when its plan is compiled.)
            if rule.head.simple_group_positions().is_empty() {
                preds.insert(rule.head.pred);
                rest.push(ri);
            } else {
                grouping.push(ri);
            }
        }
        LayerSplit {
            grouping,
            rest,
            preds,
        }
    }

    /// Pre-create head relations (so negation/containment tests see empty
    /// relations rather than missing ones), checking arity consistency.
    pub(crate) fn ensure_head_relations(
        &self,
        program: &Program,
        db: &mut Database,
    ) -> Result<(), EvalError> {
        for &ri in self.grouping.iter().chain(&self.rest) {
            let head = &program.rules[ri].head;
            let arity = head.arity();
            let existing = db.relation(head.pred).map(|r| r.arity());
            if let Some(a) = existing {
                if a != arity {
                    return Err(EvalError::ArityMismatch {
                        pred: head.pred.to_string(),
                        expected: a,
                        found: arity,
                    });
                }
            }
            db.relation_mut(head.pred, arity);
        }
        Ok(())
    }
}

/// Can this layer's fixpoint predicates carry exact derivation counts?
///
/// Counting maintenance (the non-recursive arm of differential deletion,
/// see [`crate::retract`]) needs every tuple's count to equal its number of
/// distinct derivations (plus one EDB unit when the tuple is also stored).
/// That bookkeeping is exact precisely when the layer is *non-recursive*:
/// no fixpoint rule reads any of the layer's own fixpoint predicates, so
/// semi-naive round 0 enumerates every derivation exactly once and the
/// duplicate-insert path of [`ldl_storage::Relation`] turns each duplicate
/// into a count increment. Layers where a grouping head coincides with a
/// fixpoint head are excluded too — grouping inserts are replacements, not
/// derivations.
pub(crate) fn counting_eligible(program: &Program, split: &LayerSplit) -> bool {
    if split.rest.is_empty() {
        return false;
    }
    if split
        .grouping
        .iter()
        .any(|&ri| split.preds.contains(&program.rules[ri].head.pred))
    {
        return false;
    }
    split.rest.iter().all(|&ri| {
        program.rules[ri].body.iter().all(|l| {
            Builtin::resolve(l.atom.pred, l.atom.arity()).is_some()
                || !split.preds.contains(&l.atom.pred)
        })
    })
}

/// A copy of `plan` with its existential tail disabled, so a pass
/// enumerates *every* body solution. Counting layers need this: a tuple's
/// derivation count is its number of body solutions across all rules, and
/// that number must not depend on which plan shape (round 0, delta-first,
/// or a retraction's `rm$`-variant) produced or removed the derivation.
/// Full enumeration is join-order-invariant, witness cuts are not.
pub(crate) fn full_enumeration(plan: &RulePlan) -> RulePlan {
    let mut full = plan.clone();
    full.exist_from = plan.steps.len();
    full
}

/// Compiled-plan cache for one evaluation (or incremental-update) drive.
///
/// Keyed by `(rule id, role)`: role 0 is the full round-0 plan, role
/// `occ + 1` the delta-first variant pinning body literal `occ` as step 0.
/// Each entry remembers the statistics epoch of every body relation at
/// compile time; a lookup re-costs the plan only when one of those epochs
/// has drifted (relations bump their epoch geometrically on growth, so a
/// stabilizing fixpoint stops re-planning after O(log n) rounds).
#[derive(Default)]
pub(crate) struct PlanCache {
    map: FastMap<(usize, usize), CacheEntry>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that compiled a plan for the first time.
    pub misses: u64,
    /// Cached plans discarded because a body relation's epoch drifted.
    pub replans: u64,
}

struct CacheEntry {
    /// Per body relation literal (in body order): the relation's
    /// `stats_epoch` when the plan was compiled.
    epochs: Vec<u64>,
    plan: Arc<RulePlan>,
}

impl PlanCache {
    /// The plan for `(rule_id, role)`, compiled against `db`'s current
    /// statistics — cached, or (re)compiled when absent or stale.
    pub(crate) fn get(
        &mut self,
        program: &Program,
        rule_id: usize,
        role: usize,
        db: &Database,
    ) -> Result<Arc<RulePlan>, EvalError> {
        use std::collections::hash_map::Entry;
        let rule = &program.rules[rule_id];
        let epochs = body_epochs(rule, db);
        match self.map.entry((rule_id, role)) {
            Entry::Occupied(mut e) => {
                if e.get().epochs == epochs {
                    self.hits += 1;
                    return Ok(e.get().plan.clone());
                }
                self.replans += 1;
                let plan = Arc::new(RulePlan::compile_with(
                    rule,
                    Some(db),
                    true,
                    role.checked_sub(1),
                )?);
                e.insert(CacheEntry {
                    epochs,
                    plan: plan.clone(),
                });
                Ok(plan)
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let plan = Arc::new(RulePlan::compile_with(
                    rule,
                    Some(db),
                    true,
                    role.checked_sub(1),
                )?);
                v.insert(CacheEntry {
                    epochs,
                    plan: plan.clone(),
                });
                Ok(plan)
            }
        }
    }

    /// Fold the cache's counters into an [`EvalStats`].
    pub(crate) fn fold_into(&self, stats: &mut EvalStats) {
        stats.plan_cache_hits += self.hits;
        stats.plan_cache_misses += self.misses;
        stats.plan_replans += self.replans;
    }
}

/// The statistics epoch of each body *relation* literal, in body order.
fn body_epochs(rule: &Rule, db: &Database) -> Vec<u64> {
    rule.body
        .iter()
        .filter(|l| Builtin::resolve(l.atom.pred, l.atom.arity()).is_none())
        .map(|l| db.stats_epoch(l.atom.pred))
        .collect()
}

/// Evaluate `program` bottom-up over `edb` using the given layering,
/// returning the extended database `Mₙ` (EDB plus all derived facts).
pub fn evaluate(
    program: &Program,
    edb: &Database,
    strat: &Stratification,
    opts: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<Database, EvalError> {
    let mut db = edb.clone();
    evaluate_layers(program, &mut db, strat, 0, opts, stats)?;
    Ok(db)
}

/// Evaluate layers `from ..` of `program` in place over `db`, which must
/// already contain the complete relations of every layer below `from`.
/// This is both the body of [`evaluate`] (with `from = 0`) and the replay
/// step of incremental maintenance (with `from = k` after the layers ≥ `k`
/// have been truncated back to their EDB state).
pub fn evaluate_layers(
    program: &Program,
    db: &mut Database,
    strat: &Stratification,
    from: usize,
    opts: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    let mut meter = BudgetMeter::new(&opts.budget);
    evaluate_layers_metered(program, db, strat, from, opts, stats, &mut meter)
}

/// [`evaluate_layers`] against a caller-owned [`BudgetMeter`], so one
/// operation spanning several drives (an incremental update that falls back
/// to replay) is metered as a whole.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_layers_metered(
    program: &Program,
    db: &mut Database,
    strat: &Stratification,
    from: usize,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    let pool = Pool::new(opts.effective_parallelism());
    let mut cache = PlanCache::default();
    for (k, layer_rules) in strat.rules_by_layer.iter().enumerate().skip(from) {
        let split = LayerSplit::classify(program, layer_rules);
        meter.set_context(
            k,
            layer_rules.first().map(|&ri| program.rules[ri].head.pred),
        );
        split.ensure_head_relations(program, db)?;

        // Non-recursive layers carry per-tuple derivation counts so that a
        // later retraction can be absorbed by decrement-to-zero instead of
        // a replay (see `counting_eligible`). Enabling is idempotent, and a
        // replayed layer re-enables after its relations were reset.
        let counting = counting_eligible(program, &split);
        if counting {
            for &ri in &split.rest {
                let head = &program.rules[ri].head;
                db.relation_mut(head.pred, head.arity()).enable_counts();
            }
        }

        // Lemma 3.2.3: grouping rules first, once, over the lower layers.
        // Admissibility (§3.1 clause 2) puts every grouping body predicate
        // strictly below this layer, so the grouping rules cannot observe
        // each other's heads — one parallel round, merged in rule order.
        let gplans = lookup_round_plans(&split.grouping, program, &mut cache, db)?;
        run_grouping_round(&gplans, db, &pool, opts, stats, meter)?;

        // Then the remaining rules to fixpoint. A counting layer reads only
        // completed lower layers (that is what made it eligible), so one
        // full round *is* its fixpoint — run it over plans whose
        // existential tails are disabled, because the duplicate-insert
        // count increments must see every body solution, not the first
        // witness of a projected-away tail.
        if counting {
            let plans = lookup_round_plans(&split.rest, program, &mut cache, db)?;
            let full: Vec<RulePlan> = plans.iter().map(|p| full_enumeration(p)).collect();
            let tasks: Vec<RoundTask<'_>> = full
                .iter()
                .map(|plan| RoundTask {
                    plan,
                    restrict: None,
                })
                .collect();
            run_round(&tasks, db, &pool, opts, stats, meter)?;
        } else {
            semi_naive_cached(program, &split, &mut cache, db, &pool, opts, stats, meter)?;
        }
    }
    cache.fold_into(stats);
    Ok(())
}

/// Look up the role-0 (full) plan of every rule in `rule_ids` against the
/// database's current statistics, building any indexes the plans probe.
pub(crate) fn lookup_round_plans(
    rule_ids: &[usize],
    program: &Program,
    cache: &mut PlanCache,
    db: &mut Database,
) -> Result<Vec<Arc<RulePlan>>, EvalError> {
    let mut plans = Vec::with_capacity(rule_ids.len());
    for &ri in rule_ids {
        let plan = cache.get(program, ri, 0, db)?;
        ensure_plan_indexes(&plan, db);
        plans.push(plan);
    }
    Ok(plans)
}

/// Semi-naive iteration over cached, re-costable plans: a full round 0,
/// then the delta loop.
#[allow(clippy::too_many_arguments)]
fn semi_naive_cached(
    program: &Program,
    split: &LayerSplit,
    cache: &mut PlanCache,
    db: &mut Database,
    pool: &Pool,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    let delta_lo: FastMap<Symbol, usize> =
        split.preds.iter().map(|&p| (p, len_of(db, p))).collect();
    let plans = lookup_round_plans(&split.rest, program, cache, db)?;
    let tasks: Vec<RoundTask<'_>> = plans
        .iter()
        .map(|plan| RoundTask {
            plan,
            restrict: None,
        })
        .collect();
    run_round(&tasks, db, pool, opts, stats, meter)?;
    drop(tasks);
    drop(plans);
    delta_loop_cached(
        program, split, cache, db, delta_lo, pool, opts, stats, meter,
    )
}

/// The cached semi-naive delta loop: each round looks its delta-first plan
/// variants up in the cache (re-costing them when the statistics epoch of a
/// body relation drifted since the last round) and runs one delta-restricted
/// pass per occurrence of a layer predicate with new tuples. Shared between
/// [`evaluate_layers`] and the incremental driver's delta propagation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn delta_loop_cached(
    program: &Program,
    split: &LayerSplit,
    cache: &mut PlanCache,
    db: &mut Database,
    mut delta_lo: FastMap<Symbol, usize>,
    pool: &Pool,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    // The delta occurrences: (rule id, body literal index) of every
    // positive relation literal over a predicate defined in this layer.
    let occs: Vec<(usize, usize, Symbol)> = split
        .rest
        .iter()
        .flat_map(|&ri| {
            program.rules[ri]
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    l.positive
                        && Builtin::resolve(l.atom.pred, l.atom.arity()).is_none()
                        && split.preds.contains(&l.atom.pred)
                })
                .map(move |(occ, l)| (ri, occ, l.atom.pred))
                .collect::<Vec<_>>()
        })
        .collect();

    loop {
        let delta_hi: FastMap<Symbol, usize> =
            split.preds.iter().map(|&p| (p, len_of(db, p))).collect();
        if delta_hi == delta_lo {
            break; // previous round derived nothing new
        }
        // Non-recursive rules are complete after round 0. All delta passes
        // of one round read the same snapshot; cross-delta derivations
        // (one new tuple per pass) surface in the next round's frontier.
        let mut round_plans: Vec<(Arc<RulePlan>, DeltaRestriction)> = Vec::new();
        for &(ri, occ, pred) in &occs {
            let (lo, hi) = (delta_lo[&pred] as u32, delta_hi[&pred] as u32);
            if lo >= hi {
                continue; // no new facts feed this literal
            }
            let plan = cache.get(program, ri, occ + 1, db)?;
            ensure_plan_indexes(&plan, db);
            // The forced delta literal is always step 0.
            round_plans.push((plan, DeltaRestriction { step: 0, lo, hi }));
        }
        let tasks: Vec<RoundTask<'_>> = round_plans
            .iter()
            .map(|(plan, restrict)| RoundTask {
                plan,
                restrict: Some(*restrict),
            })
            .collect();
        run_round(&tasks, db, pool, opts, stats, meter)?;
        delta_lo = delta_hi;
    }
    Ok(())
}

/// One rule pass of a round: a compiled plan, optionally restricted to a
/// delta range of its step-0 scan.
pub(crate) struct RoundTask<'p> {
    pub plan: &'p RulePlan,
    pub restrict: Option<DeltaRestriction>,
}

/// Derived tuples of one rule pass, stored flat in body-solution order
/// (`arity`-sized chunks of `data`). Duplicates are *included*: the dedup
/// decision happens at merge time against the database, and rejecting a
/// duplicate from a borrowed chunk allocates nothing — the pass itself
/// performs no per-tuple allocation at all.
#[derive(Default)]
pub(crate) struct DerivedBuf {
    arity: usize,
    data: Vec<ValueId>,
    /// Tuple count. Equals `data.len() / arity` except for zero-arity
    /// heads, whose tuples occupy no ids.
    count: usize,
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

/// One rule pass's output: the derived buffer plus the per-pass counters,
/// drained from the worker thread's thread-locals.
#[derive(Default)]
pub(crate) struct PassOut {
    /// Derived head tuples in body-solution order.
    pub(crate) buf: DerivedBuf,
    /// Index probes performed.
    pub(crate) probes: u64,
    /// Existential short-circuits taken.
    pub(crate) cuts: u64,
    /// Body solutions enumerated (the fuel unit).
    pub(crate) attempts: u64,
    /// Plan lowerings performed (first use of a plan).
    pub(crate) lowerings: u64,
}

/// Evaluate `plan` against an immutable `db`, returning the id-tuples its
/// head derives (in body-solution order, duplicates included) plus the
/// index probes, existential short-circuits, plan lowerings, and derivation
/// attempts (body solutions enumerated — the fuel unit) the pass performed.
/// This is the parallel work unit: it never mutates anything. The body runs
/// through the plan's lowered register program ([`crate::exec`]).
///
/// The `gate` is the cooperative-cancellation tap: one armed-only atomic
/// tick per body solution, and an entry check that skips the whole pass
/// when the token has already tripped (a partially-skipped round is fine —
/// its buffers are discarded wholesale at the round boundary, never merged).
pub(crate) fn derive_once(
    plan: &RulePlan,
    db: &Database,
    restrict: Option<DeltaRestriction>,
    gate: RoundGate<'_>,
) -> PassOut {
    take_index_probes(); // discard counts from unrelated callers
    take_exist_cuts();
    take_lowerings();
    let mut out = PassOut {
        buf: DerivedBuf {
            arity: plan.head.arity(),
            data: Vec::new(),
            count: 0,
        },
        ..PassOut::default()
    };
    if !gate.is_cancelled() {
        let prog = plan.lowered();
        let HeadIr::Simple(head) = &prog.head else {
            panic!("derive_once on a grouping plan");
        };
        let mut regs = vec![ValueId::FILLER; prog.nregs];
        let mut b = Bindings::new();
        run_ram(&prog, db, restrict, &mut regs, &mut b, &mut |regs| {
            out.attempts += 1;
            gate.tick();
            if project_head(head, regs, &mut out.buf.data) {
                out.buf.count += 1;
            }
        });
    }
    out.probes = take_index_probes();
    out.cuts = take_exist_cuts();
    out.lowerings = take_lowerings();
    out
}

/// Append the head tuple of one body solution to `data`. §3.2
/// applicability: Bθ must be a U-fact, so an argument evaluating outside
/// `U` (scons onto a non-set, arithmetic failure) derives nothing — `data`
/// is left as it was and the result is `false`.
#[inline]
fn project_head(head: &[Expr], regs: &[ValueId], data: &mut Vec<ValueId>) -> bool {
    let start = data.len();
    for e in head {
        match eval_expr(e, regs) {
            Some(v) => data.push(v),
            None => {
                data.truncate(start);
                return false;
            }
        }
    }
    true
}

/// Below this many delta tuples a pass is not worth splitting across
/// workers: the per-task dispatch cost would outweigh the join work.
const MIN_SLICE: u32 = 64;

/// The position range a task's pass can be cut along: the delta range of a
/// restricted pass, or the whole relation of an unrestricted pass's step 0
/// (the full-range restriction is semantically a no-op). `None` unless that
/// step is a *full* scan — a probing scan visits one posting list whatever
/// its range, so every slice would repeat the same probe.
fn slice_range(t: &RoundTask<'_>, db: &Database) -> Option<DeltaRestriction> {
    let step = t.restrict.map_or(0, |r| r.step);
    match t.plan.steps.get(step)? {
        Step::Scan {
            pred, index_cols, ..
        } if index_cols.is_empty() => Some(t.restrict.unwrap_or(DeltaRestriction {
            step,
            lo: 0,
            hi: len_of(db, *pred) as u32,
        })),
        _ => None,
    }
}

/// Execute one evaluation round: run every task against the current
/// database state (immutable for the duration), then merge the derived
/// buffers in task order. Returns the number of new facts.
///
/// Work distribution: each task is one unit, except that a task whose
/// [`slice_range`] covers ≥ 2·[`MIN_SLICE`] tuples is split into up to
/// `parallelism` contiguous slices. Slices of one task stay adjacent in
/// the merge, so the concatenated derivation order — and therefore every
/// insertion position — is identical to an unsplit, single-threaded pass.
///
/// Budget checks bracket the round ([`BudgetMeter::check`] before the
/// derive phase, charge-and-check after the merge). A round is therefore
/// all-or-nothing with respect to aborts: either its full merge lands, or
/// the error propagates with the caller responsible for discarding `db`.
pub(crate) fn run_round(
    tasks: &[RoundTask<'_>],
    db: &mut Database,
    pool: &Pool,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<usize, EvalError> {
    meter.check()?;
    if tasks.is_empty() {
        return Ok(0);
    }
    stats.rounds += 1;
    stats.rules_fired += tasks.len() as u64;

    let mut units: Vec<(&RulePlan, Option<DeltaRestriction>)> = Vec::new();
    for t in tasks {
        match slice_range(t, db) {
            Some(r) if pool.parallelism() > 1 && r.hi - r.lo >= 2 * MIN_SLICE => {
                let span = r.hi - r.lo;
                let slices = (span / MIN_SLICE).min(pool.parallelism() as u32).max(1);
                let step = span / slices;
                for s in 0..slices {
                    let lo = r.lo + s * step;
                    let hi = if s + 1 == slices { r.hi } else { lo + step };
                    units.push((
                        t.plan,
                        Some(DeltaRestriction {
                            step: r.step,
                            lo,
                            hi,
                        }),
                    ));
                }
            }
            _ => units.push((t.plan, t.restrict)),
        }
    }
    stats.parallel_tasks += units.len() as u64;

    // Derive phase: immutable snapshot, one buffer per unit. The gate is a
    // `Copy` view of the budget's cancel token, so every worker taps the
    // same countdown/flag without touching the (exclusively borrowed) meter.
    let gate = opts.budget.gate();
    stats.compiled_rounds += 1;
    let mut buffers: Vec<PassOut> = Vec::new();
    buffers.resize_with(units.len(), Default::default);
    if pool.parallelism() == 1 || units.len() <= 1 {
        for ((plan, restrict), buf) in units.iter().zip(&mut buffers) {
            *buf = derive_once(plan, db, *restrict, gate);
        }
    } else {
        let snapshot: &Database = db;
        let jobs: Vec<Job<'_>> = units
            .iter()
            .zip(buffers.iter_mut())
            .map(|(&(plan, restrict), buf)| {
                Box::new(move || {
                    *buf = derive_once(plan, snapshot, restrict, gate);
                }) as Job<'_>
            })
            .collect();
        pool.run(jobs);
    }

    // Merge phase: sequential, in unit order — deterministic positions. The
    // tuples are already interned ids, so a rejected duplicate costs one
    // hash of a few u32s.
    let mut new = 0u64;
    let mut dedup = 0u64;
    let mut attempts = 0u64;
    for ((plan, _), out) in units.iter().zip(&buffers) {
        stats.index_probes += out.probes;
        stats.exist_cuts += out.cuts;
        stats.lowerings += out.lowerings;
        attempts += out.attempts;
        let pred = plan.head.pred;
        out.buf.for_each(&mut |t| {
            if db.insert_id_slice(pred, t) {
                new += 1;
            } else {
                dedup += 1;
            }
        });
    }
    stats.dedup_inserts += dedup;
    stats.facts_derived += new;
    stats.attempts += attempts;
    meter.charge(attempts, new);
    meter.check()?;
    Ok(new as usize)
}

/// Apply every grouping rule of a layer once, in one parallel round.
///
/// Budget checks bracket the round exactly like [`run_round`]'s: an abort
/// either fires before any grouping pass runs or after the whole round's
/// merge, so a partially-built group set is never observable in `db`.
fn run_grouping_round(
    plans: &[Arc<RulePlan>],
    db: &mut Database,
    pool: &Pool,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    if plans.is_empty() {
        return Ok(());
    }
    meter.check()?;
    stats.rounds += 1;
    stats.rules_fired += plans.len() as u64;
    stats.parallel_tasks += plans.len() as u64;
    // A grouping rule must see *all* body solutions of its group in one
    // task (the aggregation is not decomposable), so the unit is the whole
    // rule — never a delta slice.
    let gate = opts.budget.gate();
    stats.compiled_rounds += 1;
    #[allow(clippy::type_complexity)]
    let mut buffers: Vec<(Vec<Vec<ValueId>>, u64, u64, u64, u64)> = Vec::new();
    buffers.resize_with(plans.len(), Default::default);
    if pool.parallelism() == 1 || plans.len() <= 1 {
        for (plan, buf) in plans.iter().zip(&mut buffers) {
            take_index_probes();
            take_exist_cuts();
            take_lowerings();
            let (out, att) = run_grouping_rule(plan, db, gate);
            *buf = (
                out,
                take_index_probes(),
                take_exist_cuts(),
                take_lowerings(),
                att,
            );
        }
    } else {
        let snapshot: &Database = db;
        let jobs: Vec<Job<'_>> = plans
            .iter()
            .zip(buffers.iter_mut())
            .map(|(plan, buf)| {
                Box::new(move || {
                    take_index_probes();
                    take_exist_cuts();
                    take_lowerings();
                    let (out, att) = run_grouping_rule(plan, snapshot, gate);
                    *buf = (
                        out,
                        take_index_probes(),
                        take_exist_cuts(),
                        take_lowerings(),
                        att,
                    );
                }) as Job<'_>
            })
            .collect();
        pool.run(jobs);
    }
    let mut new = 0u64;
    let mut attempts = 0u64;
    for (plan, (buf, probes, cuts, lowerings, att)) in plans.iter().zip(buffers) {
        stats.index_probes += probes;
        stats.exist_cuts += cuts;
        stats.lowerings += lowerings;
        attempts += att;
        for t in buf {
            if db.insert_id_slice(plan.head.pred, &t) {
                new += 1;
            } else {
                stats.dedup_inserts += 1;
            }
        }
    }
    stats.facts_derived += new;
    stats.attempts += attempts;
    meter.charge(attempts, new);
    meter.check()
}

/// Run one compiled non-grouping rule, inserting derived facts. Returns the
/// number of new facts, or the budget abort that cut the pass short. (The
/// sequential convenience used by the magic-set evaluator's guarded passes;
/// the fixpoints below batch whole rounds instead.)
pub fn run_rule_once(
    plan: &RulePlan,
    db: &mut Database,
    restrict: Option<DeltaRestriction>,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<usize, EvalError> {
    meter.check()?;
    let out = derive_once(plan, db, restrict, opts.budget.gate());
    stats.index_probes += out.probes;
    stats.exist_cuts += out.cuts;
    stats.lowerings += out.lowerings;
    stats.compiled_rounds += 1;
    let mut new = 0usize;
    let mut dedup = 0u64;
    out.buf.for_each(&mut |t| {
        if db.insert_id_slice(plan.head.pred, t) {
            new += 1;
        } else {
            dedup += 1;
        }
    });
    stats.dedup_inserts += dedup;
    stats.rules_fired += 1;
    stats.facts_derived += new as u64;
    stats.attempts += out.attempts;
    meter.charge(out.attempts, new as u64);
    meter.check()?;
    Ok(new)
}

/// Semi-naive iteration: after one full pass, re-evaluate each rule once per
/// recursive body literal, restricting that literal to the facts derived in
/// the previous round.
pub fn semi_naive_fixpoint(
    plans: &[RulePlan],
    layer_preds: &FastSet<Symbol>,
    db: &mut Database,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    let pool = Pool::new(opts.effective_parallelism());
    semi_naive_pooled(plans, layer_preds, db, &pool, opts, stats, meter)
}

pub(crate) fn semi_naive_pooled(
    plans: &[RulePlan],
    layer_preds: &FastSet<Symbol>,
    db: &mut Database,
    pool: &Pool,
    opts: &EvalOptions,
    stats: &mut EvalStats,
    meter: &mut BudgetMeter<'_>,
) -> Result<(), EvalError> {
    // Invariant: every derivation whose recursive-literal tuples all have
    // positions below `delta_lo` has already been performed.
    let mut delta_lo: FastMap<Symbol, usize> =
        layer_preds.iter().map(|&p| (p, len_of(db, p))).collect();

    // Round 0: full evaluation of every rule against the layer's input
    // snapshot (covers all tuples existing before the round, i.e.
    // positions below the initial `delta_lo`).
    let tasks: Vec<RoundTask<'_>> = plans
        .iter()
        .map(|plan| RoundTask {
            plan,
            restrict: None,
        })
        .collect();
    run_round(&tasks, db, pool, opts, stats, meter)?;

    // For each plan, a delta-first variant per scan over a predicate
    // defined in this layer: the delta literal runs as step 0 so a
    // restricted pass costs O(delta), not O(outer relation).
    let variants: Vec<Vec<(Symbol, RulePlan)>> = plans
        .iter()
        .map(|p| {
            p.scan_steps
                .iter()
                .filter(|(_, pred)| layer_preds.contains(pred))
                .map(|&(step, pred)| (pred, p.delta_first(step)))
                .collect()
        })
        .collect();
    for vs in &variants {
        for (_, v) in vs {
            ensure_indexes(std::slice::from_ref(v), db);
        }
    }

    loop {
        let delta_hi: FastMap<Symbol, usize> =
            layer_preds.iter().map(|&p| (p, len_of(db, p))).collect();
        if delta_hi == delta_lo {
            break; // previous round derived nothing new
        }
        // Non-recursive rules are complete after round 0. All delta passes
        // of one round read the same snapshot; cross-delta derivations
        // (one new tuple per pass) surface in the next round's frontier.
        let mut tasks: Vec<RoundTask<'_>> = Vec::new();
        for vs in &variants {
            for (pred, variant) in vs {
                let (lo, hi) = (delta_lo[pred] as u32, delta_hi[pred] as u32);
                if lo >= hi {
                    continue; // no new facts feed this literal
                }
                let step = variant.scan_steps[0].0;
                tasks.push(RoundTask {
                    plan: variant,
                    restrict: Some(DeltaRestriction { step, lo, hi }),
                });
            }
        }
        run_round(&tasks, db, pool, opts, stats, meter)?;
        delta_lo = delta_hi;
    }
    Ok(())
}

pub(crate) fn len_of(db: &Database, p: Symbol) -> usize {
    db.relation(p).map_or(0, |r| r.len())
}
