//! A program compiled once.
//!
//! A plan reads no data — it is a function of its rule and of the literal a
//! semi-naive delta pins first ([`crate::plan`]) — and a layering is a
//! function of the program alone. So nothing an operation compiles has an
//! input that a commit or a query changes, and [`Compiled`] holds it for
//! the life of the program:
//!
//! * the program and its canonical [`Stratification`];
//! * a [`PlanTable`]: one slot per rule and role — the full plan `F`, or
//!   the pass joining the delta of body literal `occ` — filled the first
//!   time an operation runs that pass, and lowered once;
//! * DRed's overdeletion and rederivation programs ([`crate::retract`]),
//!   per schedule entry, with their own plan tables.
//!
//! Slots fill lazily, so an operation builds no plan it does not run, and
//! `plan_cache_misses` and `lowerings` count what an operation was the
//! first on its program to compile and lower. `ldl1::System` shares one
//! `Compiled` per admitted program, through an `Arc`, with evaluation,
//! maintenance, `explain` and its §6 query forms. Indexes stay per
//! database ([`ensure_plan_indexes`]); a query's plan is kept per shape,
//! process-wide ([`crate::engine::query`]).

use std::sync::{Arc, Mutex, OnceLock};

use ldl_ast::program::Program;
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::fxhash::FastMap;
use ldl_value::Symbol;

use crate::error::EvalError;
use crate::plan::{ensure_plan_indexes, RulePlan};
use crate::retract::DredPlans;
use crate::stats::EvalStats;

/// A pass: the plan to run, and the step a delta range confines — 0,
/// except for a delta role whose pass runs `F` in place, then `F`'s step
/// for the delta literal.
type Pass = (Arc<RulePlan>, usize);

/// A program with one lazily filled plan slot per (rule, role): role 0 is
/// the full round-0 plan `F`, role `occ + 1` the pass that joins the delta
/// of body literal `occ` (`PlanTable::delta_pass`) — the delta-first
/// variant pinning that literal as step 0, or `F` itself run in place. A
/// plan reads no data, so a slot never goes stale.
///
/// Every lookup by an operation counts one hit or miss, and every plan
/// counted as a miss is one that runs — so each is lowered exactly once.
#[derive(Debug)]
pub struct PlanTable {
    program: Program,
    slots: Box<[Box<[OnceLock<Pass>]>]>,
}

impl PlanTable {
    /// An empty table for `program`: nothing is planned until it runs.
    pub fn new(program: Program) -> PlanTable {
        let slots = program
            .rules
            .iter()
            .map(|r| (0..=r.body.len()).map(|_| OnceLock::new()).collect())
            .collect();
        PlanTable { program, slots }
    }

    /// The program the table plans.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The full plan `F` of `rule_id`, from its slot or compiled into it —
    /// the plan an evaluation runs. Counts nothing: this is the
    /// plan `explain` prints.
    pub fn full_plan(&self, rule_id: usize) -> Result<Arc<RulePlan>, EvalError> {
        Ok(self.full(rule_id)?.0)
    }

    /// `F` of `rule_id`, and whether this call compiled it.
    fn full(&self, rule_id: usize) -> Result<(Arc<RulePlan>, bool), EvalError> {
        let slot = &self.slots[rule_id][0];
        if let Some((plan, _)) = slot.get() {
            return Ok((plan.clone(), false));
        }
        let plan = Arc::new(RulePlan::compile(&self.program.rules[rule_id], None)?);
        let ((plan, _), fresh) = keep(slot, (plan, 0));
        Ok((plan, fresh))
    }

    /// The full plan `F` of `rule_id`, ready to run a pass against `db`:
    /// from its slot, or compiled when empty, with its body arities checked
    /// and the indexes it probes built ([`ensure_plan_indexes`]).
    pub(crate) fn prepare(
        &self,
        rule_id: usize,
        db: &mut Database,
        stats: &mut EvalStats,
    ) -> Result<Arc<RulePlan>, EvalError> {
        let (plan, fresh) = self.full(rule_id)?;
        count(stats, fresh);
        ensure_plan_indexes(&plan, db, stats)?;
        Ok(plan)
    }

    /// The pass that joins the delta of body literal `occ` of `rule_id`:
    /// the plan to run, ready against `db` as [`PlanTable::prepare`] leaves
    /// it, and the step its delta range confines.
    ///
    /// The pass is the delta-first variant `V` (the literal pinned as step
    /// 0) unless `V` would read a relation in full once per delta tuple:
    /// when `F` starts with an unindexed scan of some literal that `V`
    /// scans unindexed at a later step, the pass runs `F` in place, with
    /// the delta range on `F`'s step for the literal. It then reads that
    /// relation once per round — what `V` pays for a single delta tuple —
    /// and finds exactly `V`'s derivations: one literal reads the delta,
    /// every other one the whole relation. The decision is kept in the
    /// slot; `V` is compiled to make it but is neither counted nor kept
    /// when `F` runs, and `F`'s indexes are built only then.
    pub(crate) fn delta_pass(
        &self,
        rule_id: usize,
        occ: usize,
        db: &mut Database,
        stats: &mut EvalStats,
    ) -> Result<Pass, EvalError> {
        let slot = &self.slots[rule_id][occ + 1];
        let pass = match slot.get() {
            Some(pass) => {
                stats.plan_cache_hits += 1;
                pass.clone()
            }
            None => {
                let rule = &self.program.rules[rule_id];
                let variant = RulePlan::compile(rule, Some(occ))?;
                let rescans = (1..variant.steps.len()).any(|i| variant.full_scan_at(i).is_some());
                let full_slot = &self.slots[rule_id][0];
                let cached_full = full_slot.get().map(|(f, _)| f.clone());
                // `F` is looked at only when `V` reads something in full
                // after its delta; compiled here, it is counted if it runs.
                let full = match &cached_full {
                    Some(f) => Some(f.clone()),
                    None if rescans => Some(Arc::new(RulePlan::compile(rule, None)?)),
                    None => None,
                };
                match full.filter(|f| variant.rescans_first_scan_of(f)) {
                    Some(full) => {
                        let (full, fresh) = match cached_full {
                            Some(f) => (f, false),
                            None => {
                                let ((f, _), fresh) = keep(full_slot, (full, 0));
                                (f, fresh)
                            }
                        };
                        count(stats, fresh);
                        let step = full.step_of(occ);
                        keep(slot, (full, step)).0
                    }
                    None => {
                        let (pass, fresh) = keep(slot, (Arc::new(variant), 0));
                        count(stats, fresh);
                        pass
                    }
                }
            }
        };
        ensure_plan_indexes(&pass.0, db, stats)?;
        Ok(pass)
    }
}

/// Fill `slot` with `pass` unless another caller filled it first: the pass
/// the slot keeps, and whether it is this one.
fn keep(slot: &OnceLock<Pass>, pass: Pass) -> (Pass, bool) {
    let kept = slot.get_or_init(|| pass.clone());
    (kept.clone(), Arc::ptr_eq(&kept.0, &pass.0))
}

/// One plan lookup: a miss if it compiled the plan, a hit otherwise.
fn count(stats: &mut EvalStats, compiled: bool) {
    if compiled {
        stats.plan_cache_misses += 1;
    } else {
        stats.plan_cache_hits += 1;
    }
}

/// One admissible program, compiled once (module docs): the program, its
/// canonical layering, its plan table, and DRed's programs per schedule
/// entry. Immutable but for the lazily filled slots, so it is shared, not
/// copied; a program with new rules is a new `Compiled`.
#[derive(Debug)]
pub struct Compiled {
    plans: PlanTable,
    strat: Stratification,
    pub(crate) dred: DredTable,
}

/// DRed's programs, keyed by schedule entry (its position in
/// [`Stratification::entries`]) and by the lower predicates with losses its
/// rules read, which decide the overdeletion variants.
pub(crate) type DredTable = Mutex<FastMap<(usize, Vec<Symbol>), Arc<DredPlans>>>;

impl Compiled {
    /// Layer `program` (§3.1): it must be admissible. Nothing is planned
    /// yet. Well-formedness is the caller's check, made once with the
    /// dialect it loads in.
    pub fn new(program: Program) -> Result<Compiled, EvalError> {
        let strat = Stratification::canonical(&program)?;
        Ok(Compiled {
            plans: PlanTable::new(program),
            strat,
            dred: Mutex::default(),
        })
    }

    /// The program.
    pub fn program(&self) -> &Program {
        self.plans.program()
    }

    /// Its plan table.
    pub fn plans(&self) -> &PlanTable {
        &self.plans
    }

    /// Its canonical layering, whose schedule evaluation and maintenance
    /// walk.
    pub fn stratification(&self) -> &Stratification {
        &self.strat
    }
}
