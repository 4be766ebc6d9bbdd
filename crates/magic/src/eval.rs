//! Evaluating magic-rewritten programs (§6's evaluation discipline).
//!
//! The rewritten program `P^mg` is *not layered*: magic predicates depend on
//! body predicates that depend on magic predicates. §6 resolves the
//! apparent paradox: "we only need to evaluate these body predicates fully
//! *for a given tuple in the magic predicate*". Concretely:
//!
//! * **base rules** — supplementary, magic and modified rules without
//!   grouping heads or negated literals — are monotone and run to a joint
//!   semi-naive fixpoint;
//! * **guarded rules** — grouping heads, and any rule with a negated
//!   literal — run only at a base fixpoint, ordered by the *original*
//!   program's layering (a supplementary predicate takes its rule head's
//!   layer), with the base fixpoint re-entered after each one that adds a
//!   fact;
//! * the whole schedule repeats until nothing changes.
//!
//! All of it runs on the engine's own driver ([`ldl_eval::fixpoint`]): one
//! full round of the base rules, then the one semi-naive loop
//! ([`delta_loop`]) over **one frontier kept across the whole schedule** —
//! every rule head is a delta predicate, so a base fixpoint re-entered
//! after guarded rules ran joins exactly the tuples they added instead of
//! re-deriving the model — with each guarded rule applied as a one-pass
//! round ([`full_round`]). Plans come from a [`PlanCache`] like every other
//! caller's: the rewriting already put every body in sip order, which the
//! planner's rule keeps, and a delta-first variant orders the rest by bound
//! arguments, as the sip does. A supplementary relation carries the
//! variables a later literal shares with the prefix, so that variant probes
//! it by what its delta binds. Where a variant would still scan a relation
//! once per delta tuple, the delta loop runs the full plan in place
//! (`PlanCache::delta_pass`). No rewrite of a benchmark workload or of a
//! program in `programs/` has such a pass (EXPERIMENTS.md P43).
//!
//! Soundness of applying a guarded rule at a base fixpoint: a magic tuple's
//! downward closure (all magic tuples it implies, and all ordinary facts
//! derivable under them) is saturated by the base fixpoint together with
//! the tuple itself, so the facts feeding a group or a negation test for
//! that tuple are final — later magic tuples only add facts for *their*
//! closures, and overlapping closures derive identical facts.

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Program;
use ldl_eval::fixpoint::{
    delta_loop, ensure_head_relations, frontier_at, full_round, Drive, PlanCache,
};
use ldl_eval::{EvalError, EvalOptions, EvalStats, Evaluator, QueryAnswer};
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::{intern, Symbol};

use crate::adorn::adorn_program;
use crate::rewrite::{rewrite_magic, MagicProgram};

/// Evaluator for magic-rewritten programs.
#[derive(Clone, Debug, Default)]
pub struct MagicEvaluator {
    /// Evaluation configuration (shared with the plain evaluator).
    pub options: EvalOptions,
}

impl MagicEvaluator {
    /// With default options.
    pub fn new() -> MagicEvaluator {
        MagicEvaluator::default()
    }

    /// With explicit options.
    pub fn with_options(options: EvalOptions) -> MagicEvaluator {
        MagicEvaluator { options }
    }

    /// Compile `program` + `query` through sips → adornment → magic
    /// rewriting.
    pub fn compile(program: &Program, query: &Atom) -> Result<MagicProgram, EvalError> {
        let adorned =
            adorn_program(program, query).map_err(|e| EvalError::Adornment(e.to_string()))?;
        Ok(rewrite_magic(&adorned, query))
    }

    /// Evaluate the rewritten program over `edb`. `original` supplies the
    /// layering that orders the guarded rules.
    pub fn evaluate(
        &self,
        mp: &MagicProgram,
        original: &Program,
        edb: &Database,
    ) -> Result<Database, EvalError> {
        self.evaluate_stats(mp, original, edb).map(|(db, _)| db)
    }

    /// [`MagicEvaluator::evaluate`], also returning the work counters.
    pub fn evaluate_stats(
        &self,
        mp: &MagicProgram,
        original: &Program,
        edb: &Database,
    ) -> Result<(Database, EvalStats), EvalError> {
        self.evaluate_staged(mp, &Stratification::canonical(original)?, edb)
    }

    /// The staged schedule, with the layering `strat` of the original
    /// program ordering the guarded rules.
    fn evaluate_staged(
        &self,
        mp: &MagicProgram,
        strat: &Stratification,
        edb: &Database,
    ) -> Result<(Database, EvalStats), EvalError> {
        let stratum_of = |pred: Symbol| -> usize {
            mp.adorned_to_original
                .get(&pred)
                .map(|&orig| strat.layer(orig))
                .unwrap_or(0)
        };

        // Classify the rules: base, or guarded at a stratum.
        let program = &mp.program;
        let negated = |l: &&Literal| !l.positive && l.builtin().is_none();
        let mut base: Vec<usize> = Vec::new();
        let mut guarded: Vec<(usize, usize)> = Vec::new(); // (stratum, rule id)
        for (ri, rule) in program.rules.iter().enumerate() {
            // A negated literal puts the rule above the stratum it tests.
            let mut above = rule.body.iter().filter(negated).peekable();
            if above.peek().is_some() || !rule.head.simple_group_positions().is_empty() {
                let s = above
                    .map(|l| stratum_of(l.atom.pred) + 1)
                    .fold(stratum_of(rule.head.pred), usize::max);
                guarded.push((s, ri));
            } else {
                base.push(ri);
            }
        }
        guarded.sort_by_key(|(s, _)| *s);

        let mut db = edb.clone();
        // Pre-create head relations (so negation sees empty relations, not
        // missing ones) and insert the seed.
        let all: Vec<usize> = (0..program.len()).collect();
        ensure_head_relations(program, &all, &mut db)?;
        db.insert(mp.seed.clone());

        // One drive spans the whole staged schedule, so a budget covers the
        // query end to end rather than per fixpoint.
        let mut stats = EvalStats::new();
        let mut drive = Drive::new(&self.options, &mut stats);
        // `adorn_rule` emits every rewritten body in sip order (§6), and the
        // planner orders a body by the sip's own rule — bound arguments
        // first, ties in source order — so the plan follows the sip,
        // delta-first variants included.
        let mut cache = PlanCache::default();
        // Every rule head is a delta predicate — guarded heads too, since
        // base rules consume what guarded rules produce. The one frontier
        // lives across the whole schedule: a base fixpoint re-entered after
        // guarded rules ran joins only what they added.
        let mut frontier = frontier_at(&db, program.rules.iter().map(|r| r.head.pred));
        // The guarded rules up to stratum `top`, lowest stratum first,
        // until one adds a fact: true if one did.
        let run_guarded = |top: usize,
                           cache: &mut PlanCache,
                           db: &mut Database,
                           drive: &mut Drive<'_>|
         -> Result<bool, EvalError> {
            for &(_, ri) in guarded.iter().take_while(|(gs, _)| *gs <= top) {
                if full_round(program, &[ri], cache, db, drive)? > 0 {
                    return Ok(true);
                }
            }
            Ok(false)
        };

        // Stage-by-stage schedule. A guarded rule at stratum s (a group or a
        // negation test) may only run when everything its bindings can reach
        // in strata < s is saturated — for *every* magic tuple existing at
        // that moment, including tuples minted by lower guarded rules a
        // heartbeat earlier. So each stage drives the base rules to a
        // fixpoint, then applies the guarded rules up to stratum s in order
        // until one adds something, and repeats. What that rule added — a
        // supplementary tuple, or a magic tuple another guarded rule's
        // negation needs — is saturated by the base fixpoint before any
        // later guarded rule runs, and can extend the lower strata and
        // enable new stratum-s bindings. Already-emitted groups/negation
        // results stay valid — a binding's derivations are determined by
        // its own magic closure, which was saturated when the binding was
        // processed. The magic schedule is not layered; abort diagnostics
        // report the stage and the query predicate.
        drive.set_context(0, Some(mp.query.pred));
        full_round(program, &base, &mut cache, &mut db, &mut drive)?;
        let max_stratum = guarded.iter().map(|(s, _)| *s).max().unwrap_or(0);
        for s in 0..=max_stratum {
            drive.set_context(s, Some(mp.query.pred));
            loop {
                delta_loop(
                    program,
                    &base,
                    &mut cache,
                    &mut db,
                    &mut frontier,
                    &mut drive,
                )?;
                if !run_guarded(s, &mut cache, &mut db, &mut drive)? {
                    break;
                }
            }
        }
        stats.interner_values = intern::len() as u64;
        stats.record_arena(&db);
        Ok((db, stats))
    }

    /// Evaluate a compiled `mp` over `edb` and read off its query's
    /// answers, with the evaluation's work counters.
    pub fn answer(
        &self,
        mp: &MagicProgram,
        original: &Program,
        edb: &Database,
    ) -> Result<(Vec<QueryAnswer>, EvalStats), EvalError> {
        let (db, stats) = self.evaluate_stats(mp, original, edb)?;
        Ok((Evaluator::new().query(&db, &mp.query), stats))
    }

    /// One-shot: compile, evaluate, and answer the query. This is
    /// `(P^mg ∪ {seed}, q^a)` of Theorem 4.
    pub fn query(
        &self,
        program: &Program,
        edb: &Database,
        query: &Atom,
    ) -> Result<Vec<QueryAnswer>, EvalError> {
        // Check the *original* program (the rewritten one is deliberately
        // non-layered).
        if self.options.check_wf {
            ldl_ast::wf::check_program(program, self.options.dialect).map_err(EvalError::from)?;
        }
        let strat = Stratification::canonical(program)?;
        let mp = Self::compile(program, query)?;
        let (db, _) = self.evaluate_staged(&mp, &strat, edb)?;
        Ok(Evaluator::new().query(&db, &mp.query))
    }
}
