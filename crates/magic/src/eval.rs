//! Evaluating magic-rewritten programs (§6's evaluation discipline).
//!
//! The rewritten program `P^mg` is *not layered*: magic predicates depend on
//! body predicates that depend on magic predicates. §6 resolves the
//! apparent paradox: "we only need to evaluate these body predicates fully
//! *for a given tuple in the magic predicate*". Concretely:
//!
//! * **base rules** — magic rules and modified rules without grouping heads
//!   or negated literals — are monotone and run to a joint semi-naive
//!   fixpoint;
//! * **guarded rules** — grouping heads, and any rule with a negated
//!   literal — run only at a base fixpoint, ordered by the *original*
//!   program's layering, with the base fixpoint re-entered after each
//!   layer;
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
//! arguments, as the sip does.
//! Where that variant would still scan a magic set once per delta tuple —
//! the delta binds nothing the guard is indexed by, as in the bill of
//! materials' `partition` rules — the delta loop runs the sip-ordered full
//! plan in place, with the delta range on the delta literal's step.
//!
//! Soundness of applying a guarded rule at a base fixpoint: a magic tuple's
//! downward closure (all magic tuples it implies, and all ordinary facts
//! derivable under them) is saturated by the base fixpoint together with
//! the tuple itself, so the facts feeding a group or a negation test for
//! that tuple are final — later magic tuples only add facts for *their*
//! closures, and overlapping closures derive identical facts.

use std::ops::Range;

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::{Builtin, Program};
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
        let strat = Stratification::canonical(original)?;
        let stratum_of = |pred: Symbol| -> usize {
            mp.adorned_to_original
                .get(&pred)
                .map(|&orig| strat.layer(orig))
                .unwrap_or(0)
        };

        // Classify the rules: base, or guarded at a stratum.
        let program = &mp.program;
        let negated =
            |l: &&Literal| !l.positive && Builtin::resolve(l.atom.pred, l.atom.arity()).is_none();
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
        // delta-first variants included; a variant that would rescan the
        // magic set per delta tuple gives way to the full plan run in place.
        let mut cache = PlanCache::default();
        // Every rule head is a delta predicate — guarded heads too, since
        // base rules consume what guarded rules produce. The one frontier
        // lives across the whole schedule: a base fixpoint re-entered after
        // guarded rules ran joins only what they added.
        let mut frontier = frontier_at(&db, program.rules.iter().map(|r| r.head.pred));
        let run_guarded = |strata: Range<usize>,
                           cache: &mut PlanCache,
                           db: &mut Database,
                           drive: &mut Drive<'_>|
         -> Result<usize, EvalError> {
            let mut new = 0;
            for &(gs, ri) in &guarded {
                if strata.contains(&gs) {
                    new += full_round(program, &[ri], cache, db, drive)?;
                }
            }
            Ok(new)
        };

        // Stage-by-stage schedule. A guarded rule at stratum s (a group or a
        // negation test) may only run when everything its bindings can reach
        // in strata < s is saturated — for *every* magic tuple existing at
        // that moment, including tuples minted by lower guarded rules a
        // heartbeat earlier. So each stage first drives (base ∪ guarded<s)
        // to a joint fixpoint, then applies the stratum-s guarded rules, and
        // repeats: their outputs can mint new magic tuples that extend the
        // lower strata and enable new stratum-s bindings. Already-emitted
        // groups/negation results stay valid — a binding's derivations are
        // determined by its own magic closure, which was saturated when the
        // binding was processed. The magic schedule is not layered; abort
        // diagnostics report the stage and the query predicate.
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
                // The stratum-s rules only once the lower ones add nothing.
                if run_guarded(0..s, &mut cache, &mut db, &mut drive)? == 0
                    && run_guarded(s..s + 1, &mut cache, &mut db, &mut drive)? == 0
                {
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
        Stratification::canonical(program)?;
        let mp = Self::compile(program, query)?;
        Ok(self.answer(&mp, program, edb)?.0)
    }
}
