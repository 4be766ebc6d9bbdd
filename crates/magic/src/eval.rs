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
//! * the whole schedule repeats until nothing changes;
//! * a guarded rule is applied again only once a relation its body reads —
//!   positive or negated — has grown since it was last applied. Nothing is
//!   deleted during a magic evaluation, so equal lengths are equal
//!   relations, and a second application over them could only re-derive
//!   what the first derived: it adds no fact, so skipping it leaves the
//!   schedule's course, its facts and its answers as they were, and saves
//!   the round (EXPERIMENTS.md P45). A rule that reads its own head runs
//!   again after it grew.
//!
//! All of it runs on the engine's own driver ([`ldl_eval::fixpoint`]): one
//! full round of the base rules, then the one semi-naive loop
//! ([`delta_loop`]) over **one frontier kept across the whole schedule** —
//! every rule head is a delta predicate, so a base fixpoint re-entered
//! after guarded rules ran joins exactly the tuples they added instead of
//! re-deriving the model — with each guarded rule applied as a one-pass
//! round ([`full_round`]). The base rules run as one recursive entry; a
//! guarded rule's round is recursive only where its body reads its own
//! head, so a projecting guarded rule's pass emits each head tuple once
//! (`RoundTask::new`). Plans come from a [`PlanTable`] like every other
//! caller's — one per [`MagicForm`], so a form's plans are built by its
//! first query and kept for the next: the rewriting already put every
//! body in sip order, which the
//! planner's rule keeps, and a delta-first variant orders the rest by bound
//! arguments, as the sip does. A supplementary relation carries the
//! variables a later literal shares with the prefix, so that variant probes
//! it by what its delta binds. Where a variant would still scan a relation
//! once per delta tuple, the delta loop runs the full plan in place
//! (`PlanTable::delta_pass`). No rewrite of a benchmark workload or of a
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
use ldl_eval::fixpoint::{delta_loop, ensure_head_relations, frontier_at, full_round, Drive};
use ldl_eval::{engine, EvalError, EvalOptions, EvalStats, PlanTable, QueryAnswer};
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::{intern, Fact, Symbol};

use crate::adorn::{adorn_program, Adornment};
use crate::rewrite::{rewrite_magic, seed, MagicProgram};

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
        let form = MagicForm::new(mp.clone(), &Stratification::canonical(original)?);
        form.evaluate(&mp.seed, edb, &self.options)
    }

    /// One-shot: compile, evaluate, and answer the query. This is
    /// `(P^mg ∪ {seed}, q^a)` of Theorem 4. A program that answers many
    /// queries compiles each form once instead ([`crate::MagicTable`]).
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
        let form = MagicForm::compile(program, &strat, query)?;
        Ok(form.answer(query, edb, &self.options)?.0)
    }
}

/// One query form's §6 rewrite, ready to run for any query of the form:
/// its rules classified for the staged schedule (module docs) under the
/// original program's layering, and planned through a [`PlanTable`] of its
/// own. A query of the form brings only its seed and its adorned query
/// atom.
#[derive(Debug)]
pub struct MagicForm {
    plans: PlanTable,
    /// The base rules.
    base: Vec<usize>,
    /// The guarded rules, lowest stratum first.
    guarded: Vec<Guarded>,
    /// How many rewritten rules were dropped as subsumed
    /// ([`MagicProgram::subsumed`]).
    subsumed: usize,
    seed_pred: Symbol,
    adornment: Adornment,
    query_pred: Symbol,
}

/// A guarded rule of a [`MagicForm`]'s staged schedule.
#[derive(Debug)]
struct Guarded {
    stratum: usize,
    rule: usize,
    /// The predicates its body literals read, positive and negated,
    /// built-ins excluded: the rule is applied again only once one of
    /// them has grown.
    reads: Vec<Symbol>,
    /// Does its body read its own head? Then its one-pass round is
    /// recursive, and its pass is never marked to emit each head tuple once
    /// ([`ldl_eval::fixpoint::RoundTask::new`]).
    recursive: bool,
}

impl MagicForm {
    /// Compile `query`'s form over an admissible `program` with layering
    /// `strat`: adornment and rewrite ([`MagicEvaluator::compile`]), then
    /// the staged schedule's classification. Fails where a rule has no
    /// executable sip for the form's binding pattern.
    pub fn compile(
        program: &Program,
        strat: &Stratification,
        query: &Atom,
    ) -> Result<MagicForm, EvalError> {
        Ok(MagicForm::new(
            MagicEvaluator::compile(program, query)?,
            strat,
        ))
    }

    /// Classify the rules of `mp` — base, or guarded at a stratum of
    /// `strat`, the original program's layering. Nothing is planned yet.
    fn new(mp: MagicProgram, strat: &Stratification) -> MagicForm {
        let stratum_of = |pred: Symbol| -> usize {
            mp.adorned_to_original
                .get(&pred)
                .map(|&orig| strat.layer(orig))
                .unwrap_or(0)
        };
        let negated = |l: &&Literal| !l.positive && l.builtin().is_none();
        let mut base: Vec<usize> = Vec::new();
        let mut guarded: Vec<Guarded> = Vec::new();
        for (ri, rule) in mp.program.rules.iter().enumerate() {
            // A negated literal puts the rule above the stratum it tests.
            let mut above = rule.body.iter().filter(negated).peekable();
            if above.peek().is_some() || !rule.head.simple_group_positions().is_empty() {
                let stratum = above
                    .map(|l| stratum_of(l.atom.pred) + 1)
                    .fold(stratum_of(rule.head.pred), usize::max);
                let mut reads: Vec<Symbol> = Vec::new();
                for l in rule.body.iter().filter(|l| l.builtin().is_none()) {
                    if !reads.contains(&l.atom.pred) {
                        reads.push(l.atom.pred);
                    }
                }
                guarded.push(Guarded {
                    stratum,
                    rule: ri,
                    recursive: reads.contains(&rule.head.pred),
                    reads,
                });
            } else {
                base.push(ri);
            }
        }
        guarded.sort_by_key(|g| g.stratum);
        MagicForm {
            base,
            guarded,
            subsumed: mp.subsumed,
            seed_pred: mp.seed.pred(),
            adornment: mp.adornment,
            query_pred: mp.query.pred,
            plans: PlanTable::new(mp.program),
        }
    }

    /// The rewritten program.
    pub fn program(&self) -> &Program {
        self.plans.program()
    }

    /// How many rules of the rewrite were dropped because another rule
    /// with the same head reads a subset of their body.
    pub fn subsumed(&self) -> usize {
        self.subsumed
    }

    /// The form's binding pattern, which the seed takes the query's
    /// arguments at.
    pub fn adornment(&self) -> &Adornment {
        &self.adornment
    }

    /// The seed for `query`, a query of this form.
    pub fn seed(&self, query: &Atom) -> Fact {
        seed(self.seed_pred, &self.adornment, query)
    }

    /// `query` against the rewritten program: the adorned predicate with
    /// the query's argument patterns.
    pub fn query_atom(&self, query: &Atom) -> Atom {
        Atom::new(self.query_pred, query.args.clone())
    }

    /// Evaluate the form seeded by `query`, a query of this form, over
    /// `edb` and read off its answers, with the evaluation's work counters.
    pub fn answer(
        &self,
        query: &Atom,
        edb: &Database,
        opts: &EvalOptions,
    ) -> Result<(Vec<QueryAnswer>, EvalStats), EvalError> {
        let (db, stats) = self.evaluate(&self.seed(query), edb, opts)?;
        Ok((engine::query(&db, &self.query_atom(query)), stats))
    }

    /// The staged schedule over `edb` with `seed`.
    fn evaluate(
        &self,
        seed: &Fact,
        edb: &Database,
        opts: &EvalOptions,
    ) -> Result<(Database, EvalStats), EvalError> {
        let (plans, base, guarded) = (&self.plans, &self.base, &self.guarded);
        let program = plans.program();
        let mut db = edb.clone();
        // Pre-create head relations (so negation sees empty relations, not
        // missing ones) and insert the seed.
        let all: Vec<usize> = (0..program.len()).collect();
        ensure_head_relations(program, &all, &mut db)?;
        db.insert(seed.clone());

        // One drive spans the whole staged schedule, so a budget covers the
        // query end to end rather than per fixpoint.
        let mut stats = EvalStats::new();
        let mut drive = Drive::new(opts, &mut stats);
        // `adorn_rule` emits every rewritten body in sip order (§6), and the
        // planner orders a body by the sip's own rule — bound arguments
        // first, ties in source order — so the plan follows the sip,
        // delta-first variants included.
        //
        // Every rule head is a delta predicate — guarded heads too, since
        // base rules consume what guarded rules produce. The one frontier
        // lives across the whole schedule: a base fixpoint re-entered after
        // guarded rules ran joins only what they added.
        let mut frontier = frontier_at(&db, program.rules.iter().map(|r| r.head.pred));
        // The guarded rules up to stratum `top`, lowest stratum first,
        // until one adds a fact: true if one did. A rule none of whose
        // reads grew since its last application is skipped (module docs).
        let mut read_lens: Vec<Option<Vec<usize>>> = vec![None; guarded.len()];
        let mut run_guarded =
            |top: usize, db: &mut Database, drive: &mut Drive<'_>| -> Result<bool, EvalError> {
                for (g, last) in guarded.iter().zip(&mut read_lens) {
                    if g.stratum > top {
                        break;
                    }
                    let lens: Vec<usize> = g
                        .reads
                        .iter()
                        .map(|&p| db.relation(p).map_or(0, |r| r.len()))
                        .collect();
                    if last.as_ref() == Some(&lens) {
                        continue;
                    }
                    *last = Some(lens);
                    if full_round(plans, &[g.rule], g.recursive, db, drive)? > 0 {
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
        drive.set_context(0, Some(self.query_pred));
        full_round(plans, base, true, &mut db, &mut drive)?;
        let max_stratum = guarded.last().map_or(0, |g| g.stratum);
        for s in 0..=max_stratum {
            drive.set_context(s, Some(self.query_pred));
            loop {
                delta_loop(plans, base, true, &mut db, &mut frontier, &mut drive)?;
                if !run_guarded(s, &mut db, &mut drive)? {
                    break;
                }
            }
        }
        stats.interner_values = intern::len() as u64;
        stats.record_arena(&db);
        Ok((db, stats))
    }
}
