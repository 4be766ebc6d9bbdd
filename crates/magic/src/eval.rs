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
//!   program's layering, with a fresh base fixpoint after each layer;
//! * the whole schedule repeats until nothing changes.
//!
//! Soundness of applying a guarded rule at a base fixpoint: a magic tuple's
//! downward closure (all magic tuples it implies, and all ordinary facts
//! derivable under them) is saturated by the base fixpoint together with
//! the tuple itself, so the facts feeding a group or a negation test for
//! that tuple are final — later magic tuples only add facts for *their*
//! closures, and overlapping closures derive identical facts.

use ldl_ast::literal::Atom;
use ldl_ast::program::{Builtin, Program};
use ldl_ast::wf::Dialect;
use ldl_eval::fixpoint::{run_rule_once, semi_naive_fixpoint};
use ldl_eval::grouping::run_grouping_rule;
use ldl_eval::plan::{ensure_indexes, HeadKind, RulePlan};
use ldl_eval::stats::EvalStats;
use ldl_eval::{BudgetMeter, EvalError, EvalOptions, Evaluator, QueryAnswer};
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::fxhash::FastSet;
use ldl_value::Symbol;

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
        let strat = Stratification::canonical(original)?;
        let stratum_of = |pred: Symbol| -> usize {
            mp.adorned_to_original
                .get(&pred)
                .map(|&orig| strat.layer(orig))
                .unwrap_or(0)
        };

        // Compile all rules; classify.
        let mut base: Vec<RulePlan> = Vec::new();
        let mut base_preds: FastSet<Symbol> = FastSet::default();
        // (stratum, plan) for guarded rules.
        let mut guarded: Vec<(usize, RulePlan)> = Vec::new();
        for rule in &mp.program.rules {
            let plan = RulePlan::compile(rule)?;
            let has_negation = rule
                .body
                .iter()
                .any(|l| !l.positive && Builtin::resolve(l.atom.pred, l.atom.arity()).is_none());
            let is_grouping = matches!(plan.head_kind, HeadKind::Grouping { .. });
            if has_negation || is_grouping {
                let mut s = stratum_of(rule.head.pred);
                for l in &rule.body {
                    if !l.positive && Builtin::resolve(l.atom.pred, l.atom.arity()).is_none() {
                        s = s.max(stratum_of(l.atom.pred) + 1);
                    }
                }
                guarded.push((s, plan));
            } else {
                base_preds.insert(rule.head.pred);
                base.push(plan);
            }
        }
        guarded.sort_by_key(|(s, _)| *s);
        // Guarded heads also produce facts the base fixpoint consumes;
        // their predicates must be deltas for semi-naive restarts.
        for (_, p) in &guarded {
            base_preds.insert(p.head.pred);
        }

        let mut db = edb.clone();
        // Pre-create head relations (so negation sees empty relations, not
        // missing ones) and insert the seed.
        for rule in &mp.program.rules {
            db.relation_mut(rule.head.pred, rule.head.arity());
        }
        db.relation_mut(mp.seed.pred(), mp.seed.arity());
        db.insert(mp.seed.clone());

        // One meter spans the whole staged schedule, so a budget covers the
        // query end to end rather than per fixpoint. The magic schedule is
        // not layered; report the original query predicate's stratum.
        let mut meter = BudgetMeter::new(&self.options.budget);
        let run_base = |db: &mut Database,
                        opts: &EvalOptions,
                        meter: &mut BudgetMeter<'_>|
         -> Result<(), EvalError> {
            ensure_indexes(&base, db);
            semi_naive_fixpoint(&base, &base_preds, db, opts, &mut EvalStats::new(), meter)
        };
        let apply_guarded = |db: &mut Database,
                             opts: &EvalOptions,
                             meter: &mut BudgetMeter<'_>,
                             pick: &dyn Fn(usize) -> bool|
         -> Result<usize, EvalError> {
            let mut changed = 0;
            for (gs, plan) in &guarded {
                if !pick(*gs) {
                    continue;
                }
                ensure_indexes(std::slice::from_ref(plan), db);
                changed += match plan.head_kind {
                    HeadKind::Grouping { .. } => {
                        meter.check()?;
                        let (tuples, attempts) = run_grouping_rule(plan, db, opts.budget.gate());
                        let mut n = 0;
                        for t in tuples {
                            if db.insert_id_slice(plan.head.pred, &t) {
                                n += 1;
                            }
                        }
                        meter.charge(attempts, n);
                        meter.check()?;
                        n as usize
                    }
                    HeadKind::Simple => {
                        run_rule_once(plan, db, None, opts, &mut EvalStats::new(), meter)?
                    }
                };
            }
            Ok(changed)
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
        // binding was processed.
        let max_stratum = guarded.iter().map(|(s, _)| *s).max().unwrap_or(0);
        for s in 0..=max_stratum {
            meter.set_context(s, Some(mp.query.pred));
            loop {
                loop {
                    run_base(&mut db, &self.options, &mut meter)?;
                    if apply_guarded(&mut db, &self.options, &mut meter, &|gs| gs < s)? == 0 {
                        break;
                    }
                }
                if apply_guarded(&mut db, &self.options, &mut meter, &|gs| gs == s)? == 0 {
                    break;
                }
            }
        }
        run_base(&mut db, &self.options, &mut meter)?;
        Ok(db)
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
            ldl_ast::wf::check_program(program, Dialect::Ldl1).map_err(EvalError::from)?;
        }
        Stratification::canonical(program)?;
        let mp = Self::compile(program, query)?;
        let db = self.evaluate(&mp, program, edb)?;
        let plain = Evaluator::with_options(EvalOptions {
            check_wf: false,
            ..self.options.clone()
        });
        Ok(plain.query(&db, &mp.query))
    }
}
