//! Rule compilation: ordering body literals into executable join plans.
//!
//! LDL1 is assertional — "the LDL programmer does not have explicit control
//! over the order of execution of the predicates within a rule" (§1) — so
//! the system chooses an order, one literal at a time, by class:
//!
//! 1. fully-bound built-ins, containment checks and negated literals run
//!    as soon as their variables are bound (cheap filters; negation
//!    *requires* groundness, §3.2 condition 2′);
//! 2. generative built-ins run when a supported mode is available;
//! 3. relation literals come last, the one with the most bound arguments
//!    first, ties in source order.
//!
//! If no executable literal remains, the rule is *unschedulable* — e.g.
//! `q(X) <- X < 3` — and compilation fails with a diagnostic rather than
//! evaluation silently misbehaving.
//!
//! That order is §6's sip, and it is written once, [`sip_order`]: the one
//! planner, [`RulePlan::compile`], runs it from no bound variable, and the
//! magic rewriting's sips (`ldl_magic::sip`) run it from the bound head
//! variables, so a body the rewriting emitted in sip order keeps it. It
//! reads no data: a plan is a function of its rule and of the literal a
//! semi-naive delta pins first. The reference evaluator ([`crate::model`])
//! plans with the same rule, but shares neither the executor nor the
//! existential tail with the engine.
//!
//! A plan is data, and this module matches no term against a row: the
//! engine lowers it ([`crate::ram`]), and the reference walks its steps.
//!
//! Plans also carry an *existential tail*: the first step index after which
//! no head or grouping variable can be bound ([`RulePlan::exist_from`]).
//! From that point every body solution projects to the same head tuple, so
//! execution switches to a semi-join existence check that stops at the
//! first witness instead of enumerating all matches. A tail of checks alone
//! (comparisons, negation, ground built-ins) has at most one witness, so it
//! is no tail.

use std::sync::{Arc, OnceLock};

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Builtin;
use ldl_ast::rule::Rule;
use ldl_ast::term::{Term, Var};
use ldl_storage::{Database, Relation};
use ldl_value::fxhash::FastSet;
use ldl_value::Symbol;

use crate::builtins::can_schedule;
use crate::error::EvalError;
use crate::ram::{self, RamProgram};
use crate::stats::EvalStats;

/// One executable body step.
#[derive(Clone, Debug)]
pub enum Step {
    /// Match a positive relation literal, optionally through an index.
    Scan {
        /// The relation scanned/probed.
        pred: Symbol,
        /// The literal's argument patterns.
        args: Vec<Term>,
        /// Sorted column positions whose terms are ground at this point
        /// (index key), empty ⇒ full scan.
        index_cols: Vec<usize>,
    },
    /// A negated relation literal; all variables are bound here, so this is
    /// a single containment test against the frozen lower layers.
    NegScan {
        /// The negated relation.
        pred: Symbol,
        /// The ground (or `_`-existential) argument patterns.
        args: Vec<Term>,
        /// For `_`-existential negation only: the ground column positions,
        /// probed through an index so the existence test inspects one
        /// posting list instead of the whole relation. Empty for the plain
        /// all-ground case (that is a single hash containment test already).
        index_cols: Vec<usize>,
    },
    /// A built-in literal (possibly negated: then it must be fully bound and
    /// acts as a filter).
    BuiltinStep {
        /// Which built-in.
        builtin: Builtin,
        /// Argument terms.
        args: Vec<Term>,
        /// Negated built-ins must be fully bound and act as filters.
        negated: bool,
    },
}

/// How the head of a compiled rule produces facts.
#[derive(Clone, Debug)]
pub enum HeadKind {
    /// Project the head terms for every body solution.
    Simple,
    /// §2.2 grouping: collect the group variable's values per combination of
    /// the remaining head variables.
    Grouping {
        /// Head argument position of the `<X>`.
        group_pos: usize,
        /// The grouped variable `X`.
        group_var: Var,
    },
}

/// A compiled rule.
#[derive(Debug)]
pub struct RulePlan {
    /// The rule head.
    pub head: Atom,
    /// Simple projection or grouping.
    pub head_kind: HeadKind,
    /// Body steps in execution order.
    pub steps: Vec<Step>,
    /// Per step, the index in the rule body of the literal it runs
    /// (parallel to `steps`).
    pub literals: Vec<usize>,
    /// Positions (into `steps`) of positive relation literals, paired with
    /// their predicate — the candidates for semi-naive delta restriction.
    pub scan_steps: Vec<(usize, Symbol)>,
    /// First step of the *existential tail*: steps `exist_from..` bind no
    /// head (or grouping) variable, so for each prefix solution the head
    /// tuple is already fully determined and execution stops at the first
    /// witness instead of enumerating every remaining match. `steps.len()`
    /// means no tail — also where the steps after the head's last binding
    /// are checks only, which have no second witness to skip.
    pub exist_from: usize,
    /// Does the head project away a variable (or a `_` column) that the
    /// steps binding the head bind beside it ([`RulePlan::exist_from`]'s
    /// prefix), so that one pass can emit the same head tuple once per
    /// value of it? Only for a simple head of one or two arguments, whose
    /// ids pack into one word: a pass of such a plan in a non-recursive
    /// schedule entry drops a tuple it has already emitted before the merge
    /// ([`crate::fixpoint::RoundTask`]). A variable bound in the
    /// existential tail does not count — the tail stops at its first
    /// witness.
    pub projects: bool,
    /// The plan's lowered register program ([`crate::ram`]), built lazily on
    /// first execution and then shared across rounds — the `OnceLock` runs
    /// the lowering exactly once. Cloning a plan drops the cache
    /// (the clone may be mutated into a variant before execution).
    pub(crate) ram: OnceLock<Arc<RamProgram>>,
}

impl Clone for RulePlan {
    fn clone(&self) -> RulePlan {
        RulePlan {
            head: self.head.clone(),
            head_kind: self.head_kind.clone(),
            steps: self.steps.clone(),
            literals: self.literals.clone(),
            scan_steps: self.scan_steps.clone(),
            exist_from: self.exist_from,
            projects: self.projects,
            ram: OnceLock::new(),
        }
    }
}

impl RulePlan {
    /// Compile one rule: order its body into executable steps and compute
    /// the plan's existential tail ([`RulePlan::exist_from`]) and whether
    /// its head projects ([`RulePlan::projects`]).
    ///
    /// The steps follow [`sip_order`] from no bound variable. `force_first`
    /// pins one body literal (an index into `rule.body`, which must be a
    /// positive relation literal) as step 0 — the delta-first shape of
    /// semi-naive evaluation — and plans the rest around the bindings it
    /// provides, so a delta-first variant probes what its delta binds
    /// before it scans anything free.
    pub fn compile(rule: &Rule, force_first: Option<usize>) -> Result<RulePlan, EvalError> {
        let head_kind = match rule.head.simple_group_positions().as_slice() {
            [] => HeadKind::Simple,
            [(pos, var)] => HeadKind::Grouping {
                group_pos: *pos,
                group_var: *var,
            },
            _ => {
                return Err(EvalError::Unschedulable {
                    rule: rule.clone(),
                    detail: "more than one grouping argument in the head".into(),
                })
            }
        };

        let mut steps = Vec::with_capacity(rule.body.len());
        let mut literals = Vec::with_capacity(rule.body.len());
        sip_order(rule, FastSet::default(), force_first, |li, bound| {
            steps.push(emit_step(&rule.body[li], bound));
            literals.push(li);
        })
        .map_err(|unsched| EvalError::Unschedulable {
            rule: rule.clone(),
            detail: format!(
                "no executable ordering for literals: {}",
                unsched
                    .iter()
                    .map(|&li| rule.body[li].to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        })?;

        Ok(RulePlan::new(rule.head.clone(), head_kind, steps, literals))
    }

    /// The plan that runs `steps` in this order, with its tail and mark.
    pub(crate) fn new(
        head: Atom,
        head_kind: HeadKind,
        steps: Vec<Step>,
        literals: Vec<usize>,
    ) -> RulePlan {
        let scan_steps = steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Step::Scan { pred, .. } => Some((i, *pred)),
                _ => None,
            })
            .collect();

        let packs = matches!(head_kind, HeadKind::Simple) && (1..=2).contains(&head.arity());
        let (exist_from, projects) = match head_prefix(&head, &steps) {
            Some(prefix) => (
                compute_exist_from(&steps, &prefix),
                packs && projects(&steps, &prefix),
            ),
            None => (steps.len(), false),
        };
        RulePlan {
            head,
            head_kind,
            exist_from,
            projects,
            steps,
            literals,
            scan_steps,
            ram: OnceLock::new(),
        }
    }

    /// The plan's lowered register program, built on first use and cached.
    pub(crate) fn lowered(&self) -> Arc<RamProgram> {
        self.ram
            .get_or_init(|| Arc::new(ram::lower(self, &[])))
            .clone()
    }

    /// The body literal step `i` reads in full — an unindexed positive
    /// scan — if it is one.
    pub(crate) fn full_scan_at(&self, i: usize) -> Option<usize> {
        match self.steps.get(i)? {
            Step::Scan { index_cols, .. } if index_cols.is_empty() => Some(self.literals[i]),
            _ => None,
        }
    }

    /// Does this delta-first variant read, at a step after its first, a
    /// body literal in full that `full` — the same rule's full plan —
    /// starts by scanning? Run as a delta pass, it would then read that
    /// relation once per delta tuple; the delta loop runs `full` in place
    /// instead (`PlanTable::delta_pass` in [`crate::compiled`]).
    pub fn rescans_first_scan_of(&self, full: &RulePlan) -> bool {
        full.full_scan_at(0)
            .is_some_and(|j| (1..self.steps.len()).any(|i| self.full_scan_at(i) == Some(j)))
    }

    /// The step that runs body literal `li`.
    pub(crate) fn step_of(&self, li: usize) -> usize {
        self.literals
            .iter()
            .position(|&l| l == li)
            .expect("every body literal has a step")
    }

    /// The (predicate, index columns) pairs this plan probes — the indexes
    /// to build before running it.
    pub fn required_indexes(&self) -> Vec<(Symbol, Vec<usize>)> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Scan {
                    pred, index_cols, ..
                }
                | Step::NegScan {
                    pred, index_cols, ..
                } if !index_cols.is_empty() => Some((*pred, index_cols.clone())),
                _ => None,
            })
            .collect()
    }
}

/// §6's sip rule — the one body order, for [`RulePlan::compile`] (from no
/// bound variable) and for the magic rewriting's sips (from the bound head
/// variables). Starting from `bound` and `force_first` (an index into
/// `rule.body`, which must be a positive relation literal), it repeatedly
/// takes the executable literal of the highest `sip_class`, the earliest
/// on ties, and hands its body index to `visit` together with the variables
/// bound before it; a positive literal's variables are then bound (negation
/// binds nothing). `Err` holds the body indexes left when none of them can
/// run.
///
/// Nothing depends on data or map iteration order, so an order is a
/// function of the rule and its starting bindings.
pub fn sip_order(
    rule: &Rule,
    mut bound: FastSet<Var>,
    mut force_first: Option<usize>,
    mut visit: impl FnMut(usize, &FastSet<Var>),
) -> Result<(), Vec<usize>> {
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    while !remaining.is_empty() {
        let ri = match force_first.take() {
            // First pass: `remaining` still holds every body index, so the
            // literal's position in it is its index.
            Some(li) => {
                let lit = &rule.body[li];
                debug_assert!(
                    lit.positive && lit.builtin().is_none(),
                    "force_first must name a positive relation literal"
                );
                li
            }
            None => {
                // Strict-improvement updates over `remaining`, which is in
                // source order, keep the earliest literal on ties.
                let mut best: Option<(usize, i32)> = None;
                for (ri, &li) in remaining.iter().enumerate() {
                    if let Some(c) = sip_class(&rule.body[li], &bound) {
                        if best.is_none_or(|(_, b)| c > b) {
                            best = Some((ri, c));
                        }
                    }
                }
                match best {
                    Some((ri, _)) => ri,
                    None => return Err(remaining),
                }
            }
        };
        let li = remaining.remove(ri);
        visit(li, &bound);
        let lit = &rule.body[li];
        if lit.positive {
            bound.extend(lit.vars());
        }
    }
    Ok(())
}

/// The class [`sip_order`] ranks `lit` by once the variables in `bound`
/// are bound, higher first; `None` when it cannot execute yet. A built-in
/// with every variable bound is a filter (100), and a positive one with a
/// supported mode generates (50); a positive relation literal with every
/// variable bound is a containment check (95), else a scan ranked by its
/// bound arguments (`10 + bound`); a negated one needs every variable bound
/// (90, §3.2 condition 2′).
fn sip_class(lit: &Literal, bound: &FastSet<Var>) -> Option<i32> {
    let all_vars_bound = lit.vars().iter().all(|v| bound.contains(v));
    match lit.builtin() {
        Some(_) if all_vars_bound => Some(100),
        Some(bi) if lit.positive && can_schedule(bi, &lit.atom.args, &|t| term_bound(t, bound)) => {
            Some(50)
        }
        Some(_) => None,
        None if lit.positive && all_vars_bound => Some(95),
        None if lit.positive => {
            let bound_args = lit.atom.args.iter().filter(|t| term_bound(t, bound));
            Some(10 + bound_args.count() as i32)
        }
        None => all_vars_bound.then_some(90),
    }
}

/// Can `t` be evaluated to a single key value right now? `_` never binds
/// and `<t>` patterns are multi-valued, so neither qualifies.
pub(crate) fn term_bound(t: &Term, bound: &FastSet<Var>) -> bool {
    let mut vs = Vec::new();
    t.vars(&mut vs);
    !has_anon(t) && !t.has_group() && vs.iter().all(|v| bound.contains(v))
}

/// The argument positions evaluable to key values under `bound` — index
/// columns for a scan scheduled at this point.
fn bound_cols(args: &[Term], bound: &FastSet<Var>) -> Vec<usize> {
    args.iter()
        .enumerate()
        .filter(|(_, t)| term_bound(t, bound))
        .map(|(i, _)| i)
        .collect()
}

/// Build the executable step for body literal `lit` given the variables
/// bound before it.
fn emit_step(lit: &Literal, bound: &FastSet<Var>) -> Step {
    match lit.builtin() {
        Some(bi) => Step::BuiltinStep {
            builtin: bi,
            args: lit.atom.args.clone(),
            negated: !lit.positive,
        },
        None if lit.positive => Step::Scan {
            pred: lit.atom.pred,
            args: lit.atom.args.clone(),
            index_cols: bound_cols(&lit.atom.args, bound),
        },
        None => Step::NegScan {
            pred: lit.atom.pred,
            args: lit.atom.args.clone(),
            index_cols: if lit.atom.args.iter().any(has_anon) {
                bound_cols(&lit.atom.args, bound)
            } else {
                Vec::new()
            },
        },
    }
}

/// The first step index after which every head (and grouping) variable is
/// bound — the start of the plan's existential tail: the end of the head's
/// [`HeadPrefix`]. `steps.len()` when the head needs the very last step's
/// bindings (or is never covered, which well-formedness rules out but an
/// unchecked program may exhibit — the tail is then simply disabled).
///
/// `steps.len()` too when the tail is only checks: no relation scan and no
/// built-in with an argument not yet ground. Such a tail yields at most one
/// solution per prefix, so stopping at the first cuts nothing, and entering
/// the tail costs a re-entry of the executor per prefix.
fn compute_exist_from(steps: &[Step], prefix: &HeadPrefix) -> usize {
    let generates = |s: &Step| match s {
        Step::Scan { .. } => true,
        Step::BuiltinStep {
            args,
            negated: false,
            ..
        } => !args.iter().all(|t| term_bound(t, &prefix.bound)),
        Step::BuiltinStep { .. } | Step::NegScan { .. } => false,
    };
    if steps[prefix.len..].iter().any(generates) {
        prefix.len
    } else {
        steps.len()
    }
}

/// The leading steps of a plan that bind every head variable.
struct HeadPrefix {
    /// How many steps: 0 for a ground head.
    len: usize,
    /// The variables they bind.
    bound: FastSet<Var>,
    /// The head's variables.
    head: Vec<Var>,
}

/// The head's [`HeadPrefix`] in `steps`; `None` when the steps never bind
/// every head variable.
fn head_prefix(head: &Atom, steps: &[Step]) -> Option<HeadPrefix> {
    let needed = head.vars();
    let mut bound: FastSet<Var> = FastSet::default();
    let mut vs = Vec::new();
    let mut len = 0;
    while !needed.iter().all(|v| bound.contains(v)) {
        if let Some(args) = binding_args(steps.get(len)?) {
            for t in args {
                t.vars(&mut vs);
            }
            bound.extend(vs.drain(..));
        }
        len += 1;
    }
    Some(HeadPrefix {
        len,
        bound,
        head: needed,
    })
}

/// The arguments of a step that binds variables: a positive scan or a
/// positive built-in.
fn binding_args(s: &Step) -> Option<&[Term]> {
    match s {
        Step::Scan { args, .. }
        | Step::BuiltinStep {
            args,
            negated: false,
            ..
        } => Some(args),
        Step::BuiltinStep { .. } | Step::NegScan { .. } => None,
    }
}

/// Does the head's prefix bind a variable the head does not carry, or read
/// a `_` column? Then each head tuple can come once per value of what it
/// drops. A prefix that binds only head variables yields each head tuple
/// once, and a ground head has no prefix: its body is one existence test.
fn projects(steps: &[Step], prefix: &HeadPrefix) -> bool {
    prefix.bound.iter().any(|v| !prefix.head.contains(v))
        || steps[..prefix.len]
            .iter()
            .filter_map(binding_args)
            .any(|args| args.iter().any(has_anon))
}

pub(crate) fn has_anon(t: &Term) -> bool {
    match t {
        Term::Anon => true,
        Term::Var(_) | Term::Const(_) => false,
        Term::Compound(_, args) | Term::SetEnum(args) => args.iter().any(has_anon),
        Term::Scons(h, s) => has_anon(h) || has_anon(s),
        Term::Group(g) => has_anon(g),
        Term::Arith(_, l, r) => has_anon(l) || has_anon(r),
    }
}

/// Restriction of one scan step to a tuple-position range (semi-naive
/// deltas).
#[derive(Clone, Copy, Debug)]
pub struct DeltaRestriction {
    /// Which step (index into `plan.steps`) reads only the delta.
    pub step: usize,
    /// First tuple position of the delta (inclusive).
    pub lo: u32,
    /// End of the delta (exclusive).
    pub hi: u32,
}

/// A predicate has one arity: `found` — a literal's, a rule head's, a derived
/// tuple's — must match the stored relation's, where one exists.
pub(crate) fn check_arity(db: &Database, pred: Symbol, found: usize) -> Result<(), EvalError> {
    match db.relation(pred).map(Relation::arity) {
        Some(expected) if expected != found => Err(EvalError::ArityMismatch {
            pred: pred.to_string(),
            expected,
            found,
        }),
        _ => Ok(()),
    }
}

/// Prepare `db` for one pass of `plan` — the one place a plan meets the
/// stored relations before it runs. Every relation literal's arity is
/// checked against the relation it scans (the executor indexes tuples by
/// argument position and must never see a shorter row), then every index
/// the plan probes is built — once every relation it scans has a live
/// tuple. Until then the pass derives nothing (`run_ram` skips it), and an
/// index built early is paid for before it is needed, or never: the round-0
/// plan of `anc(X, Y) <- par(X, Z), anc(Z, Y)` would index `anc` while it
/// is still empty. A missing index only means a full scan. A literal over a
/// relation that does not exist yet scans nothing and needs neither.
pub fn ensure_plan_indexes(
    plan: &RulePlan,
    db: &mut Database,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    for step in &plan.steps {
        if let Step::Scan { pred, args, .. } | Step::NegScan { pred, args, .. } = step {
            check_arity(db, *pred, args.len())?;
        }
    }
    let empty = |&(_, pred): &(usize, Symbol)| db.relation(pred).is_none_or(Relation::is_empty);
    if plan.scan_steps.iter().any(empty) {
        return Ok(());
    }
    for (pred, cols) in plan.required_indexes() {
        if let Some(arity) = db.relation(pred).map(Relation::arity) {
            let rel = db.relation_mut(pred, arity);
            if !rel.has_index(&cols) {
                stats.index_builds += 1;
                stats.index_rows += rel.live_len() as u64;
            }
            rel.ensure_index(&cols);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::{derive, RoundTask};
    use crate::stats::EvalStats;
    use ldl_parser::parse_rule;

    fn plan_of(src: &str) -> RulePlan {
        RulePlan::compile(&parse_rule(src).unwrap(), None).unwrap()
    }

    #[test]
    fn filters_scheduled_after_binding() {
        let p = plan_of("q(X) <- r(X), X < 3.");
        assert!(matches!(p.steps[0], Step::Scan { .. }));
        assert!(matches!(p.steps[1], Step::BuiltinStep { .. }));
    }

    #[test]
    fn unschedulable_rule_rejected() {
        let err = RulePlan::compile(&parse_rule("q(X) <- X < 3, r(X).").unwrap(), None);
        // `<` can never run first, but the planner reorders: r(X) then <.
        assert!(err.is_ok());
        // Genuinely unschedulable: member with its set never bound.
        let err2 = RulePlan::compile(&parse_rule("q(X) <- member(X, S), r(X).").unwrap(), None);
        assert!(matches!(err2, Err(EvalError::Unschedulable { .. })));
    }

    #[test]
    fn negation_ordered_after_bindings() {
        let p = plan_of("q(X) <- ~s(X), r(X).");
        assert!(matches!(p.steps[0], Step::Scan { .. }));
        assert!(matches!(p.steps[1], Step::NegScan { .. }));
    }

    #[test]
    fn index_cols_from_bound_terms() {
        let p = plan_of("q(Y) <- r(X), s(X, Y).");
        match &p.steps[1] {
            Step::Scan {
                pred, index_cols, ..
            } => {
                assert_eq!(pred.as_str(), "s");
                assert_eq!(index_cols, &vec![0]);
            }
            other => panic!("expected scan, got {other:?}"),
        }
        assert_eq!(p.required_indexes().len(), 1);
    }

    #[test]
    fn grouping_head_detected() {
        let p = plan_of("part(P, <S>) <- p(P, S).");
        match p.head_kind {
            HeadKind::Grouping {
                group_pos,
                group_var,
            } => {
                assert_eq!(group_pos, 1);
                assert_eq!(group_var, Var::new("S"));
            }
            HeadKind::Simple => panic!("expected grouping head"),
        }
    }

    #[test]
    fn functional_arith_scheduled_when_inputs_bound() {
        let p = plan_of("tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).");
        // partition needs S bound — but S is a head var fed by nothing
        // positive... it IS schedulable? No: S is unbound initially, so
        // partition can't run first; tc scans must run first binding S1/C1.
        // The planner picks tc(S1, C1) or tc(S2, C2) first (unbound scans),
        // partition runs once S1, S2 are bound (inverse mode), `+` last.
        let order: Vec<String> = p
            .steps
            .iter()
            .map(|s| match s {
                Step::Scan { pred, .. } => pred.to_string(),
                Step::BuiltinStep { builtin, .. } => format!("{builtin:?}"),
                Step::NegScan { pred, .. } => format!("~{pred}"),
            })
            .collect();
        assert_eq!(order[0], "tc");
        assert_eq!(order[1], "tc");
        assert!(order[2].contains("Partition") || order[3].contains("Partition"));
    }

    #[test]
    fn scan_steps_listed() {
        let p = plan_of("q(X, Y) <- r(X), s(X, Y), X < 10.");
        assert_eq!(p.scan_steps.len(), 2);
        assert_eq!(p.scan_steps[0].1.as_str(), "r");
        assert_eq!(p.scan_steps[1].1.as_str(), "s");
    }

    #[test]
    fn greedy_ties_break_by_relation_size_then_source_order() {
        let rule = parse_rule("q(X) <- r1(X), r2(X).").unwrap();
        // Relation literals with as many bound arguments tie, and the body
        // keeps source order.
        let p = RulePlan::compile(&rule, None).unwrap();
        assert_eq!(p.scan_steps[0].1.as_str(), "r1");
    }

    /// The magic rewrite's recursive rule pinned on its delta literal, as
    /// semi-naive evaluation runs it: the delta binds `Z`, so `par(X, Z)`
    /// is a probe and goes before the free scan of the magic set `m(X)`. In
    /// source order the magic set was scanned once per delta tuple, which
    /// made a bound closure over a 600-node chain 25× slower than plain
    /// evaluation.
    #[test]
    fn statistics_free_delta_variant_probes_before_it_scans() {
        let rule = parse_rule("a(X, Y) <- m(X), par(X, Z), a(Z, Y).").unwrap();
        let p = RulePlan::compile(&rule, Some(2)).unwrap();
        let order: Vec<&str> = p.scan_steps.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(order, ["a", "par", "m"]);
    }

    #[test]
    fn existential_tail_emits_one_solution_per_head_tuple() {
        use ldl_value::Value;
        let mut db = Database::new();
        db.insert_tuple("cand", vec![Value::int(1)]);
        db.insert_tuple("cand", vec![Value::int(2)]);
        for y in 0..10 {
            db.insert_tuple("fan", vec![Value::int(1), Value::int(y)]);
        }
        let rule = parse_rule("reach(X) <- cand(X), fan(X, Y).").unwrap();
        let plan = RulePlan::compile(&rule, None).unwrap();
        assert_eq!(plan.exist_from, 1); // Y is not a head variable
        let mut stats = EvalStats::default();
        let derived = derive(&RoundTask::new(&plan, None, true), &db, &mut stats).unwrap();
        // cand(1) has a witness, cand(2) has none.
        assert_eq!((stats.attempts, stats.exist_cuts), (1, 1));
        let mut engine = Vec::new();
        derived.for_each(&mut |t| engine.push(t.to_vec()));
        // The reference runs the same plan without the tail: one head tuple
        // per witness, all 10 of them the engine's one.
        let full = crate::model::apply_rule(&plan, &db).unwrap();
        assert_eq!(full.len(), 10);
        assert!(full.iter().all(|t| engine == [t.clone()]), "{engine:?}");
    }

    /// After the head's last binding, checks alone — a comparison, a
    /// negation — have at most one witness, so the plan keeps no tail.
    #[test]
    fn a_tail_of_checks_is_no_tail() {
        for rule in [
            "far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 1000.",
            "q(X) <- r(X), ~p(X).",
            "q(X) <- r(X, Y), Y > 2, ~p(Y, X).",
        ] {
            let p = plan_of(rule);
            assert_eq!(p.exist_from, p.steps.len(), "{rule}");
        }
    }

    /// A tail that scans a relation, or a built-in that binds a variable,
    /// can have many witnesses and stops at the first.
    #[test]
    fn a_tail_that_generates_keeps_its_tail() {
        for (rule, from) in [
            ("busy(X) <- node(X), ~idle(X), anc(X, _).", 1),
            ("q(X) <- r(X, S), member(Y, S).", 1),
            ("q(X) <- r(X, S), member(Y, S), Y > 2.", 1),
        ] {
            assert_eq!(plan_of(rule).exist_from, from, "{rule}");
        }
    }

    #[test]
    fn anon_negation_probes_bound_columns() {
        let p = plan_of("leaf(X) <- node(X), ~e(X, _).");
        match &p.steps[1] {
            Step::NegScan { index_cols, .. } => assert_eq!(index_cols, &vec![0]),
            other => panic!("expected negscan, got {other:?}"),
        }
        assert!(p
            .required_indexes()
            .iter()
            .any(|(pred, cols)| pred.as_str() == "e" && cols == &vec![0]));
    }

    #[test]
    fn force_first_pins_delta_literal() {
        let rule = parse_rule("anc(X, Y) <- par(X, Z), anc(Z, Y).").unwrap();
        // Body literal 1 (anc) runs first although par comes first in source.
        let p = RulePlan::compile(&rule, Some(1)).unwrap();
        assert_eq!(p.scan_steps[0].0, 0);
        assert_eq!(p.scan_steps[0].1.as_str(), "anc");
        // par is probed on its now-bound second column (Z).
        let Step::Scan { index_cols, .. } = &p.steps[1] else {
            panic!("par step must be a scan")
        };
        assert_eq!(index_cols, &vec![1]);
    }
}
