//! RAM-style intermediate representation: lowering [`RulePlan`]s into flat
//! register-machine programs.
//!
//! Interpreting a plan walks term trees per tuple: every column match
//! dispatches on the pattern's shape, every variable read scans the binding
//! trail, and every constant re-hashes its `Value` through the interner.
//! Lowering removes all of that from the hot loop. A `RamProgram` is a
//! `Vec<Op>` operating on a dense file of [`ValueId`] registers:
//!
//! * simple columns compile to `bind r` / `check r` / `const #id` actions
//!   (constants are interned **once**, at lowering time, and integer
//!   constants decoded then too);
//! * a column pattern no register action expresses — a set enumeration
//!   like `{X, Y}`, `scons(H, T)`, `<t>`, or a compound with an unbound
//!   variable or a nested `_` — binds a fresh register, and a *match step*
//!   `rN = pattern` after the scan matches it. The step is lowered like a
//!   user's own `=` literal: a comparison op when the pattern is by then
//!   ground, else the `Op::Builtin` `=` that runs the term-tree matcher
//!   ([`crate::unify`]) — the one place, beside the other built-ins, that
//!   the executor still calls it;
//! * index probe keys compile to per-column `Expr`s evaluated straight
//!   from registers;
//! * all-ground negation compiles to expression evaluation plus one hash
//!   containment test, and `_`-existential negation to the literal's own
//!   flattened scan and match steps, run to their first solution;
//! * head projection compiles to an `Expr` per head argument, written
//!   directly into the derivation buffer;
//! * a scan owns the filters that directly follow it — comparisons,
//!   all-ground negations, arithmetic checks — up to the existential
//!   tail's start, and the executor tests them in the scan's row loop
//!   (`fuse_filters`).
//!
//! A plan step therefore lowers to one op or to several, and ops do not
//! match steps by index. `RamProgram::step_op` maps each step to its first
//! op: a [`DeltaRestriction`](crate::plan::DeltaRestriction) naming step `i`
//! restricts op `step_op[i]` (a positive scan's first op is its scan), and
//! the plan's `exist_from` splits the op list at `step_op[exist_from]`.
//! `tests/differential.rs` pins the engine's results against the reference
//! evaluator ([`crate::model`]), which interprets plans directly.
//!
//! Lowering happens at most once per plan: `RulePlan::lowered` caches the
//! program in a `OnceLock`, so a plan kept in its program's plan table
//! ([`crate::compiled`]) is lowered exactly once, however many rounds and
//! operations run it — the pass that finds the lock empty counts it in
//! [`EvalStats::lowerings`](crate::EvalStats).

use ldl_ast::program::Builtin;
use ldl_ast::term::{Term, Var};
use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::intern;
use ldl_value::{set, Symbol, ValueId};

use crate::plan::{has_anon, term_bound, HeadKind, RulePlan, Step};

/// A register index into the program's dense `ValueId` file.
pub(crate) type Reg = u32;

/// A register-evaluable term: the compiled form of [`eval_term`]
/// (`crate::unify::eval_term`) with constants pre-interned and variables
/// resolved to registers. `Fail` marks positions that can never evaluate
/// (`_`, `<t>`, or a variable the body never binds) — the interpreter's
/// `None` result, made static.
#[derive(Clone, Debug)]
pub(crate) enum Expr {
    /// Read a register.
    Reg(Reg),
    /// A constant, interned at lowering time.
    Const(ValueId),
    /// `f(e₁, …, eₙ)`.
    Compound(Symbol, Box<[Expr]>),
    /// An enumerated set `{e₁, …, eₙ}`.
    Set(Box<[Expr]>),
    /// `scons(e, S)` — fails on a non-set tail.
    Scons(Box<Expr>, Box<Expr>),
    /// Arithmetic, with the interpreter's overflow-to-`None` semantics.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Never evaluates (outside `U`).
    Fail,
}

/// Evaluate a compiled expression against the register file. Mirrors
/// `eval_term` exactly, including every `None` ("outside U") case.
///
/// A register or a constant — every probe key and head argument of a
/// plain rule — is read in line; a compound term takes the out-of-line
/// [`eval_compound`].
#[inline(always)]
pub(crate) fn eval_expr(e: &Expr, regs: &[ValueId]) -> Option<ValueId> {
    match e {
        Expr::Reg(r) => Some(regs[*r as usize]),
        Expr::Const(v) => Some(*v),
        _ => eval_compound(e, regs),
    }
}

/// [`eval_expr`] on a term that is neither a register nor a constant.
#[inline(never)]
fn eval_compound(e: &Expr, regs: &[ValueId]) -> Option<ValueId> {
    match e {
        Expr::Reg(_) | Expr::Const(_) => eval_expr(e, regs),
        Expr::Compound(f, args) => {
            let ids: Option<Vec<ValueId>> = args.iter().map(|a| eval_expr(a, regs)).collect();
            Some(intern::mk_compound(*f, ids?))
        }
        Expr::Set(args) => {
            let ids: Option<Vec<ValueId>> = args.iter().map(|a| eval_expr(a, regs)).collect();
            Some(intern::mk_set(ids?))
        }
        Expr::Scons(h, tail) => {
            let head = eval_expr(h, regs)?;
            set::insert(eval_expr(tail, regs)?, head)
        }
        Expr::Arith(op, l, r) => op.eval_ids(eval_expr(l, regs)?, eval_expr(r, regs)?),
        Expr::Fail => None,
    }
}

/// What a fused scan does with one tuple column.
#[derive(Clone, Debug)]
pub(crate) enum ColAct {
    /// Write the column value into a register (first occurrence of a var).
    Bind(Reg),
    /// The column must equal a register (repeated var).
    Check(Reg),
    /// The column must equal a pre-interned constant.
    Const(ValueId),
    /// The column must equal the expression's value (a ground complex term;
    /// canonical interning makes id equality coincide with the structural
    /// match). A failed evaluation matches nothing.
    Eval(Expr),
}

/// One fused operator. A plan step lowers to one or more ops
/// ([`RamProgram::step_op`]).
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// A relation literal's rows: full scan over `cols`, or an index probe
    /// evaluating `key` and matching only `probe_cols` (key equality is
    /// implied by the posting list). A complex column pattern is a `Bind`
    /// here and a match step after. The filters `ops[i + 1 .. then]` run in
    /// the scan's own row loop (see [`fuse_filters`]); a row that passes
    /// them continues at `ops[then]`.
    Scan {
        /// The relation scanned/probed.
        pred: Symbol,
        /// Sorted ground column positions (index key), empty ⇒ full scan.
        index_cols: Box<[usize]>,
        /// Key expressions, one per index column.
        key: Box<[Expr]>,
        /// `(column, action)` for the full-scan path — every non-`_` column.
        cols: Box<[(usize, ColAct)]>,
        /// `cols` minus the index-key columns, for the probed path.
        probe_cols: Box<[(usize, ColAct)]>,
        /// The first op after the scan's fused filters.
        then: usize,
    },
    /// All-ground negation: evaluate the argument expressions in order (a
    /// failure means the fact is outside `U`, so the negation holds) and
    /// test containment against the frozen lower layers.
    Neg {
        /// The negated relation.
        pred: Symbol,
        /// Argument expressions, in argument order.
        key: Box<[Expr]>,
    },
    /// `_`-existential negation: ops `i + 1 .. end` — the literal's scan,
    /// probing an index on its ground columns or checking them by id, and
    /// its match steps — must have no solution. They run to the first one
    /// and write only their own fresh registers; `ops[end]` is the
    /// [`Op::Found`] that ends them, and the body resumes at `end + 1`.
    Absent {
        /// Index of the closing [`Op::Found`].
        end: usize,
    },
    /// Ends an [`Op::Absent`]'s ops: reaching it is a solution.
    Found,
    /// A comparison whose solutions are decidable by expression evaluation
    /// alone: evaluate both sides and test. Covers every ordered comparison
    /// and `/=` (the interpreter's `eval_ids` arm), plus `=` when the
    /// matched side is [`eval_matchable`]. An operand outside `U` fails the
    /// positive literal and satisfies the negated one, exactly like the
    /// interpreter's `eval_term` returning `None`.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        lhs: Expr,
        /// Right operand.
        rhs: Expr,
        /// `~`-negated comparisons invert the (total) test.
        negated: bool,
    },
    /// `V = e` with `V` unbound: evaluate `e` into a register. A source
    /// outside `U` derives nothing (the interpreter's failed `eval_term`).
    Assign {
        /// Destination register (the unbound variable).
        dst: Reg,
        /// The ground side.
        src: Expr,
    },
    /// Forward-mode arithmetic `op(x, y, z)` with `x`, `y` ground: compute
    /// the result and either bind it (free plain-variable `z`) or compare
    /// it against `z`'s value. Overflow or a non-integer operand fails the
    /// literal — `eval_ids`' `None` — and a negated literal then holds.
    ArithF {
        /// The operator.
        op: ArithOp,
        /// First operand.
        x: Expr,
        /// Second operand.
        y: Expr,
        /// Where the result goes.
        dst: ArithDst,
        /// `~`-negated arithmetic acts as an inverted filter (always
        /// `Check`: negated built-ins are fully bound).
        negated: bool,
    },
    /// A built-in literal, or a match step that no register op expresses:
    /// bridge to the built-in evaluator (single source of truth for modes
    /// and multi-solution semantics) through a scratch `Bindings`.
    Builtin {
        /// Which built-in.
        builtin: Builtin,
        /// Argument terms.
        args: Box<[Term]>,
        /// Negated built-ins are fully bound and act as filters.
        negated: bool,
        /// Bound variables to seed into the scratch bindings.
        in_vars: Box<[(Var, Reg)]>,
        /// Variables the built-in binds: copied back per solution.
        out_vars: Box<[(Var, Reg)]>,
    },
}

/// Destination of a forward-mode arithmetic result (see [`Op::ArithF`]).
#[derive(Clone, Debug)]
pub(crate) enum ArithDst {
    /// Bind the result to a register (the third argument is a free
    /// plain variable).
    Bind(Reg),
    /// The result must equal this expression's value (the interpreter's
    /// `match_term` on an [`eval_matchable`] third argument).
    Check(Expr),
}

/// The compiled head projection.
#[derive(Clone, Debug)]
pub(crate) enum HeadIr {
    /// Project one expression per head argument, in order.
    Simple(Box<[Expr]>),
    /// §2.2 grouping: partition solutions by the `Z̄` registers, collect the
    /// group register's values per class.
    Grouping {
        /// Head argument position of the `<X>`.
        group_pos: usize,
        /// The grouped variable (for diagnostics).
        group_var: Var,
        /// The grouped variable's register; `None` if the body never binds
        /// it (a well-formedness escape, reported at run time exactly like
        /// the interpreter does).
        group_reg: Option<Reg>,
        /// One register per `Z̄` variable, in `vars_outside_group` order.
        key_regs: Box<[Option<Reg>]>,
        /// The non-group head arguments, in order (evaluated once per
        /// distinct key).
        other: Box<[Expr]>,
    },
}

/// A lowered rule body: the flat program the tight interpreter in
/// [`crate::exec`] runs.
#[derive(Debug)]
pub(crate) struct RamProgram {
    /// Fused operators.
    pub(crate) ops: Box<[Op]>,
    /// Per plan step, the index of its first op.
    pub(crate) step_op: Box<[usize]>,
    /// Head projection.
    pub(crate) head: HeadIr,
    /// First op of the existential tail (`ops.len()` ⇒ no tail).
    pub(crate) exist_from: usize,
    /// Predicates of the positive relation literals, for the empty-relation
    /// pre-check.
    pub(crate) scan_preds: Box<[Symbol]>,
    /// Register-file size.
    pub(crate) nregs: usize,
}

fn reg_of(regs: &mut FastMap<Var, Reg>, v: Var) -> Reg {
    let next = regs.len() as Reg;
    *regs.entry(v).or_insert(next)
}

/// The named variables of `args` in first-occurrence order, deduplicated.
fn ordered_vars(args: &[Term]) -> Vec<Var> {
    let mut vs = Vec::new();
    for t in args {
        t.vars(&mut vs);
    }
    let mut seen: FastSet<Var> = FastSet::default();
    vs.retain(|v| seen.insert(*v));
    vs
}

/// Lower one term to an expression. Variables outside `bound` — and the
/// never-evaluable `_` / `<t>` shapes — become [`Expr::Fail`], matching
/// `eval_term`'s `None`.
fn lower_expr(t: &Term, regs: &mut FastMap<Var, Reg>, bound: &FastSet<Var>) -> Expr {
    match t {
        Term::Var(v) => {
            if bound.contains(v) {
                Expr::Reg(reg_of(regs, *v))
            } else {
                Expr::Fail
            }
        }
        Term::Anon | Term::Group(_) => Expr::Fail,
        Term::Const(v) => Expr::Const(intern::id_of(v)),
        Term::Compound(f, args) => Expr::Compound(
            *f,
            args.iter().map(|a| lower_expr(a, regs, bound)).collect(),
        ),
        Term::SetEnum(args) => Expr::Set(args.iter().map(|a| lower_expr(a, regs, bound)).collect()),
        Term::Scons(h, tail) => Expr::Scons(
            Box::new(lower_expr(h, regs, bound)),
            Box::new(lower_expr(tail, regs, bound)),
        ),
        Term::Arith(op, l, r) => Expr::Arith(
            *op,
            Box::new(lower_expr(l, regs, bound)),
            Box::new(lower_expr(r, regs, bound)),
        ),
    }
}

/// Is matching pattern `t` against a ground value equivalent to evaluating
/// `t` and comparing interned ids? True for the deterministic single-
/// solution shapes: a bound variable, a constant, a compound of such, and
/// arithmetic (whose `match_term` arm literally *is* eval-and-compare, with
/// an unbound operand failing both ways). Set patterns (`{…}`, `scons`),
/// `<t>`, `_`, and unbound variables match by decomposition or bind — not
/// expressible as a register comparison.
fn eval_matchable(t: &Term, bound: &FastSet<Var>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Const(_) => true,
        Term::Compound(_, args) => args.iter().all(|a| eval_matchable(a, bound)),
        Term::Arith(..) => true,
        Term::Anon | Term::Group(_) | Term::SetEnum(_) | Term::Scons(..) => false,
    }
}

/// `t` as a plain not-yet-bound variable, if it is one.
fn unbound_var(t: &Term, bound: &FastSet<Var>) -> Option<Var> {
    match t {
        Term::Var(v) if !bound.contains(v) => Some(*v),
        _ => None,
    }
}

/// Lower a built-in literal, given the variables bound before it. Each
/// fused op mirrors one arm of [`eval_builtin`](crate::builtins::eval_builtin):
/// comparisons and `=` with an eval-matchable matched side become
/// [`Op::Cmp`], `=` binding a fresh variable becomes [`Op::Assign`],
/// forward-mode arithmetic becomes [`Op::ArithF`]. Set built-ins, the
/// inverse/generative modes and `=` against a pattern keep the bridge,
/// [`Op::Builtin`] (multi-solution semantics live in one place).
fn lower_builtin(
    builtin: Builtin,
    args: &[Term],
    negated: bool,
    regs: &mut FastMap<Var, Reg>,
    bound: &FastSet<Var>,
) -> Op {
    if let Some(op) = fused_builtin(builtin, args, negated, regs, bound) {
        return op;
    }
    let vars = ordered_vars(args);
    let mut io = |want_bound: bool| -> Box<[(Var, Reg)]> {
        vars.iter()
            .filter(|v| bound.contains(v) == want_bound)
            .map(|&v| (v, reg_of(regs, v)))
            .collect()
    };
    let in_vars = io(true);
    let out_vars = io(false);
    Op::Builtin {
        builtin,
        args: args.into(),
        negated,
        in_vars,
        out_vars,
    }
}

/// The fused register op for a built-in literal, when one expresses it.
fn fused_builtin(
    builtin: Builtin,
    args: &[Term],
    negated: bool,
    regs: &mut FastMap<Var, Reg>,
    bound: &FastSet<Var>,
) -> Option<Op> {
    match builtin {
        Builtin::Cmp(CmpOp::Eq) => {
            let g0 = term_bound(&args[0], bound);
            let g1 = term_bound(&args[1], bound);
            // The interpreter matches the side opposite the first ground
            // one; `eval_ids(Eq)` is id equality, which coincides with the
            // match exactly when the matched side is eval-matchable. With
            // neither side ground there is no solution either way (a
            // non-ground term never evaluates), so the comparison op —
            // which then always fails — is still an exact mirror.
            let matched = if g0 { &args[1] } else { &args[0] };
            if (!g0 && !g1) || eval_matchable(matched, bound) {
                return Some(Op::Cmp {
                    op: CmpOp::Eq,
                    lhs: lower_expr(&args[0], regs, bound),
                    rhs: lower_expr(&args[1], regs, bound),
                    negated,
                });
            }
            if !negated && (g0 || g1) {
                if let Some(v) = unbound_var(matched, bound) {
                    let src = if g0 { &args[0] } else { &args[1] };
                    return Some(Op::Assign {
                        dst: reg_of(regs, v),
                        src: lower_expr(src, regs, bound),
                    });
                }
            }
            None
        }
        // Ordered comparisons and `/=` evaluate both sides uncondition-
        // ally (`eval_ids` arm) — always expressible on registers.
        Builtin::Cmp(op) => Some(Op::Cmp {
            op,
            lhs: lower_expr(&args[0], regs, bound),
            rhs: lower_expr(&args[1], regs, bound),
            negated,
        }),
        Builtin::Arith(op) => {
            if !(term_bound(&args[0], bound) && term_bound(&args[1], bound)) {
                return None; // inverse modes: bridge
            }
            let x = lower_expr(&args[0], regs, bound);
            let y = lower_expr(&args[1], regs, bound);
            if eval_matchable(&args[2], bound) {
                let check = lower_expr(&args[2], regs, bound);
                return Some(Op::ArithF {
                    op,
                    x,
                    y,
                    dst: ArithDst::Check(check),
                    negated,
                });
            }
            if !negated {
                if let Some(v) = unbound_var(&args[2], bound) {
                    return Some(Op::ArithF {
                        op,
                        x,
                        y,
                        dst: ArithDst::Bind(reg_of(regs, v)),
                        negated: false,
                    });
                }
            }
            None
        }
        _ => None,
    }
}

/// Lower a relation literal's scan onto `ops`, given the variables bound
/// before it. Columns are walked left-to-right with a running bound set
/// (mirroring the matcher's binding order): a repeated variable —
/// `e(X, X)` — binds at its first column and checks at the second, and a
/// ground complex term compares ids. Any other column binds a fresh
/// register `rN`, and the match step `rN = pattern` follows the scan,
/// lowered like a written `=` literal. Match steps run in column order,
/// after every plain column, so a row's solutions come in the matcher's
/// order: binding a variable before the pattern only prunes the
/// pattern's solutions to those that agree with it.
///
/// A fresh register's variable is named `rN`. No rule variable can be:
/// LDL1 variables start with an upper-case letter or `_`, and generated
/// ones carry a `'`.
fn lower_scan(
    pred: Symbol,
    args: &[Term],
    index_cols: &[usize],
    ops: &mut Vec<Op>,
    regs: &mut FastMap<Var, Reg>,
    bound: &FastSet<Var>,
) {
    // Key expressions read the step-entry bindings; the planner only puts
    // ground-at-entry terms into `index_cols`.
    let key: Box<[Expr]> = index_cols
        .iter()
        .map(|&c| lower_expr(&args[c], regs, bound))
        .collect();

    let mut cur = bound.clone();
    let mut cols: Vec<(usize, ColAct)> = Vec::new();
    let mut matches: Vec<[Term; 2]> = Vec::new();
    for (c, t) in args.iter().enumerate() {
        let act = match t {
            Term::Anon => continue,
            Term::Var(v) if cur.contains(v) => ColAct::Check(reg_of(regs, *v)),
            Term::Var(v) => {
                cur.insert(*v);
                ColAct::Bind(reg_of(regs, *v))
            }
            Term::Const(v) => ColAct::Const(intern::id_of(v)),
            t if term_bound(t, &cur) => ColAct::Eval(lower_expr(t, regs, &cur)),
            t => {
                let r = Var::new(&format!("r{}", regs.len()));
                cur.insert(r);
                matches.push([Term::Var(r), t.clone()]);
                ColAct::Bind(reg_of(regs, r))
            }
        };
        cols.push((c, act));
    }
    let probe_cols: Box<[(usize, ColAct)]> = cols
        .iter()
        .filter(|(c, _)| !index_cols.contains(c))
        .cloned()
        .collect();
    ops.push(Op::Scan {
        pred,
        index_cols: index_cols.into(),
        key,
        cols: cols.into_boxed_slice(),
        probe_cols,
        then: 0, // set by `fuse_filters`
    });
    for args in &matches {
        let eq = Builtin::Cmp(CmpOp::Eq);
        ops.push(lower_builtin(eq, args, false, regs, &cur));
        cur.extend(ordered_vars(args));
    }
}

/// Lower a compiled plan into a flat register program. Called exactly once
/// per plan through `RulePlan::lowered`'s `OnceLock`.
pub(crate) fn lower(plan: &RulePlan) -> RamProgram {
    let mut regs: FastMap<Var, Reg> = FastMap::default();
    let mut bound: FastSet<Var> = FastSet::default();
    let mut ops: Vec<Op> = Vec::with_capacity(plan.steps.len());
    let mut step_op: Vec<usize> = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        step_op.push(ops.len());
        match step {
            Step::Scan {
                pred,
                args,
                index_cols,
            } => {
                lower_scan(*pred, args, index_cols, &mut ops, &mut regs, &bound);
                bound.extend(ordered_vars(args));
            }
            Step::NegScan {
                pred,
                args,
                index_cols,
            } if args.iter().any(has_anon) => {
                let mut body = Vec::new();
                lower_scan(*pred, args, index_cols, &mut body, &mut regs, &bound);
                let end = ops.len() + 1 + body.len();
                ops.push(Op::Absent { end });
                ops.append(&mut body);
                ops.push(Op::Found);
            }
            Step::NegScan { pred, args, .. } => {
                let key: Box<[Expr]> = args
                    .iter()
                    .map(|t| lower_expr(t, &mut regs, &bound))
                    .collect();
                ops.push(Op::Neg { pred: *pred, key });
            }
            Step::BuiltinStep {
                builtin,
                args,
                negated,
            } => {
                ops.push(lower_builtin(*builtin, args, *negated, &mut regs, &bound));
                if !negated {
                    bound.extend(ordered_vars(args));
                }
            }
        }
    }

    let head = match plan.head_kind {
        HeadKind::Simple => HeadIr::Simple(
            plan.head
                .args
                .iter()
                .map(|t| lower_expr(t, &mut regs, &bound))
                .collect(),
        ),
        HeadKind::Grouping {
            group_pos,
            group_var,
        } => {
            let group_reg = bound
                .contains(&group_var)
                .then(|| reg_of(&mut regs, group_var));
            let key_regs: Box<[Option<Reg>]> = plan
                .head
                .vars_outside_group()
                .into_iter()
                .map(|z| bound.contains(&z).then(|| reg_of(&mut regs, z)))
                .collect();
            let other: Box<[Expr]> = plan
                .head
                .args
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != group_pos)
                .map(|(_, t)| lower_expr(t, &mut regs, &bound))
                .collect();
            HeadIr::Grouping {
                group_pos,
                group_var,
                group_reg,
                key_regs,
                other,
            }
        }
    };

    let exist_from = step_op.get(plan.exist_from).copied().unwrap_or(ops.len());
    fuse_filters(&mut ops, exist_from);
    RamProgram {
        exist_from,
        ops: ops.into_boxed_slice(),
        step_op: step_op.into_boxed_slice(),
        head,
        scan_preds: plan.scan_steps.iter().map(|&(_, p)| p).collect(),
        nregs: regs.len(),
    }
}

/// Is `op` a filter: an op that only tests registers already bound, and
/// has at most one solution, which writes nothing?
fn is_filter(op: &Op) -> bool {
    matches!(
        op,
        Op::Cmp { .. }
            | Op::Neg { .. }
            | Op::ArithF {
                dst: ArithDst::Check(_),
                ..
            }
    )
}

/// Give each scan the run of filters that directly follows it: its `then`
/// is the first op after that run. The run stops at the first op that is
/// not a filter — `Absent` and `Found` included, so an `_`-negation's ops
/// stay inside their block — and at `exist_from`, where run mode enters the
/// existential tail and counts its cut.
fn fuse_filters(ops: &mut [Op], exist_from: usize) {
    for i in 0..ops.len() {
        let mut j = i + 1;
        while j < ops.len() && j != exist_from && is_filter(&ops[j]) {
            j += 1;
        }
        if let Op::Scan { then, .. } = &mut ops[i] {
            *then = j;
        }
    }
}

/// Render the op sequence for `explain`/`:plan`, one line per op plus a
/// final head-projection line.
pub(crate) fn render(prog: &RamProgram) -> Vec<String> {
    fn expr(e: &Expr) -> String {
        match e {
            Expr::Reg(r) => format!("r{r}"),
            Expr::Const(v) => format!("{}", intern::resolve(*v)),
            Expr::Compound(f, args) => {
                let inner: Vec<String> = args.iter().map(expr).collect();
                format!("{f}({})", inner.join(", "))
            }
            Expr::Set(args) => {
                let inner: Vec<String> = args.iter().map(expr).collect();
                format!("{{{}}}", inner.join(", "))
            }
            Expr::Scons(h, t) => format!("scons({}, {})", expr(h), expr(t)),
            Expr::Arith(op, l, r) => format!("({} {} {})", expr(l), op.name(), expr(r)),
            Expr::Fail => "⊥".into(),
        }
    }
    fn acts(cols: &[(usize, ColAct)]) -> String {
        let inner: Vec<String> = cols
            .iter()
            .map(|(c, a)| match a {
                ColAct::Bind(r) => format!("{c}→r{r}"),
                ColAct::Check(r) => format!("{c}=r{r}"),
                ColAct::Const(v) => format!("{c}={}", intern::resolve(*v)),
                ColAct::Eval(e) => format!("{c}={}", expr(e)),
            })
            .collect();
        format!("[{}]", inner.join(", "))
    }
    let mut out = Vec::with_capacity(prog.ops.len() + 1);
    let mut inside = 0..0;
    for (i, op) in prog.ops.iter().enumerate() {
        let tail = if i >= prog.exist_from { " ∃" } else { "" };
        let line = match op {
            Op::Scan {
                pred,
                index_cols,
                key,
                cols,
                ..
            } => {
                if index_cols.is_empty() {
                    format!("scan {pred} {}{tail}", acts(cols))
                } else {
                    let ks: Vec<String> = key.iter().map(expr).collect();
                    format!(
                        "probe {pred} via {index_cols:?} key [{}] {}{tail}",
                        ks.join(", "),
                        acts(cols)
                    )
                }
            }
            Op::Neg { pred, key } => {
                let ks: Vec<String> = key.iter().map(expr).collect();
                format!("reject {pred}({}){tail}", ks.join(", "))
            }
            Op::Absent { .. } => format!("reject if found:{tail}"),
            Op::Found => format!("found{tail}"),
            Op::Cmp {
                op,
                lhs,
                rhs,
                negated,
            } => {
                let neg = if *negated { "~" } else { "" };
                format!(
                    "filter {neg}({} {} {}){tail}",
                    expr(lhs),
                    op.name(),
                    expr(rhs)
                )
            }
            Op::Assign { dst, src } => format!("let r{dst} = {}{tail}", expr(src)),
            Op::ArithF {
                op,
                x,
                y,
                dst,
                negated,
            } => {
                let neg = if *negated { "~" } else { "" };
                let rhs = format!("({} {} {})", expr(x), op.name(), expr(y));
                match dst {
                    ArithDst::Bind(r) => format!("let r{r} = {neg}{rhs}{tail}"),
                    ArithDst::Check(e) => format!("filter {neg}({} = {rhs}){tail}", expr(e)),
                }
            }
            Op::Builtin {
                builtin,
                args,
                negated,
                ..
            } => {
                let neg = if *negated { "~" } else { "" };
                match builtin {
                    Builtin::Cmp(CmpOp::Eq) => {
                        format!("match {neg}{} = {}{tail}", args[0], args[1])
                    }
                    _ => format!("builtin {neg}{builtin:?}{tail}"),
                }
            }
        };
        // An `Absent`'s ops, through its `Found`, are indented under it.
        let indent = if inside.contains(&i) { "  " } else { "" };
        if let Op::Absent { end } = op {
            inside = i + 1..end + 1;
        }
        out.push(format!("{i}. {indent}{line}"));
    }
    match &prog.head {
        HeadIr::Simple(exprs) => {
            let es: Vec<String> = exprs.iter().map(expr).collect();
            out.push(format!("emit [{}]", es.join(", ")));
        }
        HeadIr::Grouping {
            group_pos,
            group_var,
            group_reg,
            key_regs,
            ..
        } => {
            let g = group_reg.map_or("⊥".into(), |r| format!("r{r}"));
            let ks: Vec<String> = key_regs
                .iter()
                .map(|k| k.map_or("⊥".into(), |r| format!("r{r}")))
                .collect();
            out.push(format!(
                "group <{group_var}>={g} by [{}] at position {group_pos}",
                ks.join(", ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_rule;

    /// `(op, then)` for each scan of the rule's lowered program.
    fn fused(rule: &str) -> Vec<(usize, usize)> {
        let plan = RulePlan::compile(&parse_rule(rule).unwrap(), None).unwrap();
        lower(&plan)
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Scan { then, .. } => Some((i, *then)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_scan_owns_the_filters_that_follow_it() {
        for (rule, want) in [
            // The probe owns the comparison.
            (
                "far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 1000.",
                vec![(0, 1), (1, 3)],
            ),
            // A ground negation, a comparison and an arithmetic check.
            (
                "q(X, Y) <- r(X, Y), ~p(Y), Y > 2, +(X, 1, Y).",
                vec![(0, 4)],
            ),
            // The tail opens at the comparison, which stays unfused.
            ("s(X) <- c(X, Y), Y > 2, b(Y, Z).", vec![(0, 1), (2, 3)]),
            // The run stops at the block, and the block's probe at `found`.
            ("u(X) <- c(X, Y), ~b(X, _), Y > 1.", vec![(0, 2), (3, 4)]),
            // A match step inside the block is fused into its probe.
            ("t(X) <- c(X, Y), ~e(X, _, Y + _).", vec![(0, 1), (2, 4)]),
            // An assignment is not a filter.
            ("v(X, Z) <- c(X, Y), Z = Y + 1, Z > 2.", vec![(0, 1)]),
        ] {
            assert_eq!(fused(rule), want, "{rule}");
        }
    }
}
