//! RAM-style intermediate representation: lowering [`RulePlan`]s into flat
//! register-machine programs.
//!
//! Interpreting a plan walks term trees per tuple. Lowering takes that out
//! of the hot loop: a `RamProgram` is a `Vec<Op>` over a dense file of
//! [`ValueId`] registers, in which
//!
//! * simple columns are `bind r` / `check r` / `const #id` actions, with
//!   constants interned (and integers decoded) once, at lowering time;
//! * any other column pattern — `{X, Y}`, `scons(H, T)`, `<t>`, a compound
//!   with an unbound variable or a nested `_` — binds a fresh register, and
//!   after the scan those columns are matched: one the plain columns leave
//!   ground is a comparison, and the rest are one *match step* over all of
//!   them, `rN = p, rM = q`;
//! * every built-in literal the fused ops below do not cover, and every
//!   match step, is one `Op::Builtin` whose arguments are fixed here
//!   (`Matching`): a ground one is an `Expr`, any other a register
//!   pattern `Pat`, so the built-in's mode is chosen once, here;
//! * probe keys, negations and the head are `Expr`s over registers, and an
//!   `_`-negation runs its literal's own scan and match steps to their
//!   first solution;
//! * a scan owns the filters that directly follow it (`fuse_filters`), and
//!   one whose columns all bind and whose one filter is an integer test on
//!   one row value also gets a `RowForm`, run on native integers;
//! * a query's ground arguments are *entry* variables: bound before the
//!   first op, in the first registers, which `run_ram` seeds per read.
//!
//! A plan step lowers to one op or several: `RamProgram::step_op` maps each
//! step to its first op, which a
//! [`DeltaRestriction`](crate::plan::DeltaRestriction) naming the step
//! restricts, and the existential tail starts at `step_op[exist_from]`.
//! A rule's plan is lowered once, through `RulePlan::lowered`'s
//! `OnceLock`: the pass that finds it empty counts it in
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

/// A register-evaluable term: a ground term with constants pre-interned
/// and variables resolved to registers. `Fail` marks positions that can
/// never evaluate (`_`, `<t>`, or a variable the body never binds): a term
/// with one has no value, made static.
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
    /// Arithmetic, overflow and non-integers outside `U`.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Never evaluates (outside `U`).
    Fail,
}

/// Evaluate a compiled expression against the register file: `None` when
/// the term's value is outside `U` (`scons` onto a non-set, arithmetic on
/// a non-integer or overflowing).
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
        /// `cols` minus the index-key columns, for the probed path; empty
        /// when there is no index key (no probe).
        probe_cols: Box<[(usize, ColAct)]>,
        /// The first op after the scan's fused filters.
        then: usize,
        /// The pre-decoded row form, when the scan has one (see
        /// [`fuse_filters`]).
        form: Option<RowForm>,
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
    /// and `/=`, plus `=` when the matched side is [`eval_matchable`]. An
    /// operand outside `U` fails the positive literal and satisfies the
    /// negated one, as in [`eval_builtin`](crate::builtins::eval_builtin).
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
    /// outside `U` derives nothing.
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
    /// A built-in literal, or a match step, on registers. Each argument
    /// was fixed at lowering as an [`Arg`]: the built-in's mode follows
    /// from which are [`Arg::Expr`], and [`eval_builtin`] matches the rest
    /// against what it computes, sending each solution on. A match step is
    /// `=` over pairs: each fresh column register against its pattern,
    /// then each [`Wait`]'s register against its expression.
    ///
    /// [`eval_builtin`]: crate::builtins::eval_builtin
    Builtin {
        /// Which built-in.
        builtin: Builtin,
        /// The arguments: a match step's are `r₁, p₁, r₂, p₂, …`.
        args: Box<[Arg]>,
        /// Negated built-ins are fully bound and act as filters.
        negated: bool,
    },
}

/// A built-in's argument, or one side of a match: ground where the
/// literal runs, or a pattern.
#[derive(Clone, Debug)]
pub(crate) enum Arg {
    /// Every variable bound before the literal: evaluated, an input.
    Expr(Expr),
    /// Matched against a value.
    Pat(Pat),
}

/// A register pattern: a non-ground term with each variable resolved, in
/// match order, to the register it writes or reads. Matching it against a
/// value ([`crate::builtins::match_pat`]) has a solution per way the term
/// can evaluate to the value — several for a set pattern (§1).
#[derive(Clone, Debug)]
pub(crate) enum Pat {
    /// `_`: matches anything.
    Any,
    /// A variable's first occurrence in match order: write the value.
    Bind(Reg),
    /// A later occurrence, or a variable bound before the match.
    Check(Reg),
    /// A constant, interned at lowering.
    Const(ValueId),
    /// `f(p₁, …, pₙ)`.
    Compound(Symbol, Box<[Pat]>),
    /// `{p₁, …, pₙ}`: the elements, each matched to some element of the
    /// set, together covering it.
    Set(Box<[Pat]>),
    /// `scons(h, t)`: `h` an element of the set, `t` the set with or
    /// without it.
    Scons(Box<Pat>, Box<Pat>),
    /// `<t>` (§4.1): each element has `t`'s structure (the second pattern,
    /// over fresh registers), then `t` against each element.
    Group(Box<Pat>, Box<(Pat, Box<[Wait]>)>),
    /// Arithmetic whose operands are bound where it stands: evaluated and
    /// compared.
    Arith(Expr),
}

/// Arithmetic met in a match before its operands were bound: the register
/// that took the value in its place, and the expression the value must
/// equal once the whole match is done. Arithmetic never binds, so waiting
/// changes no solution.
pub(crate) type Wait = (Reg, Expr);

/// A scan's pre-decoded row form: every column the probed path matches
/// binds a fresh register, and its fused filters are none or one
/// [`IntTest`]. A row then needs no `ColAct` dispatch and no expression
/// walk; whatever the test cannot decide on native integers, the filter
/// op itself decides (`exec::filters_hold`).
#[derive(Clone, Debug)]
pub(crate) struct RowForm {
    /// `(column, register)` for each column of the probed path (of the
    /// full scan, when there is no index key; with one, a key column is a
    /// check on the full-scan path, which keeps the general loop).
    pub(crate) binds: Box<[(usize, Reg)]>,
    /// The one fused filter, if the scan has one.
    pub(crate) test: Option<IntTest>,
}

/// A fused filter as an integer test on one row value: `a cmp c`, or
/// `(a op b) cmp c`, inverted when negated, with exactly one operand a
/// [`IntOpd::Row`]. A comparison with its arithmetic on the right is
/// stored mirrored; an arithmetic check `op(x, y, z)` is `(x op y) = z`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct IntTest {
    /// The left operand.
    pub(crate) a: IntOpd,
    /// The left side's arithmetic and its second operand, if any.
    pub(crate) arith: Option<(ArithOp, IntOpd)>,
    /// The comparison.
    pub(crate) cmp: CmpOp,
    /// The right operand.
    pub(crate) c: IntOpd,
    /// `~`-negated: the test is inverted.
    pub(crate) negated: bool,
}

/// An operand of an [`IntTest`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum IntOpd {
    /// A column of the scanned row (a register the scan binds).
    Row(usize),
    /// A register bound before the scan: decoded once per scan entry.
    Reg(Reg),
    /// An integer constant, decoded at lowering.
    Int(i64),
}

/// `op` with its operands swapped: `l op r` ⇔ `r mirrored(op) l`.
pub(crate) fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Destination of a forward-mode arithmetic result (see [`Op::ArithF`]).
#[derive(Clone, Debug)]
pub(crate) enum ArithDst {
    /// Bind the result to a register (the third argument is a free
    /// plain variable).
    Bind(Reg),
    /// The result must equal this expression's value (the match of an
    /// [`eval_matchable`] third argument).
    Check(Expr),
}

/// The compiled head projection.
#[derive(Clone, Debug)]
pub(crate) enum HeadIr {
    /// Project one expression per head argument, in order.
    Simple(Box<[Expr]>),
    /// §2.2 grouping: partition solutions by the `Z̄` registers, collect the
    /// group register's values per class.
    Grouping(GroupHead),
}

/// A lowered §2.2 grouping head.
#[derive(Clone, Debug)]
pub(crate) struct GroupHead {
    /// Head argument position of the `<X>`.
    pub(crate) group_pos: usize,
    /// The grouped variable (for diagnostics).
    pub(crate) group_var: Var,
    /// The grouped variable's register; `None` if the body never binds
    /// it (a well-formedness escape, reported at run time).
    pub(crate) group_reg: Option<Reg>,
    /// One register per `Z̄` variable, in `vars_outside_group` order.
    pub(crate) key_regs: Box<[Option<Reg>]>,
    /// The non-group head arguments, in order (evaluated once per
    /// distinct key).
    pub(crate) other: Box<[Expr]>,
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
    /// The scan op of each positive relation literal, for the
    /// empty-relation check.
    pub(crate) scan_ops: Box<[usize]>,
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
    args.iter().for_each(|t| t.vars(&mut vs));
    vs
}

/// Lower one term to an expression. Variables outside `bound` — and the
/// never-evaluable `_` / `<t>` shapes — become [`Expr::Fail`]: a term with
/// one of them has no value.
pub(crate) fn lower_expr(t: &Term, regs: &mut FastMap<Var, Reg>, bound: &FastSet<Var>) -> Expr {
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

/// A fresh register `rN`, held by a variable named so. No rule variable
/// is: LDL1 variables start with an upper-case letter or `_`, and
/// generated ones carry a `'`.
fn fresh(regs: &mut FastMap<Var, Reg>) -> Reg {
    reg_of(regs, Var::new(&format!("r{}", regs.len())))
}

/// The lowering of one whole match: patterns in match order, with the
/// variables bound so far and the arithmetic waiting for the end.
pub(crate) struct Matching<'r> {
    regs: &'r mut FastMap<Var, Reg>,
    bound: FastSet<Var>,
    waits: Vec<(Reg, Term)>,
}

impl<'r> Matching<'r> {
    /// A match that starts with the variables in `bound` bound.
    pub(crate) fn new(regs: &'r mut FastMap<Var, Reg>, bound: FastSet<Var>) -> Matching<'r> {
        Matching {
            regs,
            bound,
            waits: Vec::new(),
        }
    }

    /// Lower a literal's arguments: each one ground under `entry`, the
    /// variables bound before the literal, is an [`Arg::Expr`], and the
    /// others are patterns, in argument order.
    pub(crate) fn args(&mut self, args: &[Term], entry: &FastSet<Var>) -> Box<[Arg]> {
        (args.iter())
            .map(|t| match term_bound(t, entry) {
                true => Arg::Expr(lower_expr(t, self.regs, entry)),
                false => Arg::Pat(self.pat(t)),
            })
            .collect()
    }

    /// Lower `t` as the next pattern of the match.
    pub(crate) fn pat(&mut self, t: &Term) -> Pat {
        match t {
            Term::Anon => Pat::Any,
            Term::Var(v) if self.bound.insert(*v) => Pat::Bind(reg_of(self.regs, *v)),
            Term::Var(v) => Pat::Check(reg_of(self.regs, *v)),
            Term::Const(c) => Pat::Const(intern::id_of(c)),
            Term::Compound(f, args) => {
                Pat::Compound(*f, args.iter().map(|a| self.pat(a)).collect())
            }
            Term::SetEnum(args) => Pat::Set(args.iter().map(|a| self.pat(a)).collect()),
            Term::Scons(h, tail) => Pat::Scons(Box::new(self.pat(h)), Box::new(self.pat(tail))),
            Term::Group(inner) => {
                // The structure check runs in a scope of its own, like the
                // fresh-variable copy of `t` in the paper's `collect` rule.
                let mut vs = Vec::new();
                inner.vars(&mut vs);
                let renamed: Vec<(Var, Term)> = (vs.iter())
                    .map(|&v| (v, Term::var(&format!("r{}", fresh(self.regs)))))
                    .collect();
                let rename = |v: Var| {
                    renamed
                        .iter()
                        .find(|(u, _)| *u == v)
                        .map(|(_, t)| t.clone())
                };
                let mut scope = Matching::new(self.regs, FastSet::default());
                let shape = scope.pat(&inner.substitute(&rename));
                let shape = (shape, scope.finish().0);
                Pat::Group(Box::new(self.pat(inner)), Box::new(shape))
            }
            Term::Arith(..) if term_bound(t, &self.bound) => {
                Pat::Arith(lower_expr(t, self.regs, &self.bound))
            }
            Term::Arith(..) => {
                let r = fresh(self.regs);
                self.waits.push((r, t.clone()));
                Pat::Bind(r)
            }
        }
    }

    /// The waiting arithmetic, over what the whole match bound, and the
    /// variables bound after it.
    pub(crate) fn finish(self) -> (Box<[Wait]>, FastSet<Var>) {
        let (regs, bound) = (self.regs, self.bound);
        let waits = (self.waits.iter())
            .map(|(r, t)| (*r, lower_expr(t, regs, &bound)))
            .collect();
        (waits, bound)
    }
}

/// Is matching pattern `t` against a ground value equivalent to evaluating
/// `t` and comparing interned ids? True for the deterministic single-
/// solution shapes: a bound variable, a constant, a compound of such, and
/// arithmetic over bound variables (whose match *is* eval-and-compare).
/// Set patterns (`{…}`, `scons`), `<t>`, `_`, unbound variables and
/// arithmetic that waits for one match by decomposition or bind — not
/// expressible as a register comparison.
fn eval_matchable(t: &Term, bound: &FastSet<Var>) -> bool {
    match t {
        Term::Var(v) => bound.contains(v),
        Term::Const(_) => true,
        Term::Compound(_, args) => args.iter().all(|a| eval_matchable(a, bound)),
        Term::Arith(..) => {
            let mut vs = Vec::new();
            t.vars(&mut vs);
            vs.iter().all(|v| bound.contains(v))
        }
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
/// fused op decides one mode of [`eval_builtin`](crate::builtins::eval_builtin)
/// on registers alone: comparisons and `=` with an eval-matchable matched
/// side become [`Op::Cmp`], `=` binding a fresh variable becomes
/// [`Op::Assign`], forward-mode arithmetic becomes [`Op::ArithF`]. Every
/// other literal is an [`Op::Builtin`] over its lowered arguments.
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
    let mut m = Matching::new(regs, bound.clone());
    let args = m.args(args, bound);
    // A built-in matches no arithmetic before it is bound (`can_schedule`).
    debug_assert!(m.finish().0.is_empty(), "{builtin:?} waits");
    Op::Builtin {
        builtin,
        args,
        negated,
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
            // `=` matches the side opposite the first ground one;
            // `eval_ids(Eq)` is id equality, which coincides with the
            // match exactly when the matched side is eval-matchable.
            let matched = if g0 { &args[1] } else { &args[0] };
            if eval_matchable(matched, bound) {
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
                return None; // inverse modes: `Op::Builtin`
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
/// before it. Columns are walked left-to-right with a running bound set: a
/// repeated variable — `e(X, X)` — binds at its first column and checks at
/// the second, and a ground complex term compares ids. Any other column
/// binds a fresh register, and after the scan those columns are matched:
/// one that the plain columns leave eval-matchable is a filter `rN = e`,
/// and the rest are one match step over all of them, `rN = p, rM = q, …`
/// in column order, so arithmetic in one waits for the variables the
/// others bind. Matching after every plain column keeps a row's solutions
/// in the matcher's order: binding a variable before a pattern only prunes
/// the pattern's solutions to those that agree with it.
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
    let mut cols: Vec<(usize, ColAct)> = Vec::with_capacity(args.len());
    let mut complex: Vec<(Reg, &Term)> = Vec::new();
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
                let r = fresh(regs);
                complex.push((r, t));
                ColAct::Bind(r)
            }
        };
        cols.push((c, act));
    }
    let probe_cols: Box<[(usize, ColAct)]> = match index_cols {
        [] => Box::default(),
        _ => cols
            .iter()
            .filter(|(c, _)| !index_cols.contains(c))
            .cloned()
            .collect(),
    };
    ops.push(Op::Scan {
        pred,
        index_cols: index_cols.into(),
        key,
        cols: cols.into_boxed_slice(),
        probe_cols,
        then: 0,    // set by `fuse_filters`
        form: None, // likewise
    });
    for &(r, t) in complex.iter().filter(|(_, t)| eval_matchable(t, &cur)) {
        ops.push(Op::Cmp {
            op: CmpOp::Eq,
            lhs: Expr::Reg(r),
            rhs: lower_expr(t, regs, &cur),
            negated: false,
        });
    }
    let open: Vec<(Reg, &Term)> = (complex.into_iter())
        .filter(|(_, t)| !eval_matchable(t, &cur))
        .collect();
    let mut m = Matching::new(regs, cur);
    let mut pairs = Vec::new();
    for (r, t) in open {
        pairs.extend([Arg::Expr(Expr::Reg(r)), Arg::Pat(m.pat(t))]);
    }
    if !pairs.is_empty() {
        for (r, e) in m.finish().0 {
            pairs.extend([Arg::Expr(Expr::Reg(r)), Arg::Expr(e)]);
        }
        ops.push(Op::Builtin {
            builtin: Builtin::Cmp(CmpOp::Eq),
            args: pairs.into(),
            negated: false,
        });
    }
}

/// Lower a compiled plan into a flat register program, the `entry`
/// variables (a query's ground arguments) bound in its first registers.
pub(crate) fn lower(plan: &RulePlan, entry: &[Var]) -> RamProgram {
    lower_named(plan, entry).0
}

/// [`lower`], and the variable each register holds.
fn lower_named(plan: &RulePlan, entry: &[Var]) -> (RamProgram, FastMap<Var, Reg>) {
    let mut regs: FastMap<Var, Reg> = FastMap::default();
    for &v in entry {
        reg_of(&mut regs, v);
    }
    let mut bound: FastSet<Var> = entry.iter().copied().collect();
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

    let head = lower_head(plan, &mut regs, &bound);
    let exist_from = step_op.get(plan.exist_from).copied().unwrap_or(ops.len());
    fuse_filters(&mut ops, exist_from);
    let prog = RamProgram {
        exist_from,
        ops: ops.into_boxed_slice(),
        scan_ops: plan.scan_steps.iter().map(|&(s, _)| step_op[s]).collect(),
        step_op: step_op.into_boxed_slice(),
        head,
        nregs: regs.len(),
    };
    (prog, regs)
}

/// Lower a plan's head over the variables its body binds, `bound`.
pub(crate) fn lower_head(
    plan: &RulePlan,
    regs: &mut FastMap<Var, Reg>,
    bound: &FastSet<Var>,
) -> HeadIr {
    match plan.head_kind {
        HeadKind::Simple => HeadIr::Simple(
            plan.head
                .args
                .iter()
                .map(|t| lower_expr(t, regs, bound))
                .collect(),
        ),
        HeadKind::Grouping {
            group_pos,
            group_var,
        } => {
            let group_reg = bound.contains(&group_var).then(|| reg_of(regs, group_var));
            let key_regs: Box<[Option<Reg>]> = plan
                .head
                .vars_outside_group()
                .into_iter()
                .map(|z| bound.contains(&z).then(|| reg_of(regs, z)))
                .collect();
            let other: Box<[Expr]> = plan
                .head
                .args
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != group_pos)
                .map(|(_, t)| lower_expr(t, regs, bound))
                .collect();
            HeadIr::Grouping(GroupHead {
                group_pos,
                group_var,
                group_reg,
                key_regs,
                other,
            })
        }
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
/// existential tail and counts its cut. A scan whose probed columns all
/// bind and whose run is empty or one integer test on one row value also
/// gets its [`RowForm`].
fn fuse_filters(ops: &mut [Op], exist_from: usize) {
    for i in 0..ops.len() {
        let mut j = i + 1;
        while j < ops.len() && j != exist_from && is_filter(&ops[j]) {
            j += 1;
        }
        let row_form = row_form(&ops[i], &ops[i + 1..j]);
        if let Op::Scan { then, form, .. } = &mut ops[i] {
            *then = j;
            *form = row_form;
        }
    }
}

/// The row form of `scan`, given the filters it owns, if it has one.
fn row_form(scan: &Op, filters: &[Op]) -> Option<RowForm> {
    let Op::Scan {
        index_cols,
        cols,
        probe_cols,
        ..
    } = scan
    else {
        return None;
    };
    let matched = if index_cols.is_empty() {
        cols
    } else {
        probe_cols
    };
    let bind = |(c, act): &(usize, ColAct)| match act {
        ColAct::Bind(r) => Some((*c, *r)),
        _ => None,
    };
    if filters.len() > 1 || !matched.iter().all(|col| bind(col).is_some()) {
        return None;
    }
    // An exact-size slice: lowering runs in every cold operation, and a
    // grown `Vec` would cost a second allocation to shrink.
    let mut binds = Vec::with_capacity(matched.len());
    binds.extend(matched.iter().filter_map(bind));
    let test = match filters {
        [f] => Some(int_test(f, &binds)?),
        _ => None,
    };
    Some(RowForm {
        binds: binds.into(),
        test,
    })
}

/// `filter` as an integer test, when each of its operands is a register
/// or an integer constant, at most one side is one level of arithmetic,
/// and exactly one operand is a register in `binds`, named by its row
/// column.
fn int_test(filter: &Op, binds: &[(usize, Reg)]) -> Option<IntTest> {
    let opd = |e: &Expr| match e {
        Expr::Reg(r) => Some(
            binds
                .iter()
                .find(|(_, b)| b == r)
                .map_or(IntOpd::Reg(*r), |&(c, _)| IntOpd::Row(c)),
        ),
        Expr::Const(v) => intern::int_of(*v).map(IntOpd::Int),
        _ => None,
    };
    let side = |e: &Expr| match e {
        Expr::Arith(op, l, r) => Some((opd(l)?, Some((*op, opd(r)?)))),
        e => Some((opd(e)?, None)),
    };
    let test = match filter {
        Op::Cmp {
            op,
            lhs,
            rhs,
            negated,
        } => {
            let (l, r) = (side(lhs)?, side(rhs)?);
            let (a, arith, cmp, c) = match (l, r) {
                ((a, arith), (c, None)) => (a, arith, *op, c),
                ((c, None), (a, arith)) => (a, arith, mirrored(*op), c),
                _ => return None,
            };
            IntTest {
                a,
                arith,
                cmp,
                c,
                negated: *negated,
            }
        }
        Op::ArithF {
            op,
            x,
            y,
            dst: ArithDst::Check(z),
            negated,
        } => IntTest {
            a: opd(x)?,
            arith: Some((*op, opd(y)?)),
            cmp: CmpOp::Eq,
            c: opd(z)?,
            negated: *negated,
        },
        _ => return None,
    };
    let rows = [Some(test.a), test.arith.map(|(_, b)| b), Some(test.c)]
        .into_iter()
        .flatten()
        .filter(|o| matches!(o, IntOpd::Row(_)))
        .count();
    (rows == 1).then_some(test)
}

/// Render a plan's lowered op sequence for `explain`/`:plan`, one line
/// per op plus a final head-projection line. Ops read registers, `rN`; a
/// match shows its patterns over the variables they bind.
pub(crate) fn render(plan: &RulePlan) -> Vec<String> {
    type Name<'n> = &'n dyn Fn(Reg) -> String;
    fn show(e: &Expr, name: Name<'_>) -> String {
        let list = |es: &[Expr]| {
            es.iter()
                .map(|e| show(e, name))
                .collect::<Vec<_>>()
                .join(", ")
        };
        match e {
            Expr::Reg(r) => name(*r),
            Expr::Const(v) => format!("{}", intern::resolve(*v)),
            Expr::Compound(f, args) => format!("{f}({})", list(args)),
            Expr::Set(args) => format!("{{{}}}", list(args)),
            Expr::Scons(h, t) => format!("scons({}, {})", show(h, name), show(t, name)),
            Expr::Arith(op, l, r) => {
                format!("({} {} {})", show(l, name), op.name(), show(r, name))
            }
            Expr::Fail => "⊥".into(),
        }
    }
    fn pat(p: &Pat, name: Name<'_>) -> String {
        let list = |ps: &[Pat]| {
            ps.iter()
                .map(|p| pat(p, name))
                .collect::<Vec<_>>()
                .join(", ")
        };
        match p {
            Pat::Any => "_".into(),
            Pat::Bind(r) | Pat::Check(r) => name(*r),
            Pat::Const(v) => format!("{}", intern::resolve(*v)),
            Pat::Compound(f, ps) => format!("{f}({})", list(ps)),
            Pat::Set(ps) => format!("{{{}}}", list(ps)),
            Pat::Scons(h, t) => format!("scons({}, {})", pat(h, name), pat(t, name)),
            Pat::Group(elem, _) => format!("<{}>", pat(elem, name)),
            Pat::Arith(e) => show(e, name),
        }
    }
    fn arg(a: &Arg, name: Name<'_>) -> String {
        match a {
            Arg::Expr(e) => show(e, name),
            Arg::Pat(p) => pat(p, name),
        }
    }
    fn acts(cols: &[(usize, ColAct)]) -> String {
        let inner: Vec<String> = cols
            .iter()
            .map(|(c, a)| match a {
                ColAct::Bind(r) => format!("{c}→r{r}"),
                ColAct::Check(r) => format!("{c}=r{r}"),
                ColAct::Const(v) => format!("{c}={}", intern::resolve(*v)),
                ColAct::Eval(e) => format!("{c}={}", show(e, &|r| format!("r{r}"))),
            })
            .collect();
        format!("[{}]", inner.join(", "))
    }
    let (prog, vars) = lower_named(plan, &[]);
    let mut names = vec![""; prog.nregs];
    for (v, r) in &vars {
        names[*r as usize] = v.name();
    }
    let var = |r: Reg| names[r as usize].to_string();
    let reg = |r: Reg| format!("r{r}");
    let expr = |e: &Expr| show(e, &reg);
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
            } => {
                let neg = if *negated { "~" } else { "" };
                match builtin {
                    Builtin::Cmp(CmpOp::Eq) => {
                        let eqs: Vec<String> = (args.chunks(2))
                            .map(|p| format!("{} = {}", arg(&p[0], &var), arg(&p[1], &var)))
                            .collect();
                        format!("match {neg}{}{tail}", eqs.join(", "))
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
        HeadIr::Grouping(GroupHead {
            group_pos,
            group_var,
            group_reg,
            key_regs,
            ..
        }) => {
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
        lower(&plan, &[])
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Scan { then, .. } => Some((i, *then)),
                _ => None,
            })
            .collect()
    }

    /// A scan's form as `(binds, test)`.
    type FormParts = (Vec<(usize, Reg)>, Option<IntTest>);

    /// `(op, form)` for each scan of the rule's lowered program.
    fn forms(rule: &str) -> Vec<(usize, Option<FormParts>)> {
        let plan = RulePlan::compile(&parse_rule(rule).unwrap(), None).unwrap();
        lower(&plan, &[])
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Scan { form, .. } => {
                    Some((i, form.as_ref().map(|f| (f.binds.to_vec(), f.test))))
                }
                _ => None,
            })
            .collect()
    }

    /// A scan gets a row form exactly when its probed columns all bind and
    /// it owns no filter, or one integer test on one row value over
    /// registers and constants.
    #[test]
    fn a_scan_gets_a_row_form_when_its_columns_bind_and_its_test_is_integer() {
        let test = |a, arith, cmp, c| IntTest {
            a,
            arith,
            cmp,
            c,
            negated: false,
        };
        use IntOpd::{Int, Reg as R, Row};
        // The outer scan binds both columns and tests nothing; the probe
        // binds `Y` (column 1) and tests it against `X`, bound before it.
        let far = test(Row(1), Some((ArithOp::Sub, R(0))), CmpOp::Gt, Int(1000));
        assert_eq!(
            forms("far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 1000."),
            [
                (0, Some((vec![(0, 0), (1, 1)], None))),
                (1, Some((vec![(1, 2)], Some(far)))),
            ]
        );
        // The comparison is stored mirrored, with its arithmetic on the
        // left: `(X + 1) < Y`, the row value on the right.
        let mirrored = test(R(0), Some((ArithOp::Add, Int(1))), CmpOp::Lt, Row(0));
        assert_eq!(
            forms("d(Y) <- b(X), c(Y), Y > X + 1."),
            [
                (0, Some((vec![(0, 0)], None))),
                (1, Some((vec![(0, 1)], Some(mirrored)))),
            ]
        );
        // A negated arithmetic check, `(X + 2) = Y` inverted.
        let check = IntTest {
            negated: true,
            ..test(R(0), Some((ArithOp::Add, Int(2))), CmpOp::Eq, Row(1))
        };
        assert_eq!(
            forms("e(X, Y) <- a(X), b(X, Y), ~+(X, 2, Y)."),
            [
                (0, Some((vec![(0, 0)], None))),
                (1, Some((vec![(1, 1)], Some(check)))),
            ]
        );
        // The constant column is the probe's key: the probed path binds
        // `X` alone, and the full scan, which checks the constant, keeps
        // the general loop.
        let gt = test(Row(0), None, CmpOp::Gt, Int(1));
        assert_eq!(
            forms("k(X) <- c(X, 3), X > 1."),
            [(0, Some((vec![(0, 0)], Some(gt))))]
        );
        // A test that reads two row values, and two tests: no form.
        assert_eq!(forms("l(X) <- c(X, Y), X < Y."), [(0, None)]);
        assert_eq!(
            forms("d(X, Y) <- c(X, Y), X > 10, +(X, 1, Y)."),
            [(0, None)]
        );
        // A ground negation: no form.
        assert_eq!(forms("q(X, Y) <- r(X, Y), ~p(Y)."), [(0, None)]);
        // A string constant: no form.
        assert_eq!(forms("n(X) <- name(X), X > \"bob\"."), [(0, None)]);
        // The block's probe binds its pattern column, but the match step
        // `r = Y + _` can never evaluate: no form there.
        assert_eq!(
            forms("t(X) <- c(X, Y), ~e(X, _, Y + _)."),
            [(0, Some((vec![(0, 0), (1, 1)], None))), (2, None)]
        );
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
