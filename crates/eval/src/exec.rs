//! The tight loop that runs lowered `RamProgram`s — the engine's one rule
//! executor.
//!
//! `run_ram` enumerates a body's solutions by driving a flat op list over a
//! dense `ValueId` register file. On entry every op's loop-invariant state —
//! its relation, its hash index, its delta range — is resolved once into a
//! `ROp` table, so the per-tuple path never re-hashes a predicate name or an
//! index descriptor. One function, `exec_op`, interprets every op; it is
//! instantiated per mode — run mode, which hands each solution to the
//! caller, and the existential tail, which stops at the first; an
//! `_`-existential negation runs its ops in the tail's mode too. A scan
//! tests the filters lowering gave it (its `then`) on each matching
//! row in its own loop, so only rows that pass them re-enter `exec_op`;
//! a filter no scan owns is an op of its own. Every relation access is a
//! register op. The one op that bridges to the
//! built-in evaluator, `Builtin` — which also runs a match step, the `=` of
//! a flattened set, `scons`, `<t>` or open compound pattern — seeds a
//! scratch [`Bindings`] from registers and copies solution values back:
//! it is the only place this module reaches the term-tree matcher. A pass
//! counts its index probes and existential cuts in its context and returns
//! them once, when it ends.
//!
//! `tests/differential.rs` pins the result against the reference evaluator
//! ([`crate::model::reference_model`]), which walks plan steps against a
//! binding trail and shares none of this module.

use std::cell::Cell;

use ldl_ast::term::Var;
use ldl_storage::{Database, IndexRef, Relation};
use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::intern;
use ldl_value::ValueId;

use crate::bindings::Bindings;
use crate::builtins::eval_builtin;
use crate::plan::DeltaRestriction;
use crate::ram::{eval_expr, ArithDst, ColAct, Op, RamProgram, Reg};

/// One op's run-invariant state, resolved once per `run_ram` call: the
/// database is frozen for the duration of a pass, so relation pointers,
/// index handles, and the delta range cannot change under the join.
struct ROp<'a> {
    /// The op's relation (scans, all-ground negation).
    rel: Option<&'a Relation>,
    /// The probe index, when the op names key columns the relation has an
    /// index for; `None` falls back to the full scan.
    idx: Option<IndexRef<'a>>,
    /// Scan range start (delta restriction or 0).
    lo: u32,
    /// Scan range end (delta restriction or the relation's length).
    hi: u32,
}

/// Per-run execution context: everything loop-invariant, and the pass's
/// two counters.
struct Ctx<'a> {
    prog: &'a RamProgram,
    rops: Box<[ROp<'a>]>,
    /// Index probes performed.
    probes: Cell<u64>,
    /// Existential short-circuits taken.
    cuts: Cell<u64>,
}

fn resolve<'a>(op: &Op, i: usize, db: &'a Database, restrict: Option<DeltaRestriction>) -> ROp<'a> {
    match op {
        Op::Scan {
            pred, index_cols, ..
        } => {
            let rel = db.relation(*pred);
            let len = rel.map_or(0, |r| r.len() as u32);
            let (lo, hi) = match restrict {
                Some(r) if r.step == i => (r.lo, r.hi),
                _ => (0, len),
            };
            let idx = if index_cols.is_empty() {
                None
            } else {
                rel.and_then(|r| r.index(index_cols))
            };
            ROp { rel, idx, lo, hi }
        }
        Op::Neg { pred, .. } => ROp {
            rel: db.relation(*pred),
            idx: None,
            lo: 0,
            hi: 0,
        },
        _ => ROp {
            rel: None,
            idx: None,
            lo: 0,
            hi: 0,
        },
    }
}

/// Execute a lowered body against `db`, calling `k` once per solution with
/// the register file. `regs` must hold at least `prog.nregs` slots; `b` is
/// the scratch binding environment for `Builtin` ops (left restored). An
/// empty positive scan relation short-circuits the whole pass; `restrict`
/// confines plan step `step` — its first op, the scan — to a delta range.
/// Returns the pass's index probes and existential cuts.
pub(crate) fn run_ram<K: FnMut(&[ValueId])>(
    prog: &RamProgram,
    db: &Database,
    restrict: Option<DeltaRestriction>,
    regs: &mut [ValueId],
    b: &mut Bindings,
    k: &mut K,
) -> (u64, u64) {
    for &pred in prog.scan_preds.iter() {
        if db.relation(pred).is_none_or(|r| r.is_empty()) {
            return (0, 0);
        }
    }
    let restrict = restrict.map(|r| DeltaRestriction {
        step: prog.step_op[r.step],
        ..r
    });
    let rops = prog
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| resolve(op, i, db, restrict))
        .collect();
    let ctx = Ctx {
        prog,
        rops,
        probes: Cell::new(0),
        cuts: Cell::new(0),
    };
    exec_op::<false, _>(&ctx, 0, regs, b, &mut |regs| {
        k(regs);
        false
    });
    (ctx.probes.get(), ctx.cuts.get())
}

/// Match one tuple against a fused column-action list. Bind actions write
/// registers; the caller relies on left-to-right order for repeated-var
/// checks and in-step `Eval` dependencies.
#[inline(always)]
fn match_cols(cols: &[(usize, ColAct)], tuple: &[ValueId], regs: &mut [ValueId]) -> bool {
    for (c, act) in cols {
        let v = tuple[*c];
        match act {
            ColAct::Bind(r) => regs[*r as usize] = v,
            ColAct::Check(r) => {
                if regs[*r as usize] != v {
                    return false;
                }
            }
            ColAct::Const(id) => {
                if *id != v {
                    return false;
                }
            }
            ColAct::Eval(e) => {
                if eval_expr(e, regs) != Some(v) {
                    return false;
                }
            }
        }
    }
    true
}

/// Evaluate the probe-key expressions into the stack/heap buffer (the
/// register counterpart of `probe_key`). `None` ⇒ a key term failed to
/// evaluate — no tuple can match, and no probe is counted.
fn eval_key<'k>(
    key: &[crate::ram::Expr],
    regs: &[ValueId],
    stack: &'k mut [ValueId; 8],
    heap: &'k mut Vec<ValueId>,
) -> Option<&'k [ValueId]> {
    if key.len() <= stack.len() {
        for (slot, e) in stack.iter_mut().zip(key) {
            *slot = eval_expr(e, regs)?;
        }
        Some(&stack[..key.len()])
    } else {
        for e in key {
            heap.push(eval_expr(e, regs)?);
        }
        Some(&heap[..])
    }
}

/// Evaluate an all-ground negation (shared by run and exists modes): the
/// argument expressions in order — a failure means the fact is outside `U`,
/// so ¬ holds — then one hash containment test against the frozen lower
/// layers.
fn neg_op(key: &[crate::ram::Expr], rel: Option<&Relation>, regs: &[ValueId]) -> bool {
    let mut stack = [ValueId::FILLER; 8];
    let mut heap: Vec<ValueId> = Vec::new();
    match eval_key(key, regs, &mut stack, &mut heap) {
        None => true,
        Some(vals) => !rel.is_some_and(|r| r.contains(vals)),
    }
}

/// Evaluate an expression to a native integer *without interning any
/// intermediate*: the win that makes compiled arithmetic filters fast — the
/// interpreter's `eval_ids` hashes every partial sum through the intern
/// table. `None` exactly when the interpreted evaluation would be `None` or
/// a non-integer: a non-integer register or constant, an arithmetic
/// failure, or a shape (compound, set) that can only evaluate to a
/// non-integer. An integer in the immediate range decodes from its id
/// alone, with no interner read.
///
/// Always inlined, with its operands' registers and constants: a filter
/// such as `Y - X > k` then runs as straight-line code in the executor,
/// and only an operand nested deeper takes the out-of-line
/// [`eval_num_nested`].
#[inline(always)]
fn eval_num(e: &crate::ram::Expr, regs: &[ValueId]) -> Option<i64> {
    use crate::ram::Expr;
    match e {
        Expr::Arith(op, l, r) => op.eval_i64(num_operand(l, regs)?, num_operand(r, regs)?),
        _ => num_operand(e, regs),
    }
}

/// [`eval_num`] on an operand: a register or a constant in line.
#[inline(always)]
fn num_operand(e: &crate::ram::Expr, regs: &[ValueId]) -> Option<i64> {
    use crate::ram::Expr;
    match e {
        Expr::Reg(r) => intern::int_of(regs[*r as usize]),
        Expr::Const(v) => intern::int_of(*v),
        Expr::Arith(..) => eval_num_nested(e, regs),
        _ => None,
    }
}

/// [`eval_num`] out of line, for an operand that is itself arithmetic.
#[inline(never)]
fn eval_num_nested(e: &crate::ram::Expr, regs: &[ValueId]) -> Option<i64> {
    eval_num(e, regs)
}

/// Evaluate a fused comparison: `true` exactly when the *positive* literal
/// has a solution (the caller inverts for negation). Both sides integer ⇒
/// compare natively (id equality on interned ints coincides with value
/// equality), in line; otherwise fall back to the out-of-line
/// [`cmp_ids`].
#[inline(always)]
fn cmp_op(op: CmpOp, lhs: &crate::ram::Expr, rhs: &crate::ram::Expr, regs: &[ValueId]) -> bool {
    if let (Some(l), Some(r)) = (eval_num(lhs, regs), eval_num(rhs, regs)) {
        return op.holds(l.cmp(&r));
    }
    cmp_ids(op, lhs, rhs, regs)
}

/// [`cmp_op`] on ids: the interpreter-mirroring path, which handles
/// strings and treats an operand outside `U` as `false` — `eval_term`'s
/// `None` in both of the interpreter's `Cmp` arms.
#[inline(never)]
fn cmp_ids(op: CmpOp, lhs: &crate::ram::Expr, rhs: &crate::ram::Expr, regs: &[ValueId]) -> bool {
    match (eval_expr(lhs, regs), eval_expr(rhs, regs)) {
        (Some(l), Some(r)) => op.eval_ids(l, r) == Some(true),
        _ => false,
    }
}

/// Forward-mode arithmetic result on native integers. `None` exactly when
/// the interpreter's `eval_ids` chain fails: a non-integer operand (no
/// arithmetic shape can evaluate to an integer any other way) or overflow.
fn arith_val(
    op: ArithOp,
    x: &crate::ram::Expr,
    y: &crate::ram::Expr,
    regs: &[ValueId],
) -> Option<i64> {
    op.eval_i64(eval_num(x, regs)?, eval_num(y, regs)?)
}

/// Does the filter `op` hold (`rel` is its resolved relation)? The one
/// implementation of every filter op (`ram::is_filter`), whether
/// [`exec_op`] reaches it or a scan runs it in its row loop.
#[inline(always)]
fn filter_holds(op: &Op, rel: Option<&Relation>, regs: &[ValueId]) -> bool {
    match op {
        Op::Cmp {
            op,
            lhs,
            rhs,
            negated,
        } => cmp_op(*op, lhs, rhs, regs) != *negated,
        Op::Neg { key, .. } => neg_op(key, rel, regs),
        Op::ArithF {
            op,
            x,
            y,
            dst: ArithDst::Check(e),
            negated,
        } => arith_check(*op, x, y, e, regs) != *negated,
        _ => unreachable!("not a filter"),
    }
}

/// [`filter_holds`] out of line, for a filter no scan owns.
#[inline(never)]
fn filter_op(op: &Op, rel: Option<&Relation>, regs: &[ValueId]) -> bool {
    filter_holds(op, rel, regs)
}

/// Do the filters `ops[from..to]` all hold, tested in order? A plain loop:
/// an iterator adaptor here is left out of line.
#[inline(always)]
fn filters_hold(ctx: &Ctx<'_>, from: usize, to: usize, regs: &[ValueId]) -> bool {
    for j in from..to {
        if !filter_holds(&ctx.prog.ops[j], ctx.rops[j].rel, regs) {
            return false;
        }
    }
    true
}

/// Does forward-mode arithmetic `op(x, y)` equal `e`'s value? `false` when
/// either side fails to evaluate to an integer (the positive literal's
/// answer; the caller inverts for negation).
#[inline(never)]
fn arith_check(
    op: ArithOp,
    x: &crate::ram::Expr,
    y: &crate::ram::Expr,
    e: &crate::ram::Expr,
    regs: &[ValueId],
) -> bool {
    matches!((arith_val(op, x, y, regs), eval_num(e, regs)), (Some(z), Some(c)) if z == c)
}

/// The continuation of the existential tail and of an `Absent`'s ops: the
/// first solution is the witness, so it stops the enumeration. A plain
/// `fn`, so the tail is one instantiation of [`exec_op`] whatever the
/// caller's closure type.
fn witness(_: &[ValueId]) -> bool {
    true
}

/// Seed the scratch bindings of a `Builtin` op from registers. Bind-if-absent:
/// values are single-assignment along a derivation path, so a variable
/// already present holds the same id. The caller undoes to its own mark.
#[inline]
fn seed(b: &mut Bindings, in_vars: &[(Var, Reg)], regs: &[ValueId]) {
    for &(v, r) in in_vars {
        if b.get(v).is_none() {
            b.bind(v, regs[r as usize]);
        }
    }
}

/// Copy a `Builtin` op's solution values back into registers.
#[inline]
fn copy_out(b: &Bindings, out_vars: &[(Var, Reg)], regs: &mut [ValueId]) {
    for &(v, r) in out_vars {
        regs[r as usize] = b.get(v).expect("a positive built-in binds its outputs");
    }
}

/// Run the ops from `j` on. `true` means stop enumerating, which only the
/// tail's [`witness`] ever asks for: in run mode the result is the constant
/// `false`, so every `if next(..) { return true }` below folds away there.
/// Past the last op a solution goes straight to `k`, as [`exec_op`] would
/// send it, without re-entering it.
#[inline(always)]
fn next<const TAIL: bool, K: FnMut(&[ValueId]) -> bool>(
    ctx: &Ctx<'_>,
    j: usize,
    regs: &mut [ValueId],
    b: &mut Bindings,
    k: &mut K,
) -> bool {
    if j == ctx.prog.ops.len() {
        return k(regs) && TAIL;
    }
    exec_op::<TAIL, K>(ctx, j, regs, b, k) && TAIL
}

/// Enumerate the solutions of `ops[i..]`, calling `k` on each until it asks
/// to stop; returns whether it did. Run mode (`TAIL = false`) never stops.
/// On reaching the plan's existential tail it re-enters in tail mode with
/// [`witness`] as the continuation — same ops, same probes, same order, but
/// the first solution ends the enumeration.
fn exec_op<const TAIL: bool, K: FnMut(&[ValueId]) -> bool>(
    ctx: &Ctx<'_>,
    i: usize,
    regs: &mut [ValueId],
    b: &mut Bindings,
    k: &mut K,
) -> bool {
    if !TAIL && i == ctx.prog.exist_from && i < ctx.prog.ops.len() {
        // One witness suffices, and the head registers are already final
        // (tail ops bind no head variable).
        if exec_op::<true, fn(&[ValueId]) -> bool>(ctx, i, regs, b, &mut (witness as _)) {
            ctx.cuts.set(ctx.cuts.get() + 1);
            k(regs);
        }
        return false;
    }
    let Some(op) = ctx.prog.ops.get(i) else {
        return k(regs);
    };
    match op {
        Op::Scan {
            key,
            cols,
            probe_cols,
            then,
            ..
        } => {
            // The scan's fused filters run in its row loop, on each row
            // that matches, and a row that passes them goes on at `then`.
            let then = *then;
            let r = &ctx.rops[i];
            let Some(rel) = r.rel else {
                return false;
            };
            if rel.is_empty() {
                return false;
            }
            if let Some(idx) = r.idx {
                let mut stack = [ValueId::FILLER; 8];
                let mut heap: Vec<ValueId> = Vec::new();
                let Some(probe) = eval_key(key, regs, &mut stack, &mut heap) else {
                    return false;
                };
                ctx.probes.set(ctx.probes.get() + 1);
                for &pos in idx.probe(probe) {
                    if pos >= r.lo
                        && pos < r.hi
                        && match_cols(probe_cols, rel.get(pos), regs)
                        && filters_hold(ctx, i + 1, then, regs)
                        && next::<TAIL, K>(ctx, then, regs, b, k)
                    {
                        return true;
                    }
                }
                return false;
            }
            for pos in r.lo..r.hi {
                if rel.is_live(pos)
                    && match_cols(cols, rel.get(pos), regs)
                    && filters_hold(ctx, i + 1, then, regs)
                    && next::<TAIL, K>(ctx, then, regs, b, k)
                {
                    return true;
                }
            }
            false
        }
        Op::Cmp { .. }
        | Op::Neg { .. }
        | Op::ArithF {
            dst: ArithDst::Check(_),
            ..
        } => filter_op(op, ctx.rops[i].rel, regs) && next::<TAIL, K>(ctx, i + 1, regs, b, k),
        Op::Absent { end } => {
            // Its first solution refutes the negation. Its ops write only
            // their own fresh registers, so nothing leaks past it.
            let found =
                exec_op::<true, fn(&[ValueId]) -> bool>(ctx, i + 1, regs, b, &mut (witness as _));
            !found && exec_op::<TAIL, K>(ctx, *end + 1, regs, b, k) && TAIL
        }
        Op::Found => k(regs),
        Op::Assign { dst, src } => match eval_expr(src, regs) {
            Some(v) => {
                regs[*dst as usize] = v;
                next::<TAIL, K>(ctx, i + 1, regs, b, k)
            }
            None => false,
        },
        Op::ArithF {
            op,
            x,
            y,
            dst: ArithDst::Bind(r),
            ..
        } => match arith_val(*op, x, y, regs) {
            Some(z) => {
                regs[*r as usize] = intern::mk_int(z);
                next::<TAIL, K>(ctx, i + 1, regs, b, k)
            }
            None => false,
        },
        Op::Builtin {
            builtin,
            args,
            negated,
            in_vars,
            out_vars,
        } => {
            let m = b.mark();
            seed(b, in_vars, regs);
            if *negated {
                let mut any = false;
                eval_builtin(*builtin, args, b, &mut |_| any = true);
                b.undo(m);
                !any && next::<TAIL, K>(ctx, i + 1, regs, b, k)
            } else {
                let mut stop = false;
                eval_builtin(*builtin, args, b, &mut |b2| {
                    if !stop {
                        copy_out(b2, out_vars, regs);
                        stop = next::<TAIL, K>(ctx, i + 1, regs, b2, k);
                    }
                });
                b.undo(m);
                stop
            }
        }
    }
}
