//! The tight loop that runs lowered `RamProgram`s — the engine's one
//! executor, for every rule pass and every query read.
//!
//! `run_ram` enumerates a body's solutions by driving a flat op list over a
//! dense `ValueId` register file. On entry every op's loop-invariant state —
//! its relation, its hash index, its delta range — is resolved once into a
//! `ROp` table, so the per-tuple path never re-hashes a predicate name or an
//! index descriptor. One function, `exec_op`, interprets every op; it is
//! instantiated once per mode — run mode, which sends each solution to the
//! pass's `Out`, and the existential tail (or an `_`-negation's block),
//! which stops at the first. The `Out` is one concrete type whatever the
//! head: its `Sink` projects the head, projects it and drops a repeat (a
//! marked pass), or partitions the solutions (§2.2). A scan tests the
//! filters lowering gave it on each matching row in its own loop, and one
//! with a row form (`RowForm`) tests its one integer filter on native
//! integers (`Lin`), leaving to the filter op (`filters_hold`) only what
//! that test cannot decide. The one op that bridges to the built-in
//! evaluator, `Builtin` — which also runs a match step, the `=` of a set,
//! `scons`, `<t>` or open compound pattern — seeds a scratch [`Bindings`]
//! from registers and copies solution values back: it is the only place
//! this module reaches the term-tree matcher. A pass counts its index
//! probes and existential cuts in its context and returns them when it
//! ends.
//!
//! `tests/differential.rs` pins the result against the reference evaluator
//! ([`crate::model::reference_model`]), which walks plan steps against a
//! binding trail and shares none of this module.

use std::cell::Cell;

use ldl_ast::term::Var;
use ldl_storage::{Database, IndexRef, Relation, WordSet};
use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::intern;
use ldl_value::ValueId;

use crate::bindings::Bindings;
use crate::builtins::eval_builtin;
use crate::fixpoint::DerivedBuf;
use crate::grouping::Groups;
use crate::plan::DeltaRestriction;
use crate::ram::{
    eval_expr, mirrored, ArithDst, ColAct, Expr, GroupHead, HeadIr, IntOpd, IntTest, Op,
    RamProgram, Reg, RowForm,
};

/// One op's run-invariant state, resolved once per `run_ram` call: the
/// database is frozen for the duration of a pass, so relation pointers,
/// index handles, and the delta range cannot change under the join.
#[derive(Clone, Copy)]
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
    rops: &'a [ROp<'a>],
    /// Index probes performed.
    probes: Cell<u64>,
    /// Existential short-circuits taken.
    cuts: Cell<u64>,
}

/// An op with no relation.
const NO_ROP: ROp<'static> = ROp {
    rel: None,
    idx: None,
    lo: 0,
    hi: 0,
};

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
            ..NO_ROP
        },
        _ => NO_ROP,
    }
}

/// Where a pass sends each body solution: its head as lowering compiled
/// it, run as the round chose.
pub(crate) enum Sink<'h> {
    /// Project the head, repeats included: the merge drops them.
    Project(&'h [Expr]),
    /// A marked pass ([`crate::fixpoint::RoundTask::distinct`]): project
    /// the head, one or two arguments, and drop a tuple the pass has
    /// already emitted — §3.2's `R(M)` is a set. The first occurrence
    /// stays, so the buffer keeps derivation order and the merge inserts
    /// what it would have inserted, at the same positions.
    Distinct(&'h [Expr], WordSet),
    /// §2.2 grouping: the solutions are partitioned into classes, and the
    /// buffer is filled from them when the pass ends.
    Group(&'h GroupHead, Groups),
}

/// A pass's output: its sink, the buffer the sink fills and the pass's
/// counters.
pub(crate) struct Out<'h> {
    sink: Sink<'h>,
    buf: DerivedBuf,
    /// Body solutions enumerated: derivation attempts, the fuel unit.
    pub(crate) attempts: u64,
    /// Repeats a marked pass dropped, each a duplicate the merge would
    /// have rejected.
    pub(crate) repeats: u64,
}

impl<'h> Out<'h> {
    /// The output of a pass of a rule lowered to `head`, marked or not
    /// (a grouping head is never marked).
    pub(crate) fn new(head: &'h HeadIr, distinct: bool) -> Out<'h> {
        let (sink, arity) = match head {
            HeadIr::Simple(h) if distinct => {
                debug_assert!(
                    (1..=2).contains(&h.len()),
                    "a marked head packs into a word"
                );
                (Sink::Distinct(h, WordSet::default()), h.len())
            }
            HeadIr::Simple(h) => (Sink::Project(h), h.len()),
            HeadIr::Grouping(g) => (Sink::Group(g, Groups::default()), g.other.len() + 1),
        };
        Out {
            sink,
            buf: DerivedBuf {
                arity,
                ..DerivedBuf::default()
            },
            attempts: 0,
            repeats: 0,
        }
    }

    /// Send one body solution to the head. A grouping head's step is out
    /// of line: in line beside the projection it made the simple-head
    /// loop ~5 % slower (EXPERIMENTS.md P21).
    #[inline]
    fn emit(&mut self, regs: &[ValueId]) {
        self.attempts += 1;
        let buf = &mut self.buf;
        match &mut self.sink {
            Sink::Project(head) => {
                if project_head(head, regs, &mut buf.data) {
                    buf.count += 1;
                }
            }
            Sink::Distinct(head, emitted) => {
                let start = buf.data.len();
                if project_head(head, regs, &mut buf.data) {
                    if emitted.insert(WordSet::key(&buf.data[start..])) {
                        buf.count += 1;
                    } else {
                        buf.data.truncate(start);
                        self.repeats += 1;
                    }
                }
            }
            Sink::Group(head, groups) => groups.add_solution(head, regs),
        }
    }

    /// The pass's derived tuples: for a grouping head, one per class in
    /// first-solution order.
    pub(crate) fn into_buf(self) -> DerivedBuf {
        let mut buf = self.buf;
        if let Sink::Group(head, groups) = self.sink {
            for t in groups.into_tuples(head.group_pos) {
                buf.data.extend(t);
                buf.count += 1;
            }
        }
        buf
    }
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

/// Execute a lowered body against `db`, sending each solution to `out`.
/// An empty positive scan relation short-circuits the whole pass;
/// `restrict` confines plan step `step` — its first op, the scan — to a
/// delta range. `regs` is the register file, `prog.nregs` long, its entry
/// registers (`ram::lower`) seeded. Returns the pass's index probes and
/// existential cuts.
pub(crate) fn run_ram(
    prog: &RamProgram,
    db: &Database,
    restrict: Option<DeltaRestriction>,
    regs: &mut [ValueId],
    out: &mut Out<'_>,
) -> (u64, u64) {
    let restrict = restrict.map(|r| DeltaRestriction {
        step: prog.step_op[r.step],
        ..r
    });
    // A small program's resolved ops live on the stack: a pass, or a
    // query's read, allocates none.
    let (mut stack, mut heap) = ([NO_ROP; 8], Vec::new());
    let rops = match stack.get_mut(..prog.ops.len()) {
        Some(rops) => rops,
        None => {
            heap.resize(prog.ops.len(), NO_ROP);
            &mut heap[..]
        }
    };
    for (i, (r, op)) in rops.iter_mut().zip(prog.ops.iter()).enumerate() {
        *r = resolve(op, i, db, restrict);
    }
    if (prog.scan_ops.iter()).any(|&i| rops[i].rel.is_none_or(Relation::is_empty)) {
        return (0, 0);
    }
    let ctx = Ctx {
        prog,
        rops,
        probes: Cell::new(0),
        cuts: Cell::new(0),
    };
    exec_op::<false>(&ctx, 0, regs, &mut Bindings::new(), out);
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
    key: &[Expr],
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
fn neg_op(key: &[Expr], rel: Option<&Relation>, regs: &[ValueId]) -> bool {
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
fn eval_num(e: &Expr, regs: &[ValueId]) -> Option<i64> {
    match e {
        Expr::Arith(op, l, r) => op.eval_i64(num_operand(l, regs)?, num_operand(r, regs)?),
        _ => num_operand(e, regs),
    }
}

/// [`eval_num`] on an operand: a register or a constant in line.
#[inline(always)]
fn num_operand(e: &Expr, regs: &[ValueId]) -> Option<i64> {
    match e {
        Expr::Reg(r) => intern::int_of(regs[*r as usize]),
        Expr::Const(v) => intern::int_of(*v),
        Expr::Arith(..) => eval_num_nested(e, regs),
        _ => None,
    }
}

/// [`eval_num`] out of line, for an operand that is itself arithmetic.
#[inline(never)]
fn eval_num_nested(e: &Expr, regs: &[ValueId]) -> Option<i64> {
    eval_num(e, regs)
}

/// Evaluate a fused comparison: `true` exactly when the *positive* literal
/// has a solution (the caller inverts for negation). Both sides integer ⇒
/// compare natively (id equality on interned ints coincides with value
/// equality), in line; otherwise fall back to the out-of-line
/// [`cmp_ids`].
#[inline(always)]
fn cmp_op(op: CmpOp, lhs: &Expr, rhs: &Expr, regs: &[ValueId]) -> bool {
    if let (Some(l), Some(r)) = (eval_num(lhs, regs), eval_num(rhs, regs)) {
        return op.holds(l.cmp(&r));
    }
    cmp_ids(op, lhs, rhs, regs)
}

/// [`cmp_op`] on ids: the interpreter-mirroring path, which handles
/// strings and treats an operand outside `U` as `false` — `eval_term`'s
/// `None` in both of the interpreter's `Cmp` arms.
#[inline(never)]
fn cmp_ids(op: CmpOp, lhs: &Expr, rhs: &Expr, regs: &[ValueId]) -> bool {
    match (eval_expr(lhs, regs), eval_expr(rhs, regs)) {
        (Some(l), Some(r)) => op.eval_ids(l, r) == Some(true),
        _ => false,
    }
}

/// Forward-mode arithmetic result on native integers. `None` exactly when
/// the interpreter's `eval_ids` chain fails: a non-integer operand (no
/// arithmetic shape can evaluate to an integer any other way) or overflow.
fn arith_val(op: ArithOp, x: &Expr, y: &Expr, regs: &[ValueId]) -> Option<i64> {
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
fn arith_check(op: ArithOp, x: &Expr, y: &Expr, e: &Expr, regs: &[ValueId]) -> bool {
    matches!((arith_val(op, x, y, regs), eval_num(e, regs)), (Some(z), Some(c)) if z == c)
}

/// One scan entry's rows: a probe's posting list, or the full range, each
/// confined to `lo..hi`; and its fused filters, `ops[from..then]`.
struct Rows<'a> {
    rel: &'a Relation,
    lo: u32,
    hi: u32,
    postings: Option<&'a [u32]>,
    from: usize,
    then: usize,
}

impl Rows<'_> {
    /// Match each row with `m`, and go on at the filters' end with each
    /// that matches; `true` when the tail found its witness.
    #[inline(never)]
    fn run<const TAIL: bool, M: RowMatch>(
        &self,
        ctx: &Ctx<'_>,
        m: &M,
        regs: &mut [ValueId],
        b: &mut Bindings,
        out: &mut Out<'_>,
    ) -> bool {
        let (from, then) = (self.from, self.then);
        match self.postings {
            Some(postings) => {
                for &pos in postings {
                    if pos >= self.lo
                        && pos < self.hi
                        && m.matches(ctx, from, then, self.rel.get(pos), regs)
                        && next::<TAIL>(ctx, then, regs, b, out)
                    {
                        return true;
                    }
                }
            }
            None => {
                for pos in self.lo..self.hi {
                    if self.rel.is_live(pos)
                        && m.matches(ctx, from, then, self.rel.get(pos), regs)
                        && next::<TAIL>(ctx, then, regs, b, out)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// How a scan's row loop matches one row and tests the filters
/// `ops[from..to]` on it: the general way, or by the scan's row form.
trait RowMatch {
    fn matches(
        &self,
        ctx: &Ctx<'_>,
        from: usize,
        to: usize,
        row: &[ValueId],
        regs: &mut [ValueId],
    ) -> bool;
}

/// The general row match: the column actions, then the filter ops.
struct General<'o> {
    cols: &'o [(usize, ColAct)],
}

impl RowMatch for General<'_> {
    #[inline(always)]
    fn matches(
        &self,
        ctx: &Ctx<'_>,
        from: usize,
        to: usize,
        row: &[ValueId],
        regs: &mut [ValueId],
    ) -> bool {
        match_cols(self.cols, row, regs) && filters_hold(ctx, from, to, regs)
    }
}

/// The row form's match: test the row's values as integers, then copy
/// the binds. A row the test cannot decide is bound and left to the
/// filter op.
struct Form<'o, T> {
    binds: &'o [(usize, Reg)],
    test: T,
}

impl<T: RowTest> RowMatch for Form<'_, T> {
    #[inline(always)]
    fn matches(
        &self,
        ctx: &Ctx<'_>,
        from: usize,
        to: usize,
        row: &[ValueId],
        regs: &mut [ValueId],
    ) -> bool {
        let pass = self.test.test(row);
        if pass == Some(false) {
            return false;
        }
        for &(c, r) in self.binds {
            regs[r as usize] = row[c];
        }
        pass.is_some() || filters_hold(ctx, from, to, regs)
    }
}

/// A scan's integer test, resolved for one scan entry: whether `row`
/// passes it, or `None` when the row value is not an integer or the
/// arithmetic on it fails.
trait RowTest {
    fn test(&self, row: &[ValueId]) -> Option<bool>;
}

/// The scan owns no filter: every row passes.
struct Always;

impl RowTest for Always {
    #[inline(always)]
    fn test(&self, _: &[ValueId]) -> Option<bool> {
        Some(true)
    }
}

/// The scan's one test, on one row value `y`: `op(y, x) cmp k`, or
/// `op(x, y) cmp k` (`row_left` false), inverted when negated. A bare
/// comparison `y cmp k` is `y + 0 cmp k`.
#[derive(Clone, Copy)]
struct Lin {
    col: usize,
    op: ArithOp,
    x: i64,
    row_left: bool,
    cmp: CmpOp,
    k: i64,
    negated: bool,
}

impl RowTest for Lin {
    #[inline(always)]
    fn test(&self, row: &[ValueId]) -> Option<bool> {
        let y = intern::int_of(row[self.col])?;
        let z = if self.row_left {
            self.op.eval_i64(y, self.x)
        } else {
            self.op.eval_i64(self.x, y)
        }?;
        Some(self.cmp.holds(z.cmp(&self.k)) != self.negated)
    }
}

impl Lin {
    /// `t` at one scan entry: its invariant operands decoded, arithmetic
    /// on them folded, and the one row value's place fixed. `None` when an
    /// invariant operand is not an integer or that arithmetic fails: the
    /// general row loop runs the entry.
    #[inline(always)]
    fn resolve(t: &IntTest, regs: &[ValueId]) -> Option<Lin> {
        let int = |o: IntOpd| match o {
            IntOpd::Row(_) => None,
            IntOpd::Reg(r) => intern::int_of(regs[r as usize]),
            IntOpd::Int(n) => Some(n),
        };
        let lin = |col, op, x, row_left, cmp, k| Lin {
            col,
            op,
            x,
            row_left,
            cmp,
            k,
            negated: t.negated,
        };
        Some(match (t.a, t.arith, t.c) {
            (IntOpd::Row(col), None, c) => lin(col, ArithOp::Add, 0, true, t.cmp, int(c)?),
            (IntOpd::Row(col), Some((op, x)), c) => lin(col, op, int(x)?, true, t.cmp, int(c)?),
            (x, Some((op, IntOpd::Row(col))), c) => lin(col, op, int(x)?, false, t.cmp, int(c)?),
            (a, arith, IntOpd::Row(col)) => {
                let mut k = int(a)?;
                if let Some((op, x)) = arith {
                    k = op.eval_i64(k, int(x)?)?;
                }
                lin(col, ArithOp::Add, 0, true, mirrored(t.cmp), k)
            }
            // Lowering gives a form only to a test on one row value.
            _ => return None,
        })
    }
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

/// A solution of the whole op list: in tail mode the witness, which stops
/// the enumeration; in run mode it goes to `out`, and the enumeration goes
/// on.
#[inline(always)]
fn solution<const TAIL: bool>(regs: &[ValueId], out: &mut Out<'_>) -> bool {
    if !TAIL {
        out.emit(regs);
    }
    TAIL
}

/// Run the ops from `j` on. `true` means stop enumerating, which only the
/// tail's witness ever asks for: in run mode the result is the constant
/// `false`, so every `if next(..) { return true }` below folds away there.
/// Past the last op a solution goes straight to [`solution`], as
/// [`exec_op`] would send it, without re-entering it.
#[inline(always)]
fn next<const TAIL: bool>(
    ctx: &Ctx<'_>,
    j: usize,
    regs: &mut [ValueId],
    b: &mut Bindings,
    out: &mut Out<'_>,
) -> bool {
    if j == ctx.prog.ops.len() {
        return solution::<TAIL>(regs, out);
    }
    exec_op::<TAIL>(ctx, j, regs, b, out) && TAIL
}

/// Enumerate the solutions of `ops[i..]`, sending each to `out` in run
/// mode (`TAIL = false`), which never stops; in tail mode, stop at the
/// first and return `true`. On reaching the plan's existential tail run
/// mode re-enters in tail mode — same ops, same probes, same order, but
/// the first solution ends the enumeration.
fn exec_op<const TAIL: bool>(
    ctx: &Ctx<'_>,
    i: usize,
    regs: &mut [ValueId],
    b: &mut Bindings,
    out: &mut Out<'_>,
) -> bool {
    if !TAIL && i == ctx.prog.exist_from && i < ctx.prog.ops.len() {
        // One witness suffices, and the head registers are already final
        // (tail ops bind no head variable).
        if exec_op::<true>(ctx, i, regs, b, out) {
            ctx.cuts.set(ctx.cuts.get() + 1);
            out.emit(regs);
        }
        return false;
    }
    let Some(op) = ctx.prog.ops.get(i) else {
        return solution::<TAIL>(regs, out);
    };
    match op {
        Op::Scan {
            index_cols,
            key,
            cols,
            probe_cols,
            then,
            form,
            ..
        } => {
            // The scan's fused filters run in its row loop, on each row
            // that matches, and a row that passes them goes on at `then`.
            let r = &ctx.rops[i];
            let Some(rel) = r.rel else {
                return false;
            };
            if rel.is_empty() {
                return false;
            }
            let (postings, cols) = match r.idx {
                Some(idx) => {
                    let mut stack = [ValueId::FILLER; 8];
                    let mut heap: Vec<ValueId> = Vec::new();
                    let Some(probe) = eval_key(key, regs, &mut stack, &mut heap) else {
                        return false;
                    };
                    ctx.probes.set(ctx.probes.get() + 1);
                    (Some(idx.probe(probe)), probe_cols)
                }
                None => (None, cols),
            };
            let scan = Rows {
                rel,
                lo: r.lo,
                hi: r.hi,
                postings,
                from: i + 1,
                then: *then,
            };
            let general = General { cols };
            // Without an index key the full scan matches the form's binds;
            // with one, a key column is a check on the full-scan path.
            let form = form
                .as_ref()
                .filter(|_| postings.is_some() || index_cols.is_empty());
            let Some(RowForm { binds, test }) = form else {
                return scan.run::<TAIL, _>(ctx, &general, regs, b, out);
            };
            match test.as_ref().map(|t| Lin::resolve(t, regs)) {
                None => {
                    let m = Form {
                        binds,
                        test: Always,
                    };
                    scan.run::<TAIL, _>(ctx, &m, regs, b, out)
                }
                Some(Some(test)) => scan.run::<TAIL, _>(ctx, &Form { binds, test }, regs, b, out),
                Some(None) => scan.run::<TAIL, _>(ctx, &general, regs, b, out),
            }
        }
        Op::Cmp { .. }
        | Op::Neg { .. }
        | Op::ArithF {
            dst: ArithDst::Check(_),
            ..
        } => filter_op(op, ctx.rops[i].rel, regs) && next::<TAIL>(ctx, i + 1, regs, b, out),
        Op::Absent { end } => {
            // Its first solution refutes the negation. Its ops write only
            // their own fresh registers, so nothing leaks past it.
            let found = exec_op::<true>(ctx, i + 1, regs, b, out);
            !found && exec_op::<TAIL>(ctx, *end + 1, regs, b, out) && TAIL
        }
        // An `Absent` runs its ops in tail mode: reaching `Found` is its
        // witness.
        Op::Found => true,
        Op::Assign { dst, src } => match eval_expr(src, regs) {
            Some(v) => {
                regs[*dst as usize] = v;
                next::<TAIL>(ctx, i + 1, regs, b, out)
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
                next::<TAIL>(ctx, i + 1, regs, b, out)
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
                !any && next::<TAIL>(ctx, i + 1, regs, b, out)
            } else {
                let mut stop = false;
                eval_builtin(*builtin, args, b, &mut |b2| {
                    if !stop {
                        copy_out(b2, out_vars, regs);
                        stop = next::<TAIL>(ctx, i + 1, regs, b2, out);
                    }
                });
                b.undo(m);
                stop
            }
        }
    }
}
