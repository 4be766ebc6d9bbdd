//! The one matcher and the built-in predicates (§2.2 restrictions), on
//! the register file.
//!
//! Every pattern the engine and the reference evaluator match — a scan's
//! complex columns, an argument a built-in computes — is lowered to a
//! register pattern (`ram::Pat`), and `match_pat` matches one against a
//! ground value. Set patterns make matching multi-solution: `{X, Y}`
//! matches `{a, b}` two ways and `{a}` one way (`X=Y=a` — enumeration
//! eliminates duplicates, §1), and `scons(H, T)` matches a set `S` once per
//! `H ∈ S` with `T` either `S` or `S − {H}`. Solutions go to a
//! continuation, which can stop the enumeration.
//!
//! Built-ins are *evaluated*, not stored. The planner ([`crate::plan`])
//! orders body literals so that a supported mode is always available, with
//! [`can_schedule`] as its oracle, and which mode runs follows from which
//! arguments lowering made ground expressions, so it is fixed per literal.
//! Set arguments are interned ids with canonical element slices, and the
//! set algebra is the linear merges of [`ldl_value::set`].
//!
//! Generative modes that enumerate subsets (`union` with only the result
//! bound, `partition` with only the whole bound, `subset` with the subset
//! free) are exponential in the set size; they mirror the paper's use of
//! `partition` on small constituent sets (§1 `tc` example). Over a set of
//! more than [`MAX_ENUMERATED_SET`] elements they fail the evaluation with
//! [`EvalError::Enumeration`]. A mode with more bound — `partition` with a
//! part bound, `subset` with both — is a check and has no cap.

use ldl_ast::program::Builtin;
use ldl_ast::term::Term;
use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::intern::{self, Node};
use ldl_value::set::{self, as_set, is_disjoint, is_subset, merge_filter, merge_union};
use ldl_value::ValueId;

use crate::error::EvalError;
use crate::ram::{eval_expr, Arg, Pat, Wait};

/// Largest set the exponential generative modes enumerate.
pub const MAX_ENUMERATED_SET: usize = 20;

/// Where a match sends each solution, with the solution's registers
/// written; `true` stops the enumeration.
pub(crate) type Cont<'k> = dyn FnMut(&mut [ValueId]) -> bool + 'k;

/// Can this built-in literal execute once the variables for which
/// `bound(v)` holds are bound? A mode must be supported, and every argument
/// the mode does not evaluate is matched as a pattern against what the
/// built-in computes (`match_pat`), which binds a pattern's variables but
/// evaluates its arithmetic: `7 mod Y = X` and `member(X + 1, S)` wait
/// until `Y` and `X` are bound (`matchable`).
pub fn can_schedule(bi: Builtin, args: &[Term], bound: &dyn Fn(&Term) -> bool) -> bool {
    let mode = match bi {
        Builtin::Member => bound(&args[1]),
        Builtin::Union => (bound(&args[0]) && bound(&args[1])) || bound(&args[2]),
        Builtin::Partition => bound(&args[0]) || (bound(&args[1]) && bound(&args[2])),
        Builtin::Subset => bound(&args[1]),
        Builtin::Intersection | Builtin::Difference => bound(&args[0]) && bound(&args[1]),
        Builtin::Card => bound(&args[0]),
        Builtin::Cmp(CmpOp::Eq) => bound(&args[0]) || bound(&args[1]),
        Builtin::Cmp(_) => bound(&args[0]) && bound(&args[1]),
        Builtin::Arith(op) => {
            let (a, b, c) = (bound(&args[0]), bound(&args[1]), bound(&args[2]));
            match op {
                // Any two of the three arguments determine the third.
                ArithOp::Add | ArithOp::Sub => {
                    usize::from(a) + usize::from(b) + usize::from(c) >= 2
                }
                _ => a && b,
            }
        }
    };
    mode && args.iter().all(|a| matchable(a, bound))
}

/// Can a ground value be matched against `t` now: is every arithmetic
/// subterm of `t` ground? A bound argument always is.
fn matchable(t: &Term, bound: &dyn Fn(&Term) -> bool) -> bool {
    match t {
        Term::Arith(..) => bound(t),
        Term::Compound(_, args) | Term::SetEnum(args) => args.iter().all(|a| matchable(a, bound)),
        Term::Scons(h, s) => matchable(h, bound) && matchable(s, bound),
        Term::Group(g) => matchable(g, bound),
        Term::Anon | Term::Var(_) | Term::Const(_) => true,
    }
}

/// Match pattern `p` against the ground value `v`, calling `k` once per
/// solution; `true` when `k` stopped the enumeration.
pub(crate) fn match_pat(p: &Pat, v: ValueId, regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
    match p {
        Pat::Any => k(regs),
        Pat::Bind(r) => {
            regs[*r as usize] = v;
            k(regs)
        }
        Pat::Check(r) => regs[*r as usize] == v && k(regs),
        Pat::Const(c) => *c == v && k(regs),
        Pat::Arith(e) => eval_expr(e, regs) == Some(v) && k(regs),
        Pat::Compound(f, ps) => match intern::node(v) {
            Some(Node::Compound(g, ids)) if g == f && ids.len() == ps.len() => {
                match_all(ps, ids, regs, k)
            }
            _ => false,
        },
        Pat::Set(ps) => as_set(v).is_some_and(|s| match_set(ps, s, regs, k)),
        Pat::Scons(h, t) => {
            let Some(s) = as_set(v) else { return false };
            // {Hθ} ∪ Tθ = S requires Hθ ∈ S and Tθ ∈ {S, S − {Hθ}}.
            for &e in s {
                let found = match_pat(h, e, regs, &mut |regs| {
                    let without = set::remove(v, e).filter(|&w| w != v);
                    match_pat(t, v, regs, k) || without.is_some_and(|w| match_pat(t, w, regs, k))
                });
                if found {
                    return true;
                }
            }
            false
        }
        Pat::Group(elem, shape) => {
            // §4.1 body semantics: `<t>` matches only a *set* all of whose
            // elements have `t`'s structure, and `t`'s variables then range
            // over the elements. (`p(<<X>>)` matches `p({{1,2},{3}})` but
            // not `p({{1,2}, 3})`.)
            let Some(s) = as_set(v) else { return false };
            let (shape, waits) = &**shape;
            let uniform = |e, regs: &mut [ValueId]| {
                match_pat(shape, e, regs, &mut |regs| waited(waits, regs))
            };
            s.iter().all(|&e| uniform(e, regs)) && s.iter().any(|&e| match_pat(elem, e, regs, k))
        }
    }
}

/// Match the patterns `ps` against the values `vs`, one after the other,
/// as the all-solutions product.
fn match_all(ps: &[Pat], vs: &[ValueId], regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
    match ps.split_first() {
        None => k(regs),
        Some((p, rest)) => match_pat(p, vs[0], regs, &mut |regs| {
            match_all(rest, &vs[1..], regs, k)
        }),
    }
}

/// Match an argument against `v`: an expression is compared with its
/// value, a pattern is matched.
fn match_arg(arg: &Arg, v: ValueId, regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
    match arg {
        Arg::Expr(e) => eval_expr(e, regs) == Some(v) && k(regs),
        Arg::Pat(p) => match_pat(p, v, regs, k),
    }
}

/// Match the arguments `args` against a tuple's values as one whole
/// match: then the arithmetic that waited must hold, and `k` runs.
pub(crate) fn match_args(
    args: &[Arg],
    vs: &[ValueId],
    waits: &[Wait],
    regs: &mut [ValueId],
    k: &mut Cont<'_>,
) -> bool {
    match args.split_first() {
        None => waited(waits, regs) && k(regs),
        Some((a, rest)) => match_arg(a, vs[0], regs, &mut |regs| {
            match_args(rest, &vs[1..], waits, regs, k)
        }),
    }
}

/// Does every waiting arithmetic pattern evaluate to the value its
/// register took?
#[inline]
pub(crate) fn waited(waits: &[Wait], regs: &[ValueId]) -> bool {
    waits
        .iter()
        .all(|(r, e)| eval_expr(e, regs) == Some(regs[*r as usize]))
}

/// Match an enumerated-set pattern `{p₁, …, pₖ}` against a ground set with
/// canonical elements `s`: assign each pattern element to some element of
/// `s` such that the assigned elements *cover* all of `s` (so the evaluated
/// pattern equals `s`). Sets of any size: the cover is one count per
/// element of `s`, on the stack for the small sets rules usually spell out.
fn match_set(ps: &[Pat], s: &[ValueId], regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
    // The pattern can only equal s if it has at least |s| elements to cover
    // it, and it can never produce more distinct elements than it has.
    if s.len() > ps.len() {
        return false;
    }
    // `hits[i]` counts the patterns assigned to `s[i]` so far; `missing`
    // is the number of elements with none.
    fn go(
        ps: &[Pat],
        s: &[ValueId],
        hits: &mut [u32],
        missing: usize,
        regs: &mut [ValueId],
        k: &mut Cont<'_>,
    ) -> bool {
        let Some((p0, rest)) = ps.split_first() else {
            return missing == 0 && k(regs);
        };
        // Remaining patterns must still be able to cover the remaining
        // elements.
        if rest.len() + 1 < missing {
            return false;
        }
        for (i, &e) in s.iter().enumerate() {
            let found = match_pat(p0, e, regs, &mut |regs| {
                hits[i] += 1;
                let missing = missing - usize::from(hits[i] == 1);
                let found = go(rest, s, hits, missing, regs, k);
                hits[i] -= 1;
                found
            });
            if found {
                return true;
            }
        }
        false
    }
    let mut stack = [0u32; 8];
    let mut heap: Vec<u32> = Vec::new();
    let hits = match stack.get_mut(..s.len()) {
        Some(hits) => hits,
        None => {
            heap.resize(s.len(), 0);
            &mut heap[..]
        }
    };
    go(ps, s, hits, s.len(), regs, k)
}

/// The value of a ground argument; `None` for a pattern, or outside `U`.
pub(crate) fn value(arg: &Arg, regs: &[ValueId]) -> Option<ValueId> {
    match arg {
        Arg::Expr(e) => eval_expr(e, regs),
        Arg::Pat(_) => None,
    }
}

/// The elements of a ground set argument; `None` for a pattern, outside
/// `U`, or not a set.
fn set_value(arg: &Arg, regs: &[ValueId]) -> Option<&'static [ValueId]> {
    value(arg, regs).and_then(as_set)
}

/// A generative mode of `builtin` over a set of `size` elements: an error
/// past [`MAX_ENUMERATED_SET`].
fn capped(builtin: &'static str, size: usize) -> Result<(), EvalError> {
    let err = EvalError::Enumeration { builtin, size };
    (size <= MAX_ENUMERATED_SET).then_some(()).ok_or(err)
}

/// Evaluate a built-in literal over its lowered arguments, calling `k`
/// once per solution; `Ok(true)` when `k` stopped the enumeration, and an
/// error when a generative mode meets a set larger than it enumerates.
///
/// A mode the arguments do not support — only reachable by bypassing the
/// planner — has no solutions, the paper's "otherwise it is false" reading
/// of the built-in restrictions.
pub(crate) fn eval_builtin(
    bi: Builtin,
    args: &[Arg],
    regs: &mut [ValueId],
    k: &mut Cont<'_>,
) -> Result<bool, EvalError> {
    Ok(match bi {
        Builtin::Member => {
            let Some(s) = set_value(&args[1], regs) else {
                return Ok(false);
            };
            s.iter().any(|&e| match_arg(&args[0], e, regs, k))
        }
        Builtin::Union => return eval_union(args, regs, k),
        Builtin::Intersection | Builtin::Difference => {
            let (Some(s0), Some(s1)) = (set_value(&args[0], regs), set_value(&args[1], regs))
            else {
                return Ok(false);
            };
            let result = merge_filter(s0, s1, bi == Builtin::Intersection);
            match_arg(&args[2], intern::mk_set_sorted(result), regs, k)
        }
        Builtin::Partition => return eval_partition(args, regs, k),
        Builtin::Subset => {
            let Some(sup) = set_value(&args[1], regs) else {
                return Ok(false);
            };
            if let Arg::Expr(_) = args[0] {
                return Ok(
                    set_value(&args[0], regs).is_some_and(|sub| is_subset(sub, sup)) && k(regs),
                );
            }
            // Generative: enumerate all subsets (mask-selected elements of
            // a canonical slice stay canonical).
            let n = sup.len();
            capped("subset/2", n)?;
            (0..(1usize << n)).any(|mask| {
                let sub: Vec<ValueId> = (sup.iter().enumerate())
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &e)| e)
                    .collect();
                match_arg(&args[0], intern::mk_set_sorted(sub), regs, k)
            })
        }
        Builtin::Card => {
            let Some(s) = set_value(&args[0], regs) else {
                return Ok(false);
            };
            let n = i64::try_from(s.len()).expect("set size fits i64");
            match_arg(&args[1], intern::mk_int(n), regs, k)
        }
        Builtin::Cmp(CmpOp::Eq) => match_pairs(args, regs, k),
        Builtin::Cmp(op) => {
            let (Some(l), Some(r)) = (value(&args[0], regs), value(&args[1], regs)) else {
                return Ok(false);
            };
            op.eval_ids(l, r) == Some(true) && k(regs)
        }
        Builtin::Arith(op) => eval_arith(op, args, regs, k),
    })
}

/// `=` over pairs `l₁, r₁, l₂, r₂, …`: in each pair one side is ground,
/// and the other is matched against its value, the pairs one after the
/// other. A written `l = r` is one pair; a match step is one pair per
/// complex column of its scan.
fn match_pairs(args: &[Arg], regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
    let [l, r, rest @ ..] = args else {
        return k(regs);
    };
    let ((Arg::Expr(e), other) | (other, Arg::Expr(e))) = (l, r) else {
        return false;
    };
    eval_expr(e, regs)
        .is_some_and(|v| match_arg(other, v, regs, &mut |regs| match_pairs(rest, regs, k)))
}

fn eval_union(args: &[Arg], regs: &mut [ValueId], k: &mut Cont<'_>) -> Result<bool, EvalError> {
    if let (Arg::Expr(_), Arg::Expr(_)) = (&args[0], &args[1]) {
        let (Some(s0), Some(s1)) = (set_value(&args[0], regs), set_value(&args[1], regs)) else {
            return Ok(false);
        };
        let union = intern::mk_set_sorted(merge_union(s0, s1));
        return Ok(match_arg(&args[2], union, regs, k));
    }
    // Generative mode: result bound, enumerate (S₁, S₂) with S₁ ∪ S₂ = S₃.
    let Some(s3) = set_value(&args[2], regs) else {
        return Ok(false);
    };
    let n = s3.len();
    capped("union/3", n)?;
    // Each element is in S₁ only (0), S₂ only (1), or both (2).
    Ok((0..3usize.pow(n as u32)).any(|combo| {
        let mut c = combo;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &e in s3 {
            match c % 3 {
                0 => left.push(e),
                1 => right.push(e),
                _ => {
                    left.push(e);
                    right.push(e);
                }
            }
            c /= 3;
        }
        let right = intern::mk_set_sorted(right);
        match_arg(&args[0], intern::mk_set_sorted(left), regs, &mut |regs| {
            match_arg(&args[1], right, regs, k)
        })
    }))
}

/// `partition(S, S1, S2)`: `S1 ∪ S2 = S` and `S1 ∩ S2 = ∅`. Three modes, by
/// which arguments are ground:
///
/// * `S` and a part (`S1` or `S2`) — a *check*: the part must be a subset
///   of `S`, and then the other part is `S \ part` — one intern, matched
///   against the other argument (an equality test when that is ground
///   too). Exactly one two-colouring of `S` puts the part on its side, so
///   this is the enumeration's answer without the enumeration, and no size
///   cap applies;
/// * `S` alone — *generative*: every two-colouring of `S`, 2^|S| splits
///   ([`partition_splits`], capped at [`MAX_ENUMERATED_SET`]);
/// * both parts — *inverse*: they must be disjoint, and `S` is their union.
fn eval_partition(args: &[Arg], regs: &mut [ValueId], k: &mut Cont<'_>) -> Result<bool, EvalError> {
    if let Arg::Expr(_) = args[0] {
        let Some(s) = set_value(&args[0], regs) else {
            return Ok(false);
        };
        for (part, other) in [(1, 2), (2, 1)] {
            if let Arg::Expr(_) = args[part] {
                let Some(p) = set_value(&args[part], regs) else {
                    return Ok(false);
                };
                let rest =
                    is_subset(p, s).then(|| intern::mk_set_sorted(merge_filter(s, p, false)));
                return Ok(rest.is_some_and(|rest| match_arg(&args[other], rest, regs, k)));
            }
        }
        return partition_splits(s, args, regs, k);
    }
    // Inverse mode: both parts bound — must be disjoint; S is their union.
    let (Some(s1), Some(s2)) = (set_value(&args[1], regs), set_value(&args[2], regs)) else {
        return Ok(false);
    };
    let union = is_disjoint(s1, s2).then(|| intern::mk_set_sorted(merge_union(s1, s2)));
    Ok(union.is_some_and(|u| match_arg(&args[0], u, regs, k)))
}

/// `partition`'s generative mode over the canonical elements `s` of the
/// ground `S`: every two-colouring, matched against `args[1]` and then
/// `args[2]` (both halves stay canonical).
fn partition_splits(
    s: &[ValueId],
    args: &[Arg],
    regs: &mut [ValueId],
    k: &mut Cont<'_>,
) -> Result<bool, EvalError> {
    let n = s.len();
    capped("partition/3", n)?;
    Ok((0..(1usize << n)).any(|mask| {
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &e) in s.iter().enumerate() {
            if mask & (1 << i) != 0 {
                left.push(e);
            } else {
                right.push(e);
            }
        }
        let right = intern::mk_set_sorted(right);
        match_arg(&args[1], intern::mk_set_sorted(left), regs, &mut |regs| {
            match_arg(&args[2], right, regs, k)
        })
    }))
}

/// `op(x, y, z)`, `x ⊕ y = z`: forward with `x` and `y` ground, and for
/// `+` and `−` solved for the one free argument, each solution verified
/// (against overflow asymmetries) before it is matched.
fn eval_arith(op: ArithOp, args: &[Arg], regs: &mut [ValueId], k: &mut Cont<'_>) -> bool {
    let ground = |i: usize| matches!(args[i], Arg::Expr(_));
    let vals =
        |i: usize, j: usize, regs: &[ValueId]| value(&args[i], regs).zip(value(&args[j], regs));
    let (free, solved) = if ground(0) && ground(1) {
        let Some((x, y)) = vals(0, 1, regs) else {
            return false;
        };
        (2, op.eval_ids(x, y))
    } else if ground(0) && ground(2) {
        let Some((x, z)) = vals(0, 2, regs) else {
            return false;
        };
        let y = match op {
            ArithOp::Add => ArithOp::Sub.eval_ids(z, x),
            ArithOp::Sub => ArithOp::Sub.eval_ids(x, z),
            _ => None,
        };
        (1, y.filter(|&y| op.eval_ids(x, y) == Some(z)))
    } else if ground(1) && ground(2) {
        let Some((y, z)) = vals(1, 2, regs) else {
            return false;
        };
        let x = match op {
            ArithOp::Add => ArithOp::Sub.eval_ids(z, y),
            ArithOp::Sub => ArithOp::Add.eval_ids(z, y),
            _ => None,
        };
        (0, x.filter(|&x| op.eval_ids(x, y) == Some(z)))
    } else {
        return false;
    };
    solved.is_some_and(|v| match_arg(&args[free], v, regs, k))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::plan::term_bound;
    use crate::ram::{lower_expr, Matching, Reg};
    use ldl_ast::term::Var;
    use ldl_value::fxhash::{FastMap, FastSet};
    use ldl_value::Value;

    fn set(xs: &[i64]) -> Value {
        Value::set(xs.iter().map(|&i| Value::int(i)))
    }

    /// The canonical element ids of a set value.
    fn elems(s: &Value) -> Vec<ValueId> {
        as_set(intern::id_of(s)).unwrap().to_vec()
    }

    /// Terms lowered onto a register file, the variables of `pre` bound
    /// to their values: as a built-in's arguments, or (`pats`) each as a
    /// pattern.
    struct Lowered {
        args: Box<[Arg]>,
        waits: Box<[Wait]>,
        regs: Vec<ValueId>,
        /// Every other variable of the terms and its register, by name.
        free: Vec<(String, Reg)>,
    }

    impl Lowered {
        fn new(terms: &[Term], pre: &[(&str, Value)], pats: bool) -> Lowered {
            let bound: FastSet<Var> = pre.iter().map(|(n, _)| Var::new(n)).collect();
            let mut names = FastMap::default();
            let mut m = Matching::new(&mut names, bound.clone());
            let args = match pats {
                true => terms.iter().map(|t| Arg::Pat(m.pat(t))).collect(),
                false => m.args(terms, &bound),
            };
            let (waits, _) = m.finish();
            let mut regs = vec![ValueId::FILLER; names.len()];
            for (n, v) in pre {
                if let Some(&r) = names.get(&Var::new(n)) {
                    regs[r as usize] = intern::id_of(v);
                }
            }
            let mut vs = Vec::new();
            for t in terms {
                t.vars(&mut vs);
            }
            let mut free: Vec<(String, Reg)> = (vs.iter())
                .filter(|v| !bound.contains(v))
                .filter_map(|v| Some((v.name().to_string(), *names.get(v)?)))
                .collect();
            free.sort();
            Lowered {
                args,
                waits,
                regs,
                free,
            }
        }

        /// The free variables' values in a solution, by name.
        fn snapshot(&self, regs: &[ValueId]) -> Vec<(String, Value)> {
            (self.free.iter())
                .map(|(n, r)| (n.clone(), intern::resolve(regs[*r as usize])))
                .collect()
        }
    }

    fn run(bi: Builtin, args: &[Term], pre: &[(&str, Value)]) -> Vec<Vec<(String, Value)>> {
        let mut l = Lowered::new(args, pre, false);
        let mut regs = std::mem::take(&mut l.regs);
        let mut out = Vec::new();
        eval_builtin(bi, &l.args, &mut regs, &mut |regs| {
            if waited(&l.waits, regs) {
                out.push(l.snapshot(regs));
            }
            false
        })
        .unwrap();
        out
    }

    /// The solutions of matching pattern `t`, with `pre` bound, against
    /// `v`, each the free variables' values by name.
    fn matches(t: &Term, pre: &[(&str, Value)], v: &Value) -> Vec<Vec<(String, Value)>> {
        let mut l = Lowered::new(std::slice::from_ref(t), pre, true);
        let mut regs = std::mem::take(&mut l.regs);
        let Arg::Pat(p) = &l.args[0] else {
            unreachable!("lowered as a pattern")
        };
        let mut out = Vec::new();
        match_pat(p, intern::id_of(v), &mut regs, &mut |regs| {
            if waited(&l.waits, regs) {
                out.push(l.snapshot(regs));
            }
            false
        });
        out
    }

    fn solutions(t: &Term, v: &Value) -> Vec<Vec<(String, Value)>> {
        matches(t, &[], v)
    }

    #[test]
    fn member_enumerates() {
        let sols = run(
            Builtin::Member,
            &[Term::var("X"), Term::var("S")],
            &[("S", set(&[1, 2, 3]))],
        );
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn member_checks() {
        let sols = run(
            Builtin::Member,
            &[Term::int(2), Term::var("S")],
            &[("S", set(&[1, 2]))],
        );
        assert_eq!(sols.len(), 1);
        let none = run(
            Builtin::Member,
            &[Term::int(9), Term::var("S")],
            &[("S", set(&[1, 2]))],
        );
        assert!(none.is_empty());
    }

    #[test]
    fn member_of_non_set_fails() {
        let sols = run(
            Builtin::Member,
            &[Term::var("X"), Term::var("S")],
            &[("S", Value::int(3))],
        );
        assert!(sols.is_empty());
    }

    #[test]
    fn union_forward() {
        let sols = run(
            Builtin::Union,
            &[Term::var("A"), Term::var("B"), Term::var("C")],
            &[("A", set(&[1, 2])), ("B", set(&[2, 3]))],
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0][0], ("C".to_string(), set(&[1, 2, 3])));
    }

    #[test]
    fn union_generative_counts_3_pow_n() {
        let sols = run(
            Builtin::Union,
            &[Term::var("A"), Term::var("B"), Term::var("C")],
            &[("C", set(&[1, 2]))],
        );
        assert_eq!(sols.len(), 9);
        for s in &sols {
            let (a, bs) = (elems(&s[0].1), elems(&s[1].1));
            assert_eq!(merge_union(&a, &bs), elems(&set(&[1, 2])));
        }
    }

    #[test]
    fn partition_generative_and_inverse() {
        let sols = run(
            Builtin::Partition,
            &[Term::var("S"), Term::var("A"), Term::var("B")],
            &[("S", set(&[1, 2]))],
        );
        assert_eq!(sols.len(), 4);
        for s in &sols {
            assert!(is_disjoint(&elems(&s[0].1), &elems(&s[1].1)));
        }
        // Inverse mode.
        let sols2 = run(
            Builtin::Partition,
            &[Term::var("S"), Term::var("A"), Term::var("B")],
            &[("A", set(&[1])), ("B", set(&[2]))],
        );
        assert_eq!(sols2.len(), 1);
        assert_eq!(sols2[0][0], ("S".to_string(), set(&[1, 2])));
        // Overlapping parts: not a partition.
        let none = run(
            Builtin::Partition,
            &[Term::var("S"), Term::var("A"), Term::var("B")],
            &[("A", set(&[1])), ("B", set(&[1, 2]))],
        );
        assert!(none.is_empty());
    }

    /// With `S` and a part bound, `partition` is a check. Against the
    /// enumeration it replaces, for every `S` ⊆ a 5-element universe and
    /// every candidate part — each subset of the universe (so subsets and
    /// non-subsets of `S`), a non-set, and a term outside `U` — bound as
    /// `S1`, as `S2`, or as both: the same solutions, in the same order.
    #[test]
    fn partition_check_mode_equals_filtered_enumeration() {
        let universe = [1, 2, 3, 4, 5];
        let subsets: Vec<Value> = (0..32usize)
            .map(|mask| {
                let xs: Vec<i64> = (0..5)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| universe[i])
                    .collect();
                set(&xs)
            })
            .collect();
        let outside_u = Term::Scons(Box::new(Term::int(1)), Box::new(Term::int(2)));
        let mut candidates: Vec<Term> = subsets.iter().map(|v| Term::Const(v.clone())).collect();
        candidates.push(Term::int(7));
        candidates.push(outside_u);
        let (a, b) = (Term::var("A"), Term::var("B"));
        let solutions = |args: &[Term], s: &Value, enumerate: bool| {
            let mut l = Lowered::new(args, &[("S", s.clone())], false);
            let mut regs = std::mem::take(&mut l.regs);
            let get = |name: &str, regs: &[ValueId]| {
                (l.free.iter().find(|(n, _)| n == name)).map(|(_, r)| regs[*r as usize])
            };
            let mut out = Vec::new();
            let mut k = |regs: &mut [ValueId]| {
                out.push(["A", "B"].map(|v| get(v, regs)));
                false
            };
            if enumerate {
                let s = as_set(intern::id_of(s)).unwrap();
                partition_splits(s, &l.args, &mut regs, &mut k).unwrap();
            } else {
                eval_builtin(Builtin::Partition, &l.args, &mut regs, &mut k).unwrap();
            }
            out
        };
        let mut answered = 0;
        for s in &subsets {
            for c in &candidates {
                let mut shapes = vec![
                    [Term::var("S"), c.clone(), b.clone()],
                    [Term::var("S"), a.clone(), c.clone()],
                ];
                shapes.extend(
                    candidates
                        .iter()
                        .map(|d| [Term::var("S"), c.clone(), d.clone()]),
                );
                for args in &shapes {
                    let check = solutions(args, s, false);
                    assert_eq!(check, solutions(args, s, true), "partition({s}, {args:?})");
                    assert!(check.len() <= 1, "partition({s}, {args:?})");
                    answered += check.len();
                }
            }
        }
        // Per S: each of its 2^|S| subsets as S1 and as S2, and the one
        // right (S1, S2) pair per subset — 3 · Σ 2^|S| = 3 · 3^5.
        assert_eq!(answered, 3 * 243);
    }

    /// The check mode has no size cap: a bound part of a 30-element set.
    #[test]
    fn partition_check_mode_takes_large_sets() {
        let whole: Vec<i64> = (0..30).collect();
        let sols = run(
            Builtin::Partition,
            &[Term::var("S"), Term::var("A"), Term::var("B")],
            &[("S", set(&whole)), ("A", set(&whole[..10]))],
        );
        assert_eq!(sols, vec![vec![("B".to_string(), set(&whole[10..]))]]);
    }

    #[test]
    fn subset_check_and_enumerate() {
        let yes = run(
            Builtin::Subset,
            &[Term::var("A"), Term::var("B")],
            &[("A", set(&[1])), ("B", set(&[1, 2]))],
        );
        assert_eq!(yes.len(), 1);
        let all = run(
            Builtin::Subset,
            &[Term::var("A"), Term::var("B")],
            &[("B", set(&[1, 2]))],
        );
        assert_eq!(all.len(), 4); // {}, {1}, {2}, {1,2}
    }

    #[test]
    fn intersection_and_difference() {
        let sols = run(
            Builtin::Intersection,
            &[Term::var("A"), Term::var("B"), Term::var("C")],
            &[("A", set(&[1, 2, 3])), ("B", set(&[2, 3, 4]))],
        );
        assert_eq!(sols, vec![vec![("C".to_string(), set(&[2, 3]))]]);
        let sols2 = run(
            Builtin::Difference,
            &[Term::var("A"), Term::var("B"), Term::var("C")],
            &[("A", set(&[1, 2, 3])), ("B", set(&[2, 3, 4]))],
        );
        assert_eq!(sols2, vec![vec![("C".to_string(), set(&[1]))]]);
        // Check mode: third argument bound.
        let ok = run(
            Builtin::Intersection,
            &[Term::var("A"), Term::var("B"), Term::var("A")],
            &[("A", set(&[1])), ("B", set(&[1, 2]))],
        );
        assert_eq!(ok.len(), 1); // {1} ∩ {1,2} = {1} = A
    }

    #[test]
    fn card_binds() {
        let sols = run(
            Builtin::Card,
            &[Term::var("S"), Term::var("N")],
            &[("S", set(&[5, 6, 7]))],
        );
        assert_eq!(sols, vec![vec![("N".to_string(), Value::int(3))]]);
    }

    #[test]
    fn eq_binds_patterns() {
        // S = {T} with T bound (the §3.3 transform uses this shape).
        let sols = run(
            Builtin::Cmp(CmpOp::Eq),
            &[Term::var("S"), Term::SetEnum(vec![Term::var("T")])],
            &[("T", Value::atom("a"))],
        );
        assert_eq!(
            sols,
            vec![vec![("S".to_string(), Value::set(vec![Value::atom("a")]))]]
        );
        // Reverse: pattern on the left, ground on the right.
        let sols2 = run(
            Builtin::Cmp(CmpOp::Eq),
            &[Term::SetEnum(vec![Term::var("X")]), Term::var("S")],
            &[("S", set(&[9]))],
        );
        assert_eq!(sols2, vec![vec![("X".to_string(), Value::int(9))]]);
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            run(
                Builtin::Cmp(CmpOp::Lt),
                &[Term::int(45), Term::int(100)],
                &[]
            )
            .len(),
            1
        );
        assert!(run(
            Builtin::Cmp(CmpOp::Lt),
            &[Term::int(145), Term::int(100)],
            &[]
        )
        .is_empty());
    }

    #[test]
    fn arith_forward_and_inverse() {
        let fwd = run(
            Builtin::Arith(ArithOp::Add),
            &[Term::int(20), Term::int(25), Term::var("C")],
            &[],
        );
        assert_eq!(fwd, vec![vec![("C".to_string(), Value::int(45))]]);
        let inv = run(
            Builtin::Arith(ArithOp::Add),
            &[Term::var("A"), Term::int(25), Term::int(45)],
            &[],
        );
        assert_eq!(inv, vec![vec![("A".to_string(), Value::int(20))]]);
        let inv2 = run(
            Builtin::Arith(ArithOp::Sub),
            &[Term::int(45), Term::var("B"), Term::int(20)],
            &[],
        );
        assert_eq!(inv2, vec![vec![("B".to_string(), Value::int(25))]]);
    }

    #[test]
    fn scheduling_oracle() {
        let bound_s = |t: &Term| matches!(t, Term::Var(v) if v.name() == "S");
        assert!(can_schedule(
            Builtin::Member,
            &[Term::var("X"), Term::var("S")],
            &bound_s
        ));
        assert!(!can_schedule(
            Builtin::Member,
            &[Term::var("S"), Term::var("X")],
            &bound_s
        ));
        assert!(can_schedule(
            Builtin::Cmp(CmpOp::Eq),
            &[Term::var("X"), Term::var("S")],
            &bound_s
        ));
        assert!(!can_schedule(
            Builtin::Cmp(CmpOp::Lt),
            &[Term::var("X"), Term::var("S")],
            &bound_s
        ));
        // A built-in binds a pattern, never a variable inside arithmetic:
        // with `S` bound, `S = 7 mod X`, `7 mod X = S`, `f(7 mod X) = S` and
        // `member(7 mod X, S)` wait for `X`, while `f(X) = S`, `S =
        // scons(X, T)` and `member(f(X), S)` can run.
        let modulo = Term::Arith(
            ArithOp::Mod,
            Box::new(Term::int(7)),
            Box::new(Term::var("X")),
        );
        let eq = |l: Term, r: Term| can_schedule(Builtin::Cmp(CmpOp::Eq), &[l, r], &bound_s);
        assert!(!eq(Term::var("S"), modulo.clone()));
        assert!(!eq(modulo.clone(), Term::var("S")));
        assert!(!eq(
            Term::Compound("f".into(), vec![modulo.clone()]),
            Term::var("S")
        ));
        assert!(eq(
            Term::Compound("f".into(), vec![Term::var("X")]),
            Term::var("S")
        ));
        assert!(eq(
            Term::var("S"),
            Term::Scons(Box::new(Term::var("X")), Box::new(Term::var("T")))
        ));
        let member = |e: Term| can_schedule(Builtin::Member, &[e, Term::var("S")], &bound_s);
        assert!(!member(modulo.clone()));
        assert!(member(Term::Compound("f".into(), vec![Term::var("X")])));
    }

    #[test]
    fn merge_helpers_agree_with_set_semantics() {
        let ids = |xs: &[i64]| elems(&set(xs));
        assert_eq!(merge_union(&ids(&[1, 3]), &ids(&[2, 3])), ids(&[1, 2, 3]));
        assert_eq!(merge_filter(&ids(&[1, 2, 3]), &ids(&[2]), true), ids(&[2]));
        assert_eq!(
            merge_filter(&ids(&[1, 2, 3]), &ids(&[2]), false),
            ids(&[1, 3])
        );
        assert!(is_subset(&ids(&[1, 3]), &ids(&[1, 2, 3])));
        assert!(!is_subset(&ids(&[1, 4]), &ids(&[1, 2, 3])));
        assert!(is_disjoint(&ids(&[1]), &ids(&[2])));
        assert!(!is_disjoint(&ids(&[1, 2]), &ids(&[2])));
        assert!(is_subset(&[], &ids(&[1])));
    }

    fn id(v: &Value) -> ValueId {
        intern::id_of(v)
    }

    #[test]
    fn var_binds_and_checks() {
        let sols = solutions(&Term::var("X"), &Value::int(3));
        assert_eq!(sols, vec![vec![("X".to_string(), Value::int(3))]]);
        // Bound variable must agree.
        let x3 = [("X", Value::int(3))];
        assert!(matches(&Term::var("X"), &x3, &Value::int(4)).is_empty());
        assert_eq!(matches(&Term::var("X"), &x3, &Value::int(3)).len(), 1);
    }

    #[test]
    fn compound_match() {
        let t = Term::compound("f", vec![Term::var("X"), Term::int(2)]);
        let v = Value::compound("f", vec![Value::atom("a"), Value::int(2)]);
        assert_eq!(solutions(&t, &v).len(), 1);
        let wrong = Value::compound("g", vec![Value::atom("a"), Value::int(2)]);
        assert!(solutions(&t, &wrong).is_empty());
    }

    #[test]
    fn set_enum_pattern_multi_solutions() {
        // {X, Y} vs {1, 2}: two solutions.
        let t = Term::SetEnum(vec![Term::var("X"), Term::var("Y")]);
        let sols = solutions(&t, &set(&[1, 2]));
        assert_eq!(sols.len(), 2);
        // {X, Y} vs {1}: one solution with X = Y = 1.
        let sols1 = solutions(&t, &set(&[1]));
        assert_eq!(sols1.len(), 1);
        assert_eq!(sols1[0][0].1, Value::int(1));
        assert_eq!(sols1[0][1].1, Value::int(1));
        // {X, Y} vs {1, 2, 3}: impossible.
        assert!(solutions(&t, &set(&[1, 2, 3])).is_empty());
    }

    /// The order solutions come in is the order a rule's head tuples are
    /// inserted in: a set pattern tries its elements left to right, each
    /// against the set's canonical elements in order, and `scons(H, T)`
    /// takes `T = S` before `T = S − {H}`.
    #[test]
    fn set_patterns_enumerate_in_a_fixed_order() {
        let binding = |n: &str, v: Value| (n.to_string(), v);
        let (x, y) = (Term::var("X"), Term::var("Y"));
        let pair = Term::SetEnum(vec![x.clone(), y.clone()]);
        assert_eq!(
            solutions(&pair, &set(&[1, 2])),
            [
                [binding("X", Value::int(1)), binding("Y", Value::int(2))],
                [binding("X", Value::int(2)), binding("Y", Value::int(1))],
            ]
        );
        let scons = Term::Scons(Box::new(Term::var("H")), Box::new(Term::var("T")));
        let sols: Vec<(Value, Value)> = (solutions(&scons, &set(&[1, 2])).into_iter())
            .map(|s| (s[0].1.clone(), s[1].1.clone()))
            .collect();
        let (one, two) = (Value::int(1), Value::int(2));
        assert_eq!(
            sols,
            [
                (one.clone(), set(&[1, 2])),
                (one, set(&[2])),
                (two.clone(), set(&[1, 2])),
                (two, set(&[1])),
            ]
        );
        let open = Term::SetEnum(vec![x, Term::Anon]);
        let xs: Vec<Value> = (solutions(&open, &set(&[3, 1, 2])).into_iter())
            .map(|s| s[0].1.clone())
            .collect();
        assert!(xs.is_empty(), "three elements, two patterns");
        let xs: Vec<Value> = (solutions(&open, &set(&[2, 1])).into_iter())
            .map(|s| s[0].1.clone())
            .collect();
        assert_eq!(xs, [Value::int(1), Value::int(2)]);
    }

    #[test]
    fn singleton_pattern_matches_only_singletons() {
        // result(X, C) <- tc({X}, C) — {X} must match only singleton sets.
        let t = Term::SetEnum(vec![Term::var("X")]);
        assert_eq!(solutions(&t, &set(&[7])).len(), 1);
        assert!(solutions(&t, &set(&[7, 8])).is_empty());
        assert!(solutions(&t, &set(&[])).is_empty());
    }

    #[test]
    fn empty_set_pattern() {
        let t = Term::SetEnum(vec![]);
        assert_eq!(solutions(&t, &set(&[])).len(), 1);
        assert!(solutions(&t, &set(&[1])).is_empty());
    }

    #[test]
    fn ground_elements_in_set_pattern() {
        // {1, X} vs {1, 2}: X = 2, plus the covering where X = 1? No —
        // {1, 1} = {1} ≠ {1, 2}. Exactly one solution.
        let t = Term::SetEnum(vec![Term::int(1), Term::var("X")]);
        let sols = solutions(&t, &set(&[1, 2]));
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0][0].1, Value::int(2));
        // {1, X} vs {2, 3}: the constant 1 is absent — no solutions.
        assert!(solutions(&t, &set(&[2, 3])).is_empty());
    }

    #[test]
    fn scons_pattern() {
        // scons(H, T) vs {1, 2}: H=1 with T∈{{1,2},{2}}, H=2 with T∈{{1,2},{1}}.
        let t = Term::Scons(Box::new(Term::var("H")), Box::new(Term::var("T")));
        let sols = solutions(&t, &set(&[1, 2]));
        assert_eq!(sols.len(), 4);
        // Every solution satisfies {H} ∪ T = {1,2}.
        for sol in &sols {
            let with = set::insert(id(&sol[1].1), id(&sol[0].1)).unwrap();
            assert_eq!(with, id(&set(&[1, 2])));
        }
        // vs {}: no solutions (no element to pick).
        assert!(solutions(&t, &set(&[])).is_empty());
    }

    #[test]
    fn arith_pattern_checks_value() {
        let x4 = [("X", Value::int(4))];
        let t = Term::Arith(
            ArithOp::Add,
            Box::new(Term::var("X")),
            Box::new(Term::int(1)),
        );
        assert_eq!(matches(&t, &x4, &Value::int(5)).len(), 1);
        assert!(matches(&t, &x4, &Value::int(6)).is_empty());
    }

    #[test]
    fn eval_term_respects_restrictions() {
        let s = Var::new("S");
        let mut names = FastMap::default();
        let bound: FastSet<Var> = [s].into_iter().collect();
        let mut eval = |t: &Term| {
            let e = lower_expr(t, &mut names, &bound);
            let mut regs = vec![ValueId::FILLER; names.len()];
            if let Some(&r) = names.get(&s) {
                regs[r as usize] = id(&set(&[1]));
            }
            eval_expr(&e, &regs)
        };
        let t = Term::Scons(Box::new(Term::int(2)), Box::new(Term::var("S")));
        assert_eq!(eval(&t), Some(id(&set(&[1, 2]))));
        // Inserting a present element returns the same set (same id).
        let t1 = Term::Scons(Box::new(Term::int(1)), Box::new(Term::var("S")));
        assert_eq!(eval(&t1), Some(id(&set(&[1]))));
        // scons onto non-set is outside U.
        let bad = Term::Scons(Box::new(Term::int(2)), Box::new(Term::int(1)));
        assert_eq!(eval(&bad), None);
        // Unbound variable: not ground.
        assert_eq!(eval(&Term::var("Q")), None);
        assert!(!term_bound(&Term::var("Q"), &bound));
        assert!(term_bound(&Term::var("S"), &bound));
    }

    #[test]
    fn nested_set_patterns() {
        // {{X}} vs {{3}}: X = 3.
        let t = Term::SetEnum(vec![Term::SetEnum(vec![Term::var("X")])]);
        let v = Value::set(vec![set(&[3])]);
        let sols = solutions(&t, &v);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0][0].1, Value::int(3));
    }

    #[test]
    fn repeated_var_in_set_pattern() {
        // {X, X} vs {1}: X = 1 (one solution). vs {1,2}: impossible.
        let t = Term::SetEnum(vec![Term::var("X"), Term::var("X")]);
        assert_eq!(solutions(&t, &set(&[1])).len(), 1);
        assert!(solutions(&t, &set(&[1, 2])).is_empty());
    }

    /// A generative mode over a set past the cap is an error naming the
    /// built-in and the size; a check mode over the same set is not.
    #[test]
    fn generative_modes_refuse_sets_past_the_cap() {
        let big: Vec<i64> = (0..21).collect();
        let s = [("S", set(&big))];
        let (a, b, v) = (Term::var("A"), Term::var("B"), Term::var("S"));
        for (bi, args, name) in [
            (Builtin::Subset, vec![a.clone(), v.clone()], "subset/2"),
            (
                Builtin::Union,
                vec![a.clone(), b.clone(), v.clone()],
                "union/3",
            ),
            (
                Builtin::Partition,
                vec![v.clone(), a.clone(), b.clone()],
                "partition/3",
            ),
        ] {
            let mut l = Lowered::new(&args, &s, false);
            let res = eval_builtin(bi, &l.args, &mut l.regs, &mut |_| false);
            let Err(e @ EvalError::Enumeration { builtin, size: 21 }) = res else {
                panic!("{name}: {res:?}");
            };
            assert_eq!(builtin, name);
            assert!(e.to_string().contains("21 elements"), "{e}");
        }
        let whole = [("S", set(&big)), ("A", set(&big))];
        let check = run(Builtin::Subset, &[a, v], &whole);
        assert_eq!(check.len(), 1);
    }

    /// Each built-in, in every mode the planner admits, has exactly the
    /// solutions its §2.2 definition gives: for every assignment of the
    /// bound arguments over a small domain (the subsets of {1, 2, 3} and
    /// the integers −2..=6), the free arguments take every combination of
    /// domain values that makes the definition true, and nothing else.
    #[test]
    fn the_builtins_meet_their_definitions_in_every_mode() {
        type Def = fn(&[Value]) -> bool;
        fn ints(vs: &[Value]) -> Option<Vec<i64>> {
            vs.iter().map(Value::as_int).collect()
        }
        fn sets(vs: &[Value]) -> Option<Vec<BTreeSet<Value>>> {
            (vs.iter())
                .map(|v| Some(v.as_set()?.iter().cloned().collect()))
                .collect()
        }
        let defs: [(Builtin, usize, Def); 14] = [
            (Builtin::Member, 2, |v| {
                v[1].as_set().is_some_and(|s| s.contains(&v[0]))
            }),
            (Builtin::Union, 3, |v| {
                sets(v).is_some_and(|s| &s[0] | &s[1] == s[2])
            }),
            (Builtin::Intersection, 3, |v| {
                sets(v).is_some_and(|s| &s[0] & &s[1] == s[2])
            }),
            (Builtin::Difference, 3, |v| {
                sets(v).is_some_and(|s| &s[0] - &s[1] == s[2])
            }),
            (Builtin::Partition, 3, |v| {
                sets(v).is_some_and(|s| &s[1] | &s[2] == s[0] && s[1].is_disjoint(&s[2]))
            }),
            (Builtin::Subset, 2, |v| {
                sets(v).is_some_and(|s| s[0].is_subset(&s[1]))
            }),
            (Builtin::Card, 2, |v| {
                v[0].as_set()
                    .is_some_and(|s| Value::int(s.len() as i64) == v[1])
            }),
            (Builtin::Cmp(CmpOp::Eq), 2, |v| v[0] == v[1]),
            (Builtin::Cmp(CmpOp::Ne), 2, |v| v[0] != v[1]),
            // The ordered comparisons are defined on integers (and strings).
            (Builtin::Cmp(CmpOp::Lt), 2, |v| {
                ints(v).is_some_and(|n| n[0] < n[1])
            }),
            (Builtin::Cmp(CmpOp::Ge), 2, |v| {
                ints(v).is_some_and(|n| n[0] >= n[1])
            }),
            (Builtin::Arith(ArithOp::Add), 3, |v| {
                ints(v).is_some_and(|n| n[0] + n[1] == n[2])
            }),
            (Builtin::Arith(ArithOp::Sub), 3, |v| {
                ints(v).is_some_and(|n| n[0] - n[1] == n[2])
            }),
            (Builtin::Arith(ArithOp::Mul), 3, |v| {
                ints(v).is_some_and(|n| n[0] * n[1] == n[2])
            }),
        ];
        let mut domain: Vec<Value> = (0..8usize)
            .map(|m| Value::set((1..=3).filter(|i| m & (1 << (i - 1)) != 0).map(Value::int)))
            .collect();
        domain.extend((-2..=6).map(Value::int));
        let names = ["A", "B", "C"];
        let mut modes = 0;
        for (bi, arity, def) in defs {
            let terms: Vec<Term> = names[..arity].iter().map(|n| Term::var(n)).collect();
            for mask in 1..(1usize << arity) {
                let is_bound = |i: usize| mask & (1 << i) != 0;
                let bound = |t: &Term| (0..arity).any(|i| is_bound(i) && *t == terms[i]);
                // A mode the planner does not admit never runs.
                if !can_schedule(bi, &terms, &bound) {
                    continue;
                }
                modes += 1;
                let (ins, outs): (Vec<usize>, Vec<usize>) = (0..arity).partition(|&i| is_bound(i));
                let mut tuple = vec![Value::int(0); arity];
                let each = |pos: &[usize], f: &mut dyn FnMut(&[Value])| {
                    let mut idx = vec![0usize; pos.len()];
                    loop {
                        let vals: Vec<Value> = idx.iter().map(|&i| domain[i].clone()).collect();
                        f(&vals);
                        let Some(j) = (0..idx.len()).find(|&j| idx[j] + 1 < domain.len()) else {
                            return;
                        };
                        idx[j] += 1;
                        idx[..j].fill(0);
                    }
                };
                each(&ins, &mut |vals| {
                    for (&i, v) in ins.iter().zip(vals) {
                        tuple[i] = v.clone();
                    }
                    let mut want = BTreeSet::new();
                    each(&outs, &mut |free| {
                        let mut t = tuple.clone();
                        for (&i, v) in outs.iter().zip(free) {
                            t[i] = v.clone();
                        }
                        if def(&t) {
                            want.insert(outs.iter().map(|&i| t[i].clone()).collect::<Vec<_>>());
                        }
                    });
                    let pre: Vec<(&str, Value)> =
                        ins.iter().map(|&i| (names[i], tuple[i].clone())).collect();
                    let got: BTreeSet<Vec<Value>> = run(bi, &terms, &pre)
                        .into_iter()
                        .map(|sol| sol.into_iter().map(|(_, v)| v).collect())
                        .filter(|sol: &Vec<Value>| sol.iter().all(|v| domain.contains(v)))
                        .collect();
                    assert_eq!(got, want, "{bi:?} with {pre:?}");
                });
            }
        }
        assert_eq!(modes, 36);
    }
}
