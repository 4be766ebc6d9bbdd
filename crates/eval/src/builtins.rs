//! Evaluation of built-in predicates (§2.2 restrictions).
//!
//! Built-ins have fixed interpretations over `U` and are *evaluated*, not
//! stored. Each supports a set of binding modes; the planner
//! ([`crate::plan`]) orders body literals so that a supported mode is always
//! available at execution time, and [`can_schedule`] is the planner's oracle
//! for that.
//!
//! Set arguments are interned ids whose element slices are already in
//! canonical [`intern::cmp_ids`] order; union / intersection / difference /
//! subset / disjoint are the linear merges of [`ldl_value::set`], the one
//! implementation of §2.2's set algebra — no tree walks, no allocation
//! beyond the result. What stays here is the built-ins' modes, and the
//! enumerations of the generative ones.
//!
//! Generative modes that enumerate subsets (`union` with only the result
//! bound, `partition` with only the whole bound, `subset` with the subset
//! free) are exponential in the set size; they mirror the paper's use of
//! `partition` on small constituent sets (§1 `tc` example). The set size is
//! capped to keep mistakes loud. A mode with more bound — `partition` with
//! a part bound, `subset` with both — is a check and has no cap.

use ldl_ast::program::Builtin;
use ldl_ast::term::Term;
use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::intern;
use ldl_value::set::{as_set, is_disjoint, is_subset, merge_filter, merge_union};
use ldl_value::ValueId;

use crate::bindings::Bindings;
use crate::unify::{eval_term, is_ground_under, match_term};

/// Largest set for which the exponential generative modes are allowed.
const MAX_ENUMERATED_SET: usize = 20;

/// Can this built-in literal execute once the variables for which
/// `bound(v)` holds are bound? A mode must be supported, and every argument
/// the mode does not evaluate is matched as a pattern against what the
/// built-in computes (`match_term`), which binds a pattern's variables but
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

/// Evaluate a built-in literal, calling `k` once per solution.
///
/// Precondition (ensured by the planner): a supported mode is available.
/// When it is not — which can only happen if callers bypass the planner —
/// the literal simply fails (no solutions), matching the paper's "otherwise
/// it is false" reading of the built-in restrictions.
pub fn eval_builtin(
    bi: Builtin,
    args: &[Term],
    b: &mut Bindings,
    k: &mut dyn FnMut(&mut Bindings),
) {
    match bi {
        Builtin::Member => {
            let Some(sv) = eval_term(&args[1], b) else {
                return;
            };
            let Some(s) = as_set(sv) else { return };
            for &e in s {
                match_term(&args[0], e, b, k);
            }
        }
        Builtin::Union => eval_union(args, b, k),
        Builtin::Intersection | Builtin::Difference => {
            let (Some(v0), Some(v1)) = (eval_term(&args[0], b), eval_term(&args[1], b)) else {
                return;
            };
            let (Some(s0), Some(s1)) = (as_set(v0), as_set(v1)) else {
                return;
            };
            let result = merge_filter(s0, s1, bi == Builtin::Intersection);
            match_term(&args[2], intern::mk_set_sorted(result), b, k);
        }
        Builtin::Partition => eval_partition(args, b, k),
        Builtin::Subset => {
            let Some(sup_v) = eval_term(&args[1], b) else {
                return;
            };
            let Some(sup) = as_set(sup_v) else { return };
            if is_ground_under(&args[0], b) {
                let Some(sub_v) = eval_term(&args[0], b) else {
                    return;
                };
                let Some(sub) = as_set(sub_v) else { return };
                if is_subset(sub, sup) {
                    k(b);
                }
            } else {
                // Generative: enumerate all subsets (mask-selected elements
                // of a canonical slice stay canonical).
                let n = sup.len();
                assert!(
                    n <= MAX_ENUMERATED_SET,
                    "subset/2 enumeration over a set of {n} elements"
                );
                for mask in 0..(1usize << n) {
                    let sub: Vec<ValueId> = sup
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &e)| e)
                        .collect();
                    match_term(&args[0], intern::mk_set_sorted(sub), b, k);
                }
            }
        }
        Builtin::Card => {
            let Some(sv) = eval_term(&args[0], b) else {
                return;
            };
            let Some(s) = as_set(sv) else { return };
            let n = i64::try_from(s.len()).expect("set size fits i64");
            match_term(&args[1], intern::mk_int(n), b, k);
        }
        Builtin::Cmp(CmpOp::Eq) => {
            if is_ground_under(&args[0], b) {
                let Some(lv) = eval_term(&args[0], b) else {
                    return;
                };
                match_term(&args[1], lv, b, k);
            } else if is_ground_under(&args[1], b) {
                let Some(rv) = eval_term(&args[1], b) else {
                    return;
                };
                match_term(&args[0], rv, b, k);
            }
        }
        Builtin::Cmp(op) => {
            let (Some(l), Some(r)) = (eval_term(&args[0], b), eval_term(&args[1], b)) else {
                return;
            };
            if op.eval_ids(l, r) == Some(true) {
                k(b);
            }
        }
        Builtin::Arith(op) => eval_arith(op, args, b, k),
    }
}

fn eval_union(args: &[Term], b: &mut Bindings, k: &mut dyn FnMut(&mut Bindings)) {
    let g0 = is_ground_under(&args[0], b);
    let g1 = is_ground_under(&args[1], b);
    if g0 && g1 {
        let (Some(v0), Some(v1)) = (eval_term(&args[0], b), eval_term(&args[1], b)) else {
            return;
        };
        let (Some(s0), Some(s1)) = (as_set(v0), as_set(v1)) else {
            return;
        };
        match_term(&args[2], intern::mk_set_sorted(merge_union(s0, s1)), b, k);
        return;
    }
    // Generative mode: result bound, enumerate (S₁, S₂) with S₁ ∪ S₂ = S₃.
    let Some(v2) = eval_term(&args[2], b) else {
        return;
    };
    let Some(s3) = as_set(v2) else { return };
    let n = s3.len();
    assert!(
        n <= MAX_ENUMERATED_SET,
        "union/3 enumeration over a set of {n} elements"
    );
    // Each element is in S₁ only (0), S₂ only (1), or both (2).
    let total = 3usize.pow(n as u32);
    for combo in 0..total {
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
        match_term(&args[0], intern::mk_set_sorted(left), b, &mut |b2| {
            match_term(&args[1], right, b2, k);
        });
    }
}

/// `partition(S, S1, S2)`: `S1 ∪ S2 = S` and `S1 ∩ S2 = ∅`. Three modes, by
/// what is ground:
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
fn eval_partition(args: &[Term], b: &mut Bindings, k: &mut dyn FnMut(&mut Bindings)) {
    if is_ground_under(&args[0], b) {
        let Some(v0) = eval_term(&args[0], b) else {
            return;
        };
        let Some(s) = as_set(v0) else { return };
        for (part, other) in [(1, 2), (2, 1)] {
            if is_ground_under(&args[part], b) {
                let Some(p) = eval_term(&args[part], b).and_then(as_set) else {
                    return;
                };
                if is_subset(p, s) {
                    let rest = intern::mk_set_sorted(merge_filter(s, p, false));
                    match_term(&args[other], rest, b, k);
                }
                return;
            }
        }
        partition_splits(s, args, b, k);
        return;
    }
    // Inverse mode: both parts bound — must be disjoint; S is their union.
    let (Some(v1), Some(v2)) = (eval_term(&args[1], b), eval_term(&args[2], b)) else {
        return;
    };
    let (Some(s1), Some(s2)) = (as_set(v1), as_set(v2)) else {
        return;
    };
    if is_disjoint(s1, s2) {
        match_term(&args[0], intern::mk_set_sorted(merge_union(s1, s2)), b, k);
    }
}

/// `partition`'s generative mode over the canonical elements `s` of the
/// ground `S`: every two-colouring, matched against `args[1]` and then
/// `args[2]` (both halves stay canonical).
fn partition_splits(
    s: &[ValueId],
    args: &[Term],
    b: &mut Bindings,
    k: &mut dyn FnMut(&mut Bindings),
) {
    let n = s.len();
    assert!(
        n <= MAX_ENUMERATED_SET,
        "partition/3 of a set of {n} elements"
    );
    for mask in 0..(1usize << n) {
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
        match_term(&args[1], intern::mk_set_sorted(left), b, &mut |b2| {
            match_term(&args[2], right, b2, k);
        });
    }
}

fn eval_arith(op: ArithOp, args: &[Term], b: &mut Bindings, k: &mut dyn FnMut(&mut Bindings)) {
    let g: Vec<bool> = args.iter().map(|t| is_ground_under(t, b)).collect();
    if g[0] && g[1] {
        let (Some(x), Some(y)) = (eval_term(&args[0], b), eval_term(&args[1], b)) else {
            return;
        };
        if let Some(z) = op.eval_ids(x, y) {
            match_term(&args[2], z, b, k);
        }
        return;
    }
    // Inverse modes for + and −: solve for the free argument.
    let inv = |z: ValueId, known: ValueId, solve_first: bool| -> Option<ValueId> {
        match op {
            // x + y = z  ⇒  free = z − known (either side).
            ArithOp::Add => ArithOp::Sub.eval_ids(z, known),
            // x − y = z: x = z + y;  y = x − z.
            ArithOp::Sub => {
                if solve_first {
                    ArithOp::Add.eval_ids(z, known)
                } else {
                    ArithOp::Sub.eval_ids(known, z)
                }
            }
            _ => None,
        }
    };
    if g[0] && g[2] {
        let (Some(x), Some(z)) = (eval_term(&args[0], b), eval_term(&args[2], b)) else {
            return;
        };
        if let Some(y) = inv(z, x, false) {
            // Verify (guards against overflow asymmetries), then bind.
            if op.eval_ids(x, y) == Some(z) {
                match_term(&args[1], y, b, k);
            }
        }
    } else if g[1] && g[2] {
        let (Some(y), Some(z)) = (eval_term(&args[1], b), eval_term(&args[2], b)) else {
            return;
        };
        if let Some(x) = inv(z, y, true) {
            if op.eval_ids(x, y) == Some(z) {
                match_term(&args[0], x, b, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_ast::term::Var;
    use ldl_value::Value;

    fn set(xs: &[i64]) -> Value {
        Value::set(xs.iter().map(|&i| Value::int(i)))
    }

    /// The canonical element ids of a set value.
    fn elems(s: &Value) -> Vec<ValueId> {
        as_set(intern::id_of(s)).unwrap().to_vec()
    }

    fn run(bi: Builtin, args: &[Term], pre: &[(&str, Value)]) -> Vec<Vec<(String, Value)>> {
        let mut b = Bindings::new();
        for (n, v) in pre {
            b.bind(Var::new(n), intern::id_of(v));
        }
        let depth = b.len();
        let mut out = Vec::new();
        eval_builtin(bi, args, &mut b, &mut |b2| {
            let mut snap: Vec<(String, Value)> = b2
                .iter()
                .skip(depth)
                .map(|(v, val)| (v.name().to_string(), intern::resolve(val)))
                .collect();
            snap.sort_by(|a, c| a.0.cmp(&c.0));
            out.push(snap);
        });
        assert_eq!(b.len(), depth, "bindings restored");
        out
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
            let mut bs = Bindings::new();
            bs.bind(Var::new("S"), intern::id_of(s));
            let mut out = Vec::new();
            let mut k = |b2: &mut Bindings| {
                out.push([Var::new("A"), Var::new("B")].map(|v| b2.get(v)));
            };
            if enumerate {
                partition_splits(as_set(intern::id_of(s)).unwrap(), args, &mut bs, &mut k);
            } else {
                eval_builtin(Builtin::Partition, args, &mut bs, &mut k);
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
}
