//! One-way matching of term patterns against ground values.
//!
//! Bottom-up evaluation only ever matches a rule's (possibly non-ground)
//! *pattern* against *ground* tuples, so full unification is unnecessary.
//! Set patterns make matching **multi-solution**: the enumerated-set pattern
//! `{X, Y}` matches the ground set `{a, b}` two ways (`X=a,Y=b` and
//! `X=b,Y=a`) and matches `{a}` one way (`X=Y=a` — enumeration eliminates
//! duplicates, §1), and `scons(H, T)` matches a set `S` once per choice of
//! `H ∈ S` with `T` either `S` or `S − {H}` (both satisfy `{H} ∪ T = S`).
//! Matching therefore reports solutions through a callback.
//!
//! Ground values are interned [`ValueId`]s: a leaf comparison is a `u32`
//! compare, and descending into a compound or set reads the shallow
//! [`Node`] from the interner without reconstructing anything.

use ldl_ast::term::Term;
use ldl_value::intern::{self, Node};
use ldl_value::{set, ValueId};

use crate::bindings::Bindings;

/// Evaluate a term to a ground value under the current bindings. `None` if
/// some variable is unbound or a built-in restriction fails (e.g. `scons`
/// onto a non-set, arithmetic on non-integers — "objects outside U").
pub fn eval_term(t: &Term, b: &Bindings) -> Option<ValueId> {
    match t {
        Term::Var(v) => b.get(*v),
        Term::Anon | Term::Group(_) => None,
        Term::Const(v) => Some(intern::id_of(v)),
        Term::Compound(f, args) => {
            let ids: Option<Vec<ValueId>> = args.iter().map(|a| eval_term(a, b)).collect();
            Some(intern::mk_compound(*f, ids?))
        }
        Term::SetEnum(args) => {
            let ids: Option<Vec<ValueId>> = args.iter().map(|a| eval_term(a, b)).collect();
            Some(intern::mk_set(ids?))
        }
        Term::Scons(h, tail) => {
            let head = eval_term(h, b)?;
            set::insert(eval_term(tail, b)?, head)
        }
        Term::Arith(op, l, r) => op.eval_ids(eval_term(l, b)?, eval_term(r, b)?),
    }
}

/// Evaluate a ground term: [`eval_term`] under no binding.
pub fn eval_ground(t: &Term) -> Option<ValueId> {
    eval_term(t, &Bindings::new())
}

/// Are all variables of `t` bound (so [`eval_term`] can succeed)?
pub fn is_ground_under(t: &Term, b: &Bindings) -> bool {
    match t {
        Term::Var(v) => b.is_bound(*v),
        Term::Anon | Term::Group(_) => false,
        Term::Const(_) => true,
        Term::Compound(_, args) | Term::SetEnum(args) => args.iter().all(|a| is_ground_under(a, b)),
        Term::Scons(h, tail) => is_ground_under(h, b) && is_ground_under(tail, b),
        Term::Arith(_, l, r) => is_ground_under(l, b) && is_ground_under(r, b),
    }
}

/// Arithmetic met before its operands were bound, each with the value it
/// must equal, and a continuation inside one whole match, which carries it.
type Deferred<'t> = Vec<(&'t Term, ValueId)>;
type Cont<'k, 't> = dyn FnMut(&mut Bindings, &mut Deferred<'t>) + 'k;

/// Match pattern `t` against ground `v`, invoking `k` once per solution
/// (with the solution's bindings active). Bindings are restored before
/// returning. Arithmetic still unbound when met is checked once the rest
/// of the whole pattern has matched, so `f(g(X + 1, Y), h(Y + 1, X))`
/// matches `f(g(3, 4), h(5, 2))`: arithmetic never binds, so the order
/// changes no solution.
pub fn match_term(t: &Term, v: ValueId, b: &mut Bindings, k: &mut dyn FnMut(&mut Bindings)) {
    term(t, v, b, &mut Vec::new(), &mut |b, d| check(d, b, k));
}

/// Match a sequence of patterns against a sequence of ground values
/// (all-solutions product), as one whole pattern: arithmetic waits as in
/// [`match_term`], so `p(X + 1, X)` matches `p(2, 1)`.
pub fn match_slice(
    pats: &[Term],
    vals: &[ValueId],
    b: &mut Bindings,
    k: &mut dyn FnMut(&mut Bindings),
) {
    slice(pats, vals, b, &mut Vec::new(), &mut |b, d| check(d, b, k));
}

/// The end of a whole match: `k` runs if every deferred arithmetic
/// pattern evaluates to its value.
fn check(d: &Deferred<'_>, b: &mut Bindings, k: &mut dyn FnMut(&mut Bindings)) {
    if d.iter().all(|&(t, v)| eval_term(t, b) == Some(v)) {
        k(b);
    }
}

fn term<'t>(t: &'t Term, v: ValueId, b: &mut Bindings, d: &mut Deferred<'t>, k: &mut Cont<'_, 't>) {
    let m = b.mark();
    match t {
        Term::Anon => k(b, d),
        Term::Var(var) => match b.get(*var) {
            Some(bound) => {
                if bound == v {
                    k(b, d);
                }
            }
            None => {
                b.bind(*var, v);
                k(b, d);
                b.undo(m);
            }
        },
        Term::Const(c) => {
            if intern::id_of(c) == v {
                k(b, d);
            }
        }
        Term::Compound(f, args) => {
            if let Some(Node::Compound(g, ids)) = intern::node(v) {
                if g == f && ids.len() == args.len() {
                    slice(args, ids, b, d, k);
                    b.undo(m);
                }
            }
        }
        Term::SetEnum(pats) => {
            if let Some(Node::Set(elems)) = intern::node(v) {
                match_set_enum(pats, elems, b, d, k);
                b.undo(m);
            }
        }
        Term::Scons(h, tail) => {
            if let Some(Node::Set(elems)) = intern::node(v) {
                // {Hθ} ∪ Tθ = S requires Hθ ∈ S and Tθ ∈ {S, S − {Hθ}}.
                for &e in elems.iter() {
                    term(h, e, b, d, &mut |b2, d2| {
                        let without = set::remove(v, e).filter(|&w| w != v);
                        term(tail, v, b2, d2, k);
                        if let Some(without) = without {
                            term(tail, without, b2, d2, k);
                        }
                    });
                }
                b.undo(m);
            }
        }
        Term::Group(inner) => {
            // §4.1 body semantics, implemented natively: `<t>` matches only
            // a *set* value all of whose elements have `t`'s uniform
            // structure, and `t`'s variables then range over the elements.
            // (`p(<<X>>)` matches `p({{1,2},{3}})` but not `p({{1,2}, 3})`.)
            // Uniformity is structural — checked with a fresh variable
            // scope, exactly like the fresh-variable copy of `t` in the
            // paper's `collect` rule.
            if let Some(Node::Set(elems)) = intern::node(v) {
                let uniform = elems.iter().all(|&e| {
                    let mut scratch = Bindings::new();
                    let mut any = false;
                    match_term(inner, e, &mut scratch, &mut |_| any = true);
                    any
                });
                if uniform {
                    for &e in elems.iter() {
                        term(inner, e, b, d, k);
                    }
                    b.undo(m);
                }
            }
        }
        Term::Arith(..) => {
            if is_ground_under(t, b) {
                if eval_term(t, b) == Some(v) {
                    k(b, d);
                }
            } else {
                d.push((t, v));
                k(b, d);
                d.pop();
            }
        }
    }
}

fn slice<'t>(
    pats: &'t [Term],
    vals: &[ValueId],
    b: &mut Bindings,
    d: &mut Deferred<'t>,
    k: &mut Cont<'_, 't>,
) {
    debug_assert_eq!(pats.len(), vals.len());
    match pats.split_first() {
        None => k(b, d),
        Some((p0, rest_p)) => {
            let (v0, rest_v) = vals.split_first().expect("lengths equal");
            term(p0, *v0, b, d, &mut |b2, d2| {
                slice(rest_p, rest_v, b2, d2, k)
            });
        }
    }
}

/// Match an enumerated-set pattern `{p₁, …, pₖ}` against a ground set with
/// canonical elements `s`: assign each pattern element to some element of
/// `s` such that the assigned elements *cover* all of `s` (so the evaluated
/// pattern equals `s`). Sets of any size: the cover is one count per
/// element of `s`, on the stack for the small sets rules usually spell out.
fn match_set_enum<'t>(
    pats: &'t [Term],
    s: &[ValueId],
    b: &mut Bindings,
    d: &mut Deferred<'t>,
    k: &mut Cont<'_, 't>,
) {
    // The pattern can only equal s if it has at least |s| elements to cover
    // it, and it can never produce more distinct elements than it has.
    if s.len() > pats.len() {
        return;
    }
    // `hits[i]` counts the patterns assigned to `s[i]` so far; `missing`
    // is the number of elements with none.
    fn go<'t>(
        pats: &'t [Term],
        s: &[ValueId],
        hits: &mut [u32],
        missing: usize,
        b: &mut Bindings,
        d: &mut Deferred<'t>,
        k: &mut Cont<'_, 't>,
    ) {
        match pats.split_first() {
            None => {
                if missing == 0 {
                    k(b, d);
                }
            }
            Some((p0, rest)) => {
                // Remaining patterns must still be able to cover the
                // remaining elements.
                if rest.len() + 1 < missing {
                    return;
                }
                for (i, &e) in s.iter().enumerate() {
                    term(p0, e, b, d, &mut |b2, d2| {
                        hits[i] += 1;
                        let missing = missing - usize::from(hits[i] == 1);
                        go(rest, s, hits, missing, b2, d2, k);
                        hits[i] -= 1;
                    });
                }
            }
        }
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
    go(pats, s, hits, s.len(), b, d, k);
}

/// Collect all solutions of matching `t` against `v` as binding snapshots
/// (testing convenience).
#[cfg(test)]
fn solutions(t: &Term, v: &ldl_value::Value) -> Vec<Vec<(String, ldl_value::Value)>> {
    let mut b = Bindings::new();
    let mut out = Vec::new();
    match_term(t, intern::id_of(v), &mut b, &mut |b2| {
        let mut snap: Vec<(String, ldl_value::Value)> = b2
            .iter()
            .map(|(var, val)| (var.name().to_string(), intern::resolve(val)))
            .collect();
        snap.sort_by(|a, c| a.0.cmp(&c.0));
        out.push(snap);
    });
    assert!(b.is_empty(), "bindings must be restored");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_ast::term::Var;
    use ldl_value::Value;

    fn set(xs: &[i64]) -> Value {
        Value::set(xs.iter().map(|&i| Value::int(i)))
    }

    fn id(v: &Value) -> ValueId {
        intern::id_of(v)
    }

    #[test]
    fn var_binds_and_checks() {
        let sols = solutions(&Term::var("X"), &Value::int(3));
        assert_eq!(sols, vec![vec![("X".to_string(), Value::int(3))]]);
        // Bound variable must agree.
        let mut b = Bindings::new();
        b.bind(Var::new("X"), intern::mk_int(3));
        let mut hits = 0;
        match_term(&Term::var("X"), intern::mk_int(4), &mut b, &mut |_| {
            hits += 1
        });
        assert_eq!(hits, 0);
        match_term(&Term::var("X"), intern::mk_int(3), &mut b, &mut |_| {
            hits += 1
        });
        assert_eq!(hits, 1);
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
        let mut b = Bindings::new();
        b.bind(Var::new("X"), intern::mk_int(4));
        let t = Term::Arith(
            ldl_value::arith::ArithOp::Add,
            Box::new(Term::var("X")),
            Box::new(Term::int(1)),
        );
        let mut hits = 0;
        match_term(&t, intern::mk_int(5), &mut b, &mut |_| hits += 1);
        assert_eq!(hits, 1);
        match_term(&t, intern::mk_int(6), &mut b, &mut |_| hits += 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn eval_term_respects_restrictions() {
        let mut b = Bindings::new();
        b.bind(Var::new("S"), id(&set(&[1])));
        let t = Term::Scons(Box::new(Term::int(2)), Box::new(Term::var("S")));
        assert_eq!(eval_term(&t, &b), Some(id(&set(&[1, 2]))));
        // Inserting a present element returns the same set (same id).
        let t1 = Term::Scons(Box::new(Term::int(1)), Box::new(Term::var("S")));
        assert_eq!(eval_term(&t1, &b), Some(id(&set(&[1]))));
        // scons onto non-set is outside U.
        let bad = Term::Scons(Box::new(Term::int(2)), Box::new(Term::int(1)));
        assert_eq!(eval_term(&bad, &b), None);
        // Unbound variable: not ground.
        assert_eq!(eval_term(&Term::var("Q"), &b), None);
        assert!(!is_ground_under(&Term::var("Q"), &b));
        assert!(is_ground_under(&Term::var("S"), &b));
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
}
