//! Experiment index rows X11–X14: the §3.3, §4.1, §4.2 and §5
//! transformations, exercised through the facade.

use ldl1::transform::lps::LpsRule;
use ldl1::transform::{lps, neg_elim};
use ldl1::{Database, Evaluator, Stratification, System, Value};

/// X11 — §3.3 negation elimination on the §1 exclusive-ancestor program:
/// positive output, admissible, same standard model on the original
/// predicates.
#[test]
fn negation_elimination_excl_ancestor() {
    let src = "ancestor(X, Y) <- parent(X, Y).\n\
               ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n\
               excl_ancestor(X, Y, Z) <- ancestor(X, Y), someone(Z), ~ancestor(X, Z).";
    let original = ldl1::parser::parse_program(src).unwrap();
    let positive = neg_elim::eliminate_negation(&original).unwrap();
    assert!(positive.is_positive());
    Stratification::canonical(&positive).unwrap();

    let mut edb = Database::new();
    for (a, b) in [("x", "y"), ("y", "z")] {
        edb.insert_tuple("parent", vec![Value::atom(a), Value::atom(b)]);
    }
    for s in ["x", "y", "z", "w"] {
        edb.insert_tuple("someone", vec![Value::atom(s)]);
    }
    let ev = Evaluator::new();
    let m1 = ev.evaluate(&original, &edb).unwrap();
    let m2 = ev.evaluate(&positive, &edb).unwrap();
    for pred in ["ancestor", "excl_ancestor"] {
        assert_eq!(ev.facts(&m1, pred), ev.facts(&m2, pred), "{pred}");
    }
}

/// X12 — §4.1 body patterns: `p(<X>)` and the uniformity requirement, via
/// the facade (which compiles LDL1.5 on load).
#[test]
fn body_angle_patterns() {
    let mut sys = System::new();
    sys.load(
        "q(X) <- p(<X>).\n\
         p({1, 2}). p({3}). p(7).",
    )
    .unwrap();
    let q = sys.facts("q").unwrap();
    assert_eq!(q.len(), 3); // 1, 2, 3; the non-set 7 contributes nothing

    // The paper's uniformity example.
    let mut sys = System::new();
    sys.load(
        "q(X) <- p(<<X>>).\n\
         p({{1, 2}, {3}, {4, 5}}).\n\
         p({{6, 7}, 3, {8, 9}}).",
    )
    .unwrap();
    let q = sys.facts("q").unwrap();
    // Only the uniform set matches; X ranges over inner elements 1..5.
    assert_eq!(q.len(), 5);
    assert!(q.iter().all(|f| {
        let v = f.args()[0].as_int().unwrap();
        (1..=5).contains(&v)
    }));
}

/// X12 — admission of a body `<t>` is the macro's. `System` matches `<t>`
/// natively, so the positions and cycles §4.1's macro cannot rewrite are
/// refused by the well-formedness check and by the stratifier's `>` edge
/// for a `<t>` literal. Each program is refused by the macro too, and a
/// refused cycle names the user's predicates.
#[test]
fn body_angle_admission_matches_the_macro() {
    use ldl1::eval::EvalError;
    use ldl1::Error;

    use ldl1::ast::wf::WfError;
    // Which refusal an error is; a cycle must name only user predicates.
    let refusal = |e: &Error| match e {
        Error::Eval(EvalError::WellFormedness(errs)) => match errs.as_slice() {
            [WfError::GroupInUnsupportedPosition(_)] => "position",
            [WfError::GroupInNegativeLiteral(_)] => "negation",
            _ => "other",
        },
        Error::Eval(EvalError::NotAdmissible(n))
            if n.cycle.iter().all(|p| !p.as_str().contains('\'')) =>
        {
            "cycle"
        }
        _ => "other",
    };
    let cases = [
        ("q(X) <- p({<X>}).", "position"),
        ("q(X) <- p(scons(3, <X>)).", "position"),
        ("q(X) <- p(<X> + 1).", "position"),
        ("q(X) <- r(X), ~p(<X>).", "negation"),
        ("s({X}) <- s(<X>).", "cycle"),
        ("u(X) <- s(<X>). s({X}) <- u(X).", "cycle"),
    ];
    for (src, expected) in cases {
        let mut sys = System::new();
        let err = sys.load(src).unwrap_err();
        assert_eq!(refusal(&err), expected, "{src}: {err:?}");
        assert!(sys.program().rules.is_empty(), "{src}");

        let program = ldl1::parser::parse_program(src).unwrap();
        let by_macro = ldl1::transform::ldl15_to_ldl1(&program);
        assert!(
            by_macro.map_or(true, |p| Stratification::canonical(&p).is_err()),
            "{src}: the macro admits it"
        );
    }
}

/// X12 — on §4.1's examples, `System` runs the rule as written: one rule
/// and one schedule entry, where the macro adds a `dom'` and a grouping
/// `collect'` rule per `<t>`. The layer count is the macro's.
#[test]
fn body_angle_runs_as_written() {
    for src in [
        "q(X) <- p(<X>).",
        "q(X) <- p(<<X>>).",
        "t(A, X) <- s(A, <f(X, _)>).",
        "class(T, X) <- students(T, <X>).",
        "q(T, X) <- r(T, <h(<X>)>).",
    ] {
        let mut sys = System::new();
        sys.load(src).unwrap();
        let native = sys.program();
        assert_eq!(native.rules.len(), 1, "{src}");
        let strat = Stratification::canonical(native).unwrap();
        assert_eq!(strat.entries().count(), 1, "{src}");

        let program = ldl1::parser::parse_program(src).unwrap();
        let by_macro = ldl1::transform::ldl15_to_ldl1(&program).unwrap();
        assert_eq!(by_macro.rules.len(), 3, "{src}");
        let macro_strat = Stratification::canonical(&by_macro).unwrap();
        assert_eq!(strat.num_layers(), macro_strat.num_layers(), "{src}");
    }
}

/// X13 — §4.2.1 head terms through the facade (exactness of the three
/// shapes is covered crate-side; here: end-to-end + the degenerate cases).
#[test]
fn head_terms_through_facade() {
    let mut sys = System::new();
    sys.load(
        "flat(T, <S>, <D>) <- r(T, S, C, D).\n\
         nested(T, <h(S, <D>)>) <- r(T, S, C, D).\n\
         paired((T, S), <(C, <D>)>) <- r(T, S, C, D).\n\
         gconst(T, <c>) <- r(T, S, C, D).",
    )
    .unwrap();
    for (t, s, c, d) in [
        ("t1", "s1", "c1", "d1"),
        ("t1", "s1", "c1", "d2"),
        ("t1", "s2", "c2", "d1"),
        ("t2", "s1", "c3", "d3"),
    ] {
        sys.fact(&format!("r({t}, {s}, {c}, {d}).")).unwrap();
    }
    assert_eq!(sys.facts("flat").unwrap().len(), 2); // one per teacher
    assert_eq!(sys.facts("nested").unwrap().len(), 2);
    assert_eq!(sys.facts("paired").unwrap().len(), 3); // per (T, S)
                                                       // Grouped constant: the set {c} per teacher.
    for f in sys.facts("gconst").unwrap() {
        assert_eq!(f.args()[1], Value::set(vec![Value::atom("c")]));
    }
}

/// X14 — §5 LPS translation: subset/disj + the empty-set completion, and
/// the Proposition's witness of LDL1's richer models.
#[test]
fn lps_translation() {
    let subset = LpsRule {
        head: ldl1::parser::parse_atom("sub(X, Y)").unwrap(),
        domain: vec![ldl1::ast::literal::Literal::pos(
            ldl1::parser::parse_atom("pair(X, Y)").unwrap(),
        )],
        quantifiers: vec![("E".into(), "X".into())],
        body: vec![ldl1::ast::literal::Literal::pos(
            ldl1::parser::parse_atom("member(E, Y)").unwrap(),
        )],
    };
    let program = lps::translate_lps(&[subset]).unwrap();
    let mut edb = Database::new();
    let s12 = Value::set(vec![Value::int(1), Value::int(2)]);
    let s123 = Value::set(vec![Value::int(1), Value::int(2), Value::int(3)]);
    let empty = Value::set(vec![]);
    edb.insert_tuple("pair", vec![s12.clone(), s123.clone()]);
    edb.insert_tuple("pair", vec![s123.clone(), s12.clone()]);
    edb.insert_tuple("pair", vec![empty.clone(), s12.clone()]);
    let ev = Evaluator::new();
    let m = ev.evaluate(&program, &edb).unwrap();
    let subs = ev.facts(&m, "sub");
    assert_eq!(subs.len(), 2); // {1,2}⊆{1,2,3} and {}⊆{1,2} (vacuous ∀)
    assert!(subs.iter().any(|f| f.args()[0] == empty));
    assert!(subs.iter().any(|f| f.args()[0] == s12));

    // Proposition: p(<X>) <- q(X); w(<X>) <- p(X); q(1) builds {{1}} —
    // a set of sets of elements, outside LPS's D ∪ P(D) domains.
    let mut sys = System::new();
    sys.load("p(<X>) <- q(X). w(<X>) <- p(X). q(1).").unwrap();
    let w = sys.facts("w").unwrap();
    assert_eq!(w.len(), 1);
    assert_eq!(
        w[0].args()[0],
        Value::set(vec![Value::set(vec![Value::int(1)])])
    );
}
