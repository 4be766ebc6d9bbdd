//! Experiment index rows X1–X5: every worked example of §1 of the paper,
//! executed through the public `ldl1::System` API, checked against the
//! answers the paper states.

use ldl1::{System, Value};

fn set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|&i| Value::int(i)))
}

/// X1: the §1 ancestor program.
#[test]
fn ancestor_program() {
    let mut sys = System::new();
    sys.load(
        "ancestor(X, Y) <- ancestor(X, Z), parent(Z, Y).\n\
         ancestor(X, Y) <- parent(X, Y).",
    )
    .unwrap();
    for (a, b) in [("ad", "be"), ("be", "ca"), ("ca", "da")] {
        sys.fact(&format!("parent({a}, {b}).")).unwrap();
    }
    let anc = sys.facts("ancestor").unwrap();
    assert_eq!(anc.len(), 6);
    assert_eq!(sys.query("ancestor(ad, X)").unwrap().len(), 3);
    // Magic agrees (left-recursive shape this time).
    assert_eq!(
        sys.query("ancestor(ad, X)").unwrap(),
        sys.query_magic("ancestor(ad, X)").unwrap()
    );
}

/// X2: the §1 exclusive-ancestor program — "all ancestors but not those of
/// a particular individual (the binding to Z)".
#[test]
fn excl_ancestor_program() {
    let mut sys = System::new();
    sys.load(
        "ancestor(X, Y) <- parent(X, Y).\n\
         ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n\
         excl_ancestor(X, Y, Z) <- ancestor(X, Y), someone(Z), ~ancestor(X, Z).",
    )
    .unwrap();
    for (a, b) in [("r", "s"), ("s", "t"), ("r", "u")] {
        sys.fact(&format!("parent({a}, {b}).")).unwrap();
    }
    for x in ["r", "s", "t", "u"] {
        sys.fact(&format!("someone({x}).")).unwrap();
    }
    // r's descendants: s, t, u. With Z bound to t: pairs (r, Y, t) exist
    // only if ¬ancestor(r, t) — false, so none.
    assert!(sys.query("excl_ancestor(r, Y, t)").unwrap().is_empty());
    // s's descendants: t. ¬ancestor(s, u): true ⇒ (s, t, u) present.
    assert_eq!(sys.query("excl_ancestor(s, Y, u)").unwrap().len(), 1);
}

/// X3: the §1 even/int program "cannot be stratified".
#[test]
fn even_program_inadmissible() {
    let mut sys = System::new();
    let err = sys
        .load(
            "int(0).\n\
             int(s(X)) <- int(X).\n\
             even(0).\n\
             even(s(X)) <- int(X), ~even(X).",
        )
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("not admissible"), "{msg}");
    assert!(msg.contains("even"), "{msg}");
}

/// X4: the §1 book_deal program — sets of up to three titles whose total
/// price stays under 100, duplicates eliminated.
#[test]
fn book_deal_program() {
    let mut sys = System::new();
    sys.load(
        "book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), \
         Px + Py + Pz < 100.",
    )
    .unwrap();
    // Paperback and hardcover of the same title: "books with the same
    // title but a different price e.g., paperbacks and hardcovers are
    // eliminated" during set construction.
    for (t, p) in [("lp", 20), ("lp", 45), ("db", 30), ("ai", 44)] {
        sys.fact(&format!("book({t}, {p}).")).unwrap();
    }
    let deals = sys.facts("book_deal").unwrap();
    // {lp, db, ai} via 20+30+44 = 94 ✓.
    assert!(deals.iter().any(|f| f.args()[0]
        == Value::set(vec![
            Value::atom("ai"),
            Value::atom("db"),
            Value::atom("lp")
        ])));
    // Singletons appear (e.g. {lp} via 20*3 = 60 < 100).
    assert!(deals
        .iter()
        .any(|f| f.args()[0] == Value::set(vec![Value::atom("lp")])));
    // Duplicate-title sets collapse: a "set" built from lp twice is {lp}.
    assert!(deals
        .iter()
        .all(|f| f.args()[0].as_set().unwrap().len() <= 3));
}

/// X5: the §1 bill-of-materials program with the paper's exact data and
/// answers (tc({3},25), tc({2},45), tc({1},245)).
#[test]
fn bill_of_materials_program() {
    let mut sys = System::new();
    sys.load(
        "part(P, <S>) <- p(P, S).\n\
         tc({X}, C) <- q(X, C).\n\
         tc({X}, C) <- part(X, S), tc(S, C).\n\
         tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                     tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
         result(X, C) <- tc({X}, C).",
    )
    .unwrap();
    for (a, b) in [(1, 2), (1, 7), (2, 3), (2, 4), (3, 5), (3, 6)] {
        sys.fact(&format!("p({a}, {b}).")).unwrap();
    }
    for (x, c) in [(4, 20), (5, 10), (6, 15), (7, 200)] {
        sys.fact(&format!("q({x}, {c}).")).unwrap();
    }

    // The grouped part relation from the paper:
    // {part(1,{2,7}), part(2,{3,4}), part(3,{5,6})}.
    let parts = sys.facts("part").unwrap();
    assert_eq!(parts.len(), 3);
    assert!(parts
        .iter()
        .any(|f| f.args()[0] == Value::int(1) && f.args()[1] == set(&[2, 7])));

    // The paper's tc numbers.
    for (s, c) in [(set(&[3]), 25), (set(&[2]), 45), (set(&[1]), 245)] {
        let q = sys.query(&format!("tc({s}, C)")).unwrap();
        assert!(
            q.iter().any(|a| a.bindings[0].1 == Value::int(c)),
            "tc({s}) should cost {c}"
        );
    }

    // result for every part id.
    let result = sys.facts("result").unwrap();
    let cost = |x: i64| {
        result
            .iter()
            .find(|f| f.args()[0] == Value::int(x))
            .map(|f| f.args()[1].clone())
    };
    assert_eq!(cost(1), Some(Value::int(245)));
    assert_eq!(cost(2), Some(Value::int(45)));
    assert_eq!(cost(3), Some(Value::int(25)));
    assert_eq!(cost(7), Some(Value::int(200)));
}

/// X5 footnote 2: "if base relation q would be 'impure' in the sense that
/// it would also contain cost tuples for some of the aggregate parts, the
/// derivation would still hold".
#[test]
fn bill_of_materials_impure_q() {
    let mut sys = System::new();
    sys.load(
        "part(P, <S>) <- p(P, S).\n\
         tc({X}, C) <- q(X, C).\n\
         tc({X}, C) <- part(X, S), tc(S, C).\n\
         tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                     tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
         result(X, C) <- tc({X}, C).",
    )
    .unwrap();
    for (a, b) in [(1, 2), (1, 3)] {
        sys.fact(&format!("p({a}, {b}).")).unwrap();
    }
    // q prices the leaves AND the aggregate part 1.
    for (x, c) in [(2, 5), (3, 7), (1, 99)] {
        sys.fact(&format!("q({x}, {c}).")).unwrap();
    }
    let res = sys.query("result(1, C)").unwrap();
    // Both derivations hold: 99 (direct) and 12 (from subparts).
    let costs: Vec<_> = res.iter().map(|a| a.bindings[0].1.clone()).collect();
    assert!(costs.contains(&Value::int(99)));
    assert!(costs.contains(&Value::int(12)));
}

/// §2.1 Remark: "LDL1 has lists … handled in the usual manner as in logic
/// programming". Lists are `cons`/`nil` sugar; append works bottom-up given
/// a generator for the first argument.
#[test]
fn lists_in_the_usual_manner() {
    let mut sys = System::new();
    sys.load(
        "lst([]).\n\
         lst(T) <- lst([_ | T]).\n\
         append([], Y, Y) <- input(_, Y).\n\
         append([H | T], Y, [H | Z]) <- append(T, Y, Z), lst([H | T]).\n\
         lst([1, 2, 3]).\n\
         input([1, 2, 3], [4, 5]).",
    )
    .unwrap();
    let ans = sys.query("append([1, 2, 3], [4, 5], Z)").unwrap();
    assert_eq!(ans.len(), 1);
    assert_eq!(ans[0].bindings[0].1.to_string(), "[1, 2, 3, 4, 5]");
    // Sets of lists work too (lists are ordinary compounds in U).
    let mut sys2 = System::new();
    sys2.load("bag(<L>) <- owns(_, L). owns(a, [1]). owns(b, [2, 3]).")
        .unwrap();
    let bags = sys2.facts("bag").unwrap();
    assert_eq!(bags[0].args()[0].to_string(), "{[1], [2, 3]}");
}
