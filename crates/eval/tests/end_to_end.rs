//! End-to-end evaluation tests: every §1 program of the paper, run through
//! the full pipeline (parse → stratify → plan → layered fixpoint) and
//! checked against the reference evaluator.

use ldl_ast::program::Program;
use ldl_eval::{check_model, reference_model, Evaluator};
use ldl_parser::{parse_atom, parse_program};
use ldl_storage::Database;
use ldl_stratify::Stratification;
use ldl_value::{Fact, Value};

/// The engine's model under `ev`, after checking it against the reference
/// evaluator's (§3.2 executed literally).
fn evaluate(ev: &Evaluator, program: &Program, edb: &Database) -> Database {
    let m = ev.evaluate(program, edb).unwrap();
    assert_eq!(
        m.to_fact_set(),
        reference_model(program, edb).unwrap().to_fact_set(),
        "engine diverged from the reference model"
    );
    m
}

fn atom(s: &str) -> Value {
    Value::atom(s)
}

fn set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|&i| Value::int(i)))
}

/// §1: the classical ancestor program.
#[test]
fn ancestor_transitive_closure() {
    let program = parse_program(
        "ancestor(X, Y) <- parent(X, Y).\n\
         ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("e", "f")] {
        edb.insert_tuple("parent", vec![atom(a), atom(b)]);
    }
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    let anc = ev.facts(&m, "ancestor");
    assert_eq!(anc.len(), 7, "chain pairs plus the e-f edge");
    assert!(m.contains(&Fact::new("ancestor", vec![atom("a"), atom("d")])));
    assert!(!m.contains(&Fact::new("ancestor", vec![atom("a"), atom("f")])));
    // The result is a model (Theorem 1).
    assert!(check_model(&program, &m.to_fact_set()).is_ok());
}

/// §1: excl_ancestor — stratified negation.
#[test]
fn excl_ancestor_negation() {
    let program = parse_program(
        "ancestor(X, Y) <- parent(X, Y).\n\
         ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n\
         excl_ancestor(X, Y, Z) <- ancestor(X, Y), person(Z), ~ancestor(X, Z).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [("a", "b"), ("b", "c")] {
        edb.insert_tuple("parent", vec![atom(a), atom(b)]);
    }
    for p in ["a", "b", "c"] {
        edb.insert_tuple("person", vec![atom(p)]);
    }
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    // a's ancestors-of: b, c. excl(a, Y, Z) for Y∈{b,c}, Z where
    // ¬ancestor(a,Z): Z = a only.
    assert!(m.contains(&Fact::new(
        "excl_ancestor",
        vec![atom("a"), atom("b"), atom("a")]
    )));
    assert!(!m.contains(&Fact::new(
        "excl_ancestor",
        vec![atom("a"), atom("b"), atom("c")]
    )));
    assert!(check_model(&program, &m.to_fact_set()).is_ok());
}

/// §1: book_deal — set enumeration with an arithmetic filter.
#[test]
fn book_deal_set_enumeration() {
    let program = parse_program(
        "book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), \
         Px + Py + Pz < 100.",
    )
    .unwrap();
    let mut edb = Database::new();
    for (t, p) in [("logic", 30), ("sets", 40), ("magic", 45), ("opus", 90)] {
        edb.insert_tuple("book", vec![atom(t), Value::int(p)]);
    }
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    let deals = ev.facts(&m, "book_deal");
    // Triples under 100: {logic,sets,?}: 30+40+45=115 ✗; picking with
    // repetition: {logic,logic,logic}=90 ⇒ {logic}; {logic,sets}=100 ✗
    // via X=logic,Y=logic,Z=sets → 30+30+40=100 ✗; 30+30+45=105 ✗;
    // {sets} = 120 ✗... singleton {logic} (90), {sets}? 40*3=120 ✗,
    // {magic}? 135 ✗. {logic,sets} needs sum<100: 30+30+40=100 ✗,
    // 30+40+40=110 ✗ ⇒ absent.
    assert!(deals.contains(&Fact::new(
        "book_deal",
        vec![Value::set(vec![atom("logic")])]
    )));
    assert!(!deals
        .iter()
        .any(|f| f.args()[0] == Value::set(vec![atom("logic"), atom("sets")])));
    // "book_deal may yield singleton and doublet sets": lower a price.
    let mut edb2 = Database::new();
    for (t, p) in [("a", 10), ("b", 20), ("c", 60)] {
        edb2.insert_tuple("book", vec![atom(t), Value::int(p)]);
    }
    let m2 = evaluate(&ev, &program, &edb2);
    let deals2 = ev.facts(&m2, "book_deal");
    // {a,b,c} = 90 < 100 ✓; doublet {a,b} via (a,a,b)=40 ✓; singleton
    // {a} ✓.
    assert!(deals2.contains(&Fact::new(
        "book_deal",
        vec![Value::set(vec![atom("a"), atom("b"), atom("c")])]
    )));
    assert!(deals2.contains(&Fact::new(
        "book_deal",
        vec![Value::set(vec![atom("a"), atom("b")])]
    )));
    assert!(deals2.contains(&Fact::new("book_deal", vec![Value::set(vec![atom("a")])])));
}

/// §1: the bill-of-materials program (part / tc / result) with grouping,
/// partition, union-free recursion over sets, and the paper's exact numbers.
#[test]
fn bill_of_materials_tc() {
    let program = parse_program(
        "part(P, <S>) <- p(P, S).\n\
         tc({X}, C) <- q(X, C).\n\
         tc({X}, C) <- part(X, S), tc(S, C).\n\
         tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                     tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
         result(X, C) <- tc({X}, C).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [(1, 2), (1, 7), (2, 3), (2, 4), (3, 5), (3, 6)] {
        edb.insert_tuple("p", vec![Value::int(a), Value::int(b)]);
    }
    for (x, c) in [(4, 20), (5, 10), (6, 15), (7, 200)] {
        edb.insert_tuple("q", vec![Value::int(x), Value::int(c)]);
    }
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    // The paper: tc({3}, 25), tc({2}, 45), tc({1}, 245).
    assert!(m.contains(&Fact::new("tc", vec![set(&[3]), Value::int(25)])));
    assert!(m.contains(&Fact::new("tc", vec![set(&[2]), Value::int(45)])));
    assert!(m.contains(&Fact::new("tc", vec![set(&[1]), Value::int(245)])));
    // result projects the singletons.
    assert!(m.contains(&Fact::new("result", vec![Value::int(1), Value::int(245)])));
    assert!(m.contains(&Fact::new("result", vec![Value::int(4), Value::int(20)])));
}

/// §6: the young query — grouping over sg with a negated ancestor test.
#[test]
fn young_same_generation() {
    let program = parse_program(
        "a(X, Y) <- p(X, Y).\n\
         a(X, Y) <- a(X, Z), a(Z, Y).\n\
         sg(X, Y) <- siblings(X, Y).\n\
         sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n\
         young(X, <Y>) <- ~a(X, _), sg(X, Y).",
    )
    .unwrap();
    // Family: gp -> f, u (siblings); f -> john, u -> cousin.
    let mut edb = Database::new();
    for (x, y) in [("gp", "f"), ("gp", "u"), ("f", "john"), ("u", "cousin")] {
        edb.insert_tuple("p", vec![atom(x), atom(y)]);
    }
    edb.insert_tuple("siblings", vec![atom("f"), atom("u")]);
    edb.insert_tuple("siblings", vec![atom("u"), atom("f")]);
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    // john has no descendants; same generation: cousin (via f/u
    // siblings).
    let answers = ev.query(&m, &parse_atom("young(john, S)").unwrap());
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].bindings[0].1, Value::set(vec![atom("cousin")]));
    // f has descendants ⇒ the query young(f, S) fails.
    assert!(ev.query(&m, &parse_atom("young(f, S)").unwrap()).is_empty());
    // gp has no same-generation member ⇒ empty group ⇒ no tuple
    // (the §6 footnote: the query fails if S would be empty).
    assert!(ev
        .query(&m, &parse_atom("young(gp, S)").unwrap())
        .is_empty());
}

/// Theorem 2: canonical and fine layerings compute the same model.
#[test]
fn theorem2_layering_independence() {
    let src = "a(X) <- e(X).\n\
               b(X) <- a(X), ~e2(X).\n\
               c(<X>) <- b(X).\n\
               d(X) <- c(S), member(X, S).\n\
               d(X) <- d(X), a(X).";
    let program = parse_program(src).unwrap();
    let mut edb = Database::new();
    for i in 0..10 {
        edb.insert_tuple("e", vec![Value::int(i)]);
    }
    for i in 0..5 {
        edb.insert_tuple("e2", vec![Value::int(i * 2)]);
    }
    let ev = Evaluator::new();
    let canon = Stratification::canonical(&program).unwrap();
    let fine = Stratification::fine(&program).unwrap();
    let m1 = ev.evaluate_with(&program, &edb, &canon).unwrap();
    let m2 = ev.evaluate_with(&program, &edb, &fine).unwrap();
    assert_eq!(m1.to_fact_set(), m2.to_fact_set());
}

/// The engine agrees with the reference model on a mixed workload
/// (recursion, negation, grouping, arithmetic in one program).
#[test]
fn configs_agree() {
    let program = parse_program(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         childless(X) <- node(X), ~haskid(X).\n\
         haskid(X) <- par(X, Y).\n\
         kids(X, <Y>) <- par(X, Y).\n\
         bigfam(X, N) <- kids(X, S), card(S, N), N >= 2.",
    )
    .unwrap();
    let mut edb = Database::new();
    for i in 0..30i64 {
        edb.insert_tuple("node", vec![Value::int(i)]);
        if i > 0 {
            edb.insert_tuple("par", vec![Value::int(i / 2), Value::int(i)]);
        }
    }
    let model = evaluate(&Evaluator::new(), &program, &edb).to_fact_set();
    assert!(check_model(&program, &model).is_ok());
}

/// Inadmissible programs are rejected end to end.
#[test]
fn inadmissible_rejected() {
    let program = parse_program(
        "int(0).\n\
         even(0).\n\
         even(s(X)) <- int(X), ~even(X).\n\
         int(s(X)) <- int(X).",
    )
    .unwrap();
    let err = Evaluator::new()
        .evaluate(&program, &Database::new())
        .unwrap_err();
    assert!(err.to_string().contains("not admissible"));
}

/// Ill-formed programs are rejected end to end.
#[test]
fn ill_formed_rejected() {
    let program = parse_program("q(X, Y) <- p(X).").unwrap();
    let err = Evaluator::new()
        .evaluate(&program, &Database::new())
        .unwrap_err();
    assert!(err.to_string().contains("not well-formed"));
}

/// Facts inside programs (ground heads with empty bodies) are derived.
#[test]
fn program_facts_loaded() {
    let program = parse_program(
        "r(1). h({1}).\n\
         p(<X>) <- r(X).\n\
         q(X) <- p(X), h(X).",
    )
    .unwrap();
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &Database::new());
    // §2.2's example model, computed: {r(1), h({1}), p({1}), q({1})}.
    assert!(m.contains(&Fact::new("p", vec![set(&[1])])));
    assert!(m.contains(&Fact::new("q", vec![set(&[1])])));
    assert_eq!(m.num_facts(), 4);
}

/// Function symbols: terms with constructors work through recursion.
#[test]
fn function_symbols_in_heads() {
    let program = parse_program(
        "num(z).\n\
         num(s(X)) <- num(X), small(X).\n\
         small(z).\n\
         small(s(z)).\n\
         small(s(s(z))).",
    )
    .unwrap();
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &Database::new());
    let nums = ev.facts(&m, "num");
    // z, s(z), s(s(z)), s(s(s(z))).
    assert_eq!(nums.len(), 4);
}

/// Deep recursion: a 2000-long chain terminates and is complete.
#[test]
fn long_chain() {
    let program = parse_program(
        "r(X, Y) <- e(X, Y).\n\
         r(X, Y) <- e(X, Z), r(Z, Y).",
    )
    .unwrap();
    let mut edb = Database::new();
    let n = 800i64;
    for i in 0..n {
        edb.insert_tuple("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    let ev = Evaluator::new();
    let m = ev.evaluate(&program, &edb).unwrap();
    let count = m.relation("r".into()).unwrap().len();
    assert_eq!(count as i64, n * (n + 1) / 2);
}

/// A pass whose first step has a constant key probes the index once and
/// walks one posting list — it does not scan the relation.
#[test]
fn constant_keyed_first_step_probes_once() {
    let program = parse_program("q(X) <- r(1, X).").unwrap();
    let mut edb = Database::new();
    for i in 0..600 {
        edb.insert_tuple("r", vec![Value::int(i % 3), Value::int(i)]);
    }
    let (m, stats) = Evaluator::new().evaluate_stats(&program, &edb).unwrap();
    assert_eq!(m.relation("q".into()).unwrap().len(), 200);
    assert_eq!((stats.index_probes, stats.attempts), (1, 200));
}

/// Query patterns with sets and partial bindings.
#[test]
fn query_patterns() {
    let program = parse_program("kids(X, <Y>) <- par(X, Y).").unwrap();
    let mut edb = Database::new();
    for (a, b) in [(1, 10), (1, 11), (2, 20)] {
        edb.insert_tuple("par", vec![Value::int(a), Value::int(b)]);
    }
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    // Bound key.
    let a1 = ev.query(&m, &parse_atom("kids(1, S)").unwrap());
    assert_eq!(a1.len(), 1);
    assert_eq!(a1[0].bindings[0].1, set(&[10, 11]));
    // Set pattern: singleton member extraction.
    let a2 = ev.query(&m, &parse_atom("kids(X, {K})").unwrap());
    assert_eq!(a2.len(), 1); // only kids(2, {20}) is a singleton
    assert_eq!(a2[0].bindings[0].1, Value::int(2));
    // No match.
    assert!(ev.query(&m, &parse_atom("kids(9, S)").unwrap()).is_empty());

    // Each kind of argument a query shape tells apart, against answers
    // written by hand (the same as the term-tree matcher gave).
    let program = parse_program(
        "pair(1, 1). pair(1, 2). pair(2, 2). pair(3, 1). num(3). num(4).\n\
         s({1, 2, 3}). s({4}). s({5, 6}).\n\
         t(f(1, 1)). t(f(2, 1)). t(f(2, 2)). t(g(1, 1)). flag.",
    )
    .unwrap();
    let m = evaluate(&ev, &program, &Database::new());
    let answers = |q: &str| -> Vec<String> {
        let atom = parse_atom(q).unwrap();
        ev.query(&m, &atom).iter().map(|a| a.to_string()).collect()
    };
    for (q, want) in [
        // A repeated variable, and `_`.
        ("pair(X, X)", &["X = 1", "X = 2"][..]),
        ("pair(X, _)", &["X = 1", "X = 2", "X = 3"]),
        // Ground arithmetic, and a ground set written out of order.
        ("num(1 + 2)", &["yes"]),
        ("s({3, 1, 2})", &["yes"]),
        // An open set, and a compound with a constant inside.
        (
            "s({X, Y})",
            &["X = 4, Y = 4", "X = 5, Y = 6", "X = 6, Y = 5"],
        ),
        ("t(f(X, 1))", &["X = 1", "X = 2"]),
        // A ground argument outside U matches nothing.
        ("num(9223372036854775807 + 1)", &[]),
        // A nullary predicate, and a ground query's `yes` and `no`.
        ("flag", &["yes"]),
        ("pair(1, 1)", &["yes"]),
        ("pair(1, 3)", &[]),
    ] {
        assert_eq!(answers(q), want, "{q}");
    }
}

/// Facts whose arithmetic patterns wait for a later binding: `X + 1` is
/// checked once the rest of its pattern has bound `X`. Each case answered
/// nothing at some point: the query and the reference matched columns in
/// order, and the compound match step did so at every level.
const WAITING: &str = "p(2, 1). p(3, 2). p(5, 5). p(1, 2).\n\
     q(f(2, 1)). q(f(3, 2)). q(f(5, 1)).\n\
     q(f(g(3), 2)). q(f(g(2), 1)). q(f(g(2), 2)). s({2, 3}). s({3, 5}).\n\
     a(X) <- p(X + 1, X).\n\
     c(X) <- q(f(X + 1, X)).\n\
     d(X) <- q(f(g(X + 1), X)).\n\
     n(X) <- s({X + 1, X}).";

/// The values of `pred`'s one column in `m`, sorted.
fn ints(m: &Database, pred: &str) -> Vec<Value> {
    let facts = Evaluator::new().facts(m, pred);
    facts.iter().map(|f| f.args()[0].clone()).collect()
}

/// By hand, over `p(2, 1)` and `p(3, 2)`.
#[test]
fn a_query_checks_arithmetic_after_the_column_that_binds_it() {
    let ev = Evaluator::new();
    let m = ev
        .evaluate(&parse_program(WAITING).unwrap(), &Database::new())
        .unwrap();
    let answers = ev.query(&m, &parse_atom("p(X + 1, X)").unwrap());
    let answers: Vec<String> = answers.iter().map(|a| a.to_string()).collect();
    assert_eq!(answers, ["X = 1", "X = 2"]);
}

#[test]
fn the_reference_checks_arithmetic_after_the_column_that_binds_it() {
    let program = parse_program(WAITING).unwrap();
    let reference = reference_model(&program, &Database::new()).unwrap();
    let engine = Evaluator::new()
        .evaluate(&program, &Database::new())
        .unwrap();
    assert_eq!(reference.to_fact_set(), engine.to_fact_set());
    assert_eq!(ints(&reference, "a"), [Value::int(1), Value::int(2)]);
}

/// By hand: `q(f(2, 1))` and `q(f(3, 2))` for `c`, `q(f(g(2), 1))` and
/// `q(f(g(3), 2))` for `d`, `s({2, 3})` for `n`; on the engine, whose match
/// step runs the term-tree matcher, and on the reference.
#[test]
fn a_match_step_checks_arithmetic_after_the_argument_that_binds_it() {
    let program = parse_program(WAITING).unwrap();
    let engine = Evaluator::new()
        .evaluate(&program, &Database::new())
        .unwrap();
    let reference = reference_model(&program, &Database::new()).unwrap();
    for m in [&engine, &reference] {
        for pred in ["c", "d"] {
            assert_eq!(ints(m, pred), [Value::int(1), Value::int(2)], "{pred}");
        }
        assert_eq!(ints(m, "n"), [Value::int(2)]);
    }
    let ev = Evaluator::new();
    for q in ["q(f(X + 1, X))", "q(f(g(X + 1), X))"] {
        let answers = ev.query(&engine, &parse_atom(q).unwrap());
        let answers: Vec<String> = answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(answers, ["X = 1", "X = 2"], "{q}");
    }
}

/// Arithmetic in two subterms that wait on each other: `X + 1` waits for
/// the `X` bound in the other subterm, whose `Y + 1` waits for this one's
/// `Y`, so neither subterm can be matched whole before the other. By
/// hand: `X = 2, Y = 4` from `r(f(g(3, 4), h(5, 2)))` and from
/// `s({f(3, 4), g(5, 2)})`; `r(f(g(3, 4), h(6, 2)))` and
/// `s({f(3, 4), g(6, 2)})` match nothing.
const CROSSED: &str = "r(f(g(3, 4), h(5, 2))). r(f(g(3, 4), h(6, 2))).\n\
     s({f(3, 4), g(5, 2)}). s({f(3, 4), g(6, 2)}).\n\
     m(X) <- r(f(g(X + 1, Y), h(Y + 1, X))).\n\
     n(X, Y) <- s({f(X + 1, Y), g(Y + 1, X)}).";

#[test]
fn arithmetic_waits_for_the_whole_pattern() {
    let program = parse_program(CROSSED).unwrap();
    let ev = Evaluator::new();
    let engine = ev.evaluate(&program, &Database::new()).unwrap();
    let reference = reference_model(&program, &Database::new()).unwrap();
    assert_eq!(engine.to_fact_set(), reference.to_fact_set());
    for m in [&engine, &reference] {
        assert_eq!(ints(m, "m"), [Value::int(2)]);
        let n = Evaluator::new().facts(m, "n");
        let n: Vec<String> = n.iter().map(|f| f.to_string()).collect();
        assert_eq!(n, ["n(2, 4)"]);
    }
    for q in [
        "r(f(g(X + 1, Y), h(Y + 1, X)))",
        "s({f(X + 1, Y), g(Y + 1, X)})",
    ] {
        let answers = ev.query(&engine, &parse_atom(q).unwrap());
        let answers: Vec<String> = answers.iter().map(|a| a.to_string()).collect();
        assert_eq!(answers, ["X = 2, Y = 4"], "{q}");
    }
}

/// Enumerated-set patterns cover stored sets of any size, as a query and
/// as a body literal, ground and with a variable. (The cover used to be a
/// `u64` mask: 64 elements answered `no` with overflow checks off and
/// panicked with them on, 65 and up panicked in both.)
#[test]
fn big_set_patterns() {
    for n in [63, 64, 65, 130] {
        let elems: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
        let ground = format!("{{{}}}", elems.join(", "));
        // `{X, 2, …, n}` equals `{1, …, n}` exactly when X = 1.
        let open = format!("{{X, {}}}", elems[1..].join(", "));
        let src = format!(
            "p({ground}).\n\
             whole(yes) <- p({ground}).\n\
             rest(X) <- p({open}).\n\
             other(yes) <- p({{0, {}}}).",
            elems[1..].join(", ")
        );
        let ev = Evaluator::new();
        let m = evaluate(&ev, &parse_program(&src).unwrap(), &Database::new());
        assert!(m.contains(&Fact::new("whole", vec![atom("yes")])), "{n}");
        assert!(m.contains(&Fact::new("rest", vec![Value::int(1)])), "{n}");
        assert_eq!(m.relation("rest".into()).unwrap().len(), 1, "{n}");
        assert!(m.relation("other".into()).is_none_or(|r| r.is_empty()));

        let query = |q: String| ev.query(&m, &parse_atom(&q).unwrap());
        assert_eq!(query(format!("p({ground})")).len(), 1, "{n}");
        let answers = query(format!("p({open})"));
        assert_eq!(answers.len(), 1, "{n}");
        assert_eq!(answers[0].bindings[0].1, Value::int(1), "{n}");
        assert!(query(format!("p({{X, {}}})", elems[2..].join(", "))).is_empty());
    }
}

/// A `_` nested in a negated literal's argument: `~p(X, f(_))` and
/// `~p(X, {Y, _})` reject exactly the bindings some row matches, `~p(_, _)`
/// asks whether `p` has a row at all, and over a relation that does not
/// exist every one of them holds.
#[test]
fn nested_anonymous_variables_under_negation() {
    let program = parse_program(
        "p(1, f(2)). p(1, g(2)). p(2, {3, 4}). p(3, {5}). p(4, 7). p(5, f(g(1))).\n\
         n(1). n(2). n(3). n(4). n(5). m(3). m(5).\n\
         no_f(X) <- n(X), ~p(X, f(_)).\n\
         no_pair(X, Y) <- n(X), m(Y), ~p(X, {Y, _}).\n\
         no_p(X) <- n(X), ~p(_, _).\n\
         no_q(X) <- n(X), ~q(X, f(_)).\n\
         no_q_pair(X, Y) <- n(X), m(Y), ~q(X, {Y, _}).\n\
         no_q_at_all(X) <- n(X), ~q(_, _).",
    )
    .unwrap();
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &Database::new());
    check_model(&program, &m.to_fact_set()).unwrap();
    // `facts` sorts, so the rows come in value order.
    let ints = |pred: &str| -> Vec<Vec<Value>> {
        ev.facts(&m, pred)
            .iter()
            .map(|f| f.args().to_vec())
            .collect()
    };
    let col = |xs: &[i64]| -> Vec<Vec<Value>> { xs.iter().map(|&x| vec![Value::int(x)]).collect() };
    // p(1, f(2)) and p(5, f(g(1))) match `f(_)`; p(1, g(2)) and p(4, 7) do not.
    assert_eq!(ints("no_f"), col(&[2, 3, 4]));
    // `{Y, _}` matches a set of Y and at most one other element: p(2, {3, 4})
    // rejects (2, 3), p(3, {5}) rejects (3, 5).
    let mut pairs: Vec<Vec<Value>> = Vec::new();
    for x in 1..=5 {
        for y in [3, 5] {
            if ![(2, 3), (3, 5)].contains(&(x, y)) {
                pairs.push(vec![Value::int(x), Value::int(y)]);
            }
        }
    }
    assert_eq!(ints("no_pair"), pairs);
    assert!(ints("no_p").is_empty());
    assert_eq!(ints("no_q"), col(&[1, 2, 3, 4, 5]));
    assert_eq!(ints("no_q_pair").len(), 10);
    assert_eq!(ints("no_q_at_all"), col(&[1, 2, 3, 4, 5]));
}

/// `partition(S, S1, S2)` with `S` and `S1` bound is a check, so it answers
/// over a set too large to enumerate: at 21 elements, one past the
/// generative mode's cap, it used to panic although `S1` was bound.
#[test]
fn partition_with_a_bound_part_takes_large_sets() {
    let whole: Vec<i64> = (1..=21).collect();
    let program = parse_program("q(S2) <- pair(S, S1), partition(S, S1, S2).").unwrap();
    let mut edb = Database::new();
    edb.insert_tuple("pair", vec![set(&whole), set(&whole[..5])]);
    // Not a part of S: no solution.
    edb.insert_tuple("pair", vec![set(&whole), set(&[0, 1])]);
    let ev = Evaluator::new();
    let m = evaluate(&ev, &program, &edb);
    assert_eq!(ev.facts(&m, "q").len(), 1);
    assert!(m.contains(&Fact::new("q", vec![set(&whole[5..])])));
}

/// `explain_query` names the arm `query` takes: the probe of an index the
/// database already has, the id-filtered scan when none covers the ground
/// columns (with the indexes there are), the plain scan.
#[test]
fn query_explanations() {
    let mut db = Database::new();
    for i in 0..1500 {
        db.insert_tuple("e", vec![Value::int(i % 3), Value::int(i), Value::int(7)]);
    }
    let ev = Evaluator::new();
    let explain = |db: &Database, q: &str| ev.explain_query(db, &parse_atom(q).unwrap());
    assert_eq!(explain(&db, "e(X, Y, Z)"), "e(X, Y, Z): scan e, 1 500 rows");
    assert_eq!(
        explain(&db, "e(1, Y, 7)"),
        "e(1, Y, 7): scan e, 1 500 rows, filter on [0, 2] — \
         no index covers [0, 2] (have: [0, 1, 2])"
    );
    assert_eq!(
        explain(&db, "e(1, 4, 7)"),
        "e(1, 4, 7): probe e[0, 1, 2], 1 of 1 500 rows"
    );
    db.relation_mut("e".into(), 3).ensure_index(&[2]);
    db.relation_mut("e".into(), 3).ensure_index(&[0]);
    assert_eq!(
        explain(&db, "e(1, Y, 7)"),
        "e(1, Y, 7): probe e[0], 500 of 1 500 rows"
    );
    assert_eq!(ev.query(&db, &parse_atom("e(1, Y, 7)").unwrap()).len(), 500);
    assert_eq!(explain(&db, "e(1, 2)"), "e(1, 2): no match, e has arity 3");
    assert_eq!(explain(&db, "f(1)"), "f(1): no relation f");
}
