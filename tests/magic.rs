//! Experiment index row X15: the §6 running example — the adorned rule set,
//! the magic rewrite (rules 1′–11′), and answer equivalence — plus broader
//! Theorem 3/4 checks through the facade.

#[path = "../crates/magic/tests/support/unfold.rs"]
mod unfold;

use ldl1::magic::MagicEvaluator;
use ldl1::{Symbol, System, Value};
use unfold::unfold;

const EXCL_ANCESTOR: &str = "anc(X, Y) <- par(X, Y).\n\
                             anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                             excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).";

const YOUNG: &str = "a(X, Y) <- p(X, Y).\n\
                     a(X, Y) <- a(X, Z), a(Z, Y).\n\
                     sg(X, Y) <- siblings(X, Y).\n\
                     sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n\
                     young(X, <Y>) <- ~a(X, _), sg(X, Y).";

/// X15a — the rewrite, its supplementary literals unfolded, reproduces
/// the shape of the paper's rules 1′–11′.
#[test]
fn young_rewrite_shape() {
    let program = ldl1::parser::parse_program(YOUNG).unwrap();
    let query = ldl1::parser::parse_atom("young(john, S)").unwrap();
    let mp = MagicEvaluator::compile(&program, &query).unwrap();
    let text = unfold(&mp.program).to_string();

    // 11′: the seed.
    assert_eq!(mp.seed.to_string(), "m'young'bf(john)");
    // 3′: magic_a^bf(X) <- magic_young^bf(X).
    assert!(text.contains("m'a'bf(X) <- m'young'bf(X)."), "{text}");
    // 2′: magic_a^bf(Z) <- magic_a^bf(X), a^bf(X, Z).
    assert!(
        text.contains("m'a'bf(Z) <- m'a'bf(X), a'bf(X, Z)."),
        "{text}"
    );
    // 4′ shape: recursive magic for sg through p.
    assert!(
        text.contains("m'sg'bf(Z1) <- m'sg'bf(X), p(Z1, X)."),
        "{text}"
    );
    // 6′: a^bf(X, Y) <- magic_a^bf(X), p(X, Y).
    assert!(text.contains("a'bf(X, Y) <- m'a'bf(X), p(X, Y)."), "{text}");
    // 7′: the doubly-guarded recursive a rule.
    assert!(
        text.contains("a'bf(X, Y) <- m'a'bf(X), a'bf(X, Z), a'bf(Z, Y)."),
        "{text}"
    );
    // 8′: sg^bf(X, Y) <- magic_sg^bf(X), siblings(X, Y).
    assert!(
        text.contains("sg'bf(X, Y) <- m'sg'bf(X), siblings(X, Y)."),
        "{text}"
    );
    // 10′: the modified young rule keeps its grouping and negation.
    assert!(
        text.contains("young'bf(X, <Y>) <- m'young'bf(X), ~a'bf(X, _), sg'bf(X, Y)."),
        "{text}"
    );
}

/// X15b — the young query answers agree between plain and magic
/// evaluation, across several family shapes.
#[test]
fn young_answers_agree() {
    for (pairs, siblings, who, expect_some) in [
        // The paper's scenario: john is young.
        (
            vec![
                ("gp", "f"),
                ("gp", "u"),
                ("f", "john"),
                ("u", "c1"),
                ("u", "c2"),
            ],
            vec![("f", "u"), ("u", "f")],
            "john",
            true,
        ),
        // john has a child: not young.
        (
            vec![
                ("gp", "f"),
                ("gp", "u"),
                ("f", "john"),
                ("john", "kid"),
                ("u", "c1"),
            ],
            vec![("f", "u"), ("u", "f")],
            "john",
            false,
        ),
        // No same-generation partner: empty group, query fails.
        (vec![("gp", "f"), ("f", "john")], vec![], "john", false),
    ] {
        let mut sys = System::new();
        sys.load(YOUNG).unwrap();
        for (x, y) in pairs {
            sys.fact(&format!("p({x}, {y}).")).unwrap();
        }
        for (x, y) in siblings {
            sys.fact(&format!("siblings({x}, {y}).")).unwrap();
        }
        let q = format!("young({who}, S)");
        let plain = sys.query(&q).unwrap();
        let magic = sys.query_magic(&q).unwrap();
        assert_eq!(plain, magic, "query {q}");
        assert_eq!(!plain.is_empty(), expect_some, "query {q}");
    }
}

/// The magic evaluation computes strictly less than the full model on a
/// selective query (the "often more efficient" claim, structurally).
#[test]
fn magic_computes_less() {
    let mut sys = System::new();
    sys.load(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    // 30 disjoint chains of length 20.
    for c in 0..30 {
        for i in 0..20 {
            sys.insert(
                "par",
                vec![Value::int(c * 1000 + i), Value::int(c * 1000 + i + 1)],
            )
            .unwrap();
        }
    }
    let program = sys.program().clone();
    let query = ldl1::parser::parse_atom("anc(5010, Y)").unwrap();
    let mp = MagicEvaluator::compile(&program, &query).unwrap();
    let ev = MagicEvaluator::new();
    let db = ev.evaluate(&mp, &program, sys.edb()).unwrap();
    let magic_derived = db.relation(Symbol::intern("anc'bf")).map_or(0, |r| r.len());

    let full = sys.facts("anc").unwrap().len();
    assert!(
        magic_derived * 10 < full,
        "magic derived {magic_derived}, full model has {full}"
    );
    // …and agrees on the answers.
    assert_eq!(
        sys.query("anc(5010, Y)").unwrap(),
        sys.query_magic("anc(5010, Y)").unwrap()
    );
}

/// Magic on grouped-and-negated programs with several query bindings.
#[test]
fn magic_grab_bag_equivalence() {
    let src = "r(X, Y) <- e(X, Y).\n\
               r(X, Y) <- e(X, Z), r(Z, Y).\n\
               sinks(X, <Y>) <- r(X, Y), ~hasout(Y).\n\
               hasout(X) <- e(X, _).";
    let mut sys = System::new();
    sys.load(src).unwrap();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)] {
        sys.insert("e", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    for q in [
        "sinks(0, S)",
        "sinks(1, S)",
        "sinks(3, S)",
        "sinks(5, S)",
        "sinks(X, S)",
    ] {
        assert_eq!(
            sys.query(q).unwrap(),
            sys.query_magic(q).unwrap(),
            "query {q}"
        );
    }
    // Spot-check a value: from 0 the only sinks are 3 and 4.
    let s = sys.query_magic("sinks(0, S)").unwrap();
    assert_eq!(s[0].bindings[0].1.to_string(), "{3, 4}");
}

/// A grouped head position is `f` in every adornment (§6), whichever
/// position it is: with the grouped argument *first*, a `bb` query or call
/// used to build `m'kids'bb` with two arities (callers and seed passing
/// both arguments, the modified rule's guard one) and lose the answer.
#[test]
fn grouped_argument_position_is_free_in_every_adornment() {
    for (src, queries) in [
        (
            "kids(<K>, P) <- par(P, K).\n\
             both(P) <- kids(S, P), kids(S, P).\n\
             par(a, b). par(a, c).",
            ["kids({b, c}, a)", "kids({b}, a)", "kids(S, a)", "both(a)"],
        ),
        (
            "kids(P, <K>) <- par(P, K).\n\
             both(P) <- kids(P, S), kids(P, S).\n\
             par(a, b). par(a, c).",
            ["kids(a, {b, c})", "kids(a, {b})", "kids(a, S)", "both(a)"],
        ),
    ] {
        let mut sys = System::new();
        sys.load(src).unwrap();
        for q in queries {
            let plain = sys.query(q).unwrap();
            assert_eq!(plain, sys.query_magic(q).unwrap(), "query {q} over {src}");
            assert_eq!(plain.len(), usize::from(!q.contains("{b}")), "query {q}");
        }
    }
}

/// §4.1: the compiled form of a body `<t>` keeps the pattern inside a
/// built-in, which the facade checks as LDL1.5 — under `query_magic` too.
#[test]
fn body_group_patterns_answer_through_magic() {
    for (src, q) in [
        ("flat(X) <- nest(<<X>>). nest({{1, 2}, {3}}).", "flat(X)"),
        (
            "pairs(T, X) <- r(T, <h(<X>)>). r(t, {h({1, 2}), h({3})}).",
            "pairs(T, X)",
        ),
    ] {
        let mut sys = System::new();
        sys.load(src).unwrap();
        let plain = sys.query(q).unwrap();
        assert_eq!(plain.len(), 3, "query {q} over {src}");
        assert_eq!(plain, sys.query_magic(q).unwrap(), "query {q} over {src}");
    }
}

/// The staged schedule is semi-naive end to end: one frontier lives across
/// every base fixpoint, so re-entering the base rules after a guarded pass
/// (or at the close of the schedule) joins only what is new. On a chain
/// every derivation is found exactly once — no attempt wasted, no
/// duplicate rejected at the merge.
#[test]
fn magic_schedule_derives_each_fact_once() {
    let program = ldl1::parser::parse_program(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut edb = ldl1::Database::new();
    for i in 0..50 {
        edb.insert_tuple("par", vec![Value::int(i), Value::int(i + 1)]);
    }
    let query = ldl1::parser::parse_atom("anc(10, Y)").unwrap();
    let mp = MagicEvaluator::compile(&program, &query).unwrap();
    let (db, stats) = MagicEvaluator::new()
        .evaluate_stats(&mp, &program, &edb)
        .unwrap();
    // 40 answers below node 10; the magic set {10, …, 50} minus its seed,
    // one supplementary `sup(X, Z)` per `par` edge leaving {10, …, 49},
    // and the 40 + 39 + … + 1 ancestor pairs the magic set admits were
    // derived.
    assert_eq!(ldl1::Evaluator::new().query(&db, &mp.query).len(), 40);
    assert_eq!(stats.facts_derived, 40 + 40 + 820, "{stats}");
    assert_eq!(stats.attempts, stats.facts_derived, "{stats}");
    assert_eq!(stats.dedup_inserts, 0, "{stats}");
}

/// §1's exclusive ancestors through `System::query` on a cold system: the
/// negated `~anc(X, Z)` has `X` where the positive `anc(X, Y)` binds, so
/// the rewrite probes `anc'bf` instead of seeding `m'anc'bb` with every
/// (reachable, node) pair — and the answers are the paper's model's.
#[test]
fn negated_literal_probes_the_positive_literals_relation() {
    let mut sys = System::new();
    sys.load(EXCL_ANCESTOR).unwrap();
    for n in 0..12 {
        sys.insert("node", vec![Value::int(n)]).unwrap();
    }
    for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (5, 6), (6, 7), (9, 10)] {
        sys.insert("par", vec![Value::int(a), Value::int(b)])
            .unwrap();
    }
    let q = "excl(0, Y, Z)";
    let atom = ldl1::parser::parse_atom(q).unwrap();
    let adorned = ldl1::magic::adorn::adorn_program(sys.program(), &atom).unwrap();
    assert_eq!(adorned.negations_reused, 1);
    let arm = sys.explain_query(q).unwrap();
    assert!(
        arm.starts_with("excl(0, Y, Z): magic excl'bff: seed m'excl'bff(0), "),
        "{arm}"
    );

    let reference = ldl1::reference_model(sys.program(), sys.edb()).unwrap();
    let expected = ldl1::Evaluator::new().query(&reference, &atom);
    // Y ∈ {0, 1, 2, 3}, Z one of the eight nodes 0 cannot reach.
    assert_eq!(expected.len(), 4 * 8);
    assert_eq!(sys.query(q).unwrap(), expected);
    let magic = sys.last_stats();
    assert_eq!(sys.query_magic(q).unwrap(), expected);
    // The second query builds the model, which holds more than the cone.
    assert_eq!(sys.query(q).unwrap(), expected);
    assert!(
        magic.facts_derived < sys.last_stats().facts_derived,
        "magic {magic} vs model {}",
        sys.last_stats()
    );
}

/// §1's bill of materials through §6 on a cold system: a binary part tree
/// of depth 7 (128 priced leaves), and `result(1, C)` answers the sum of the
/// leaf prices. The delta passes of the two `partition` rules used to scan
/// the whole magic set once per delta tuple, and `partition` enumerated
/// every split of a set whose first part was bound: this took ~95 ms in
/// release and grew 4× per level (EXPERIMENTS.md P4). Since the rewrite
/// joins `partition` once, into a supplementary relation that the later
/// rules probe, no delta pass of it runs a full plan in place.
#[test]
fn bill_of_materials_depth_7_answers_the_leaf_price_sum() {
    const BOM: &str = "part(P, <S>) <- p(P, S).\n\
                       tc({X}, C) <- q(X, C).\n\
                       tc({X}, C) <- part(X, S), tc(S, C).\n\
                       tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                                   tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
                       result(X, C) <- tc({X}, C).";
    let mut sys = System::new();
    sys.load(BOM).unwrap();
    let mut batch = sys.mutate();
    let mut total = 0;
    // Heap numbering: part i has children 2i and 2i + 1; depth 7 ends at
    // the leaves 128..=255.
    for part in 1..128 {
        for child in [2 * part, 2 * part + 1] {
            batch.assert("p", vec![Value::int(part), Value::int(child)]);
        }
    }
    for leaf in 128..256 {
        let price = leaf % 97 + 1;
        total += price;
        batch.assert("q", vec![Value::int(leaf), Value::int(price)]);
    }
    batch.commit().unwrap();
    assert!(sys
        .explain_query("result(1, C)")
        .unwrap()
        .contains(": magic "));
    let answers = sys.query("result(1, C)").unwrap();
    assert_eq!(answers.len(), 1, "{answers:?}");
    assert_eq!(answers[0].bindings[0].1, Value::int(total));
}

/// The cold path end to end: a 2 000-chain forest, one bound `anc(0, Y)`
/// on a system that has never evaluated. The §6 arm derives the ten-node
/// cone of chain 0 — under 1 % of what the model holds — and caches
/// nothing; the second query buys the model, and a commit after it is
/// maintained instead of landing in the EDB only.
#[test]
fn cold_bound_query_derives_its_cone_then_buys_the_model() {
    let mut sys = System::new();
    sys.load(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut batch = sys.mutate();
    for c in 0..2_000 {
        for k in 0..10 {
            batch.assert(
                "par",
                vec![Value::int(c * 100 + k), Value::int(c * 100 + k + 1)],
            );
        }
    }
    batch.commit().unwrap();

    let answers = sys.query("anc(0, Y)").unwrap();
    assert_eq!(answers.len(), 10);
    let cone = sys.last_stats().facts_derived;

    assert_eq!(sys.query("anc(0, Y)").unwrap(), answers);
    let model = sys.last_stats().facts_derived;
    assert_eq!(model, 2_000 * 55, "the second query evaluates the model");
    assert!(cone * 100 < model, "magic derived {cone} of {model}");

    sys.insert("par", vec![Value::int(10), Value::int(11)])
        .unwrap();
    assert_eq!(sys.last_stats().strata_delta, 1, "{}", sys.last_stats());
    assert_eq!(sys.query("anc(0, Y)").unwrap().len(), 11);
}

/// The cold bound query's index builds, counted by hand: the §6 rules of
/// `anc(0, Y)` run on a copy of the EDB that holds no index, and the one
/// EDB index they probe is `par` on its first column (the magic rule
/// `m'anc'bf(Z) <- m'anc'bf(X), par(X, Z)` binds it), built once over all
/// of `par`'s 30 rows. The two derived relations the recursive rule probes,
/// `anc'bf` on its first column and its supplementary relation on its
/// second, get their index once each relation holds a row — one row each —
/// and keep it up to date from there: 3 builds over 32 rows.
#[test]
fn a_cold_bound_query_builds_one_index_over_the_edb() {
    let mut sys = System::new();
    sys.load(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut batch = sys.mutate();
    for c in 0..3 {
        for k in 0..10 {
            batch.assert(
                "par",
                vec![Value::int(c * 100 + k), Value::int(c * 100 + k + 1)],
            );
        }
    }
    batch.commit().unwrap();
    assert_eq!(sys.query("anc(0, Y)").unwrap().len(), 10);
    let stats = sys.last_stats();
    assert_eq!((stats.index_builds, stats.index_rows), (3, 32), "{stats}");
}

/// §1's exclusive ancestors on a chain `0 → 1 → 2 → 3` with two nodes off
/// it, through `System::query` on a cold system. The staged schedule applies
/// the guarded `excl'bff` rule once: it reads `m'excl'bff`, `anc'bf` and
/// `node`, and none of them grows after it ran, so the closing pass of the
/// schedule skips it rather than re-deriving every answer as a duplicate.
/// And the magic rule of `~anc'bf(X, Z)`, subsumed by the one of
/// `anc'bf(X, Y)`, is dropped: it would re-derive `m'anc'bf(0)` once per
/// `anc'bf(0, Y)` tuple.
#[test]
fn excl_applies_its_guarded_rule_once() {
    let mut sys = System::new();
    sys.load(EXCL_ANCESTOR).unwrap();
    for n in 0..6 {
        sys.insert("node", vec![Value::int(n)]).unwrap();
    }
    for (a, b) in [(0, 1), (1, 2), (2, 3)] {
        sys.insert("par", vec![Value::int(a), Value::int(b)])
            .unwrap();
    }
    let q = "excl(0, Y, Z)";
    let atom = ldl1::parser::parse_atom(q).unwrap();
    assert_eq!(
        sys.explain_query(q).unwrap(),
        "excl(0, Y, Z): magic excl'bff: seed m'excl'bff(0), 8 rules, 1 subsumed"
    );
    let reference = ldl1::reference_model(sys.program(), sys.edb()).unwrap();
    let expected = ldl1::Evaluator::new().query(&reference, &atom);
    // Y ∈ {1, 2, 3}, Z ∈ {0, 4, 5}.
    assert_eq!(expected.len(), 3 * 3);
    assert_eq!(sys.query(q).unwrap(), expected);
    // One full round of the seven base rules; eight delta rounds of 24
    // passes in all, which derive `m'anc'bf` {0, …, 3}, the three `sup`
    // edges and the six `anc'bf` pairs; then one round of `excl'bff`, whose
    // nine answers no base rule reads. Applied a second time, `excl'bff`
    // would add a round and re-derive its nine answers as duplicates; and
    // the subsumed rule would add a pass per delta round that reads a new
    // `anc'bf`, each re-deriving `m'anc'bf(0)`.
    let s = sys.last_stats();
    assert_eq!((s.rules_fired, s.rounds), (7 + 24 + 1, 1 + 8 + 1), "{s}");
    assert_eq!(
        (s.facts_derived, s.dedup_inserts),
        (4 + 3 + 6 + 9, 0),
        "{s}"
    );
}
