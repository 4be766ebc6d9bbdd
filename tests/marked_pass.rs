//! A pass of a non-recursive rule whose head projects away a variable
//! bound beside the head's own (a *marked* pass) drops a head tuple it has
//! already emitted before the merge. Nothing it answers or counts may
//! change: each case checks its model against `reference_model`, reads the
//! head relation in insertion order (first derivation first), and pins its
//! attempts, `facts_derived` and `dedup_inserts` at hand-counted values —
//! a repeat dropped in the pass counts as a duplicate, as the merge would
//! have counted it.

use ldl1::{reference_model, EvalStats, System, Value};

/// (attempts, facts derived, duplicates rejected).
fn counts(s: &EvalStats) -> (u64, u64, u64) {
    (s.attempts, s.facts_derived, s.dedup_inserts)
}

/// The model must be the reference model.
fn check(sys: &mut System) {
    let reference = reference_model(sys.program(), sys.edb()).unwrap();
    assert_eq!(
        sys.model_facts().unwrap(),
        reference.to_fact_set(),
        "engine diverged from the reference model"
    );
}

/// Load `src`, build the model and check it; `pred`'s rows in insertion
/// order as text, and the evaluation's counters.
fn rows(src: &str, pred: &str) -> (Vec<String>, EvalStats) {
    let mut sys = System::new();
    sys.load(src).unwrap();
    let order = insertion_order(&mut sys, pred);
    let stats = sys.last_stats();
    check(&mut sys);
    (order, stats)
}

fn insertion_order(sys: &mut System, pred: &str) -> Vec<String> {
    let model = sys.model().unwrap();
    let rel = model.relation(pred.into()).unwrap();
    rel.iter()
        .map(|t| {
            let vals: Vec<String> = t
                .iter()
                .map(|&v| ldl1::value::intern::resolve(v).to_string())
                .collect();
            format!("({})", vals.join(", "))
        })
        .collect()
}

/// Five `a` rows over three `X`s: `q(3)` and `q(1)` come twice each.
const A: &str = "a(3, 1). a(1, 1). a(3, 2). a(2, 2). a(1, 3).\nb(1). b(2). b(3).\n";

/// `b(Z)` is the existential tail (it binds nothing), so each `a` row is one
/// attempt; the head drops `Z`, bound beside `X`. Rows land where each
/// tuple was first derived: 3, 1, 2 — not 3, 2, 1, the order of the last
/// derivations.
#[test]
fn rows_land_in_first_derivation_order() {
    let (order, s) = rows(&format!("{A}q(X) <- a(X, Z), b(Z)."), "q");
    assert_eq!(order, ["(3)", "(1)", "(2)"]);
    assert_eq!(counts(&s), (5, 3, 2), "{s}");
}

/// `q(1)` is an EDB fact: the pass keeps its first `q(1)`, and the merge's
/// probe of the head relation still rejects it.
#[test]
fn a_head_that_already_holds_an_edb_fact() {
    let (order, s) = rows(&format!("{A}q(1).\nq(X) <- a(X, Z), b(Z)."), "q");
    assert_eq!(order, ["(1)", "(3)", "(2)"]);
    // Two repeats dropped in the pass, one `q(1)` at the merge.
    assert_eq!(counts(&s), (5, 2, 3), "{s}");
}

/// A `_` column is projected away like a variable.
#[test]
fn an_anonymous_column() {
    let (order, s) = rows(&format!("{A}r(X) <- a(X, _)."), "r");
    assert_eq!(order, ["(3)", "(1)", "(2)"]);
    assert_eq!(counts(&s), (5, 3, 2), "{s}");
}

/// The self-join over `Z` gives nine solutions and seven pairs: `(3, 3)`
/// comes for `Z` = 1 and 2, `(1, 1)` for `Z` = 1 and 3. The two-argument
/// head is marked; the three-argument one is not (its ids do not pack into
/// a word) and the merge drops its repeats — same rows, same counters.
#[test]
fn a_two_and_a_three_argument_head() {
    let expect = [
        "(3, 3)", "(3, 1)", "(1, 3)", "(1, 1)", "(3, 2)", "(2, 3)", "(2, 2)",
    ];
    let (order, s) = rows(&format!("{A}s(X, Y) <- a(X, Z), a(Y, Z)."), "s");
    assert_eq!(order, expect);
    assert_eq!(counts(&s), (9, 7, 2), "{s}");

    let (order, s) = rows(&format!("{A}t(X, Y, X) <- a(X, Z), a(Y, Z)."), "t");
    let expect = [
        "(3, 3, 3)",
        "(3, 1, 3)",
        "(1, 3, 1)",
        "(1, 1, 1)",
        "(3, 2, 3)",
        "(2, 3, 2)",
        "(2, 2, 2)",
    ];
    assert_eq!(order, expect);
    assert_eq!(counts(&s), (9, 7, 2), "{s}");
}

/// A head with no argument is never marked: its whole body is one
/// existence test, which stops at the first solution.
#[test]
fn a_head_without_arguments() {
    let (order, s) = rows(&format!("{A}some <- a(X, Z), b(Z)."), "some");
    assert_eq!(order, ["()"]);
    assert_eq!(counts(&s), (1, 1, 0), "{s}");
}

const FAR: &str = "anc(X, Y) <- par(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 2.\n\
                   par(0, 1). par(1, 2). par(2, 3). par(3, 4).\n";

/// The cold model of [`FAR`]: ten `anc` pairs; the far pass finds `(0,
/// 3)` through `Z` = 1, 2, `(0, 4)` through 1, 2, 3 and `(1, 4)` through
/// 2, 3 — seven solutions, three facts.
#[test]
fn a_far_shaped_rule_cold() {
    let (order, s) = rows(FAR, "far");
    assert_eq!(order, ["(0, 3)", "(0, 4)", "(1, 4)"]);
    // anc: 4 + 3 + 2 + 1 attempts, 10 facts; far: 7 attempts, 3 facts.
    assert_eq!(counts(&s), (10 + 7, 10 + 3, 4), "{s}");
}

/// Maintenance under the far rule: a new edge runs the far entry's delta
/// passes (marked: the entry is not recursive), a retraction runs DRed,
/// and a change under a negation replays the entry from scratch. Each
/// commit leaves the reference model.
#[test]
fn a_far_shaped_rule_under_commits() {
    let mut sys = System::new();
    sys.load(FAR).unwrap();
    sys.model().unwrap();

    // par(4, 5): anc gains (4, 5), (3, 5), … (0, 5), in that order. The
    // far pass joining them as `anc(Z, Y)` probes `anc(X, Z)` by `Z`:
    // (4, 5) finds X = 2, 1, 0 (3 is too near), and the later rows only
    // repeat those three.
    sys.insert("par", vec![Value::int(4), Value::int(5)])
        .unwrap();
    check(&mut sys);
    assert_eq!(
        insertion_order(&mut sys, "far"),
        ["(0, 3)", "(0, 4)", "(1, 4)", "(2, 5)", "(1, 5)", "(0, 5)"]
    );
    let s = sys.last_stats();
    assert_eq!((s.facts_derived, s.strata_delta), (5 + 3, 2), "{s}");

    // Retracting par(1, 2) cuts every path across 1 → 2.
    sys.retract("par(1, 2).").unwrap();
    check(&mut sys);
    let mut left = insertion_order(&mut sys, "far");
    left.sort();
    assert_eq!(left, ["(2, 5)"]);
    assert_eq!(sys.last_stats().strata_dred, 2);

    // A negation over `stop` makes the far entry replay when `stop` grows.
    let mut sys = System::new();
    sys.load(&format!(
        "{FAR}stop(9).\nnear(X, Y) <- anc(X, Z), anc(Z, Y), ~stop(X)."
    ))
    .unwrap();
    sys.model().unwrap();
    sys.insert("stop", vec![Value::int(0)]).unwrap();
    check(&mut sys);
    let s = sys.last_stats();
    assert_eq!(s.strata_replayed, 1, "{s}");
    // The replay's pass over X ≠ 0 finds (1, 3) and (2, 4) once and (1,
    // 4) twice: four attempts, three pairs. Its difference with the old
    // relation tombstones near(0, _), and the rest keep their positions.
    assert_eq!(
        insertion_order(&mut sys, "near"),
        ["(1, 3)", "(1, 4)", "(2, 4)"]
    );
    assert_eq!(counts(&s), (4, 3, 1), "{s}");
}

/// (attempts, index probes, existential cuts, facts derived, duplicates
/// rejected).
type Counters = (u64, u64, u64, u64, u64);

/// Every kind of pass a round runs, each the whole evaluation of its
/// program over a diamond `0 → {1, 2} → 3`: the rows in insertion order and
/// the [`Counters`], counted by hand.
#[test]
fn the_counters_of_each_kind_of_pass() {
    const PAR: &str = "par(0, 1). par(0, 2). par(1, 3). par(2, 3).\n";
    let cases: [(&str, &str, &[&str], Counters); 4] = [
        // A grouping head: one scan, an attempt per `par` row, a fact per
        // class.
        (
            "kids(X, <Y>) <- par(X, Y).",
            "kids",
            &["(0, {1, 2})", "(1, {3})", "(2, {3})"],
            (4, 0, 0, 3, 0),
        ),
        // An unmarked recursive pass: 4 base attempts; the first delta
        // round probes `par[1]` for each of the four base pairs and
        // derives (0, 3) twice, through 1 and through 2 (the merge
        // rejects the second); the second probes once for (0, 3) and
        // finds nothing.
        (
            "anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).",
            "anc",
            &["(0, 1)", "(0, 2)", "(1, 3)", "(2, 3)", "(0, 3)"],
            (6, 5, 0, 5, 1),
        ),
        // A marked pass: a scan of `par(P, X)` probes `par[0]` per row;
        // 1 and 2 have two siblings each, and 3 comes through 1 and
        // through 2 — the second (3, 3) is dropped in the pass.
        (
            "sib(X, Y) <- par(P, X), par(P, Y).",
            "sib",
            &["(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)", "(3, 3)"],
            (6, 4, 0, 5, 1),
        ),
        // An existential tail: one probe of `par[0]` per node, and a cut
        // for each of 0, 1 and 2, which have an edge.
        (
            "node(0). node(1). node(2). node(3).\nbusy(X) <- node(X), par(X, _).",
            "busy",
            &["(0)", "(1)", "(2)"],
            (3, 4, 3, 3, 0),
        ),
    ];
    for (rules, pred, expect_rows, expect) in cases {
        let (order, s) = rows(&format!("{PAR}{rules}"), pred);
        assert_eq!(order, expect_rows, "{rules}");
        let counted = (
            s.attempts,
            s.index_probes,
            s.exist_cuts,
            s.facts_derived,
            s.dedup_inserts,
        );
        assert_eq!(counted, expect, "{rules}: {s}");
    }
}
