//! A scan runs the filters that follow it in its own row loop: a
//! comparison, an all-ground negation or an arithmetic check after a
//! probe or a full scan is tested on each matching row before the
//! executor moves on. Fusion changes where a filter runs, never what it
//! answers or what the pass counts: each case checks its model against
//! `reference_model` and pins its attempts, index probes and existential
//! cuts at hand-counted values.

use ldl1::{reference_model, EvalStats, System, Value};

/// Load `src`, build the model, check it against the reference model,
/// and return `pred`'s facts (sorted, as text) and the evaluation's
/// counters.
fn model_of(sys: &mut System, pred: &str) -> (Vec<String>, EvalStats) {
    let mut facts: Vec<String> = sys
        .facts(pred)
        .unwrap()
        .iter()
        .map(|f| f.to_string())
        .collect();
    facts.sort();
    let stats = sys.last_stats();
    let reference = reference_model(sys.program(), sys.edb()).unwrap();
    assert_eq!(
        sys.model_facts().unwrap(),
        reference.to_fact_set(),
        "engine diverged from the reference model"
    );
    (facts, stats)
}

fn run(src: &str, pred: &str) -> (Vec<String>, EvalStats) {
    let mut sys = System::new();
    sys.load(src).unwrap();
    model_of(&mut sys, pred)
}

/// (attempts, index probes, existential cuts).
fn counts(s: &EvalStats) -> (u64, u64, u64) {
    (s.attempts, s.index_probes, s.exist_cuts)
}

const A: &str = "a(1). a(2). a(4).\n";
const B: &str = "b(1, 1). b(1, 3). b(2, 5). b(2, 2). b(3, 9).\n";
const C: &str = "c(1, 1). c(2, 3). c(3, 4). c(4, 5).\n";

/// `Y > 2` runs in the loop over `b[0]`'s postings: one probe per `a` row,
/// one attempt per posting that passes.
#[test]
fn a_filter_after_an_index_probe() {
    let src = format!("{A}{B}q(X, Y) <- a(X), b(X, Y), Y > 2.");
    let (facts, s) = run(&src, "q");
    assert_eq!(facts, ["q(1, 3)", "q(2, 5)"]);
    assert_eq!(counts(&s), (2, 3, 0), "{s}");
}

#[test]
fn a_filter_after_a_full_scan() {
    let (facts, s) = run(&format!("{A}r(X) <- a(X), X > 1."), "r");
    assert_eq!(facts, ["r(2)", "r(4)"]);
    assert_eq!(counts(&s), (2, 0, 0), "{s}");
}

/// `Y > 2` opens the existential tail (`b(Y, Z)` binds no head variable),
/// so it is not fused into `c`'s loop: run mode enters the tail at the
/// comparison, and each `c` row with a witness is one cut and one attempt.
/// Fused past the tail's start, `b`'s probe would run in run mode and
/// enumerate all three `b(3, _)`/`b(4, _)` rows as attempts, with no cut.
#[test]
fn a_comparison_that_opens_the_existential_tail_is_not_fused() {
    let src = format!("{C}b(3, 7). b(3, 8). b(4, 9).\ns(X) <- c(X, Y), Y > 2, b(Y, Z).");
    let (facts, s) = run(&src, "s");
    assert_eq!(facts, ["s(2)", "s(3)"]);
    // Probes for Y = 3, 4, 5; Y = 1 fails the comparison first.
    assert_eq!(counts(&s), (2, 3, 2), "{s}");
}

/// Around an `_`-negation's block: `Y > 1` is fused into `c`'s loop and
/// stops at the block; inside it, the match step `r = Y + _` (a filter
/// that never holds) is fused into the block's own probe, and the block
/// still ends at its `found`.
#[test]
fn filters_around_and_inside_an_absent_block() {
    let src = format!("{C}b(3, 7). b(3, 8).\nu(X) <- c(X, Y), ~b(X, _), Y > 1.");
    let (facts, s) = run(&src, "u");
    assert_eq!(facts, ["u(2)", "u(4)"]);
    // The block probes `b[0]` for X = 2, 3, 4; X = 3 finds a witness.
    assert_eq!(counts(&s), (2, 3, 0), "{s}");

    let src = format!("{C}e(3, 1, 9). e(3, 2, 5). e(2, 0, 0).\nt(X) <- c(X, Y), ~e(X, _, Y + _).");
    let (facts, s) = run(&src, "t");
    assert_eq!(facts, ["t(1)", "t(2)", "t(3)", "t(4)"]);
    assert_eq!(counts(&s), (4, 4, 0), "{s}");
}

#[test]
fn a_negated_comparison() {
    let (facts, s) = run(&format!("{A}w(X) <- a(X), ~>(X, 1)."), "w");
    assert_eq!(facts, ["w(1)"]);
    assert_eq!(counts(&s), (1, 0, 0), "{s}");
}

/// Strings are not integers: the comparison takes the id path.
#[test]
fn string_operands_take_the_id_path() {
    let src = "name(\"al\"). name(\"bob\"). name(\"cy\"). name(7).\n\
               n(X) <- name(X), >(X, \"bob\").\n\
               m(X) <- name(X), /=(X, \"bob\").";
    let (facts, s) = run(src, "n");
    assert_eq!(facts, ["n(\"cy\")"]);
    assert_eq!(counts(&s).1, 0);
    let (facts, _) = run(src, "m");
    assert_eq!(facts, ["m(\"al\")", "m(\"cy\")", "m(7)"]);
}

/// `Y - X` overflows `i64` on one row: the positive literal fails there and
/// the negated one holds.
#[test]
fn an_overflowing_difference_fails_the_literal_and_satisfies_its_negation() {
    let mut sys = System::new();
    sys.load(
        "o(X, Y) <- c(X, Y), Y - X > 0.\n\
         p(X, Y) <- c(X, Y), ~>(Y - X, 0).",
    )
    .unwrap();
    for (x, y) in [(i64::MIN + 1, 1), (1, 2), (2, 1), (-5, i64::MAX)] {
        sys.insert("c", vec![Value::int(x), Value::int(y)]).unwrap();
    }
    let (o, s) = model_of(&mut sys, "o");
    assert_eq!(o, ["o(1, 2)"]);
    let (p, _) = model_of(&mut sys, "p");
    let min1 = format!("p({}, 1)", i64::MIN + 1);
    let max = format!("p(-5, {})", i64::MAX);
    let mut want = vec![min1, max, "p(2, 1)".to_string()];
    want.sort();
    assert_eq!(p, want);
    // The model's one pass per rule: `o` derives one fact, `p` three.
    assert_eq!(counts(&s), (4, 0, 0), "{s}");
}

#[test]
fn a_fused_ground_negation_and_arithmetic_check() {
    let (facts, s) = run(&format!("{A}b(2).\nx(X) <- a(X), ~b(X)."), "x");
    assert_eq!(facts, ["x(1)", "x(4)"]);
    assert_eq!(counts(&s), (2, 0, 0), "{s}");

    let src = "c(1, 2). c(2, 3). c(3, 5). c(4, 5).\n\
               y(X, Y) <- c(X, Y), +(X, 1, Y).\n\
               z(X, Y) <- c(X, Y), ~+(X, 1, Y).";
    let (facts, _) = run(src, "y");
    assert_eq!(facts, ["y(1, 2)", "y(2, 3)", "y(4, 5)"]);
    let (facts, s) = run(src, "z");
    assert_eq!(facts, ["z(3, 5)"]);
    // Both rules' passes: three `y` facts and one `z`.
    assert_eq!(counts(&s), (4, 0, 0), "{s}");
}

/// `tc_chain`'s shape at toy size — §1's ancestor program over a strided
/// chain, then `far`'s compose-and-filter layer — pins the counters of its
/// cold evaluation: the filter's fusion changes none of them.
#[test]
fn the_far_pass_keeps_its_counters() {
    let mut src = String::from(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 250.\n",
    );
    for i in 0..40 {
        src.push_str(&format!("par({}, {}).\n", i * 10, (i + 1) * 10));
    }
    let mut sys = System::new();
    sys.load(&src).unwrap();
    let answers = sys.query("far(X, Y)").unwrap();
    let s = sys.last_stats();
    let counters = (
        s.attempts,
        s.facts_derived,
        s.dedup_inserts,
        s.index_probes,
        s.rounds,
        s.exist_cuts,
    );
    // 820 `anc` facts and 120 `far` ones; `far`'s pass is one round.
    assert_eq!(answers.len(), 120, "{s}");
    assert_eq!(counters, (4380, 940, 3440, 1640, 42, 0), "{s}");
}
