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

// The row form: a scan whose columns all bind and whose one filter is an
// integer test on one row value resolves it once per scan entry and tests
// each row's value as an integer. Whatever that cannot decide — a value
// that is not an integer, arithmetic that fails — is left to the filter
// op, so each case below has rows on both sides of that line. A scan with
// more tests than that keeps the general loop, which must agree.

/// The row value on the right of `-`, `/` and `mod`, with `X` bound
/// before the probe: `6 - Y`, `12 / Y` and `7 mod Y` are not `Y - 6`,
/// `Y / 12` and `Y mod 7`.
#[test]
fn the_row_value_on_the_right_of_an_operator() {
    let src = format!(
        "{A}{B}sub(X, Y) <- a(X), b(X, Y), 6 - Y > X.\n\
         dv(X, Y) <- a(X), b(X, Y), 12 / Y > X.\n\
         md(X, Y) <- a(X), b(X, Y), 7 mod Y >= X."
    );
    // One probe of `b[0]` per `a` row, one attempt per fact.
    let (facts, s) = run(&src, "sub");
    assert_eq!(facts, ["sub(1, 1)", "sub(1, 3)", "sub(2, 2)"]);
    let (dv, _) = run(&src, "dv");
    assert_eq!(dv, ["dv(1, 1)", "dv(1, 3)", "dv(2, 2)"]);
    let (md, _) = run(&src, "md");
    assert_eq!(md, ["md(1, 3)", "md(2, 5)"]);
    // All three rules' passes: 3 + 3 + 2 facts, 3 probes each.
    assert_eq!(counts(&s), (8, 9, 0), "{s}");
}

/// A zero divisor fails `/` and `mod`: the positive literal fails on
/// that row, and its negation holds.
#[test]
fn division_and_mod_by_zero() {
    let src = format!(
        "{A}e(1, 0). e(1, 4). e(2, 0). e(2, 3).\n\
         d(X, Y) <- a(X), e(X, Y), 12 / Y > X.\n\
         nd(X, Y) <- a(X), e(X, Y), ~>(12 / Y, X).\n\
         m(X, Y) <- a(X), e(X, Y), Y mod X < 1.\n\
         z(X, Y) <- a(X), e(X, Y), 7 mod Y > 0.\n\
         nz(X, Y) <- a(X), e(X, Y), ~>(7 mod Y, 0)."
    );
    let (d, _) = run(&src, "d");
    assert_eq!(d, ["d(1, 4)", "d(2, 3)"]);
    let (nd, _) = run(&src, "nd");
    assert_eq!(nd, ["nd(1, 0)", "nd(2, 0)"]);
    // `0 mod X` is 0, and `4 mod 1` too.
    let (m, _) = run(&src, "m");
    assert_eq!(m, ["m(1, 0)", "m(1, 4)", "m(2, 0)"]);
    let (z, _) = run(&src, "z");
    assert_eq!(z, ["z(1, 4)", "z(2, 3)"]);
    let (nz, s) = run(&src, "nz");
    assert_eq!(nz, ["nz(1, 0)", "nz(2, 0)"]);
    // 2 + 2 + 3 + 2 + 2 facts; 3 probes of `e[0]` per rule.
    assert_eq!(counts(&s), (11, 15, 0), "{s}");
}

/// Integers past the immediate range live in the arena. `Y - X` overflows
/// with the arena value as the row's (`Y = i64::MAX`) and as the
/// invariant operand (`X = i64::MIN + 1`), and `X - 1` overflows on the
/// invariant side alone (`X = i64::MIN`), which decides the whole entry.
#[test]
fn overflow_with_arena_integers() {
    let mut sys = System::new();
    sys.load(
        "o(X, Y) <- k(X), v(X, Y), Y - X > 0.\n\
         no(X, Y) <- k(X), v(X, Y), ~>(Y - X, 0).\n\
         lo(X, Y) <- k(X), v(X, Y), X - 1 < Y.\n\
         nlo(X, Y) <- k(X), v(X, Y), ~<(X - 1, Y).",
    )
    .unwrap();
    let (min, max) = (i64::MIN, i64::MAX);
    let big = 1 << 40;
    for x in [-5, min + 1, min, big] {
        sys.insert("k", vec![Value::int(x)]).unwrap();
    }
    for (x, y) in [
        (-5, max),
        (-5, 3),
        (min + 1, 1),
        (min + 1, -1),
        (min, 0),
        (big, big + 1),
        (big, 2),
    ] {
        sys.insert("v", vec![Value::int(x), Value::int(y)]).unwrap();
    }
    let (o, _) = model_of(&mut sys, "o");
    let want = |pairs: &[(i64, i64)], p: &str| {
        let mut w: Vec<String> = pairs
            .iter()
            .map(|(x, y)| format!("{p}({x}, {y})"))
            .collect();
        w.sort();
        w
    };
    // `max - (-5)` and `1 - (min + 1)` overflow; `-1 - (min + 1)` does not.
    assert_eq!(o, want(&[(-5, 3), (min + 1, -1), (big, big + 1)], "o"));
    let (no, _) = model_of(&mut sys, "no");
    assert_eq!(
        no,
        want(&[(-5, max), (min + 1, 1), (min, 0), (big, 2)], "no")
    );
    let (lo, _) = model_of(&mut sys, "lo");
    assert_eq!(
        lo,
        want(
            &[
                (-5, max),
                (-5, 3),
                (min + 1, 1),
                (min + 1, -1),
                (big, big + 1)
            ],
            "lo"
        )
    );
    let (nlo, s) = model_of(&mut sys, "nlo");
    assert_eq!(nlo, want(&[(min, 0), (big, 2)], "nlo"));
    // 3 + 4 + 5 + 2 facts; 4 probes of `v[0]` per rule.
    assert_eq!(counts(&s), (14, 16, 0), "{s}");
}

/// Strings and atoms among a scan's integers: each such row is left to the
/// filter ops. An ordered comparison of a string or atom with an integer
/// fails (its negation holds), `/=` compares ids, and two strings compare
/// as strings.
#[test]
fn a_string_or_atom_row_value_in_the_middle_of_a_scan() {
    let src = "c(1, 5). c(2, \"s\"). c(3, foo). c(4, 1). c(5, 7). c(6, \"b\").\n\
               gt(X, Y) <- c(X, Y), Y > 2.\n\
               ng(X, Y) <- c(X, Y), ~>(Y, 2).\n\
               ne(X, Y) <- c(X, Y), Y /= 1.\n\
               s(\"a\"). s(\"r\").\n\
               st(X, Y) <- s(X), c(Z, Y), Y > X.";
    let (gt, _) = run(src, "gt");
    assert_eq!(gt, ["gt(1, 5)", "gt(5, 7)"]);
    let (ng, _) = run(src, "ng");
    assert_eq!(
        ng,
        ["ng(2, \"s\")", "ng(3, foo)", "ng(4, 1)", "ng(6, \"b\")"]
    );
    let (ne, _) = run(src, "ne");
    assert_eq!(
        ne,
        [
            "ne(1, 5)",
            "ne(2, \"s\")",
            "ne(3, foo)",
            "ne(5, 7)",
            "ne(6, \"b\")"
        ]
    );
    let (st, s) = run(src, "st");
    assert_eq!(
        st,
        ["st(\"a\", \"b\")", "st(\"a\", \"s\")", "st(\"r\", \"s\")"]
    );
    // 2 + 4 + 5 + 3 facts, full scans only.
    assert_eq!(counts(&s), (14, 0, 0), "{s}");
}

/// An atom bound before the probe: the whole entry is left to the filter
/// ops, where an ordered comparison with it fails and its negation holds.
#[test]
fn an_atom_as_the_invariant_operand() {
    let src = "k(a). k(2). v(2, 1). v(2, 3). v(a, 1). v(a, 3).\n\
               at(X, Y) <- k(X), v(X, Y), Y > X.\n\
               na(X, Y) <- k(X), v(X, Y), ~>(Y, X).";
    let (at, _) = run(src, "at");
    assert_eq!(at, ["at(2, 3)"]);
    let (na, s) = run(src, "na");
    assert_eq!(na, ["na(2, 1)", "na(a, 1)", "na(a, 3)"]);
    // 1 + 3 facts; 2 probes of `v[0]` per rule.
    assert_eq!(counts(&s), (4, 4, 0), "{s}");
}

/// Negated tests in the form: a comparison, an equality with its
/// arithmetic on the right, and an arithmetic check.
#[test]
fn negated_integer_tests() {
    let src = format!(
        "{A}{B}n1(X, Y) <- a(X), b(X, Y), ~<(Y - X, 2).\n\
         n2(X, Y) <- a(X), b(X, Y), ~=(Y, X + 2).\n\
         n3(X, Y) <- a(X), b(X, Y), ~+(X, 2, Y)."
    );
    let (n1, _) = run(&src, "n1");
    assert_eq!(n1, ["n1(1, 3)", "n1(2, 5)"]);
    let (n2, _) = run(&src, "n2");
    assert_eq!(n2, ["n2(1, 1)", "n2(2, 2)", "n2(2, 5)"]);
    let (n3, s) = run(&src, "n3");
    assert_eq!(
        n3,
        n2.iter().map(|f| f.replace("n2", "n3")).collect::<Vec<_>>()
    );
    // 2 + 3 + 3 facts; 3 probes of `b[0]` per rule.
    assert_eq!(counts(&s), (8, 9, 0), "{s}");
}

/// A full scan binding two columns, with two tests that each read both:
/// `Y - X > 0` and the check `+(X, 2, Y)`. Such a scan has no row form.
#[test]
fn two_binds_and_two_tests() {
    let src = "c(1, 3). c(2, 3). c(3, 5). c(4, 4). c(5, 7). c(9, 2).\n\
               t(X, Y) <- c(X, Y), Y - X > 0, +(X, 2, Y).\n\
               u(X, Y) <- c(X, Y), X > 10 - Y, ~+(X, 2, Y).";
    let (t, _) = run(src, "t");
    assert_eq!(t, ["t(1, 3)", "t(3, 5)", "t(5, 7)"]);
    let (u, s) = run(src, "u");
    assert_eq!(u, ["u(9, 2)"]);
    assert_eq!(counts(&s), (4, 0, 0), "{s}");
}

/// A probe in the existential tail tests `Z > 7` in its own loop, in the
/// tail's mode: each `c` row with a witness is one cut and one attempt.
/// An `_`-negation's probe, which binds nothing, takes the form too.
#[test]
fn a_row_form_in_the_existential_tail_and_in_an_absent_block() {
    let src = format!("{C}b(3, 7). b(3, 8). b(4, 9). b(5, 1).\ns(X) <- c(X, Y), b(Y, Z), Z > 7.");
    let (facts, s) = run(&src, "s");
    assert_eq!(facts, ["s(2)", "s(3)"]);
    // One probe per `c` row; Y = 3 and Y = 4 have a witness.
    assert_eq!(counts(&s), (2, 4, 2), "{s}");

    let src = format!("{C}b(3, 7). b(3, 8).\nu(X) <- c(X, Y), Y > 2, ~b(X, _).");
    let (facts, s) = run(&src, "u");
    assert_eq!(facts, ["u(2)", "u(4)"]);
    // `Y > 2` keeps X = 2, 3, 4; each probes `b[0]`, and X = 3 is found.
    assert_eq!(counts(&s), (2, 3, 0), "{s}");
}

/// A built-in binds a pattern, never a variable inside arithmetic, so `7
/// mod Y = X` waits for `b`'s probe to bind `Y` and then runs as a filter
/// in its loop: 7 mod 2 = 1, 7 mod 3 = 1 and 7 mod 4 = 3. Scheduled once
/// `X` alone was bound, it ran ahead of the probe and failed on every row;
/// so did `member(X + 1, S)` ahead of the scan that binds `X`.
#[test]
fn a_built_in_over_arithmetic_waits_for_its_variables() {
    let src = "a(1). a(3). b(1, 2). b(1, 3). b(3, 4).\n\
               md(X, Y) <- a(X), b(X, Y), 7 mod Y = X.";
    let mut sys = System::new();
    sys.load(src).unwrap();
    let plan = sys.explain(Some("md"));
    let (probe, test) = (plan.find("probe b"), plan.find("filter"));
    assert!(
        probe.is_some() && test.is_some() && probe < test,
        "the test must follow b's probe:\n{plan}"
    );
    let (facts, s) = model_of(&mut sys, "md");
    assert_eq!(facts, ["md(1, 2)", "md(1, 3)", "md(3, 4)"]);
    // One probe of `b[0]` per `a` row; each passing row is an attempt.
    assert_eq!(counts(&s), (3, 2, 0), "{s}");

    let src = "s({1, 2, 4}). a(1). a(2). a(3).\n\
               r(X) <- s(S), member(X + 1, S), a(X).";
    let (facts, _) = run(src, "r");
    assert_eq!(facts, ["r(1)", "r(3)"]);
}
