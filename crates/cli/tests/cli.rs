//! The `ldl1` binary's command line: exit codes and diagnostics.

use std::process::{Command, Output};

fn ldl1(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ldl1"))
        .args(args)
        .output()
        .expect("ldl1 binary runs")
}

const FAMILY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/family.ldl");

#[test]
fn unknown_option_is_rejected_before_anything_loads() {
    for (opt, args) in [
        ("-j", ["-j", "4", FAMILY]),
        ("--stat", ["--batch", "--stat", FAMILY]),
        ("--stat", ["--batch", FAMILY, "--stat"]),
    ] {
        let out = ldl1(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            format!("error: unknown option '{opt}' (see --help)"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} answered a query first");
    }
}

#[test]
fn batch_run_answers_the_file_queries() {
    let out = ldl1(&["--batch", FAMILY]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("?-"));
}

/// Plans read no data, so `--explain` evaluates nothing: it prints the plans
/// of a program whose model is infinite and exits. (The timeout only turns
/// an evaluation that would never end into a failure.)
#[test]
fn explain_evaluates_nothing() {
    let diverging = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs/diverging.ldl");
    let out = ldl1(&["--batch", "--timeout", "5s", "--explain", diverging]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("n(s(X)) <- n(X)") && text.contains("scan n"),
        "{text}"
    );
}

#[test]
fn help_lists_no_worker_count_setting() {
    let out = ldl1(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("--timeout") && help.contains(":limits"));
    assert!(!help.contains("jobs"), "{help}");
}

#[test]
fn rejected_rule_does_not_poison_the_repl() {
    use std::io::Write;
    use std::process::Stdio;
    let mut repl = Command::new(env!("CARGO_BIN_EXE_ldl1"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ldl1 binary runs");
    repl.stdin
        .take()
        .unwrap()
        .write_all(
            b"r(X) <- e(X). e(1).\n\
              bad(X, {<Y>}) <- e2(X, Y).\n\
              s(X) <- r(X).\n\
              ?- s(X).\n\
              :quit\n",
        )
        .unwrap();
    let out = repl.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let shown = format!("{stdout}{stderr}");
    assert_eq!(shown.matches("error:").count(), 1, "{shown}");
    assert!(stdout.contains("X = 1"), "{shown}");
}

/// A rule the stratifier refuses is refused at the prompt — not installed to
/// fail every later query — and `:plan QUERY.` says how a query reads the
/// model: a scan after the cold evaluation, a probe of the index the first
/// maintained commit leaves behind.
#[test]
fn inadmissible_rule_does_not_poison_the_repl() {
    use std::io::Write;
    use std::process::Stdio;
    let mut repl = Command::new(env!("CARGO_BIN_EXE_ldl1"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ldl1 binary runs");
    repl.stdin
        .take()
        .unwrap()
        .write_all(
            b"anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
              par(0, 1). par(1, 2). par(2, 3).\n\
              ?- anc(0, Y).\n\
              p(X) <- par(X, _), ~p(X).\n\
              t(X) <- par(X, _).\n\
              ?- t(2).\n\
              :plan anc(0, Y).\n\
              :retract par(2, 3).\n\
              :plan anc(0, Y).\n\
              :plan anc(X, Y).\n\
              :quit\n",
        )
        .unwrap();
    let out = repl.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let shown = format!("{stdout}{stderr}");
    assert_eq!(shown.matches("error:").count(), 1, "{shown}");
    assert!(stderr.contains("not admissible") && stderr.contains("cycle: p"));
    assert!(stdout.contains("yes"), "{shown}");
    assert!(
        stdout.contains("anc(0, Y): scan anc, 6 rows, filter on [0] — no index covers [0]"),
        "{shown}"
    );
    assert!(
        stdout.contains("anc(0, Y): probe anc[0], 2 of 3 rows"),
        "{shown}"
    );
    assert!(stdout.contains("anc(X, Y): scan anc, 3 rows\n"), "{shown}");
}

/// On a system with no model, a bound query runs §6 magic sets: `:plan
/// QUERY.` names that arm without evaluating anything, `:stats` then shows
/// the magic evaluation's counters (the cone of node 0, not the model), and
/// the next query builds the model, so `:plan` reads it.
#[test]
fn cold_bound_query_takes_the_magic_arm() {
    use std::io::Write;
    use std::process::Stdio;
    let mut repl = Command::new(env!("CARGO_BIN_EXE_ldl1"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ldl1 binary runs");
    repl.stdin
        .take()
        .unwrap()
        .write_all(
            b"anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
              par(0, 1). par(1, 2). par(2, 3). par(7, 8).\n\
              :plan anc(0, Y).\n\
              :stats\n\
              ?- anc(0, Y).\n\
              :stats\n\
              :plan anc(0, Y).\n\
              :quit\n",
        )
        .unwrap();
    let out = repl.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let plan = "anc(0, Y): magic anc'bf: seed m'anc'bf(0), 5 rules";
    let at = |needle: &str| {
        stdout
            .find(needle)
            .unwrap_or_else(|| panic!("{needle:?} missing from {stdout}"))
    };
    // `:plan` evaluated nothing: the `:stats` after it still reads zero.
    assert!(at(plan) < at("facts derived: 0,"), "{stdout}");
    // Three answers; the magic set {1, 2, 3}, the three supplementary
    // `par` edges leaving {0, 1, 2} and the six `anc'bf` pairs the magic
    // set admits were derived, not the model's seven `anc` facts.
    assert!(at("Y = 3") < at("facts derived: 12,"), "{stdout}");
    assert!(
        at("facts derived: 12,") < at("anc(0, Y): scan anc, 7 rows, filter on [0]"),
        "{stdout}"
    );
}

/// `:strata` prints each layer in the order the engine runs it: grouping
/// heads first, then one component at a time, dependency-first, whatever
/// order the rules were written in.
#[test]
fn strata_shows_the_run_order() {
    use std::io::Write;
    use std::process::Stdio;
    let mut repl = Command::new(env!("CARGO_BIN_EXE_ldl1"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ldl1 binary runs");
    repl.stdin
        .take()
        .unwrap()
        .write_all(
            b"far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 2.\n\
              anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
              big(P) <- kids(P, S), card(S, N), N > 1.\n\
              kids(P, <K>) <- par(P, K).\n\
              :strata\n\
              :quit\n",
        )
        .unwrap();
    let out = repl.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("layer 0: {anc} (recursive) → {far}\nlayer 1: {kids} (grouping) → {big}\n"),
        "{stdout}"
    );
}

/// Opening a data directory prints where the open's time went, on one
/// line: reading, the snapshot's CRC, node table and rows, the log scan
/// and the replay.
#[test]
fn data_dir_open_prints_its_time_split() {
    use std::io::Write;
    use std::process::Stdio;
    let dir = std::env::temp_dir().join(format!("ldl1-cli-open-times-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap();
    let run_repl = |input: &[u8]| {
        let mut repl = Command::new(env!("CARGO_BIN_EXE_ldl1"))
            .args(["--data-dir", dir_arg])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("ldl1 binary runs");
        repl.stdin.take().unwrap().write_all(input).unwrap();
        let out = repl.wait_with_output().unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    run_repl(b"p(1). p(2).\n:checkpoint\nq({3, 4}).\n:quit\n");
    let stderr = run_repl(b":quit\n");
    let line = stderr
        .lines()
        .find(|l| l.contains(": open "))
        .unwrap_or_else(|| panic!("no open line in {stderr}"));
    let ms: Vec<f64> = line[line.find(": open ").unwrap()..]
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .filter(|w| w.contains('.'))
        .map(|w| w.parse().unwrap())
        .collect();
    assert_eq!(ms.len(), 7, "{line}");
    for part in [
        "open ",
        " ms: read ",
        ", crc ",
        ", nodes ",
        ", rows ",
        ", log scan ",
        ", replay ",
    ] {
        assert!(line.contains(part), "{part:?} missing from {line}");
    }
    // Each part printed to 3 decimals: the sum may round past the whole by
    // at most half a unit per part.
    assert!(ms[1..].iter().sum::<f64>() <= ms[0] + 0.0035, "{line}");
    assert!(stderr.contains("loaded snapshot at batch 1"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--stats` prints the counters of the last operation. A file whose one
/// query is bound answers it on the magic arm, and `--stats` then reports
/// that evaluation — the cone of part 1 — without building the model: on a
/// bill of materials with 64 leaves the model's `tc` ranges over every
/// subset of them and would never finish.
#[test]
fn stats_after_a_bound_bom_query_reports_the_magic_arm() {
    let bom = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../programs/bill_of_materials.ldl"
    );
    let rules: String = std::fs::read_to_string(bom)
        .unwrap()
        .lines()
        .take_while(|l| !l.starts_with("p("))
        .map(|l| format!("{l}\n"))
        .collect();
    // A complete binary part tree of depth 6: part n has parts 2n, 2n + 1.
    let mut src = rules.clone();
    let mut total = 0;
    for part in 1..64i64 {
        src += &format!("p({part}, {}). p({part}, {}).\n", 2 * part, 2 * part + 1);
    }
    for leaf in 64..128i64 {
        src += &format!("q({leaf}, {}).\n", leaf % 7 + 1);
        total += leaf % 7 + 1;
    }
    let file = std::env::temp_dir().join(format!("ldl1-cli-bom-{}.ldl", std::process::id()));
    std::fs::write(&file, format!("{src}?- result(1, C).\n")).unwrap();
    let out = ldl1(&["--batch", "--stats", file.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("C = {total}")), "{stdout}");

    let mut sys = ldl1::System::new();
    sys.load(&src).unwrap();
    assert!(sys
        .explain_query("result(1, C)")
        .unwrap()
        .contains(": magic "));
    sys.query("result(1, C)").unwrap();
    let magic = sys.last_stats();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.trim(), magic.to_string(), "{stderr}");
}
