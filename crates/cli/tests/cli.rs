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

#[test]
fn help_lists_no_worker_count_setting() {
    let out = ldl1(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("--timeout") && help.contains(":limits"));
    assert!(!help.contains("jobs"), "{help}");
}
