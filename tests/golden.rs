//! Golden-file tests: every program under `programs/` is evaluated and its
//! full observable output — each `?-` query's answers in file order, then
//! the complete model — is compared against a checked-in snapshot in
//! `tests/golden/`.
//!
//! To regenerate after an intentional change:
//!
//! ```console
//! $ BLESS=1 cargo test -p ldl1 --test golden
//! ```
//!
//! The diff of the regenerated `.golden` files then *is* the semantic
//! change, reviewable in the same commit as the code that caused it.

use std::path::{Path, PathBuf};

use ldl1::{Budget, System};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/ldl1; the repo root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/ldl1 has a repo root")
        .to_path_buf()
}

/// Evaluate one `.ldl` file the way the CLI does — answer `?-` queries as
/// they are reached — and append the final model, producing a stable text
/// rendering of everything the program means.
fn render(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let mut sys = System::new();
    // A generous cap, far above what any example needs: the golden suite
    // doubles as a regression test that budget governance never aborts a
    // terminating program, while a future program that accidentally
    // diverges fails fast instead of hanging CI.
    sys.set_budget(Budget::unlimited().with_fuel(50_000_000));
    let mut out = String::new();
    let mut program = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("?-") {
            if !program.trim().is_empty() {
                sys.load(&program).unwrap();
                program.clear();
            }
            let query = line.trim();
            out.push_str(query);
            out.push('\n');
            let answers = sys.query(query).unwrap();
            if answers.is_empty() {
                out.push_str("no\n");
            }
            for a in &answers {
                out.push_str(&a.to_string());
                out.push('\n');
            }
        } else {
            program.push_str(line);
            program.push('\n');
        }
    }
    if !program.trim().is_empty() {
        sys.load(&program).unwrap();
    }
    out.push_str("% model\n");
    out.push_str(&sys.model().unwrap().dump());
    out
}

#[test]
fn programs_match_golden_snapshots() {
    let root = repo_root();
    let programs_dir = root.join("programs");
    let golden_dir = root.join("tests/golden");
    let bless = std::env::var_os("BLESS").is_some();

    let mut programs: Vec<PathBuf> = std::fs::read_dir(&programs_dir)
        .expect("programs/ directory exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "ldl")).then_some(p)
        })
        // diverging.ldl has an infinite minimal model by design (it is the
        // resource-governance demo); no finite golden snapshot exists for
        // it. Every *other* program must fit under `render`'s fuel cap.
        .filter(|p| p.file_stem().is_none_or(|s| s != "diverging"))
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "no programs under {programs_dir:?}");

    let mut expected_goldens = Vec::new();
    let mut failures = Vec::new();
    for program in &programs {
        let stem = program.file_stem().unwrap().to_string_lossy().into_owned();
        let golden_path = golden_dir.join(format!("{stem}.golden"));
        expected_goldens.push(format!("{stem}.golden"));
        let actual = render(program);
        if bless {
            std::fs::create_dir_all(&golden_dir).unwrap();
            std::fs::write(&golden_path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "{stem}: output differs from {golden_path:?}\n\
                 --- expected\n{expected}\n--- actual\n{actual}"
            )),
            Err(_) => failures.push(format!(
                "{stem}: missing golden file {golden_path:?} (run with BLESS=1 to create)"
            )),
        }
    }

    // A golden file whose program is gone is stale — fail rather than let
    // it linger as dead weight that looks like coverage.
    if !bless {
        for entry in std::fs::read_dir(&golden_dir).expect("tests/golden/ exists") {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.ends_with(".golden") && !expected_goldens.contains(&name) {
                failures.push(format!(
                    "stale golden file {name}: no matching programs/*.ldl"
                ));
            }
        }
    }

    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
