//! Runs the `smoke` subcommand — every workload at toy size, untraced and
//! traced, oracles on — and holds its output against `BENCHMARK.json`:
//! every metric the manifest names is printed exactly once per workload
//! it applies to, finite, with the manifest's unit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use ldl1_benchmark::json::Json;
use ldl1_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC};
use ldl1_benchmark::workload::Workload;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "manifest over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

/// `(workload, traced) → metric → [(value, unit)]` from the smoke output.
type Printed = BTreeMap<(String, bool), BTreeMap<String, Vec<(f64, String)>>>;

fn run_smoke() -> Printed {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_ldl1-benchmark"))
        .arg("smoke")
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("smoke runs");
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(10), "smoke took {took:?}");

    let mut printed = Printed::new();
    let mut block = None;
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("# ldl1-benchmark ") {
            let value = |key: &str| {
                header
                    .split_whitespace()
                    .find_map(|f| f.strip_prefix(key))
                    .unwrap_or_else(|| panic!("header without {key}: {line}"))
                    .to_string()
            };
            for key in [
                "seed=",
                "nproc=",
                "rustc=",
                "commit=",
                "workdir_fs=",
                "sync_policy=",
            ] {
                value(key);
            }
            block = Some((value("workload="), value("trace=") == "1"));
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", workload, name, "=", value, unit] = f.as_slice() {
            let key = block.clone().expect("metric before any header");
            assert_eq!(*workload, key.0);
            printed
                .entry(key)
                .or_default()
                .entry(name.to_string())
                .or_default()
                .push((value.parse().expect("numeric value"), unit.to_string()));
        }
    }
    printed
}

fn printed_once(printed: &Printed, w: Workload, traced: bool, def: &MetricDef) -> f64 {
    let seen = printed
        .get(&(w.name().to_string(), traced))
        .and_then(|m| m.get(def.name))
        .unwrap_or_else(|| panic!("{} never printed {}", w.name(), def.name));
    assert_eq!(seen.len(), 1, "{} printed {} twice", w.name(), def.name);
    let (value, unit) = &seen[0];
    assert!(value.is_finite(), "{} {} = {value}", w.name(), def.name);
    assert_eq!(unit, def.unit, "{} unit", def.name);
    *value
}

#[test]
fn smoke_prints_every_metric_of_the_manifest() {
    let printed = run_smoke();
    for w in Workload::ALL {
        for def in END_TO_END {
            let v = printed_once(&printed, w, false, def);
            assert!(v > 0.0, "{} {} must never be 0", w.name(), def.name);
        }
        for def in WORKLOAD_SPECIFIC {
            let block = &printed[&(w.name().to_string(), false)];
            if w.reports(def.name) {
                assert!(printed_once(&printed, w, false, def) > 0.0);
            } else {
                assert!(!block.contains_key(def.name), "{} {}", w.name(), def.name);
            }
        }
        for def in PER_LAYER {
            printed_once(&printed, w, true, def);
        }
        for traced in [false, true] {
            let block = &printed[&(w.name().to_string(), traced)];
            assert_eq!(block["wrong_answers"][0].0, 0.0);
            assert_eq!(block["failed_share"][0].0, 0.0);
        }
    }
    // The layers separate as designed, even at toy size.
    let traced = |w: Workload, name: &str| printed[&(w.name().to_string(), true)][name][0].0;
    for w in Workload::ALL {
        let magic = traced(w, "magic.evaluate_ms") > 0.0;
        assert_eq!(magic, w == Workload::BomMagic, "magic on {}", w.name());
        let wal = traced(w, "wal.fsync_us") != 0.0;
        assert_eq!(wal, w == Workload::MutationStream, "fsync on {}", w.name());
    }
    assert!(Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out/trace.json")
        .exists());
}

#[test]
fn manifest_matches_the_harness() {
    let m = manifest();
    let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = m["paths"].items().iter().filter_map(Json::str).collect();
    assert_eq!(paths, ["benchmark"]);

    let workloads: Vec<&str> = m["workloads"]
        .items()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let gated: Vec<&str> = Workload::GATED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, gated);
    for w in m["workloads"].items() {
        let why = field(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }

    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = m[key].items();
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (j, def) in listed.iter().zip(defs) {
            assert_eq!(field(j, "name"), def.name);
            assert_eq!(field(j, "unit"), def.unit, "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(j, "better"), better, "{}", def.name);
            let bound = j.get("bound").and_then(Json::num);
            match key {
                "end_to_end" => assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25)),
                _ => assert!(bound.is_none()),
            }
        }
    }
    let seconds = m["run_seconds"].num().expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
