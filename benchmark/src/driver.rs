//! The subcommands that run every workload: each workload in a child
//! process of its own (a re-exec of this binary), so the interner, the
//! allocator and `VmHWM` start clean for each.

use std::collections::BTreeMap;
use std::process::Command;

use crate::cli::{out_dir, Flags};
use crate::json::Json;
use crate::metrics::{iqr_share, median, MetricDef, END_TO_END};
use crate::workload::Workload;

/// What one child run reported.
pub struct Report {
    pub workload: Workload,
    pub correct: bool,
    /// Every `metric` line of the child, in print order: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// The `metric <workload> <name> = <value> <unit>` lines of a child's output.
pub fn metric_lines(stdout: &str) -> Vec<(String, f64, String)> {
    stdout
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                ["metric", _, name, "=", value, unit] => {
                    Some((name.to_string(), value.parse().ok()?, unit.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

/// Run one workload in a child process and read its result.
fn child(
    workload: Workload,
    seed: u64,
    flags: &Flags,
    trace: bool,
    echo: bool,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        // The result line is for machines; the metric lines say the same.
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: no output", workload.name()))
        .and_then(Json::parse)?;
    Ok(Report {
        workload,
        correct: output.status.success() && result.get("correct") == Some(&Json::Bool(true)),
        metrics: metric_lines(&stdout),
    })
}

/// One run of every workload.
fn run_set(seed: u64, flags: &Flags, trace: bool, echo: bool) -> Vec<Report> {
    Workload::ALL
        .into_iter()
        .filter_map(|w| match child(w, seed, flags, trace, echo) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                None
            }
        })
        .collect()
}

fn all_correct(reports: &[Report]) -> bool {
    let ok = reports.len() == Workload::ALL.len() && reports.iter().all(|r| r.correct);
    if !ok {
        eprintln!("FAILED: a workload did not run or reported a wrong answer");
    }
    ok
}

/// Metric × workload, `-` where a workload does not report the metric.
fn print_table(reports: &[Report]) {
    let mut names: Vec<(&str, &str)> = Vec::new();
    for r in reports {
        for (name, _, unit) in &r.metrics {
            if !names.iter().any(|(n, _)| n == name) {
                names.push((name, unit));
            }
        }
    }
    print!("\n{:<28} {:<6}", "metric", "unit");
    for r in reports {
        print!(" {:>15}", r.workload.name());
    }
    println!();
    for (name, unit) in names {
        print!("{name:<28} {unit:<6}");
        for r in reports {
            match r.value(name) {
                Some(v) => print!(" {:>15}", format!("{v:.4}")),
                None => print!(" {:>15}", "-"),
            }
        }
        println!();
    }
}

/// Join the workloads' trace files into `benchmark/out/trace.json`.
fn merge_traces() {
    let events: Vec<String> = Workload::ALL
        .iter()
        .filter_map(|w| {
            std::fs::read_to_string(out_dir().join(format!("trace-{}.json", w.name()))).ok()
        })
        .flat_map(|text| {
            text.lines()
                .filter(|l| l.starts_with("{\"name\""))
                .map(|l| l.trim_end_matches(',').to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    let path = out_dir().join("trace.json");
    let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
    match std::fs::write(&path, body) {
        Ok(()) => println!("\nwrote {} ({} spans)", path.display(), events.len()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// `run` / `trace`: every workload once, every metric by name with unit.
pub fn run_all(flags: &Flags, trace: bool) -> bool {
    let reports = run_set(flags.seed, flags, trace, true);
    print_table(&reports);
    if trace {
        merge_traces();
    }
    all_correct(&reports)
}

/// `smoke`: every workload at toy size, untraced and traced, oracles on.
pub fn smoke(flags: &Flags) -> bool {
    let flags = Flags {
        smoke: true,
        ..*flags
    };
    let plain = run_set(flags.seed, &flags, false, true);
    let traced = run_set(flags.seed, &flags, true, true);
    merge_traces();
    all_correct(&plain) && all_correct(&traced)
}

/// The gated metrics' bounds, from `BENCHMARK.json` in the current
/// directory (or beside the crate).
fn bounds_from_manifest() -> Result<BTreeMap<String, f64>, String> {
    let text = [
        "BENCHMARK.json",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
    ]
    .iter()
    .find_map(|p| std::fs::read_to_string(p).ok())
    .ok_or("BENCHMARK.json not found")?;
    let manifest = Json::parse(&text)?;
    Ok(manifest
        .get("end_to_end")
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect())
}

/// By how much `b` is worse than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Per workload and gated metric, the values of `sets` run sets (seeds
/// `seed`, `seed + 1`, …).
fn collect(
    flags: &Flags,
    sets: usize,
    label: &str,
) -> (BTreeMap<(usize, &'static str), Vec<f64>>, bool) {
    let mut values: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        println!("# {label}: run set {} of {sets}", set + 1);
        let reports = run_set(flags.seed + set as u64, flags, false, false);
        ok &= all_correct(&reports);
        for r in &reports {
            let w = Workload::ALL
                .iter()
                .position(|w| *w == r.workload)
                .unwrap_or(0);
            for def in END_TO_END {
                if let Some(v) = r.value(def.name) {
                    values.entry((w, def.name)).or_default().push(v);
                }
            }
        }
    }
    (values, ok)
}

/// `aa`: two back-to-back groups of run sets of the same build (three
/// sets each unless `--sets` says otherwise, medians compared) must agree
/// within the bounds `BENCHMARK.json` fixes, on the gated workloads.
pub fn aa(flags: &Flags) -> bool {
    let bounds = match bounds_from_manifest() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let sets = flags.sets.unwrap_or(3);
    let (first, ok_a) = collect(flags, sets, "A");
    let (second, ok_b) = collect(flags, sets, "A'");
    let mut ok = ok_a && ok_b;
    println!(
        "\n{:<16} {:<12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "A", "A'", "worse_by", "bound"
    );
    for ((w, name), a) in &first {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == *name)
            .expect("gated metric");
        let (a, b) = (
            median(a),
            second.get(&(*w, *name)).map_or(f64::NAN, |b| median(b)),
        );
        let bound = bounds.get(*name).copied().unwrap_or(0.0);
        let worse = worse_by(def, a, b);
        let gated = Workload::GATED.contains(&Workload::ALL[*w]);
        let breach = gated && (worse.is_nan() || worse > bound);
        ok &= !breach;
        println!(
            "{:<16} {:<12} {:>12.4} {:>12.4} {:>+9.4} {:>7.2}{}",
            Workload::ALL[*w].name(),
            name,
            a,
            b,
            worse,
            bound,
            match (gated, breach) {
                (false, _) => "  (not gated)",
                (true, true) => "  BREACH",
                (true, false) => "",
            }
        );
    }
    println!(
        "{}",
        if ok {
            "A/A: within bounds"
        } else {
            "A/A: FAILED"
        }
    );
    ok
}

/// `bounds`: at least five run sets, each on another seed; per gated
/// metric the bound `max(0.10, 2 × IQR ÷ median)` of its widest gated
/// workload.
pub fn bounds(flags: &Flags) -> bool {
    let sets = flags.sets.unwrap_or(5).max(5);
    let (values, ok) = collect(flags, sets, "bounds");
    println!(
        "\n{:<16} {:<12} {:>12} {:>10} {:>7}",
        "workload", "metric", "median", "iqr_share", "bound"
    );
    let mut per_metric: BTreeMap<&str, f64> = BTreeMap::new();
    for ((w, name), xs) in &values {
        let spread = iqr_share(xs);
        let bound = (2.0 * spread).max(0.10);
        let gated = Workload::GATED.contains(&Workload::ALL[*w]);
        if gated {
            let widest = per_metric.entry(name).or_insert(0.0);
            *widest = widest.max(bound);
        }
        println!(
            "{:<16} {:<12} {:>12.4} {:>10.4} {:>7.3}{}",
            Workload::ALL[*w].name(),
            name,
            median(xs),
            spread,
            bound,
            if gated { "" } else { "  (not gated)" }
        );
    }
    println!("\nbounds for BENCHMARK.json (the contract caps a bound at 0.25):");
    for (name, bound) in per_metric {
        let note = if bound > 0.25 {
            "  over the cap: steady the metric"
        } else {
            ""
        };
        println!("  {name}: {:.2}{note}", bound.min(0.25));
    }
    ok
}
