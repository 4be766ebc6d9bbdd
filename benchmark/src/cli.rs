//! Command line: one workload per process (what `BENCHMARK.json`'s
//! command runs), and the subcommands that fan out over all of them.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::driver;
use crate::env;
use crate::metrics::WORKLOAD_SPECIFIC;
use crate::workload::{Config, Outcome, Workload};
use crate::{bom, cold, recovery, stream};

pub const DEFAULT_SEED: u64 = 1987;
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "\
usage: ldl1-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       ldl1-benchmark run|trace|smoke [--seed N] [--seconds S]
       ldl1-benchmark aa [--seed N] [--seconds S]
       ldl1-benchmark bounds [--sets N] [--seed N] [--seconds S]
workloads: tc_chain excl_ancestor bom_magic snapshot_reads cold_recovery (gated)
           giant_tc_par2 mutation_stream (reported, no bound)";

/// Flags shared by every form of the command line.
pub struct Flags {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sets: Option<usize>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sets: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => f.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                f.seconds = value.parse().map_err(|_| bad())?;
                if !(f.seconds > 0.0 && f.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => f.trace = matches!(value.as_str(), "1" | "true"),
            "--sets" => f.sets = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

pub fn main() -> ExitCode {
    env::clear_engine_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (Some(s), &args[1..]),
        _ => (None, &args[..]),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (sub, flags.workload) {
        (None, Some(workload)) => one(workload, &flags),
        (Some("run"), _) => driver::run_all(&flags, false),
        (Some("trace"), _) => driver::run_all(&flags, true),
        (Some("smoke"), _) => driver::smoke(&flags),
        (Some("aa"), _) => driver::aa(&flags),
        (Some("bounds"), _) => driver::bounds(&flags),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where the harness keeps its outputs: `benchmark/out` of the checkout it
/// runs in, or of the checkout it was built in when run from elsewhere.
pub fn out_dir() -> PathBuf {
    let root = if Path::new("benchmark/Cargo.toml").exists() {
        Path::new("benchmark")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    };
    root.join("out")
}

/// Run one workload in this process and print its result.
fn one(workload: Workload, flags: &Flags) -> bool {
    let cfg = Config {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        smoke: flags.smoke,
    };
    let work = out_dir().join("work");
    let _ = std::fs::create_dir_all(&work);
    println!(
        "# ldl1-benchmark workload={} seed={} seconds={} trace={} sizes={} nproc={} \
         rustc=\"{}\" commit={} workdir_fs={} sync_policy={} engine_env=cleared({})",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(flags.trace),
        if cfg.smoke { "smoke" } else { "canonical" },
        env::nproc(),
        env::rustc_version(),
        env::git_commit(),
        env::fs_type(&work),
        match workload {
            Workload::MutationStream | Workload::ColdRecovery => "always",
            _ => "none(in-memory)",
        },
        env::ENGINE_ENV.join(","),
    );
    let mut out = match workload {
        Workload::TcChain | Workload::ExclAncestor | Workload::GiantTcPar2 => {
            cold::run(&cfg, flags.trace)
        }
        Workload::BomMagic => bom::run(&cfg, flags.trace),
        Workload::MutationStream | Workload::SnapshotReads => stream::run(&cfg, flags.trace),
        Workload::ColdRecovery => recovery::run(&cfg, flags.trace),
    };
    if !flags.trace {
        out.table.set("peak_rss_mb", env::peak_rss_mb());
    }
    if let Some(t) = &out.tracer {
        let pid = Workload::ALL
            .iter()
            .position(|w| *w == workload)
            .unwrap_or(0)
            + 1;
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        let body = t.chrome_events(pid);
        let body = body.trim_end().replace('\n', ",\n");
        if let Err(e) = std::fs::write(&path, format!("{{\"traceEvents\":[\n{body}\n]}}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    print!("{}", render(workload, &out));
    out.correct()
}

/// The human-readable metric lines, then the result line.
fn render(workload: Workload, out: &Outcome) -> String {
    let w = workload.name();
    let mut s = String::new();
    for note in &out.notes {
        let _ = writeln!(s, "# {note}");
    }
    for (def, value) in out.table.iter() {
        let _ = writeln!(s, "metric {w} {} = {value} {}", def.name, def.unit);
    }
    for (name, value) in &out.specific {
        let unit = WORKLOAD_SPECIFIC
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit);
        let _ = writeln!(s, "metric {w} {name} = {value} {unit}");
    }
    let t = &out.tally;
    let share = t.failed() as f64 / t.attempted.max(1) as f64;
    let _ = writeln!(s, "metric {w} wrong_answers = {} count", t.wrong);
    let _ = writeln!(s, "metric {w} failed_share = {share} ratio");
    let metrics: Vec<String> = out
        .table
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                if value.is_finite() { value } else { 0.0 },
                def.unit
            )
        })
        .collect();
    let _ = writeln!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        t.attempted,
        t.failed(),
        metrics.join(", ")
    );
    s
}
