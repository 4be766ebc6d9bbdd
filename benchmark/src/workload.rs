//! The seven workloads, what a run of one is configured with, and what
//! it reports.

use std::time::{Duration, Instant};

use crate::gen::Sizes;
use crate::host;
use crate::metrics::{median, quiet_rate, quiet_time, MetricDef, Table};
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TcChain,
    ExclAncestor,
    GiantTcPar2,
    BomMagic,
    MutationStream,
    SnapshotReads,
    ColdRecovery,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::TcChain,
        Workload::ExclAncestor,
        Workload::GiantTcPar2,
        Workload::BomMagic,
        Workload::MutationStream,
        Workload::SnapshotReads,
        Workload::ColdRecovery,
    ];

    /// The workloads `BENCHMARK.json` names, whose end-to-end metrics gate
    /// later changes. The other two run under every subcommand and from
    /// the same command line, but no bound hangs on them, because nothing
    /// would hold it: `mutation_stream` is nine tenths fsync, and the shared
    /// disk's fsync latency moves 5× between one run and the next;
    /// `giant_tc_par2` runs as many threads as the host has cores, so it
    /// times the neighbours' scheduling as much as the engine.
    pub const GATED: [Workload; 5] = [
        Workload::TcChain,
        Workload::ExclAncestor,
        Workload::BomMagic,
        Workload::SnapshotReads,
        Workload::ColdRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcChain => "tc_chain",
            Workload::ExclAncestor => "excl_ancestor",
            Workload::GiantTcPar2 => "giant_tc_par2",
            Workload::BomMagic => "bom_magic",
            Workload::MutationStream => "mutation_stream",
            Workload::SnapshotReads => "snapshot_reads",
            Workload::ColdRecovery => "cold_recovery",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which workload-specific end-to-end metrics this workload reports.
    pub fn reports(self, metric: &str) -> bool {
        match metric {
            "commit_p50_us" | "commit_p99_us" => {
                matches!(self, Workload::MutationStream | Workload::SnapshotReads)
            }
            "recovery_ms" => self == Workload::ColdRecovery,
            "disk_bytes_per_fact" => {
                matches!(self, Workload::MutationStream | Workload::ColdRecovery)
            }
            _ => true,
        }
    }
}

/// One run of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase. Sets the number of rounds, never the
    /// size of an input or the length of a round.
    pub seconds: f64,
    /// Toy run: smoke sizes, one round, whatever `seconds` says.
    pub smoke: bool,
}

impl Config {
    /// The toy run the tests use.
    pub fn smoke(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            seconds: 1.0,
            smoke: true,
        }
    }

    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            crate::gen::SMOKE
        } else {
            crate::gen::CANONICAL
        }
    }
}

/// Repeat an operation (a rep, or a whole round of set-up and ops): at
/// least `min` times, then until the time budget is spent. Once in smoke
/// runs.
pub struct Reps {
    start: Instant,
    budget: Duration,
    min: usize,
    max: usize,
    done: usize,
}

impl Reps {
    /// `share` of the run length, at least `min` times.
    pub fn new(cfg: &Config, share: f64, min: usize) -> Reps {
        Reps {
            start: Instant::now(),
            budget: Duration::from_secs_f64(cfg.seconds * share),
            min: if cfg.smoke { 1 } else { min },
            max: if cfg.smoke { 1 } else { usize::MAX },
            done: 0,
        }
    }

    pub fn again(&mut self) -> bool {
        let go =
            self.done < self.min || (self.done < self.max && self.start.elapsed() < self.budget);
        self.done += 1;
        go
    }

    /// The index of the repetition `again` last started.
    pub fn round(&self) -> u64 {
        self.done.saturating_sub(1) as u64
    }
}

/// What the rounds of an untraced run sampled. A round is one set-up (a
/// fresh input, system or data directory, and a warm-up op) followed by a
/// fixed number of timed ops; rounds repeat until the run length is spent,
/// so every sample list covers the whole run. Each gated timing is read off
/// the host's quiet moments ([`crate::metrics::QUIET`]) and scaled by the
/// host's speed over the same run ([`crate::host`]).
#[derive(Default)]
pub struct Samples {
    /// One per round: everything a round does before its timed ops.
    pub setups_s: Vec<f64>,
    /// One per read op: time to its complete answer.
    pub answers_ms: Vec<f64>,
    /// One per block of consecutive ops: ops ÷ the time they took.
    pub rates: Vec<f64>,
    /// One per [`Samples::tick`]: the reference kernel's time.
    pub kernel_ms: Vec<f64>,
}

impl Samples {
    /// Time one round's set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.setups_s.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Sample the host's speed. Called before every op or block of stream
    /// ops, every 20–60 ms.
    pub fn tick(&mut self) {
        self.kernel_ms.push(host::kernel_ms());
    }

    /// The throughput samples of ops that took `op_ms` each, in order:
    /// one per `block` consecutive ops (a shorter last block is dropped).
    /// A stream's block is a few dozen commits and queries; where the op is
    /// a whole cold start or magic query the block is that one op, and
    /// `ops_per_s` is the closed loop's 1 ÷ `answer_ms`.
    pub fn blocks(&mut self, op_ms: &[f64], block: usize) {
        for b in op_ms.chunks_exact(block.max(1)) {
            self.rates
                .push(b.len() as f64 / (b.iter().sum::<f64>() / 1e3));
        }
    }

    /// Set the three gated timings, print what they were made from, and
    /// say what they were read from.
    pub fn report(&self, out: &mut Outcome, op: &str) {
        let speed = host::speed(&self.kernel_ms);
        let (setup, answer, rate) = (
            quiet_time(&self.setups_s),
            quiet_time(&self.answers_ms),
            quiet_rate(&self.rates),
        );
        out.table.set("setup_s", setup * speed);
        out.table.set("answer_ms", answer * speed);
        out.table.set("ops_per_s", rate / speed);
        out.specific.extend([
            ("host_speed", speed),
            ("answer_raw_ms", answer),
            ("answer_p50_raw_ms", median(&self.answers_ms)),
            ("ops_per_s_raw", rate),
            ("setup_raw_s", setup),
        ]);
        out.notes.push(format!(
            "answer_ms: 5th percentile of {} {op}; ops_per_s: 95th percentile of {} blocks; \
             setup_s: 5th percentile of {} set-ups (one per round); each scaled by host_speed, \
             {} ms ÷ the 5th percentile of {} reference-kernel runs",
            self.answers_ms.len(),
            self.rates.len(),
            self.setups_s.len(),
            host::NOMINAL_MS,
            self.kernel_ms.len()
        ));
    }
}

/// Operations attempted, and how many went wrong. An operation fails when
/// it returns `Err` or when its answer differs from the oracle's.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub wrong: u64,
}

impl Tally {
    /// Count one operation: `Ok(true)` is a verified answer.
    pub fn op(&mut self, verified: Result<bool, String>) {
        self.attempted += 1;
        match verified {
            Ok(true) => {}
            Ok(false) => self.wrong += 1,
            Err(e) => {
                self.errors += 1;
                eprintln!("operation failed: {e}");
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }
}

/// What one run of one workload measured.
pub struct Outcome {
    pub tally: Tally,
    /// The metrics of the result line: `END_TO_END` or `PER_LAYER`.
    pub table: Table,
    /// Workload-specific end-to-end metrics (untraced run only).
    pub specific: Vec<(&'static str, f64)>,
    /// Sample counts and the like, printed with the metrics.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(defs: &'static [MetricDef]) -> Outcome {
        Outcome {
            tally: Tally::default(),
            table: Table::new(defs),
            specific: Vec::new(),
            notes: Vec::new(),
            tracer: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed() == 0
    }

    /// A run whose set-up failed reports one failed operation and no
    /// measurements.
    pub fn or_setup_failure(
        result: Result<Outcome, String>,
        defs: &'static [MetricDef],
    ) -> Outcome {
        result.unwrap_or_else(|e| {
            let mut out = Outcome::new(defs);
            out.tally.op(Err(format!("set-up failed: {e}")));
            out
        })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
