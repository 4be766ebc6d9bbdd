//! `cold_recovery`: restart to first answer. Set-up builds a data
//! directory holding a checkpointed snapshot of a large forest plus a
//! synced log tail; one op is `System::open(dir) → load(ANCESTOR) →
//! query("anc(0, Y)")` — rules are not persisted, so the model is rebuilt.

use std::path::Path;
use std::time::Instant;

use ldl1::wal::{Store, SNAPSHOT_FILE, WAL_FILE};
use ldl1::{EvalOptions, QueryAnswer, StoreOptions, SyncPolicy, System, Value};

use crate::env;
use crate::gen::{self, ForestMirror, TailRecord};
use crate::metrics::{median, quiet_time, END_TO_END, PER_LAYER};
use crate::oracle;
use crate::pipeline;
use crate::trace::Tracer;
use crate::workload::{ms, Config, Outcome, Reps, Samples, Tally};

const QUERY: &str = "anc(0, Y)";

/// What the directory must give back.
struct Expect {
    /// `anc(0, Y)` once the tail is replayed.
    from_root: Vec<i64>,
    tail_records: u64,
    edb_facts: usize,
}

/// Write a data directory: the forest as one checkpointed snapshot (when
/// `forest`), then `tail` as one committed batch per record, synced once
/// at the end — every record is on disk, none paid its own fsync.
fn build_dir(dir: &Path, forest: Option<(i64, i64)>, tail: &[TailRecord]) -> Result<(), String> {
    let opts = StoreOptions {
        sync: SyncPolicy::Never,
    };
    let mut sys =
        System::open_with(dir, EvalOptions::default(), opts).map_err(|e| e.to_string())?;
    if let Some((chains, len)) = forest {
        let mut batch = sys.mutate();
        for (a, b) in gen::forest_edges(chains, len) {
            batch.assert("par", vec![Value::int(a), Value::int(b)]);
        }
        batch.commit().map_err(|e| e.to_string())?;
        sys.checkpoint().map_err(|e| e.to_string())?;
    }
    for r in tail {
        let mut batch = sys.mutate();
        batch.assert("par", vec![Value::int(r.par.0), Value::int(r.par.1)]);
        batch.assert("tag", vec![Value::atom(&r.tag.0), Value::int(r.tag.1)]);
        batch.commit().map_err(|e| e.to_string())?;
    }
    sys.sync().map_err(|e| e.to_string())
}

/// Seed the workload's directory and say what it must recover to.
fn set_up(cfg: &Config, dir: &Path) -> Result<Expect, String> {
    let (chains, len) = cfg.sizes().recovery_forest;
    let mut mirror = ForestMirror::new(chains, len);
    let tail = gen::recovery_tail(&mut mirror, cfg.sizes().recovery_tail, cfg.seed);
    build_dir(dir, Some((chains, len)), &tail)?;
    Ok(Expect {
        from_root: mirror.reachable(0),
        tail_records: tail.len() as u64,
        edb_facts: mirror.edges().len() + tail.len(),
    })
}

struct FacadeRun {
    open_ms: f64,
    total_ms: f64,
    answers: Option<Vec<QueryAnswer>>,
}

/// The op through the public API, with the recovery report checked: the
/// whole tail replayed on top of the snapshot, nothing truncated.
fn facade_op(dir: &Path, expect: &Expect, tally: &mut Tally) -> FacadeRun {
    let t0 = Instant::now();
    let opened = System::open(dir);
    let open_ms = ms(t0.elapsed());
    let result = opened.and_then(|mut sys| {
        sys.load(gen::ANCESTOR)?;
        let answers = sys.query(QUERY)?;
        Ok((sys, answers))
    });
    let total_ms = ms(t0.elapsed());
    let answers = match result {
        Ok((sys, answers)) => {
            let recovered = sys.recovery_info().is_some_and(|info| {
                info.replayed == expect.tail_records
                    && info.truncation.is_none()
                    && info.snapshot_seq.is_some()
            });
            tally.op(Ok(recovered
                && sys.edb().num_facts() == expect.edb_facts
                && oracle::same(&answers, &oracle::column(&expect.from_root))));
            Some(answers)
        }
        Err(e) => {
            tally.op(Err(e.to_string()));
            None
        }
    };
    FacadeRun {
        open_ms,
        total_ms,
        answers,
    }
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        Outcome::or_setup_failure(traced(cfg), PER_LAYER)
    } else {
        Outcome::or_setup_failure(untraced(cfg), END_TO_END)
    }
}

fn disk_bytes_per_fact(dir: &Path, expect: &Expect) -> f64 {
    env::disk_bytes(dir) as f64 / expect.edb_facts.max(1) as f64
}

fn untraced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(END_TO_END);
    let mut s = Samples::default();
    let mut opens = Vec::new();
    let mut last = (0.0, 0, 0);
    let mut rounds = Reps::new(cfg, 1.0, 2);
    while rounds.again() {
        let (dir, expect) = s.setup(|| {
            let dir = env::work_dir(cfg.workload.name()).map_err(|e| e.to_string())?;
            let expect = set_up(cfg, &dir)?;
            facade_op(&dir, &expect, &mut out.tally);
            Ok::<_, String>((dir, expect))
        })?;
        let ops: Vec<FacadeRun> = (0..cfg.sizes().round_ops)
            .map(|_| {
                s.tick();
                facade_op(&dir, &expect, &mut out.tally)
            })
            .collect();
        let totals: Vec<f64> = ops.iter().map(|f| f.total_ms).collect();
        s.blocks(&totals, 1);
        s.answers_ms.extend(totals);
        opens.extend(ops.iter().map(|f| f.open_ms));
        last = (
            disk_bytes_per_fact(&dir, &expect),
            expect.tail_records,
            expect.edb_facts,
        );
        if out.correct() {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    s.report(&mut out, "restarts");
    out.specific.push(("recovery_ms", quiet_time(&opens)));
    out.specific.push(("disk_bytes_per_fact", last.0));
    out.notes.push(format!(
        "recovery_ms: 5th percentile of the same restarts; snapshot + {} log records, {} EDB facts",
        last.1, last.2
    ));
    Ok(out)
}

/// Median `Store::open` time of `dir`, and the last recovery report.
fn open_ms(dir: &Path, reps: usize) -> Result<(f64, u64), String> {
    let mut times = Vec::new();
    let mut replayed = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (store, db, info) =
            Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())?;
        times.push(ms(t0.elapsed()));
        replayed = info.replayed;
        drop((store, db));
    }
    Ok((median(&times), replayed))
}

fn traced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(PER_LAYER);
    let mut t = Tracer::new(cfg.workload.name());
    let dir = env::work_dir(cfg.workload.name()).map_err(|e| e.to_string())?;
    let expect = set_up(cfg, &dir)?;
    let first = facade_op(&dir, &expect, &mut out.tally);
    out.table.set("ldl1.first_run_ms", first.total_ms);

    let options = EvalOptions::default();
    let (mut facade, mut opens) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut reps = Reps::new(cfg, 0.6, 2);
    while reps.again() {
        last = None;
        let f = facade_op(&dir, &expect, &mut out.tally);
        facade.push(f.total_ms);
        opens.push(f.open_ms);
        t.next_rep();
        let staged = t.span("op", |t| {
            let (store, edb, _) = t
                .span("wal.open", |_| Store::open(&dir, StoreOptions::default()))
                .map_err(|e| e.to_string())?;
            let l = pipeline::load(t, gen::ANCESTOR, Some(edb))?;
            let e = pipeline::evaluate(t, &l, &options)?;
            let a = pipeline::query(t, &e.model, &options, QUERY)?;
            drop(store);
            Ok::<_, String>((l, e, a))
        });
        out.tally.op(staged.map(|(l, e, a)| {
            let same = Some(&a) == f.answers.as_ref();
            last = Some((l, e, a.len()));
            same
        }));
    }
    let Some((loaded, evald, answers)) = last else {
        return Ok(out);
    };
    pipeline::fill_times(&mut out.table, &t);
    pipeline::fill_load(&mut out.table, &loaded);
    pipeline::fill_eval(&mut out.table, &evald);
    let anc = evald
        .model
        .relation("anc".into())
        .map_or(0, |r| r.live_len());
    out.table
        .set("eval.rows_per_answer", anc as f64 / answers.max(1) as f64);
    let t0 = Instant::now();
    let copy = evald.model.clone();
    out.table.set("storage.model_clone_ms", ms(t0.elapsed()));
    drop((copy, loaded, evald));

    // Controls: the snapshot alone, and the tail alone as a log to replay.
    let (chains, len) = cfg.sizes().recovery_forest;
    let tail = gen::recovery_tail(
        &mut ForestMirror::new(chains, len),
        cfg.sizes().recovery_tail,
        cfg.seed,
    );
    let controls = if cfg.smoke { 1 } else { 3 };
    let snap_dir = env::work_dir("recovery_snapshot_only").map_err(|e| e.to_string())?;
    build_dir(&snap_dir, Some((chains, len)), &[])?;
    let (snapshot_ms, _) = open_ms(&snap_dir, controls)?;
    out.table.set("wal.open_snapshot_ms", snapshot_ms);
    let log_dir = env::work_dir("recovery_log_only").map_err(|e| e.to_string())?;
    build_dir(&log_dir, None, &tail)?;
    let (replay_ms, replayed) = open_ms(&log_dir, controls)?;
    out.tally.op(Ok(replayed == expect.tail_records));
    out.table.set("wal.open_replay_ms", replay_ms);
    out.table.set("wal.replayed_records", replayed as f64);
    out.table.set(
        "wal.replay_us_per_record",
        replay_ms * 1e3 / replayed.max(1) as f64,
    );
    out.table.set(
        "wal.snapshot_bytes",
        env::file_len(&dir.join(SNAPSHOT_FILE)) as f64,
    );
    out.table
        .set("wal.log_bytes", env::file_len(&dir.join(WAL_FILE)) as f64);
    out.table.set("wal.records", expect.tail_records as f64);
    out.table.set(
        "wal.disk_bytes_per_fact",
        disk_bytes_per_fact(&dir, &expect),
    );

    out.table.set("ldl1.recovery_ms", median(&opens));
    let note = pipeline::fill_facade(&mut out.table, &t, &facade);
    out.notes.push(note);
    if out.correct() {
        for d in [&dir, &snap_dir, &log_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    out.tracer = Some(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn recovery_runs_traced_and_untraced_at_smoke_size() {
        for trace in [false, true] {
            let cfg = Config::smoke(Workload::ColdRecovery, 13);
            let out = run(&cfg, trace);
            assert!(out.correct(), "trace={trace}");
            if trace {
                assert_eq!(
                    out.table.get("wal.replayed_records"),
                    gen::SMOKE.recovery_tail as f64
                );
            }
        }
    }
}
