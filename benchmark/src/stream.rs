//! The two stream workloads over a forest of chains under the ancestor
//! program, whose model is built in set-up and then *maintained*:
//!
//! * `mutation_stream` — a durable system (`SyncPolicy::Always`): 60 %
//!   assert, 20 % retract, 10 % update, 10 % query, one checkpoint half way.
//! * `snapshot_reads` — an in-memory system with a `Reader` active: one
//!   commit, then two reads of the published snapshot, on one thread.
//!
//! A round is a fresh system on the initial forest and one stream of fixed
//! length replayed on it, so the model a query scans has the same size in
//! every round and on every host; the run length sets the number of rounds.
//!
//! The traced run replays one round's stream on an ablation ladder (in
//! memory → WAL without fsync → WAL with fsync, resp. without and with a
//! reader), which attributes a commit's cost to maintenance, logging, fsync
//! and publication without a timer inside the engine.

use std::path::Path;
use std::time::{Duration, Instant};

use ldl1::wal::{encode_batch, Store, WAL_FILE};
use ldl1::{EvalOptions, EvalStats, Fact, Reader, StoreOptions, SyncPolicy, System, Value};

use crate::env;
use crate::gen::{self, ForestMirror, StreamOp};
use crate::metrics::{median, quantile, Table, END_TO_END, PER_LAYER};
use crate::oracle;
use crate::pipeline;
use crate::trace::Tracer;
use crate::workload::{ms, us, Config, Outcome, Reps, Samples, Tally, Workload};

fn par(a: i64, b: i64) -> Vec<Value> {
    vec![Value::int(a), Value::int(b)]
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Assert,
    Retract,
    Update,
}

/// What replaying a stream against one system measured.
#[derive(Default)]
struct Played {
    /// Every op in order, in ms: what a closed-loop client waited for it.
    op_ms: Vec<f64>,
    commits: Vec<(Kind, f64)>,
    queries_us: Vec<f64>,
    latest_us: Vec<f64>,
    wall: Duration,
    stats: EvalStats,
    checkpoint_ms: f64,
    checkpoint_stall_ms: f64,
    snapshot_bytes: u64,
}

impl Played {
    fn commit_us(&self, kind: Option<Kind>) -> Vec<f64> {
        self.commits
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, dt)| *dt)
            .collect()
    }
}

/// Run `f` under a span when tracing, and time it either way.
fn timed<T>(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let run = || {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed())
    };
    match t {
        Some(t) => t.span(name, |_| run()),
        None => run(),
    }
}

/// Replay `ops` on `sys`, closed loop, one op at a time. Reads go through
/// `reader` when there is one. Every query is checked against the mirror's
/// expected answer; a checkpoint runs before op `checkpoint_at`, and the
/// op that waited for it carries its cost.
fn play(
    sys: &mut System,
    reader: Option<&Reader>,
    ops: &[StreamOp],
    checkpoint_at: Option<usize>,
    tally: &mut Tally,
    mut t: Option<&mut Tracer>,
) -> Played {
    let mut p = Played::default();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let mut stall = Duration::ZERO;
        if checkpoint_at == Some(i) {
            let (info, dt) = timed(&mut t, "wal.checkpoint", || sys.checkpoint());
            stall = dt;
            p.checkpoint_ms = ms(dt);
            match info {
                Ok(info) => p.snapshot_bytes = info.bytes,
                Err(e) => tally.op(Err(format!("checkpoint: {e}"))),
            }
        }
        let waited = stall
            + match op {
                StreamOp::Query { root, expect } => {
                    let q = format!("anc({root}, Y)");
                    let (answers, dt) = match reader {
                        Some(r) => {
                            let (snap, latest) = timed(&mut t, "ldl1.reader_latest", || r.latest());
                            p.latest_us.push(us(latest));
                            let (a, dt) = timed(&mut t, "eval.query", || snap.query(&q));
                            (a, latest + dt)
                        }
                        None => timed(&mut t, "ldl1.query", || sys.query(&q)),
                    };
                    p.queries_us.push(us(dt + stall));
                    tally.op(answers
                        .map(|a| oracle::same(&a, &oracle::column(expect)))
                        .map_err(|e| e.to_string()));
                    dt
                }
                commit => {
                    let mut batch = sys.mutate();
                    let kind = match *commit {
                        StreamOp::Assert(a, b) => {
                            batch.assert("par", par(a, b));
                            Kind::Assert
                        }
                        StreamOp::Retract(a, b) => {
                            batch.retract("par", par(a, b));
                            Kind::Retract
                        }
                        StreamOp::Update { old, new } => {
                            batch.update("par", par(old.0, old.1), par(new.0, new.1));
                            Kind::Update
                        }
                        StreamOp::Query { .. } => unreachable!("matched above"),
                    };
                    let (done, dt) = timed(&mut t, "ldl1.commit", || batch.commit());
                    p.commits.push((kind, us(dt + stall)));
                    p.stats += sys.last_stats();
                    tally.op(done.map(|()| true).map_err(|e| e.to_string()));
                    dt
                }
            };
        p.op_ms.push(ms(waited));
        if checkpoint_at == Some(i) {
            p.checkpoint_stall_ms = ms(waited);
        }
    }
    p.wall = start.elapsed();
    p
}

/// The initial forest, loaded and evaluated, on the system `make` opens.
fn build(
    cfg: &Config,
    make: impl FnOnce() -> Result<System, ldl1::Error>,
    tally: &mut Tally,
) -> Result<System, String> {
    let (chains, len) = cfg.sizes().forest;
    let mut sys = make().map_err(|e| e.to_string())?;
    sys.load(&gen::forest(chains, len, cfg.seed))
        .map_err(|e| e.to_string())?;
    let first = sys.query("anc(0, Y)").map_err(|e| e.to_string())?;
    let expect = ForestMirror::new(chains, len).reachable(0);
    tally.op(Ok(oracle::same(&first, &oracle::column(&expect))));
    Ok(sys)
}

/// One round's stream (round `round` of this seed) and the mirror's
/// state once it has all run. Every round starts from the initial forest.
fn ops_for(cfg: &Config, round: u64) -> (Vec<StreamOp>, ForestMirror) {
    let (chains, len) = cfg.sizes().forest;
    let (mutation_ops, snapshot_ops) = cfg.sizes().stream_ops;
    let seed = cfg.seed.wrapping_mul(1 << 20).wrapping_add(round);
    let mut mirror = ForestMirror::new(chains, len);
    let ops = match cfg.workload {
        Workload::MutationStream => gen::mutation_stream(&mut mirror, mutation_ops, seed),
        _ => gen::snapshot_stream(&mut mirror, snapshot_ops, seed),
    };
    (ops, mirror)
}

/// Throughput samples per round: a round's stream in this many blocks.
const BLOCKS_PER_ROUND: usize = 20;

fn durable(dir: &Path, sync: SyncPolicy) -> Result<System, ldl1::Error> {
    System::open_with(dir, EvalOptions::default(), StoreOptions { sync })
}

/// Reopen the directory a durable stream wrote and compare what recovery
/// rebuilt with the mirror: every edge, no truncation, and exactly the
/// commits since the checkpoint replayed.
fn reopen_equals_mirror(dir: &Path, mirror: &ForestMirror, replayed: u64) -> Result<bool, String> {
    let sys = System::open(dir).map_err(|e| e.to_string())?;
    let info = sys.recovery_info().ok_or("no recovery info")?;
    let mut edges: Vec<(i64, i64)> = sys
        .edb()
        .facts_of("par".into())
        .iter()
        .filter_map(|f| Some((f.args()[0].as_int()?, f.args()[1].as_int()?)))
        .collect();
    edges.sort_unstable();
    Ok(info.truncation.is_none()
        && info.replayed == replayed
        && sys.edb().num_facts() == edges.len()
        && edges == mirror.edges())
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        Outcome::or_setup_failure(traced(cfg), PER_LAYER)
    } else {
        Outcome::or_setup_failure(untraced(cfg), END_TO_END)
    }
}

fn untraced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(END_TO_END);
    let is_durable = cfg.workload == Workload::MutationStream;
    let mut s = Samples::default();
    let (mut commits, mut queries, mut ops_run) = (Vec::new(), 0, 0);
    let mut disk_bytes_per_fact = 0.0;
    let mut rounds = Reps::new(cfg, 1.0, 2);
    while rounds.again() {
        let (mut sys, reader, ops, mirror, dir) = s.setup(|| {
            let (dir, sys, reader) = if is_durable {
                let dir = env::work_dir(cfg.workload.name()).map_err(|e| e.to_string())?;
                let sys = build(cfg, || System::open(&dir), &mut out.tally)?;
                (Some(dir), sys, None)
            } else {
                let mut sys = build(cfg, || Ok(System::new()), &mut out.tally)?;
                let reader = sys.reader().map_err(|e| e.to_string())?;
                (None, sys, Some(reader))
            };
            let (ops, mirror) = ops_for(cfg, rounds.round());
            Ok::<_, String>((sys, reader, ops, mirror, dir))
        })?;

        // The stream, a block at a time, the host's speed sampled between
        // blocks; the durable stream checkpoints before its middle op.
        let block = ops.len() / BLOCKS_PER_ROUND;
        for (b, chunk) in ops.chunks(block).enumerate() {
            let checkpoint_at = (is_durable && b == BLOCKS_PER_ROUND / 2).then_some(0);
            s.tick();
            let p = play(
                &mut sys,
                reader.as_ref(),
                chunk,
                checkpoint_at,
                &mut out.tally,
                None,
            );
            s.blocks(&p.op_ms, block);
            s.answers_ms.extend(p.queries_us.iter().map(|q| q / 1e3));
            commits.extend(p.commit_us(None));
            queries += p.queries_us.len();
        }
        ops_run += ops.len();

        if let Some(dir) = dir {
            let facts = sys.edb().num_facts().max(1);
            disk_bytes_per_fact = env::disk_bytes(&dir) as f64 / facts as f64;
            drop(sys);
            let since_checkpoint = ops[ops.len() / 2..]
                .iter()
                .filter(|op| !matches!(op, StreamOp::Query { .. }))
                .count();
            out.tally
                .op(reopen_equals_mirror(&dir, &mirror, since_checkpoint as u64));
            if out.correct() {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    s.report(&mut out, "queries");
    out.specific.push(("commit_p50_us", median(&commits)));
    out.specific
        .push(("commit_p99_us", quantile(&commits, 0.99)));
    if is_durable {
        out.specific
            .push(("disk_bytes_per_fact", disk_bytes_per_fact));
    }
    out.notes.push(format!(
        "{} ops in {} rounds: {} commits, {} queries; commit_p99_us has {} samples beyond it; \
         sync policy {}",
        ops_run,
        s.setups_s.len(),
        commits.len(),
        queries,
        commits.len() / 100,
        if is_durable {
            "always"
        } else {
            "none (in memory)"
        },
    ));
    Ok(out)
}

/// One rung of the ablation ladder: a fresh system on the initial forest,
/// `ops` replayed on it.
fn rung(
    cfg: &Config,
    t: &mut Tracer,
    name: &'static str,
    ops: &[StreamOp],
    sync: Option<SyncPolicy>,
    with_reader: bool,
    out: &mut Outcome,
) -> Result<Played, String> {
    let dir = env::work_dir(name).map_err(|e| e.to_string())?;
    let mut sys = build(
        cfg,
        || match sync {
            Some(sync) => durable(&dir, sync),
            None => Ok(System::new()),
        },
        &mut out.tally,
    )?;
    let reader = match with_reader {
        true => Some(sys.reader().map_err(|e| e.to_string())?),
        false => None,
    };
    let checkpoint_at = (sync == Some(SyncPolicy::Always)).then_some(ops.len() / 2);
    t.next_rep();
    let tally = &mut out.tally;
    let p = t.span(name, |t| {
        play(
            &mut sys,
            reader.as_ref(),
            ops,
            checkpoint_at,
            tally,
            Some(t),
        )
    });
    if sync == Some(SyncPolicy::Always) {
        let facts = sys.edb().num_facts().max(1);
        out.table
            .set("wal.log_bytes", env::file_len(&dir.join(WAL_FILE)) as f64);
        out.table.set(
            "wal.disk_bytes_per_fact",
            env::disk_bytes(&dir) as f64 / facts as f64,
        );
    }
    if with_reader {
        // What `publish` clones: the maintained model, indexes and all.
        let t0 = Instant::now();
        let copy = sys.model().cloned();
        out.table.set("storage.model_clone_ms", ms(t0.elapsed()));
        drop(copy);
    }
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(p)
}

/// The WAL alone: encode and append the stream's batches on a bare
/// `Store`, without and with fsync.
fn wal_only(t: &mut Tracer, ops: &[StreamOp], table: &mut Table) -> Result<(), String> {
    let fact = |(a, b): (i64, i64)| Fact::new("par", par(a, b));
    let batches: Vec<(Vec<Fact>, Vec<Fact>)> = ops
        .iter()
        .filter_map(|op| match op {
            StreamOp::Assert(a, b) => Some((vec![], vec![fact((*a, *b))])),
            StreamOp::Retract(a, b) => Some((vec![fact((*a, *b))], vec![])),
            StreamOp::Update { old, new } => Some((vec![fact(*old)], vec![fact(*new)])),
            StreamOp::Query { .. } => None,
        })
        .collect();
    t.next_rep();
    let encode_us: Vec<f64> = t.span("wal.encode", |_| {
        batches
            .iter()
            .map(|(del, ins)| {
                let t0 = Instant::now();
                std::hint::black_box(encode_batch(del, ins));
                us(t0.elapsed())
            })
            .collect()
    });
    table.set("wal.encode_us", median(&encode_us));

    let mut medians = [0.0; 2];
    for (slot, (name, sync)) in [
        ("wal.append_nosync", SyncPolicy::Never),
        ("wal.append_fsync", SyncPolicy::Always),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = env::work_dir(name).map_err(|e| e.to_string())?;
        let (mut store, _, _) =
            Store::open(&dir, StoreOptions { sync }).map_err(|e| e.to_string())?;
        t.next_rep();
        let appended = t.span(name, |_| {
            batches
                .iter()
                .map(|(del, ins)| {
                    let t0 = Instant::now();
                    let info = store.append(del, ins);
                    info.map(|i| (us(t0.elapsed()), i))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let appended = appended.map_err(|e| e.to_string())?;
        let times: Vec<f64> = appended.iter().map(|(dt, _)| *dt).collect();
        medians[slot] = median(&times);
        if sync == SyncPolicy::Always {
            let bytes: u64 = appended.iter().map(|(_, i)| i.bytes).sum();
            table.set(
                "wal.bytes_per_commit",
                bytes as f64 / appended.len().max(1) as f64,
            );
            table.set(
                "wal.fsyncs",
                appended.iter().filter(|(_, i)| i.synced).count() as f64,
            );
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    table.set("wal.append_nosync_us", medians[0]);
    table.set("wal.append_fsync_us", medians[1]);
    table.set("wal.fsync_us", medians[1] - medians[0]);
    Ok(())
}

fn traced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(PER_LAYER);
    let mut t = Tracer::new(cfg.workload.name());
    let is_durable = cfg.workload == Workload::MutationStream;

    // The model build, one layer at a time, against the facade's answer.
    let (chains, len) = cfg.sizes().forest;
    let src = gen::forest(chains, len, cfg.seed);
    let options = EvalOptions::default();
    let t0 = Instant::now();
    let mut facade = System::new();
    facade.load(&src).map_err(|e| e.to_string())?;
    out.table.set("ldl1.load_ms", ms(t0.elapsed()));
    let facade_answers = facade.query("anc(0, Y)").map_err(|e| e.to_string())?;
    out.table.set("ldl1.first_run_ms", ms(t0.elapsed()));
    drop(facade);
    t.next_rep();
    let (loaded, evald, answers) = t.span("op", |t| {
        let l = pipeline::load(t, &src, None)?;
        let e = pipeline::evaluate(t, &l, &options)?;
        let a = pipeline::query(t, &e.model, &options, "anc(0, Y)")?;
        Ok::<_, String>((l, e, a))
    })?;
    out.tally.op(Ok(answers == facade_answers));
    pipeline::fill_times(&mut out.table, &t);
    pipeline::fill_load(&mut out.table, &loaded);
    pipeline::fill_eval(&mut out.table, &evald);
    let anc = evald
        .model
        .relation("anc".into())
        .map_or(0, |r| r.live_len());
    out.table.set(
        "eval.rows_per_answer",
        anc as f64 / answers.len().max(1) as f64,
    );
    let t0 = Instant::now();
    let copy = evald.model.clone();
    out.table.set("storage.model_clone_ms", ms(t0.elapsed()));
    drop((copy, loaded, evald));

    // The ladder: one round's stream, the same on each rung.
    let (ops, _) = ops_for(cfg, 0);
    let ops = &ops[..];
    let mem = rung(cfg, &mut t, "rung.memory", ops, None, false, &mut out)?;
    let mem_p50 = median(&mem.commit_us(None));
    out.table.set("ldl1.commit_mem_us", mem_p50);
    for (metric, kind) in [
        ("eval.maintain_assert_us", Kind::Assert),
        ("eval.maintain_retract_us", Kind::Retract),
        ("eval.maintain_update_us", Kind::Update),
    ] {
        out.table.set(metric, median(&mem.commit_us(Some(kind))));
    }
    for (metric, count) in [
        ("eval.strata_delta", mem.stats.strata_delta),
        ("eval.strata_counting", mem.stats.strata_counting),
        ("eval.strata_dred", mem.stats.strata_dred),
        ("eval.strata_replayed", mem.stats.strata_replayed),
        ("eval.strata_skipped", mem.stats.strata_skipped),
        ("eval.facts_retracted", mem.stats.facts_retracted),
    ] {
        out.table.set(metric, count as f64);
    }

    // The top rung is the configuration the untraced run measures.
    let top = if is_durable {
        // The fsync rung runs before the no-sync rung, so that no other
        // rung's unsynced log is pending when fsyncs are timed.
        let fsync = rung(
            cfg,
            &mut t,
            "rung.wal_fsync",
            ops,
            Some(SyncPolicy::Always),
            false,
            &mut out,
        )?;
        out.table
            .set("ldl1.commit_fsync_us", median(&fsync.commit_us(None)));
        let nosync = rung(
            cfg,
            &mut t,
            "rung.wal_nosync",
            ops,
            Some(SyncPolicy::Never),
            false,
            &mut out,
        )?;
        out.table
            .set("ldl1.commit_nosync_us", median(&nosync.commit_us(None)));
        out.table.set("wal.records", fsync.stats.wal_records as f64);
        out.table.set("wal.checkpoint_ms", fsync.checkpoint_ms);
        out.table
            .set("wal.snapshot_bytes", fsync.snapshot_bytes as f64);
        out.table
            .set("ldl1.checkpoint_stall_ms", fsync.checkpoint_stall_ms);
        wal_only(&mut t, ops, &mut out.table)?;
        fsync
    } else {
        let read = rung(cfg, &mut t, "rung.reader", ops, None, true, &mut out)?;
        out.table
            .set("ldl1.publish_us", median(&read.commit_us(None)) - mem_p50);
        out.table
            .set("ldl1.reader_latest_us", median(&read.latest_us));
        read
    };
    let commits = top.commit_us(None);
    out.table.set("ldl1.commit_p50_us", median(&commits));
    out.table
        .set("ldl1.commit_p99_us", quantile(&commits, 0.99));
    out.table
        .set("ldl1.commit_max_ms", quantile(&commits, 1.0) / 1e3);
    out.table
        .set("ldl1.query_p99_us", quantile(&top.queries_us, 0.99));
    out.table
        .set("eval.query_ms", median(&top.queries_us) / 1e3);
    out.table.set("trace.spans", t.span_count() as f64);
    // Spans here wrap whole facade calls, so tracing adds two clock reads
    // per op: the overhead is the memory rung against its own untraced twin.
    let mut untraced_tally = Tally::default();
    let mut twin = build(cfg, || Ok(System::new()), &mut untraced_tally)?;
    let plain = play(&mut twin, None, ops, None, &mut untraced_tally, None);
    out.table.set(
        "trace.overhead_pct",
        (mem.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
    );
    out.notes.push(format!(
        "ladder rungs replay one round's stream of {} ops ({} commits, {} queries) each",
        ops.len(),
        commits.len(),
        top.queries_us.len()
    ));
    out.tracer = Some(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload) -> Config {
        Config::smoke(workload, 5)
    }

    #[test]
    fn streams_run_traced_and_untraced_at_smoke_size() {
        for w in [Workload::MutationStream, Workload::SnapshotReads] {
            for trace in [false, true] {
                let out = run(&smoke(w), trace);
                assert!(out.correct(), "{} trace={trace}", w.name());
            }
        }
    }

    #[test]
    fn wal_spans_only_where_there_is_a_wal() {
        let out = run(&smoke(Workload::SnapshotReads), true);
        assert_eq!(out.table.get("wal.fsync_us"), 0.0);
        assert_eq!(out.table.get("wal.records"), 0.0);
        let out = run(&smoke(Workload::MutationStream), true);
        assert!(out.table.get("wal.records") > 0.0);
        assert!(out.table.get("wal.append_fsync_us") > 0.0);
    }

    #[test]
    fn the_mirror_never_retracts_an_unknown_fact() {
        let (chains, len) = gen::SMOKE.forest;
        let mut mirror = ForestMirror::new(chains, len);
        let ops = gen::mutation_stream(&mut mirror, 2000, 9);
        let mut edges: std::collections::BTreeSet<(i64, i64)> =
            gen::forest_edges(chains, len).into_iter().collect();
        for op in &ops {
            match op {
                StreamOp::Assert(a, b) => assert!(edges.insert((*a, *b))),
                StreamOp::Retract(a, b) => assert!(edges.remove(&(*a, *b))),
                StreamOp::Update { old, new } => {
                    assert!(edges.remove(old));
                    assert!(edges.insert(*new));
                }
                StreamOp::Query { .. } => {}
            }
        }
        assert_eq!(edges.into_iter().collect::<Vec<_>>(), mirror.edges());
    }
}
