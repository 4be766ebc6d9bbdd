//! Crash-recovery fault injection: the durability layer must recover
//! *exactly* the committed prefix, bit-identically, no matter where a
//! crash lands.
//!
//! The harness reuses the differential-oracle machinery
//! ([`ldl_testkit::gen`]): for each random (program, mutation-sequence)
//! case it first drives a fault-free durable run, recording the EDB dump
//! and model after every commit (keyed by the commit's log sequence
//! number). It then replays the same sequence against a store whose log
//! file is an [`IoFault`] injector — a write killed at a random byte, a
//! flipped bit, or a dropped final fsync — materializes the surviving
//! bytes as a post-`kill -9` data directory, reopens it, and asserts the
//! recovered EDB and recomputed model equal the recorded state at the
//! recovered sequence number. Two seed streams of 100 cases make 200
//! random crash points per suite run.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use ldl1::{Budget, Error, EvalOptions, FactSet, StoreOptions, System, Value};
use ldl_testkit::fault::{materialize, Fault, IoFault};
use ldl_testkit::gen::{mutation_sequence, stratified_case, GenConst, GenMutation, GeneratedCase};
use ldl_testkit::{cases_from, Rng};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ldl-durability-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn value_of(c: &GenConst) -> Value {
    match c {
        GenConst::Int(i) => Value::int(*i),
        GenConst::Set(xs) => Value::set(xs.iter().map(|&i| Value::int(i))),
        GenConst::Compound(f, xs) => {
            Value::compound(*f, xs.iter().map(|&i| Value::int(i)).collect())
        }
    }
}

/// Commit the case's initial EDB as one mutation batch.
fn commit_edb(sys: &mut System, case: &GeneratedCase) -> Result<(), Error> {
    let mut b = sys.mutate();
    for (pred, args) in &case.edb {
        b.assert(pred, args.iter().map(value_of).collect());
    }
    b.commit()
}

fn commit_gen_batch(sys: &mut System, batch: &[GenMutation]) -> Result<(), Error> {
    let mut b = sys.mutate();
    for m in batch {
        match m {
            GenMutation::Assert(p, args) => {
                b.assert(p, args.iter().map(value_of).collect());
            }
            GenMutation::Retract(p, args) => {
                b.retract(p, args.iter().map(value_of).collect());
            }
            GenMutation::Update { pred, old, new } => {
                b.update(
                    pred,
                    old.iter().map(value_of).collect(),
                    new.iter().map(value_of).collect(),
                );
            }
        }
    }
    b.commit()
}

/// One random crash case: returns `(crash fault exercised)` for counting.
fn run_crash_case(rng: &mut Rng) {
    let size = 6 + rng.index(4) as u32;
    let case = stratified_case(rng, size);
    let batches = 2 + rng.index(3);
    let (muts, _survivors) = mutation_sequence(rng, &case, batches);

    // ---- Fault-free durable run: record (seq → EDB dump, model) after
    // every commit, and prove clean recovery round-trips.
    let dir0 = temp_dir("clean");
    let mut expect: HashMap<u64, (String, FactSet)> = HashMap::new();
    let (final_seq, total_bytes, final_dump) = {
        let mut sys = System::open(&dir0).unwrap();
        sys.load(&case.src).unwrap();
        expect.insert(0, (sys.edb().dump(), sys.model_facts().unwrap()));
        commit_edb(&mut sys, &case).unwrap();
        let store = sys.wal_store_mut().unwrap();
        let mut seq = store.last_seq();
        expect.insert(seq, (sys.edb().dump(), sys.model_facts().unwrap()));
        for batch in &muts {
            commit_gen_batch(&mut sys, batch).unwrap();
            seq = sys.wal_store_mut().unwrap().last_seq();
            expect.insert(seq, (sys.edb().dump(), sys.model_facts().unwrap()));
        }
        let store = sys.wal_store_mut().unwrap();
        let total = store.wal_len() - ldl1::wal::WAL_HEADER_LEN;
        (store.last_seq(), total, sys.edb().dump())
    };
    {
        // Clean reopen: everything replays, nothing truncated.
        let sys2 = System::open(&dir0).unwrap();
        let info = sys2.recovery_info().unwrap();
        assert!(
            info.truncation.is_none(),
            "clean log reported {:?}",
            info.truncation
        );
        assert_eq!(info.last_seq, final_seq);
        assert_eq!(sys2.edb().dump(), final_dump);
    }
    let _ = fs::remove_dir_all(&dir0);
    if total_bytes == 0 {
        return; // nothing was ever logged; no crash point to exercise
    }

    // ---- Fault run: same sequence, log writes intercepted.
    let fault = match rng.index(3) {
        0 => Fault::KillAtByte(rng.index(total_bytes as usize + 1) as u64),
        1 => Fault::FlipBit {
            offset: rng.index(total_bytes as usize) as u64,
            bit: rng.index(8) as u8,
        },
        _ => Fault::DropLastSync,
    };
    let dir1 = temp_dir("fault");
    let injector = IoFault::new(fault);
    let last_ok_seq = {
        let mut sys = System::open(&dir1).unwrap();
        sys.load(&case.src).unwrap();
        let pre_attach = fs::read(dir1.join(ldl1::wal::WAL_FILE)).unwrap();
        sys.wal_store_mut()
            .unwrap()
            .set_wal_file(Box::new(injector.clone()));
        // Drive until the simulated process dies (or the end).
        let mut crashed = commit_edb(&mut sys, &case).is_err();
        for batch in &muts {
            if crashed {
                break;
            }
            crashed = commit_gen_batch(&mut sys, batch).is_err();
        }
        let seq = sys.wal_store_mut().unwrap().last_seq();
        materialize(&dir1, &pre_attach, &injector).unwrap();
        seq
    };

    // ---- Restart: recovery must land exactly on a committed prefix.
    let mut sys2 = System::open(&dir1).unwrap();
    let info = sys2.recovery_info().unwrap().clone();
    let recovered = info.last_seq;
    let (expect_dump, expect_model) = expect.get(&recovered).unwrap_or_else(|| {
        panic!("recovered seq {recovered} is not a committed prefix ({fault:?})")
    });
    assert_eq!(
        &sys2.edb().dump(),
        expect_dump,
        "recovered EDB diverges at seq {recovered} under {fault:?}"
    );
    if let Fault::KillAtByte(_) = fault {
        // Every append that returned success was fsynced (SyncPolicy::
        // Always): a kill -9 mid-commit loses at most the batch that was
        // being appended.
        assert_eq!(
            recovered, last_ok_seq,
            "a successfully committed batch was lost under {fault:?}"
        );
    } else {
        assert!(recovered <= last_ok_seq);
    }
    // The recovered EDB drives evaluation bit-identically to the clean
    // prefix: same rules, same model.
    sys2.load(&case.src).unwrap();
    assert_eq!(
        &sys2.model_facts().unwrap(),
        expect_model,
        "recomputed model diverges at seq {recovered} under {fault:?}"
    );
    let _ = fs::remove_dir_all(&dir1);
}

/// 100 random crash cases from each of two seed streams — 200 per suite run.
#[test]
fn crash_recovery_lands_on_a_committed_prefix() {
    for seed in [10_000, 13_000] {
        cases_from(seed, 100, run_crash_case);
    }
}

/// Satellite 1: a budget-aborted batch leaves **zero trace** in the log —
/// including when the process crashes between the abort and the next
/// commit.
#[test]
fn aborted_batch_leaves_no_log_trace() {
    let dir = temp_dir("abort");
    let mut sys = System::open(&dir).unwrap();
    sys.load("tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).")
        .unwrap();
    for i in 0..8 {
        sys.fact(&format!("e({i}, {}).", i + 1)).unwrap();
    }
    sys.model_facts().unwrap();
    let committed_dump = sys.edb().dump();
    let seq_before = sys.wal_store_mut().unwrap().last_seq();
    let len_before = sys.wal_store_mut().unwrap().wal_len();

    // A batch that trips the fuel budget mid-maintenance: the EDB rolls
    // back and nothing may reach the log.
    sys.set_budget(Budget::unlimited().with_fuel(1));
    let mut b = sys.mutate();
    for i in 100..130 {
        b.assert("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    let err = b.commit().unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
    assert_eq!(sys.edb().dump(), committed_dump, "EDB must roll back");
    assert_eq!(sys.wal_store_mut().unwrap().last_seq(), seq_before);
    assert_eq!(sys.wal_store_mut().unwrap().wal_len(), len_before);

    // Crash *now*, between the abort and any further commit: recovery
    // must see exactly the pre-abort state.
    drop(sys);
    let sys2 = System::open(&dir).unwrap();
    let info = sys2.recovery_info().unwrap();
    assert!(info.truncation.is_none(), "{:?}", info.truncation);
    assert_eq!(info.last_seq, seq_before);
    assert_eq!(sys2.edb().dump(), committed_dump);
    drop(sys2);

    // And the retry path: raise the budget, recommit, crash, recover all.
    let mut sys3 = System::open(&dir).unwrap();
    sys3.set_budget(Budget::unlimited());
    let mut b = sys3.mutate();
    for i in 100..130 {
        b.assert("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    b.commit().unwrap();
    let full_dump = sys3.edb().dump();
    drop(sys3);
    let sys4 = System::open(&dir).unwrap();
    assert_eq!(sys4.edb().dump(), full_dump);
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite 2: a corrupt or partial data directory reports a recoverable
/// [`Error::Corrupt`] with an offset — it never panics.
#[test]
fn corrupt_directories_report_not_panic() {
    // Garbage where the log should be: bad magic.
    let dir = temp_dir("badmagic");
    fs::create_dir_all(&dir).unwrap();
    fs::write(
        dir.join(ldl1::wal::WAL_FILE),
        b"this is not a write-ahead log at all",
    )
    .unwrap();
    match System::open(&dir) {
        Err(Error::Corrupt { offset, detail }) => {
            assert_eq!(offset, 0);
            assert!(detail.contains("magic"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);

    // A snapshot failing its checksum.
    let dir = temp_dir("badsnap");
    let mut sys = System::open(&dir).unwrap();
    sys.fact("p(1).").unwrap();
    sys.checkpoint().unwrap();
    drop(sys);
    let snap = dir.join(ldl1::wal::SNAPSHOT_FILE);
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap, bytes).unwrap();
    match System::open(&dir) {
        Err(Error::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);

    // A torn log *tail*, by contrast, is recoverable and reported.
    let dir = temp_dir("torntail");
    let mut sys = System::open(&dir).unwrap();
    sys.fact("p(1).").unwrap();
    sys.fact("p(2).").unwrap();
    let dump = sys.edb().dump();
    drop(sys);
    let wal = dir.join(ldl1::wal::WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x13, 0x37]); // a torn, half-written record
    fs::write(&wal, bytes).unwrap();
    let sys2 = System::open(&dir).unwrap();
    let info = sys2.recovery_info().unwrap();
    let t = info.truncation.as_ref().expect("tail must be reported");
    assert_eq!(t.dropped_bytes, 2);
    assert_eq!(sys2.edb().dump(), dump);
    let _ = fs::remove_dir_all(&dir);
}

/// Checkpointing bounds recovery: after a checkpoint the log restarts,
/// and recovery = snapshot load + short replay. Evaluation statistics
/// (plan epochs and the `wal_*` counters) keep working across recovery.
#[test]
fn checkpoint_then_recover_and_stats_flow() {
    let dir = temp_dir("ckpt");
    let mut sys = System::open(&dir).unwrap();
    sys.load("r(X) <- e(X).").unwrap();
    sys.fact("e(1).").unwrap();
    // A durable commit surfaces in the stats.
    assert_eq!(sys.last_stats().wal_records, 1);
    assert!(sys.last_stats().wal_bytes > 0);
    sys.fact("e(2).").unwrap();
    let ck = sys.checkpoint().unwrap();
    assert!(ck.bytes > 0);
    assert!(ck.path.exists());
    assert_eq!(ck.seq, 2);
    sys.fact("e(3).").unwrap();
    let dump = sys.edb().dump();
    drop(sys);

    let mut sys2 = System::open(&dir).unwrap();
    let info = sys2.recovery_info().unwrap();
    assert_eq!(info.snapshot_seq, Some(2));
    assert_eq!(info.replayed, 1, "only the post-checkpoint batch replays");
    assert_eq!(sys2.edb().dump(), dump);
    // The recovered system evaluates, maintains, and keeps logging.
    sys2.load("r(X) <- e(X).").unwrap();
    assert_eq!(sys2.query("r(X)").unwrap().len(), 3);
    sys2.fact("e(4).").unwrap();
    assert_eq!(sys2.last_stats().wal_records, 1);
    assert_eq!(sys2.query("r(X)").unwrap().len(), 4);
    assert!(sys2.explain(None).contains("scan e"));
    // In-memory systems never touch the counters.
    let mut mem = System::new();
    mem.load("r(X) <- e(X).").unwrap();
    mem.fact("e(1).").unwrap();
    assert_eq!(mem.last_stats().wal_records, 0);
    assert_eq!(mem.last_stats().wal_bytes, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// `System::persist` attaches a directory to an in-memory system; clones
/// are in-memory forks that never share a log.
#[test]
fn persist_and_clone_semantics() {
    let dir = temp_dir("persist");
    let mut sys = System::new();
    sys.load("r(X) <- e(X).").unwrap();
    sys.fact("e(1).").unwrap();
    assert!(matches!(sys.checkpoint(), Err(Error::NoDataDir)));
    let ck = sys.persist(&dir).unwrap();
    assert!(ck.bytes > 0);
    sys.fact("e(2).").unwrap();

    // The clone is a fork: commits to it must not touch the original's log.
    let mut fork = sys.clone();
    assert!(fork.data_dir().is_none());
    fork.fact("e(99).").unwrap();
    let dump = sys.edb().dump();
    drop(sys);

    let sys2 = System::open(&dir).unwrap();
    assert_eq!(sys2.edb().dump(), dump);
    assert!(!sys2
        .edb()
        .contains(&ldl1::Fact::new("e", vec![Value::int(99)])));
    let _ = fs::remove_dir_all(&dir);
}

/// A write-ahead-log failure must not desynchronize readers from the
/// writer: the in-memory commit stands (the store poisons itself and the
/// commit returns `Error::Durability`), so the freshly maintained model
/// is still published — `Reader::latest` and `System::query` agree.
#[test]
fn wal_failure_still_publishes_to_readers() {
    let dir = temp_dir("pubfail");
    let mut sys = System::open(&dir).unwrap();
    sys.load("ok(X) <- a(X), b(X).").unwrap();
    let mut b = sys.mutate();
    b.assert("a", vec![Value::int(1)]);
    b.assert("b", vec![Value::int(1)]);
    b.commit().unwrap();
    let reader = sys.reader().unwrap();
    assert_eq!(reader.latest().facts("ok").len(), 1);
    let epoch_before = reader.epoch();

    // Every further log write dies immediately.
    sys.wal_store_mut()
        .unwrap()
        .set_wal_file(Box::new(IoFault::new(Fault::KillAtByte(0))));
    let mut b = sys.mutate();
    b.assert("a", vec![Value::int(2)]);
    b.assert("b", vec![Value::int(2)]);
    let err = b.commit().unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "{err}");
    assert!(sys.wal_store_mut().unwrap().broken().is_some());

    // The commit stood in memory, and readers see it despite the failure.
    let snap = reader.latest();
    assert!(snap.epoch() > epoch_before, "commit must still publish");
    assert_eq!(snap.facts("ok").len(), 2);
    assert_eq!(sys.query("ok(X)").unwrap().len(), 2);
    let _ = fs::remove_dir_all(&dir);
}

/// `System::insert` is a mutation batch of one and reports its commit
/// result like `fact` / `retract` / `update`: a failed log append surfaces
/// as `Error::Durability` (store poisoned) instead of being swallowed.
#[test]
fn insert_reports_wal_append_failure() {
    let dir = temp_dir("insertfail");
    let mut sys = System::open(&dir).unwrap();
    sys.insert("p", vec![Value::int(1)]).unwrap();

    // Every further log write dies immediately.
    sys.wal_store_mut()
        .unwrap()
        .set_wal_file(Box::new(IoFault::new(Fault::KillAtByte(0))));
    let err = sys.insert("p", vec![Value::int(2)]).unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "{err}");
    assert!(sys.wal_store_mut().unwrap().broken().is_some());
    let _ = fs::remove_dir_all(&dir);
}

/// Group commit: under `SyncPolicy::EveryN` a commit is acknowledged
/// before its fsync; a crash that drops the unsynced tail loses at most
/// the records since the last sync, and recovery still lands on a
/// committed prefix.
#[test]
fn group_commit_crash_loses_at_most_unsynced_tail() {
    let dir = temp_dir("group");
    let opts = StoreOptions {
        sync: ldl1::SyncPolicy::EveryN(4),
    };
    let mut sys = System::open_with(&dir, EvalOptions::default(), opts).unwrap();
    let pre_attach = fs::read(dir.join(ldl1::wal::WAL_FILE)).unwrap();
    let injector = IoFault::new(Fault::DropLastSync);
    sys.wal_store_mut()
        .unwrap()
        .set_wal_file(Box::new(injector.clone()));
    let mut dumps = vec![sys.edb().dump()];
    for i in 0..10 {
        sys.fact(&format!("p({i}).")).unwrap();
        dumps.push(sys.edb().dump());
    }
    materialize(&dir, &pre_attach, &injector).unwrap();
    drop(sys);

    let sys2 = System::open_with(&dir, EvalOptions::default(), opts).unwrap();
    let recovered = sys2.recovery_info().unwrap().last_seq as usize;
    // Ten commits, synced after the 4th and 8th; dropping the last sync
    // leaves the first four.
    assert_eq!(recovered, 4);
    assert_eq!(sys2.edb().dump(), dumps[recovered]);
    let _ = fs::remove_dir_all(&dir);
}

/// A restart's first bound question does the same work however its storage
/// builds and sizes what it reads. The directory holds a checkpointed
/// forest — 300 chains of 10 `par` edges, chain `c` rooted at `1000 * c` —
/// and a synced log tail of 40 batches that lengthen chain 0 and tag nodes.
/// After `open` and a load of the ancestor rules, `anc(0, Y)` answers on the
/// §6 magic arm, and its counters are pinned: a change to how relations
/// hash, index or size themselves must leave every one of them where it is.
#[test]
fn a_recovered_systems_first_bound_query_keeps_its_counters() {
    let dir = temp_dir("recovered-counters");
    let opts = StoreOptions {
        sync: ldl1::SyncPolicy::Never,
    };
    let mut sys = System::open_with(&dir, EvalOptions::default(), opts).unwrap();
    let mut batch = sys.mutate();
    for c in 0..300 {
        for k in 0..10 {
            let a = 1000 * c + k;
            batch.assert("par", vec![Value::int(a), Value::int(a + 1)]);
        }
    }
    batch.commit().unwrap();
    sys.checkpoint().unwrap();
    for k in 10..50 {
        let mut batch = sys.mutate();
        batch.assert("par", vec![Value::int(k), Value::int(k + 1)]);
        batch.assert("tag", vec![Value::atom("t"), Value::int(k)]);
        batch.commit().unwrap();
    }
    sys.sync().unwrap();
    drop(sys);

    let mut sys = System::open(&dir).unwrap();
    let info = sys.recovery_info().unwrap();
    assert_eq!((info.snapshot_seq, info.replayed), (Some(1), 40));
    sys.load("anc(X, Y) <- par(X, Y).\nanc(X, Y) <- par(X, Z), anc(Z, Y).")
        .unwrap();
    let answers = sys.query("anc(0, Y)").unwrap();
    assert_eq!(answers.len(), 50);
    let s = sys.last_stats();
    let counters = (
        s.rules_fired,
        s.attempts,
        s.facts_derived,
        s.dedup_inserts,
        s.index_probes,
        s.rounds,
    );
    // (rules fired, attempts, facts derived, duplicates rejected, index
    // probes, rounds): 1 275 `anc` facts for the 50 nodes of chain 0's cone,
    // plus its magic and supplementary tuples.
    assert_eq!(counters, (402, 1375, 1375, 0, 1427, 149), "{s}");
    let _ = fs::remove_dir_all(&dir);
}
