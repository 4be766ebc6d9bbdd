//! MVCC snapshot reads: concurrent readers always observe a *consistent*
//! published model — complete batches, monotone epochs — while a writer
//! commits at full speed.
//!
//! The writer commits batches that are individually consistent (`a(i)`
//! and `b(i)` always enter together, and `ok(X) <- a(X), b(X)` derives
//! their join). A reader that ever sees `a` without its partner `b`, or
//! a derived `ok` set out of step with both, has observed a half-applied
//! batch — the exact anomaly epoch publication must make impossible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use ldl1::{System, Value};

const PROGRAM: &str = "ok(X) <- a(X), b(X).";

/// Assert one published snapshot is internally consistent, returning its
/// epoch and how many batches it reflects.
fn check_snapshot(snap: &ldl1::Snapshot) -> (u64, usize) {
    let na = snap.facts("a").len();
    let nb = snap.facts("b").len();
    let nok = snap.facts("ok").len();
    assert_eq!(na, nb, "half-applied batch: {na} a-facts vs {nb} b-facts");
    assert_eq!(
        nok, na,
        "derived ok() out of step: {nok} vs {na} base facts"
    );
    (snap.epoch(), na)
}

/// Satellite 3: 8 reader threads hammer [`ldl1::Reader::latest`] while the
/// writer commits 1 000 batches. Readers must never observe a
/// half-applied batch, and epochs must be monotone per reader.
#[test]
fn concurrent_readers_never_observe_half_applied_batches() {
    const READERS: usize = 8;
    const BATCHES: i64 = 1_000;

    let mut sys = System::new();
    sys.load(PROGRAM).unwrap();
    let reader = sys.reader().unwrap();
    let done = AtomicBool::new(false);
    let observations = AtomicU64::new(0);

    thread::scope(|s| {
        for _ in 0..READERS {
            let reader = reader.clone();
            let done = &done;
            let observations = &observations;
            s.spawn(move || {
                let mut last_epoch = 0;
                let mut last_seen = 0;
                while !done.load(Ordering::Acquire) {
                    let snap = reader.latest();
                    let (epoch, seen) = check_snapshot(&snap);
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {epoch} < {last_epoch}"
                    );
                    if epoch == last_epoch {
                        assert_eq!(seen, last_seen, "same epoch, different model");
                    } else {
                        assert!(seen >= last_seen, "model went backwards across epochs");
                    }
                    last_epoch = epoch;
                    last_seen = seen;
                    observations.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        for i in 0..BATCHES {
            let mut b = sys.mutate();
            b.assert("a", vec![Value::int(i)]);
            b.assert("b", vec![Value::int(i)]);
            b.commit().unwrap();
        }
        done.store(true, Ordering::Release);
    });

    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers never got a single snapshot in"
    );
    // The final published snapshot reflects every batch.
    let snap = reader.latest();
    let (_, seen) = check_snapshot(&snap);
    assert_eq!(seen, BATCHES as usize);
    assert_eq!(snap.query("ok(X)").unwrap().len(), BATCHES as usize);
}

/// 64-thread smoke: far more readers than cores, a shorter writer run.
/// Exercises contention on the publication slot itself.
#[test]
fn reader_smoke_64_threads() {
    const READERS: usize = 64;
    const BATCHES: i64 = 100;

    let mut sys = System::new();
    sys.load(PROGRAM).unwrap();
    let reader = sys.reader().unwrap();
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        for _ in 0..READERS {
            let reader = reader.clone();
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    check_snapshot(&reader.latest());
                }
            });
        }
        for i in 0..BATCHES {
            let mut b = sys.mutate();
            b.assert("a", vec![Value::int(i)]);
            b.assert("b", vec![Value::int(i)]);
            b.commit().unwrap();
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(check_snapshot(&reader.latest()).1, BATCHES as usize);
}

/// `Reader::epoch` is derived from the publication slot itself, so it can
/// never run ahead of `Reader::latest`: a reader that observes epoch N
/// and then grabs a snapshot must get epoch ≥ N. (A separate epoch
/// counter bumped before the slot swap violated exactly this.)
#[test]
fn reader_epoch_never_runs_ahead_of_latest() {
    const READERS: usize = 4;
    const BATCHES: i64 = 500;

    let mut sys = System::new();
    sys.load(PROGRAM).unwrap();
    let reader = sys.reader().unwrap();
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        for _ in 0..READERS {
            let reader = reader.clone();
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let polled = reader.epoch();
                    let snap = reader.latest();
                    assert!(
                        snap.epoch() >= polled,
                        "epoch() reported {polled} but latest() only had {}",
                        snap.epoch()
                    );
                }
            });
        }
        for i in 0..BATCHES {
            let mut b = sys.mutate();
            b.assert("a", vec![Value::int(i)]);
            b.assert("b", vec![Value::int(i)]);
            b.commit().unwrap();
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(reader.epoch(), reader.latest().epoch());
}

/// One-off snapshots work without activating publication, and a
/// snapshot taken before later commits keeps answering from its frozen
/// model (repeatable reads).
#[test]
fn one_off_snapshots_are_frozen() {
    let mut sys = System::new();
    sys.load(PROGRAM).unwrap();
    for i in 0..5 {
        let mut b = sys.mutate();
        b.assert("a", vec![Value::int(i)]);
        b.assert("b", vec![Value::int(i)]);
        b.commit().unwrap();
    }
    let frozen = sys.snapshot().unwrap();
    assert_eq!(frozen.facts("ok").len(), 5);
    assert_eq!(frozen.num_facts(), 15);

    // Commit more; the frozen snapshot must not move.
    for i in 5..10 {
        let mut b = sys.mutate();
        b.assert("a", vec![Value::int(i)]);
        b.assert("b", vec![Value::int(i)]);
        b.commit().unwrap();
    }
    assert_eq!(frozen.facts("ok").len(), 5);
    assert_eq!(frozen.query("ok(X)").unwrap().len(), 5);
    assert_eq!(sys.snapshot().unwrap().facts("ok").len(), 10);

    // Readers attached mid-stream see the current model and then advance.
    let reader = sys.reader().unwrap();
    let before = reader.latest();
    assert_eq!(before.facts("ok").len(), 10);
    let mut b = sys.mutate();
    b.assert("a", vec![Value::int(100)]);
    b.assert("b", vec![Value::int(100)]);
    b.commit().unwrap();
    let after = reader.latest();
    assert!(after.epoch() > before.epoch());
    assert_eq!(after.facts("ok").len(), 11);
    assert_eq!(
        before.facts("ok").len(),
        10,
        "old snapshot must stay frozen"
    );
}

/// Loading rules drops the writer's model; with a reader attached it must be
/// rebuilt and published by the load itself, so the commits that follow
/// reach the reader without the writer ever querying.
#[test]
fn commits_after_a_rule_load_reach_the_reader() {
    let mut sys = System::new();
    sys.load("r(X) <- e(X). e(1).").unwrap();
    let reader = sys.reader().unwrap();
    let first = reader.latest();
    assert_eq!((first.facts("r").len(), first.facts("s").len()), (1, 0));

    sys.load("s(X) <- e(X).").unwrap();
    sys.fact("e(2).").unwrap();
    sys.fact("e(3).").unwrap();

    let snap = reader.latest();
    assert!(
        snap.epoch() > first.epoch(),
        "nothing published since the load"
    );
    assert_eq!((snap.facts("r").len(), snap.facts("s").len()), (3, 3));

    // The other call that drops the model publishes too.
    let before = reader.epoch();
    sys.set_grouping_semantics(ldl1::GroupingSemantics::WithContext)
        .unwrap();
    sys.fact("e(4).").unwrap();
    assert!(reader.epoch() > before);
    assert_eq!(reader.latest().facts("s").len(), 4);
}

/// A snapshot's index posting lists are its own. Maintenance leaves `anc`
/// with an index on its first column, every published clone carries it, and
/// a bound query probes it: the snapshot taken before a mid-chain
/// retraction keeps answering with the full chain while the writer's later
/// publication answers with the cut one — both by probe.
#[test]
fn old_snapshots_probe_their_own_index() {
    const N: i64 = 12;
    let chain = |to: i64| -> Vec<String> { (1..=to).map(|y| format!("Y = {y}")).collect() };
    let answers = |snap: &ldl1::Snapshot| -> Vec<String> {
        let found = snap.query("anc(0, Y)").unwrap();
        found.iter().map(|a| a.to_string()).collect()
    };

    let mut sys = System::new();
    sys.load("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).")
        .unwrap();
    for x in 0..N - 1 {
        sys.insert("par", vec![Value::int(x), Value::int(x + 1)])
            .unwrap();
    }
    let reader = sys.reader().unwrap();
    // A cold evaluation never probes `anc` by its first column alone…
    let cold = reader.latest().explain_query("anc(0, Y)").unwrap();
    assert!(
        cold.contains("scan anc") && cold.contains("no index covers [0]"),
        "{cold}"
    );
    // …the first maintained commit does, and leaves the index behind.
    sys.insert("par", vec![Value::int(N - 1), Value::int(N)])
        .unwrap();
    let before = reader.latest();
    sys.retract("par(5, 6).").unwrap();
    let after = reader.latest();
    assert!(after.epoch() > before.epoch());

    assert_eq!(answers(&before), chain(N));
    assert_eq!(answers(&after), chain(5));
    let rows = |n: i64| format!("anc(0, Y): probe anc[0], {n} of ");
    let (old, new) = (
        before.explain_query("anc(0, Y)").unwrap(),
        after.explain_query("anc(0, Y)").unwrap(),
    );
    assert!(old.starts_with(&rows(N)), "{old}");
    assert!(new.starts_with(&rows(5)), "{new}");
}

// ---- O(change) publication: which arm a commit took, and that neither arm
// ---- ever shows a reader anything but the model of the committed facts.

const ANC: &str = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).";

/// A writer with a reader attached over a `par` chain `0 → … → n`.
fn chain_with_reader(n: i64) -> (System, ldl1::Reader) {
    let mut sys = System::new();
    sys.load(ANC).unwrap();
    for x in 0..n {
        sys.insert("par", vec![Value::int(x), Value::int(x + 1)])
            .unwrap();
    }
    let reader = sys.reader().unwrap();
    (sys, reader)
}

/// The snapshot holds exactly the standard model of the writer's rules and
/// facts, by the definition (`reference_model` is §3.2 run literally).
fn assert_is_reference_model(snap: &ldl1::Snapshot, sys: &System) {
    let want = ldl1::reference_model(sys.program(), sys.edb()).unwrap();
    assert_eq!(snap.num_facts(), want.num_facts());
    for pred in want.predicates() {
        let mut facts = want.facts_of(pred);
        facts.sort();
        assert_eq!(snap.facts(&pred.to_string()), facts, "{pred}");
    }
}

/// (replays, clones, clones because the retired snapshot was still held)
/// of the writer's last commit or evaluation.
fn arms(sys: &System) -> (u64, u64, u64) {
    let s = sys.last_stats();
    (s.publish_replays, s.publish_clones, s.publish_clones_held)
}

/// The replay arm: with no snapshot held across a commit, every publication
/// replays the commit's change log — retractions (DRed tombstones, rederived
/// tuples at new positions), assertions and updates alike — and each
/// published model is the reference model.
#[test]
fn unpinned_commits_publish_by_replay() {
    let (mut sys, reader) = chain_with_reader(12);
    for round in 0..6 {
        match round % 3 {
            0 => sys.retract(&format!("par({}, {}).", 5 + round, 6 + round)),
            1 => sys.insert("par", vec![Value::int(100 + round), Value::int(0)]),
            _ => sys.update(
                &format!("par({}, {}).", round / 3, round / 3 + 1),
                &format!("par({}, {}).", round / 3, 200 + round),
            ),
        }
        .unwrap();
        let (replays, clones, _) = arms(&sys);
        assert_eq!((replays, clones), (1, 0), "round {round}");
        assert!(sys.last_stats().publish_changes > 0);
        // Looked at, and dropped before the next commit.
        assert_is_reference_model(&reader.latest(), &sys);
    }
}

/// The clone arm, `snapshot still held`: a reader that pins every snapshot it
/// sees forces a clone per commit, each pinned snapshot stays frozen at its
/// own epoch's model, and the commit after the pins are dropped is back on
/// the replay arm. A single snapshot pinned across K commits costs one
/// clone — the commit that retires it — not K.
#[test]
fn pinned_snapshots_stay_frozen_on_the_clone_arm() {
    const K: i64 = 5;
    let (mut sys, reader) = chain_with_reader(8);
    let anc_of_0 = |snap: &ldl1::Snapshot| snap.query("anc(0, Y)").unwrap().len();

    let mut pins = vec![reader.latest()];
    for k in 0..K {
        sys.insert("par", vec![Value::int(8 + k), Value::int(9 + k)])
            .unwrap();
        assert_eq!(
            arms(&sys),
            (0, 1, 1),
            "commit {k} retires a pinned snapshot"
        );
        pins.push(reader.latest());
    }
    for (k, pin) in pins.iter().enumerate() {
        assert_eq!(anc_of_0(pin), 8 + k, "pin {k} moved");
        assert_eq!(pin.epoch(), 1 + k as u64);
    }
    drop(pins);
    sys.retract("par(3, 4).").unwrap();
    assert_eq!(arms(&sys), (1, 0, 0), "nothing held: replay");
    assert_is_reference_model(&reader.latest(), &sys);

    let pinned = reader.latest();
    let frozen = anc_of_0(&pinned);
    let mut cloned = 0;
    for k in 0..K {
        sys.insert("par", vec![Value::int(50 + k), Value::int(0)])
            .unwrap();
        cloned += arms(&sys).1;
        assert_eq!(anc_of_0(&pinned), frozen);
    }
    assert_eq!(cloned, 1, "only the commit that retired the pin clones");
    assert_is_reference_model(&reader.latest(), &sys);
}

/// The clone arm, `new model`: a model rebuilt from scratch — by a rule load,
/// by `set_grouping_semantics`, by `model()` after a budget-aborted commit —
/// carries no log of the published snapshot, so it is published by clone,
/// never by replaying a log onto a base it does not descend from; the
/// commits after it replay again. Every published model is the reference
/// model.
#[test]
fn a_rebuilt_model_is_never_replayed_onto_a_foreign_base() {
    let (mut sys, reader) = chain_with_reader(10);
    sys.retract("par(4, 5).").unwrap();
    assert_eq!(arms(&sys), (1, 0, 0));

    let check_rebuilt = |sys: &mut System, what: &str| {
        assert_eq!(arms(sys), (0, 1, 0), "{what}: published by clone");
        assert_is_reference_model(&reader.latest(), sys);
        sys.insert("par", vec![Value::int(4), Value::int(5)])
            .unwrap();
        assert_eq!(arms(sys), (1, 0, 0), "{what}: next commit replays");
        assert_is_reference_model(&reader.latest(), sys);
        sys.retract("par(4, 5).").unwrap();
    };

    sys.load("top(X) <- anc(0, X), ~par(X, _).").unwrap();
    check_rebuilt(&mut sys, "rule load");

    sys.set_grouping_semantics(ldl1::GroupingSemantics::WithContext)
        .unwrap();
    check_rebuilt(&mut sys, "set_grouping_semantics");

    // An aborted commit drops the half-maintained working copy, log and
    // all; the published snapshot stays as it was.
    let before = reader.epoch();
    sys.set_budget(ldl1::Budget::unlimited().with_fuel(1));
    assert!(sys
        .insert("par", vec![Value::int(4), Value::int(5)])
        .is_err());
    sys.set_budget(ldl1::Budget::unlimited());
    assert_eq!(reader.epoch(), before);
    sys.model().unwrap();
    assert!(reader.epoch() > before);
    check_rebuilt(&mut sys, "model() after an aborted commit");
}

/// `System::clone` and `System::snapshot` taken mid-stream — a change log
/// open on the writer's working copy — are copies without a log: later
/// leapfrogs of the original reach neither, and a fork that gets a reader of
/// its own starts a lineage of its own.
#[test]
fn forks_and_one_off_snapshots_are_outside_the_leapfrog() {
    let (mut sys, reader) = chain_with_reader(10);
    sys.retract("par(6, 7).").unwrap();
    let snap = sys.snapshot().unwrap();
    let mut fork = sys.clone();
    let at_fork = snap.num_facts();

    for k in 0..4 {
        sys.insert("par", vec![Value::int(20 + k), Value::int(0)])
            .unwrap();
        assert_eq!(arms(&sys), (1, 0, 0));
    }
    assert_eq!(snap.num_facts(), at_fork);
    assert_eq!(fork.model().unwrap().num_facts(), at_fork);

    let fork_reader = fork.reader().unwrap();
    fork.retract("par(2, 3).").unwrap();
    assert_eq!(arms(&fork), (1, 0, 0), "the fork's own first commit");
    assert_is_reference_model(&fork_reader.latest(), &fork);
    assert_eq!(snap.num_facts(), at_fork);
    assert_is_reference_model(&reader.latest(), &sys);
}
