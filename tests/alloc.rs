//! Pins what a snapshot read, a cold far op and a log replay allocate. A
//! read parses its
//! query, finds its shape's plan, runs it and builds its answers; it reads no
//! evaluation option, so it builds none — `EvalOptions::default()` would
//! allocate a `CancelToken` that nothing reads. A far pass resolves its
//! scan's integer test into locals at each scan entry, on the stack.
//!
//! The counting allocator must be the process-global one, hence a test
//! binary of its own; it counts only the measuring thread's calls, and its
//! measurements must not overlap, so each test holds `MEASURING` while it
//! measures.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ldl1::wal::Store;
use ldl1::{EvalOptions, StoreOptions, SyncPolicy, System, Value};
use ldl_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held by each test across its measurement (a test that failed while
/// holding it leaves it poisoned, which the others ignore).
static MEASURING: Mutex<()> = Mutex::new(());

/// `anc(5, Y)` on a published snapshot of the ancestor program over ten
/// chains of ten edges: 19 allocations (20 while each read built an
/// `Evaluator` and its options). The query is run once first, so what is
/// counted is the read itself, its shape already planned.
#[test]
fn a_snapshot_read_builds_no_options() {
    let mut sys = System::new();
    sys.load("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).")
        .unwrap();
    let mut batch = sys.mutate();
    for c in 0..10 {
        for k in 0..10 {
            let (a, b) = (c * 100 + k, c * 100 + k + 1);
            batch.assert("par", vec![Value::int(a), Value::int(b)]);
        }
    }
    batch.commit().unwrap();
    let reader = sys.reader().unwrap();
    let snap = reader.latest();
    let q = "anc(5, Y)";
    assert_eq!(snap.query(q).unwrap().len(), 5);
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (answers, allocs) = ALLOC.measure(|| snap.query(q).unwrap());
    assert_eq!(answers.len(), 5);
    assert!(
        allocs <= 19,
        "Snapshot::query({q:?}) allocated {allocs} times"
    );
}

/// `tc_chain`'s op at toy size — §1's ancestor program over a chain of 40
/// edges with stride 10, then `far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X >
/// 250` — on a fresh `System`: 1 407 allocations (1 448 before a pass kept
/// a small program's resolved ops on the stack, 1 463 before scans had row
/// forms, 1 455 before the far pass dropped its own repeats). The far probe's 820 entries allocate nothing, lowering sizes
/// each scan's column lists exactly, and the far pass's set of emitted
/// pairs is one allocation, while its buffer grows to 120 pairs, not to
/// every pair the join finds. The op is run once first, so every value it
/// interns is already in the interner, and the query's plan is in the
/// plan table.
#[test]
fn a_cold_far_op_allocates_nothing_per_scan_entry() {
    let mut src = String::from(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 250.\n",
    );
    for i in 0..40 {
        src.push_str(&format!("par({}, {}).\n", i * 10, (i + 1) * 10));
    }
    let op = || {
        let mut sys = System::new();
        sys.load(&src).unwrap();
        sys.query("far(X, Y)").unwrap().len()
    };
    assert_eq!(op(), 120);
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (answers, allocs) = ALLOC.measure(op);
    assert_eq!(answers, 120);
    assert!(allocs <= 1407, "the cold far op allocated {allocs} times");
}

/// A data directory with no snapshot whose log holds `records` committed
/// batches, one record each: `par(i, i + 1)` and `tag(k<i>, i)`, the shape
/// of `cold_recovery`'s log tail.
fn log_tail_dir(records: i64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldl-alloc-{}-{records}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        sync: SyncPolicy::Never,
    };
    let mut sys = System::open_with(&dir, EvalOptions::default(), opts).unwrap();
    for i in 0..records {
        let mut batch = sys.mutate();
        batch.assert("par", vec![Value::int(i), Value::int(i + 1)]);
        batch.assert("tag", vec![Value::atom(&format!("k{i}")), Value::int(i)]);
        batch.commit().unwrap();
    }
    sys.sync().unwrap();
    dir
}

/// Opening a log of 500 records allocates 19 times more than opening one of
/// 50 (43, then 62), where a replay that allocated per record made 2 715
/// more (333, then 3 048: ~6.0 per record). What remains is growth: the
/// scan's record list, each relation's duplicate filter, and the replay's
/// map of the names it has met. A record decodes
/// into the buffers the one before it used, reads its payload in place
/// and resolves each name it met before through that map. Each directory
/// is opened once first, so every name and value is already interned.
#[test]
fn a_log_replay_allocates_nothing_per_record() {
    let (short, long) = (log_tail_dir(50), log_tail_dir(500));
    let open = |dir: &Path| {
        let (_, db, info) = Store::open(dir, StoreOptions::default()).unwrap();
        assert_eq!(db.num_facts() as u64, 2 * info.replayed);
        info.replayed
    };
    assert_eq!((open(&short), open(&long)), (50, 500));
    let _one_at_a_time = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (_, few) = ALLOC.measure(|| open(&short));
    let (_, many) = ALLOC.measure(|| open(&long));
    for dir in [short, long] {
        std::fs::remove_dir_all(dir).unwrap();
    }
    assert!(
        many - few <= 19,
        "500 records allocated {many} times, 50 records {few}"
    );
}
