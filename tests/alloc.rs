//! Pins what a snapshot read allocates. A read parses its query, finds
//! the access path and builds its answers; it reads no evaluation option,
//! so it builds none — `EvalOptions::default()` would allocate a
//! `CancelToken` that nothing reads.
//!
//! The counting allocator must be the process-global one, hence a test
//! binary of its own; it counts only the measuring thread's calls.

use ldl1::{System, Value};
use ldl_testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `anc(5, Y)` on a published snapshot of the ancestor program over ten
/// chains of ten edges: 19 allocations (20 while each read built an
/// `Evaluator` and its options). The query is run once first, so what is
/// counted is the read itself.
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
    let (answers, allocs) = ALLOC.measure(|| snap.query(q).unwrap());
    assert_eq!(answers.len(), 5);
    assert!(
        allocs <= 19,
        "Snapshot::query({q:?}) allocated {allocs} times"
    );
}
