//! Asserts the acceptance criterion of the arena migration: the insert
//! hot path performs **zero per-tuple heap allocations**. Pages, hash
//! tables, and posting lists amortize their growth, so N inserts into an
//! indexed relation must allocate o(N) times — we assert a hard ceiling
//! far below one allocation per tuple.
//!
//! This lives in its own integration-test binary because the counting
//! allocator must be the process-global allocator.

use ldl_storage::Relation;
use ldl_testkit::CountingAlloc;
use ldl_value::{intern, ValueId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn insert_path_allocates_sublinearly() {
    const N: usize = 100_000;
    const ARITY: usize = 3;

    // Pre-intern every row so the loop below exercises only the storage
    // layer, not the interner.
    let rows: Vec<[ValueId; ARITY]> = (0..N)
        .map(|i| {
            [
                intern::mk_int(i as i64),
                intern::mk_int((i % 257) as i64),
                intern::mk_int((i % 9) as i64),
            ]
        })
        .collect();

    let mut rel = Relation::new(ARITY);
    rel.ensure_index(&[1]);

    // Warm up so the first page, table, and bucket pool exist — the
    // steady-state claim is about the hot loop, not first-touch setup.
    for row in &rows[..N / 10] {
        rel.insert_slice(row);
    }

    let before = ALLOC.count();
    for row in &rows[N / 10..] {
        rel.insert_slice(row);
    }
    // Duplicates take the dedup-hit path: hash borrowed slice, compare
    // in-arena, return. That path must allocate nothing at all.
    for row in &rows {
        assert!(!rel.insert_slice(row));
    }
    let allocs = ALLOC.delta(before);

    let inserted = N - N / 10;
    assert_eq!(rel.live_len(), N);
    // Amortized growth (arena pages, table rehashes, posting-list Vecs)
    // is allowed; one-allocation-per-tuple behavior is not. The old
    // `Arc<[ValueId]>` representation allocated >= 2N times here (one Arc
    // per accepted insert, one owned key per dedup probe); the arena
    // lands around N/20.
    assert!(
        (allocs as usize) < inserted / 10,
        "insert path allocated {allocs} times for {inserted} inserts \
         (ceiling {})",
        inserted / 10
    );
}
