//! Asserts the acceptance criterion of the arena migration: the insert
//! hot path performs **zero per-tuple heap allocations**. Pages, hash
//! tables, and posting arenas amortize their growth, so N inserts into an
//! indexed relation must allocate o(N) times — we assert a hard ceiling
//! far below one allocation per tuple — and nothing is allocated per index
//! *key* either, so a clone costs a fixed number of buffers per index; and
//! replaying a change log costs what the change costs, whatever the size of
//! the relation it lands on.
//!
//! This lives in its own integration-test binary because the counting
//! allocator must be the process-global allocator.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ldl_storage::{Database, Relation};
use ldl_testkit::CountingAlloc;
use ldl_value::{intern, Symbol, ValueId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The counter is process-wide and the harness runs tests on parallel
/// threads: each test counts under this lock (a failed test's poison is
/// no reason to fail the others).
fn counting() -> MutexGuard<'static, ()> {
    static COUNTING: Mutex<()> = Mutex::new(());
    COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn insert_path_allocates_sublinearly() {
    let _counting = counting();
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

/// Every tuple opens a new key in the `[0]` index — the case the test above
/// cannot see, its indexed column having 257 values. A posting list per
/// key on the heap is one allocation per insert here.
#[test]
fn distinct_keys_allocate_sublinearly() {
    let _counting = counting();
    const N: usize = 100_000;
    let rows: Vec<[ValueId; 2]> = (0..N)
        .map(|i| [intern::mk_int(i as i64), intern::mk_int((i % 9) as i64)])
        .collect();

    let mut rel = Relation::new(2);
    rel.ensure_index(&[0]);
    rel.ensure_index(&[0, 1]);
    for row in &rows[..N / 10] {
        rel.insert_slice(row);
    }

    let before = ALLOC.count();
    for row in &rows[N / 10..] {
        rel.insert_slice(row);
    }
    let allocs = ALLOC.delta(before) as usize;
    let inserted = N - N / 10;
    assert!(
        allocs < inserted / 10,
        "{allocs} allocations for {inserted} inserts of distinct keys"
    );

    // Probes through either handle allocate nothing; the every-column one
    // answers with the tuple's own position.
    let (by_first, by_all) = (rel.index(&[0]).unwrap(), rel.index(&[0, 1]).unwrap());
    let before = ALLOC.count();
    for (pos, row) in rows.iter().enumerate() {
        assert_eq!(by_all.probe(row), &[pos as u32]);
        assert_eq!(by_first.probe(&row[..1]), &[pos as u32]);
    }
    assert_eq!(ALLOC.delta(before), 0);

    // Choosing the index for a set of bound columns allocates nothing
    // either — exact, every column, a miss, nothing bound.
    let unindexed = Relation::new(2);
    let before = ALLOC.count();
    assert_eq!(rel.covering_index(&[0]).unwrap().0, &[0]);
    let (cols, idx) = rel.covering_index(&[0, 1]).unwrap();
    assert_eq!((cols, idx.probe(&rows[7])), (&[0, 1][..], &[7][..]));
    assert!(rel.covering_index(&[1]).is_none());
    assert!(unindexed.covering_index(&[0]).is_none());
    assert!(rel.covering_index(&[]).is_none());
    assert_eq!(ALLOC.delta(before), 0);
}

/// A clone copies a fixed number of flat buffers per index plus the row
/// pages: the same count whether the `[0]` index holds 10 000 keys or
/// 20 000 over the same 40 000 rows (the `[1]` index holds 40 000 either
/// way).
#[test]
fn clone_allocations_do_not_depend_on_key_count() {
    let _counting = counting();
    const N: i64 = 40_000;
    let clone_allocs = |keys: i64| {
        let mut rel = Relation::new(2);
        rel.ensure_index(&[0]);
        rel.ensure_index(&[1]);
        for i in 0..N {
            rel.insert_slice(&[intern::mk_int(i % keys), intern::mk_int(i)]);
        }
        let before = ALLOC.count();
        let copy = rel.clone();
        let allocs = ALLOC.delta(before);
        assert_eq!(
            copy.probe(&[0], &[intern::mk_int(7)]).len() as i64,
            N / keys
        );
        allocs
    };
    let allocs = clone_allocs(10_000);
    assert!(allocs <= 64, "clone allocated {allocs} times");
    assert_eq!(clone_allocs(20_000), allocs);
}

/// Catching a second copy up by a change log of *k* changes — appended rows,
/// tombstones, a revival — allocates the same handful of times under 1 000
/// rows as under 64 000: nothing in it is proportional to the relation. (A
/// copy of the 64 000-row relation alone is 32 page allocations.)
#[test]
fn catch_up_allocations_do_not_depend_on_relation_size() {
    let _counting = counting();
    const K: i64 = 12;
    let p = Symbol::intern("p");
    let row = |i: i64| [intern::mk_int(i % 500), intern::mk_int(i)];
    let catch_up_allocs = |n: i64| {
        let mut working = Database::new();
        for i in 0..n {
            working.insert_id_slice(p, &row(i));
        }
        working.relation_mut(p, 2).ensure_index(&[0]);
        let gone = working.remove_ids(p, &row(1)).unwrap();
        let mut retired = working.clone();

        working.open_log(1);
        for i in 0..K {
            working.insert_id_slice(p, &row(n + i));
            working.remove_ids(p, &row(10 + i)).unwrap();
        }
        working.relation_mut(p, 2).revive(gone);
        let before = ALLOC.count();
        let changes = retired.catch_up(&working);
        let allocs = ALLOC.delta(before);
        assert_eq!(changes as i64, 2 * K + 1);
        assert_eq!(retired.same_state(&working), Ok(()));
        allocs
    };
    let allocs = catch_up_allocs(1_000);
    assert!(allocs <= 16, "catch-up allocated {allocs} times");
    assert_eq!(catch_up_allocs(64_000), allocs);
}
