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
//! allocator must be the process-global allocator. It counts only the
//! measuring thread's calls, so the harness's own allocations — spawning
//! the next test thread, collecting a result — never reach a pin.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ldl_storage::{Database, Relation};
use ldl_testkit::CountingAlloc;
use ldl_value::{intern, Symbol, ValueId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The allocator holds one measurement at a time and the harness runs
/// tests on parallel threads: each test measures under this lock (a
/// failed test's poison is no reason to fail the others).
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

    let ((), allocs) = ALLOC.measure(|| {
        for row in &rows[N / 10..] {
            rel.insert_slice(row);
        }
        // Duplicates take the dedup-hit path: hash borrowed slice, compare
        // in-arena, return. That path must allocate nothing at all.
        for row in &rows {
            assert!(!rel.insert_slice(row));
        }
    });

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

    let ((), allocs) = ALLOC.measure(|| {
        for row in &rows[N / 10..] {
            rel.insert_slice(row);
        }
    });
    let allocs = allocs as usize;
    let inserted = N - N / 10;
    assert!(
        allocs < inserted / 10,
        "{allocs} allocations for {inserted} inserts of distinct keys"
    );

    // Probes through either handle allocate nothing; the every-column one
    // answers with the tuple's own position.
    let (by_first, by_all) = (rel.index(&[0]).unwrap(), rel.index(&[0, 1]).unwrap());
    let ((), allocs) = ALLOC.measure(|| {
        for (pos, row) in rows.iter().enumerate() {
            assert_eq!(by_all.probe(row), &[pos as u32]);
            assert_eq!(by_first.probe(&row[..1]), &[pos as u32]);
        }
    });
    assert_eq!(allocs, 0);

    // Choosing the index for a set of bound columns allocates nothing
    // either — exact, every column, a miss, nothing bound.
    let unindexed = Relation::new(2);
    let ((), allocs) = ALLOC.measure(|| {
        assert_eq!(rel.covering_index(&[0]).unwrap().0, &[0]);
        let (cols, idx) = rel.covering_index(&[0, 1]).unwrap();
        assert_eq!((cols, idx.probe(&rows[7])), (&[0, 1][..], &[7][..]));
        assert!(rel.covering_index(&[1]).is_none());
        assert!(unindexed.covering_index(&[0]).is_none());
        assert!(rel.covering_index(&[]).is_none());
    });
    assert_eq!(allocs, 0);
}

/// An index built over rows already present is sized before it is filled,
/// so the build allocates a fixed handful of times — the estimator's
/// bitmap, then the index's own buffers once each — however many rows and
/// keys it covers. Grown a key at a time from 16 slots, the 100 000-key
/// build allocated 65 times.
#[test]
fn an_index_built_over_existing_rows_allocates_a_fixed_handful() {
    let _counting = counting();
    let build_allocs = |n: i64| {
        let mut rel = Relation::new(2);
        rel.reserve(n as usize);
        for i in 0..n {
            rel.insert_slice(&[intern::mk_int(i), intern::mk_int(i % 9)]);
        }
        let ((), allocs) = ALLOC.measure(|| rel.ensure_index(&[0]));
        assert_eq!(rel.probe(&[0], &[intern::mk_int(n - 1)]), &[n as u32 - 1]);
        allocs
    };
    let allocs = build_allocs(100_000);
    assert!(allocs <= 10, "the build allocated {allocs} times");
    assert_eq!(build_allocs(10_000), allocs);
}

/// An insert hashes its tuple once and probes with that hash before it
/// makes room: a rejected duplicate allocates nothing even when the
/// duplicate filter is exactly at its 3/4 growth threshold, where the next
/// *new* tuple doubles it.
#[test]
fn a_duplicate_at_the_growth_threshold_allocates_nothing() {
    let _counting = counting();
    // 96 rows fill a 128-slot filter to 3/4.
    let rows: Vec<[ValueId; 2]> = (0..96)
        .map(|i| [intern::mk_int(i), intern::mk_int(i % 5)])
        .collect();
    let mut rel = Relation::new(2);
    rel.ensure_index(&[1]);
    for row in &rows {
        assert!(rel.insert_slice(row));
    }
    let ((), allocs) = ALLOC.measure(|| {
        for row in &rows {
            assert!(!rel.insert_slice(row));
        }
    });
    assert_eq!(allocs, 0);
    // The threshold is real: one new tuple grows the filter.
    let ((), allocs) = ALLOC.measure(|| {
        assert!(rel.insert_slice(&[intern::mk_int(96), intern::mk_int(1)]));
    });
    assert!(allocs >= 2, "a new tuple past 3/4 allocated {allocs} times");
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
        let (copy, allocs) = ALLOC.measure(|| rel.clone());
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
        let (changes, allocs) = ALLOC.measure(|| retired.catch_up(&working));
        assert_eq!(changes as i64, 2 * K + 1);
        assert_eq!(retired.same_state(&working), Ok(()));
        allocs
    };
    let allocs = catch_up_allocs(1_000);
    assert!(allocs <= 16, "catch-up allocated {allocs} times");
    assert_eq!(catch_up_allocs(64_000), allocs);
}

/// What the pins above rest on: a measurement counts the measuring
/// thread's calls, every one of them, and none of another thread's — here
/// one that allocates a thousand times while the measurement runs.
#[test]
fn only_the_measuring_thread_counts() {
    let _counting = counting();
    let (stop, other) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(vec![0u8; 16]);
                other.fetch_add(1, Ordering::Relaxed);
            }
        });
        let (rows, allocs) = ALLOC.measure(|| {
            let rows: Vec<Vec<u8>> = (0..100).map(|i| vec![i; 16]).collect();
            let start = other.load(Ordering::Relaxed);
            while other.load(Ordering::Relaxed) < start + 1000 {
                std::thread::yield_now();
            }
            rows
        });
        stop.store(true, Ordering::Relaxed);
        assert_eq!(rows.len(), 100);
        assert_eq!(allocs, 101, "one per row and one for the list");
    });
}
