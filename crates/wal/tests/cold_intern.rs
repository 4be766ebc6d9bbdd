//! A snapshot's node table is interned under one interner lock
//! (`intern::batch`). This binary checks that in a process where nothing
//! has interned yet — the arena is empty, and the batch must give each
//! integer the id `mk_int` gives, immediate or not — and beside another
//! thread that interns at the same time.

use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use ldl_value::intern::{self, Node, ValueId};
use ldl_value::Symbol;
use ldl_wal::{crc32, Store, StoreOptions, SNAPSHOT_FILE};

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A hand-built snapshot of one relation `r/1`, one row per node:
///
/// | node | value |
/// |---|---|
/// | 0, 1, 2 | `7`, `200`, `255` (immediate: no arena node) |
/// | 3 | `"cold"` |
/// | 4 | `cold_atom` |
/// | 5 | `f(7, "cold")` |
/// | 6 | `{200, cold_atom, 7, 200}` — unsorted, `200` twice |
fn snapshot() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(b"LDL1SNAP");
    put_u32(&mut b, 1); // version
    put_u32(&mut b, 0); // reserved
    b.extend_from_slice(&1u64.to_le_bytes()); // sequence
    put_u32(&mut b, 7); // nodes
    for i in [7u64, 200, 255] {
        b.push(0);
        b.extend_from_slice(&i.to_le_bytes());
    }
    b.push(1);
    put_str(&mut b, "cold");
    b.push(2);
    put_str(&mut b, "cold_atom");
    b.push(3);
    put_str(&mut b, "f");
    put_u32(&mut b, 2);
    put_u32(&mut b, 0);
    put_u32(&mut b, 3);
    b.push(4);
    put_u32(&mut b, 4);
    for child in [1, 4, 0, 1] {
        put_u32(&mut b, child);
    }
    put_u32(&mut b, 1); // relations
    put_str(&mut b, "r");
    put_u32(&mut b, 1); // arity
    put_u32(&mut b, 7); // rows
    for node in 0..7 {
        put_u32(&mut b, node);
    }
    let crc = crc32(&b);
    put_u32(&mut b, crc);
    b
}

fn data_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ldl-wal-cold-intern-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(SNAPSHOT_FILE), snapshot()).unwrap();
    dir
}

/// The recovered `r` column, in row order.
fn open(dir: &PathBuf) -> Vec<ValueId> {
    let (_, db, info) = Store::open(dir, StoreOptions::default()).unwrap();
    assert_eq!(info.snapshot_seq, Some(1));
    let rel = db.relation(Symbol::intern("r")).expect("r recovered");
    rel.iter().map(|row| row[0]).collect()
}

/// Run `f` on a thread of its own and fail, rather than hang, if it has not
/// returned within a minute.
fn without_deadlock<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(v) => {
            worker.join().expect("worker returned");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("still running after a minute: deadlocked"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
        }
    }
}

/// What the `mk_*` constructors give for the snapshot's seven values.
fn expected() -> Vec<ValueId> {
    let (i7, i200, i255) = (intern::mk_int(7), intern::mk_int(200), intern::mk_int(255));
    let s = intern::mk_str(&Arc::from("cold"));
    let a = intern::mk_atom(Symbol::intern("cold_atom"));
    let f = intern::mk_compound(Symbol::intern("f"), vec![i7, s]);
    let set = intern::mk_set(vec![i7, a, i200]);
    vec![i7, i200, i255, s, a, f, set]
}

#[test]
fn cold_decode_interns_what_mk_interns() {
    let dir = data_dir("cold");
    let got = without_deadlock({
        let dir = dir.clone();
        move || open(&dir)
    });
    assert_eq!(got, expected());
    match intern::node(got[6]) {
        Some(Node::Set(elems)) => assert_eq!(&elems[..], &[got[0], got[1], got[4]]),
        other => panic!("not a set: {other:?}"),
    }
    assert_eq!(
        intern::resolve(got[6]).to_string(),
        "{7, 200, cold_atom}",
        "canonical: sorted, deduplicated"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The other thread's `k`th value: fresh ones, and the snapshot's own.
fn racer(k: i64) -> ValueId {
    match k % 4 {
        0 => intern::mk_int(k % 256),
        1 => intern::mk_str(&Arc::from(format!("racer{k}").as_str())),
        2 => intern::mk_compound(
            Symbol::intern("f"),
            vec![intern::mk_int(7), intern::mk_str(&Arc::from("cold"))],
        ),
        _ => intern::mk_set(vec![intern::mk_int(1000 + k), intern::mk_int(7)]),
    }
}

#[test]
fn decode_beside_a_concurrent_interner() {
    let dir = data_dir("concurrent");
    let start = Arc::new(Barrier::new(2));
    let other = {
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            (0..2000).map(racer).collect::<Vec<_>>()
        })
    };
    let runs: Vec<Vec<ValueId>> = without_deadlock({
        let dir = dir.clone();
        move || {
            start.wait();
            (0..20).map(|_| open(&dir)).collect()
        }
    });
    let raced = other.join().expect("interning thread");
    let want = expected();
    for run in &runs {
        assert_eq!(run, &want);
    }
    assert_eq!(raced[2], want[5], "the snapshot's compound");
    for (k, &id) in (0..).zip(&raced) {
        assert_eq!(id, racer(k), "value {k}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
