//! The log record format, pinned byte for byte: a record built by hand
//! from the documented layout must replay to its rows, `encode_batch`
//! must write exactly those bytes, and forged indexes must cost the
//! record — never a panic, never a row. Integers at the edges of the
//! interner's immediate range are pinned in a log record and in a
//! snapshot.
//!
//! ```text
//! header:   "LDL1WAL\0"  version:u32 = 2  reserved:u32  base_seq:u64
//! record:   len:u32  crc:u32  seq:u64  payload
//! payload:  node_count:u32 node*  ndel:u32 fact*  nins:u32 fact*
//! fact:     pred:str  arity:u32  arity × node:u32
//! ```

use std::path::PathBuf;

use ldl_value::{Fact, Value};
use ldl_wal::{crc32, encode_batch, Store, StoreOptions, SNAPSHOT_FILE, WAL_FILE, WAL_HEADER_LEN};

const INT: u8 = 0;
const STR: u8 = 1;
const ATOM: u8 = 2;
const COMPOUND: u8 = 3;
const SET: u8 = 4;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn int(out: &mut Vec<u8>, i: i64) {
    out.push(INT);
    out.extend_from_slice(&i.to_le_bytes());
}

/// `pred(nodes…)`.
fn fact(out: &mut Vec<u8>, pred: &str, nodes: &[u32]) {
    put_str(out, pred);
    put_u32(out, nodes.len() as u32);
    for &n in nodes {
        put_u32(out, n);
    }
}

/// Record 1 inserts `e(7, "s")`, `e(a, f(7, a))` and `w({7, a})`:
///
/// | node | value |
/// |---|---|
/// | 0 | `7` |
/// | 1 | `"s"` |
/// | 2 | `a` |
/// | 3 | `f(7, a)` — children 0, 2 |
/// | 4 | `{7, a}` — children 0, 2, shared with the compound |
fn record_one() -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, 5);
    int(&mut b, 7);
    b.push(STR);
    put_str(&mut b, "s");
    b.push(ATOM);
    put_str(&mut b, "a");
    b.push(COMPOUND);
    put_str(&mut b, "f");
    put_u32(&mut b, 2);
    put_u32(&mut b, 0);
    put_u32(&mut b, 2);
    b.push(SET);
    put_u32(&mut b, 2);
    put_u32(&mut b, 0);
    put_u32(&mut b, 2);
    put_u32(&mut b, 0); // deletions
    put_u32(&mut b, 3); // insertions
    fact(&mut b, "e", &[0, 1]);
    fact(&mut b, "e", &[2, 3]);
    fact(&mut b, "w", &[4]);
    b
}

/// Record 2 deletes `e(7, "s")` and inserts `w({})`, the deletion's
/// nodes first.
fn record_two() -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, 3);
    int(&mut b, 7);
    b.push(STR);
    put_str(&mut b, "s");
    b.push(SET);
    put_u32(&mut b, 0);
    put_u32(&mut b, 1);
    fact(&mut b, "e", &[0, 1]);
    put_u32(&mut b, 1);
    fact(&mut b, "w", &[2]);
    b
}

fn e(x: Value, y: Value) -> Fact {
    Fact::new("e", vec![x, y])
}

fn compound() -> Value {
    Value::compound("f", vec![Value::int(7), Value::atom("a")])
}

/// A version-2 log based at 0 holding `payloads` as records 1, 2, ….
fn log(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(b"LDL1WAL\0");
    put_u32(&mut b, 2);
    put_u32(&mut b, 0);
    b.extend_from_slice(&0u64.to_le_bytes());
    for (seq, payload) in (1u64..).zip(payloads) {
        let mut checked = seq.to_le_bytes().to_vec();
        checked.extend_from_slice(payload);
        put_u32(&mut b, payload.len() as u32);
        put_u32(&mut b, crc32(&checked));
        b.extend_from_slice(&checked);
    }
    b
}

fn data_dir(tag: &str, wal: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldl-wal-format-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(WAL_FILE), wal).unwrap();
    dir
}

#[test]
fn hand_built_records_replay_to_their_rows() {
    let dir = data_dir("replay", &log(&[record_one(), record_two()]));
    let (_, db, info) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(info.truncation.is_none(), "{:?}", info.truncation);
    assert_eq!((info.replayed, info.last_seq), (2, 2));
    assert_eq!(db.dump(), "e(a, f(7, a)).\nw({7, a}).\nw({}).\n");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn encode_batch_writes_the_documented_bytes() {
    let set = Value::set(vec![Value::atom("a"), Value::int(7)]);
    let one = [
        e(Value::int(7), Value::str("s")),
        e(Value::atom("a"), compound()),
        Fact::new("w", vec![set]),
    ];
    assert_eq!(encode_batch(&[], &one), record_one());
    let two = (
        [e(Value::int(7), Value::str("s"))],
        [Fact::new("w", vec![Value::empty_set()])],
    );
    assert_eq!(encode_batch(&two.0, &two.1), record_two());
}

/// Two nodes and one insertion `p(row)`: node 0 is `7`, node 1 a set
/// whose one child is `child`.
fn forged(child: u32, row: u32) -> Vec<u8> {
    let mut b = Vec::new();
    put_u32(&mut b, 2);
    int(&mut b, 7);
    b.push(SET);
    put_u32(&mut b, 1);
    put_u32(&mut b, child);
    put_u32(&mut b, 0);
    put_u32(&mut b, 1);
    fact(&mut b, "p", &[row]);
    b
}

#[test]
fn forged_indexes_truncate_at_their_record() {
    let cases = [
        (
            "forward-child",
            forged(1, 1),
            "child index 1 is not an earlier node",
        ),
        (
            "row-past-table",
            forged(0, 2),
            "row index 2 is not an earlier node",
        ),
    ];
    for (tag, bad, why) in cases {
        let wal = log(&[record_one(), bad]);
        let dir = data_dir(tag, &wal);
        let (store, db, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        let t = info.truncation.expect("the forged record is dropped");
        let second = WAL_HEADER_LEN + 16 + record_one().len() as u64;
        assert_eq!(t.offset, second, "{tag}");
        assert_eq!(t.dropped_bytes, wal.len() as u64 - second, "{tag}");
        assert!(t.reason.contains("bad batch at sequence 2"), "{}", t.reason);
        assert!(t.reason.contains(why), "{}", t.reason);
        assert_eq!(info.replayed, 1);
        assert_eq!(db.dump(), "e(7, \"s\").\ne(a, f(7, a)).\nw({7, a}).\n");
        assert_eq!(store.wal_len(), second);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // In range, the same record replays.
    let dir = data_dir("in-range", &log(&[record_one(), forged(0, 1)]));
    let (_, db, info) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(info.truncation.is_none(), "{:?}", info.truncation);
    assert!(
        db.dump().ends_with("p({7}).\nw({7, a}).\n"),
        "{}",
        db.dump()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Integers on both sides of each edge of the interner's immediate range
/// (`−2^30 ..= 2^30 − 1`), and the `i64` extremes: an immediate and an
/// arena integer must write the same entry, so neither format moves.
const EDGE_INTS: [i64; 6] = [
    i64::MIN,
    -(1 << 30) - 1,
    -(1 << 30),
    (1 << 30) - 1,
    1 << 30,
    i64::MAX,
];

fn edge_facts() -> Vec<Fact> {
    EDGE_INTS
        .iter()
        .map(|&i| Fact::new("n", vec![Value::int(i)]))
        .collect()
}

/// The node table of [`EDGE_INTS`], node `k` being the `k`th integer.
fn edge_nodes(b: &mut Vec<u8>) {
    put_u32(b, EDGE_INTS.len() as u32);
    for i in EDGE_INTS {
        int(b, i);
    }
}

#[test]
fn integers_at_the_immediate_edges_keep_the_log_bytes() {
    let mut want = Vec::new();
    edge_nodes(&mut want);
    put_u32(&mut want, 0); // deletions
    put_u32(&mut want, EDGE_INTS.len() as u32);
    for k in 0..EDGE_INTS.len() as u32 {
        fact(&mut want, "n", &[k]);
    }
    assert_eq!(encode_batch(&[], &edge_facts()), want);
    let dir = data_dir("edge-log", &log(&[want]));
    let (_, db, info) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(info.truncation.is_none(), "{:?}", info.truncation);
    for f in edge_facts() {
        assert!(db.contains(&f), "{f} replayed");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn integers_at_the_immediate_edges_keep_the_snapshot_bytes() {
    let dir = data_dir("edge-snapshot", &log(&[]));
    let (mut store, _, _) = Store::open(&dir, StoreOptions::default()).unwrap();
    let mut db = ldl_storage::Database::new();
    for f in edge_facts() {
        db.insert(f);
    }
    store.checkpoint(&db).unwrap();
    drop(store);

    let mut want = Vec::new();
    want.extend_from_slice(b"LDL1SNAP");
    put_u32(&mut want, 1); // version
    put_u32(&mut want, 0); // reserved
    want.extend_from_slice(&0u64.to_le_bytes()); // sequence
    edge_nodes(&mut want);
    put_u32(&mut want, 1); // relations
    put_str(&mut want, "n");
    put_u32(&mut want, 1); // arity
    put_u32(&mut want, EDGE_INTS.len() as u32); // rows
    for k in 0..EDGE_INTS.len() as u32 {
        put_u32(&mut want, k);
    }
    let crc = crc32(&want);
    put_u32(&mut want, crc);
    assert_eq!(std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), want);

    let (_, back, info) = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(info.snapshot_seq, Some(0));
    assert_eq!(back.dump(), db.dump());
    std::fs::remove_dir_all(&dir).unwrap();
}
