//! Whole-database snapshots: a compact, checksummed image of every
//! relation at one log sequence number.
//!
//! ```text
//! "LDL1SNAP"  version:u32  reserved:u32  seq:u64
//! node table       -- the crate's value codec (`codec.rs`), as in a log
//!                  -- record: post-order, children name earlier nodes
//! rel_count:u32
//!   relation*      -- sorted by predicate name:
//!                  --   name:str  arity:u32  nrows:u32  (nrows × arity
//!                  --   node indexes)
//! crc:u32          -- CRC-32 of every preceding byte
//! ```
//!
//! Rows share their value nodes through the table, so a database whose
//! facts overlap structurally (the common case) snapshots far smaller
//! than one fact-per-fact dump. Nodes are structural — indexes are *local
//! to this file*, never interner ids — so any process can load a snapshot
//! regardless of interning order.
//!
//! Unlike the log, a snapshot is never partially trusted: it is written
//! whole to a temporary file, fsynced, and installed by atomic rename, so
//! either the old or the new snapshot is present after a crash. Any
//! checksum or structure failure — a child index that is not an earlier
//! node, a relation listed twice, a repeated row — is
//! [`WalError::Corrupt`].
//!
//! Loading is a bulk load: the checksum folds 16-byte blocks by carry-less
//! multiply where the CPU has it ([`crate::crc`]), the node table is
//! interned under one interner lock, and each relation's duplicate filter
//! is sized from its row count before the rows go in. A relation's row
//! indexes are one slice, bounded by the header check, read a row at a
//! time by a plain loop. A bad index is reported just past itself, a
//! repeated row just past that row, and a block cut short at the first row
//! that does not fit.

use std::time::Instant;

use ldl_storage::Database;
use ldl_value::Symbol;

use crate::codec::{put_str, put_u32, put_u64, read_nodes, Cursor, NodeTable};
use crate::crc::crc32;
use crate::{OpenTimes, WalError};

/// The snapshot's file name within a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const SNAP_MAGIC: &[u8; 8] = b"LDL1SNAP";
const SNAP_VERSION: u32 = 1;

/// Serialize `db` as a snapshot covering log sequence `seq`.
pub(crate) fn encode(db: &Database, seq: u64) -> Vec<u8> {
    let mut preds: Vec<Symbol> = db.predicates().collect();
    preds.sort_by_key(|p| p.as_str());

    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut out, SNAP_VERSION);
    put_u32(&mut out, 0); // reserved
    put_u64(&mut out, seq);
    // Node table and per-relation row indexes, in one pass.
    let mut nodes = NodeTable::new(out);
    let mut rels = Vec::new();
    for &pred in &preds {
        let rel = db.relation(pred).expect("listed predicate");
        put_str(&mut rels, pred.as_str());
        put_u32(&mut rels, rel.arity() as u32);
        put_u32(&mut rels, rel.live_len() as u32);
        for row in rel.iter() {
            for &id in row {
                put_u32(&mut rels, nodes.add(id));
            }
        }
    }

    let mut out = nodes.finish();
    out.reserve_exact(8 + rels.len());
    put_u32(&mut out, preds.len() as u32);
    out.extend_from_slice(&rels);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

fn corrupt(offset: usize, detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        offset: offset as u64,
        detail: detail.into(),
    }
}

/// Decode a snapshot's bytes back into the database image and the log
/// sequence it covers, adding the checksum, node-table and row times to
/// `times`. Any damage is [`WalError::Corrupt`] — snapshots are installed
/// atomically, so unlike the log there is no torn tail to forgive.
pub(crate) fn decode(bytes: &[u8], times: &mut OpenTimes) -> Result<(Database, u64), WalError> {
    if bytes.len() < 8 || &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt(0, "bad snapshot magic (not an LDL1 snapshot)"));
    }
    if bytes.len() < 32 {
        return Err(corrupt(bytes.len(), "snapshot shorter than its header"));
    }
    let t = Instant::now();
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    let crc_ok = crc32(body) == stored;
    times.crc += t.elapsed();
    if !crc_ok {
        return Err(corrupt(body.len(), "snapshot checksum mismatch"));
    }

    let mut c = Cursor::new(&body[8..]);
    let fail = |c: &Cursor<'_>, e: String| corrupt(8 + c.offset(), e);
    let version = c.u32("snapshot version").map_err(|e| fail(&c, e))?;
    if version != SNAP_VERSION {
        return Err(corrupt(
            8,
            format!("unsupported snapshot version {version} (expected {SNAP_VERSION})"),
        ));
    }
    let _reserved = c.u32("reserved").map_err(|e| fail(&c, e))?;
    let seq = c.u64("snapshot sequence").map_err(|e| fail(&c, e))?;

    let t = Instant::now();
    let ids = read_nodes(&mut c).map_err(|e| fail(&c, e))?;
    times.nodes += t.elapsed();

    // Relations.
    let t = Instant::now();
    let rel_count = c.u32("relation count").map_err(|e| fail(&c, e))? as usize;
    if rel_count > body.len() {
        return Err(fail(
            &c,
            format!("relation count {rel_count} exceeds snapshot size"),
        ));
    }
    let mut db = Database::new();
    let mut row = Vec::new();
    for _ in 0..rel_count {
        let name = c.str("relation name").map_err(|e| fail(&c, e))?;
        let pred = Symbol::intern(name);
        if db.relation(pred).is_some() {
            return Err(fail(&c, format!("relation {name} listed twice")));
        }
        let arity = c.u32("relation arity").map_err(|e| fail(&c, e))? as usize;
        let nrows = c.u32("relation row count").map_err(|e| fail(&c, e))? as usize;
        if arity.saturating_mul(nrows) > c.remaining() / 4 + 1 {
            return Err(fail(
                &c,
                format!("relation {name}: {nrows}×{arity} rows exceed remaining bytes"),
            ));
        }
        if arity == 0 && nrows > 1 {
            return Err(fail(
                &c,
                format!("relation {name}: {nrows} rows, but a nullary relation holds one"),
            ));
        }
        // Materialize the relation even when empty, preserving arity.
        let rel = db.relation_mut(pred, arity);
        rel.reserve(nrows);
        if arity == 0 {
            if nrows == 1 {
                rel.insert_slice(&[]);
            }
            continue;
        }
        // The header check lets one index more than the bytes left hold
        // through, so the block is the whole rows present; a row that does
        // not fit is reported where it starts, once those before it load.
        let width = 4 * arity;
        let whole = nrows.min(c.remaining() / width);
        let at = 8 + c.offset();
        let block = c.take(whole * width, "row block").expect("whole rows");
        for (r, raw) in block.chunks_exact(width).enumerate() {
            row.clear();
            for (k, b) in raw.chunks_exact(4).enumerate() {
                let idx = u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize;
                let Some(&id) = ids.get(idx) else {
                    return Err(corrupt(
                        at + 4 * (r * arity + k + 1),
                        format!(
                            "row index {idx} is not an earlier node (table has {})",
                            ids.len()
                        ),
                    ));
                };
                row.push(id);
            }
            // The writer emits a relation's live rows, which are distinct:
            // a repeat means the file was damaged or forged.
            if !rel.insert_slice(&row) {
                return Err(corrupt(
                    at + width * (r + 1),
                    format!("relation {name}: duplicate row"),
                ));
            }
        }
        if whole < nrows {
            return Err(fail(
                &c,
                format!("{arity} row indexes exceed remaining bytes"),
            ));
        }
    }
    times.rows += t.elapsed();
    if !c.is_empty() {
        return Err(fail(
            &c,
            format!("{} bytes of trailing garbage", c.remaining()),
        ));
    }
    Ok((db, seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{NODE_INT, NODE_SET};
    use ldl_value::{Fact, Value};

    fn load(bytes: &[u8]) -> Result<(Database, u64), WalError> {
        decode(bytes, &mut OpenTimes::default())
    }

    /// A snapshot of an encoded node table and relation list, with a
    /// fresh CRC.
    fn forge(node_count: u32, nodes: &[u8], rel_count: u32, rels: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(SNAP_MAGIC);
        put_u32(&mut body, SNAP_VERSION);
        put_u32(&mut body, 0);
        put_u64(&mut body, 1);
        put_u32(&mut body, node_count);
        body.extend_from_slice(nodes);
        put_u32(&mut body, rel_count);
        body.extend_from_slice(rels);
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        body
    }

    fn corrupt_detail(bytes: &[u8]) -> String {
        match load(bytes) {
            Err(WalError::Corrupt { detail, .. }) => detail,
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("hostile snapshot decoded"),
        }
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        for i in 0..20 {
            db.insert(Fact::new("edge", vec![Value::int(i), Value::int(i + 1)]));
        }
        db.insert(Fact::new("flag", vec![]));
        db.insert(Fact::new(
            "mix",
            vec![
                Value::str("hello"),
                Value::atom("world"),
                Value::compound(
                    "pair",
                    vec![
                        Value::int(1),
                        Value::set(vec![Value::int(3), Value::int(2)]),
                    ],
                ),
            ],
        ));
        // Tombstones: removed rows must not appear in the snapshot.
        db.insert(Fact::new("edge", vec![Value::int(99), Value::int(100)]));
        db.remove(&Fact::new("edge", vec![Value::int(99), Value::int(100)]));
        db
    }

    #[test]
    fn snapshot_round_trips() {
        let db = sample_db();
        let bytes = encode(&db, 42);
        let (got, seq) = load(&bytes).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(got.dump(), db.dump());
        assert_eq!(got.num_facts(), db.num_facts());
    }

    #[test]
    fn empty_database_round_trips() {
        let db = Database::new();
        let bytes = encode(&db, 0);
        let (got, seq) = load(&bytes).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(got.num_facts(), 0);
    }

    #[test]
    fn shared_structure_is_stored_once() {
        let mut db = Database::new();
        let big = Value::compound("blob", (0..50).map(Value::int).collect::<Vec<_>>());
        for i in 0..100 {
            db.insert(Fact::new("p", vec![Value::int(i), big.clone()]));
        }
        let bytes = encode(&db, 1);
        // 100 rows × a 51-node term stored per-row would need tens of
        // kilobytes; shared storage keeps it near one copy.
        assert!(bytes.len() < 4000, "snapshot is {} bytes", bytes.len());
        let (got, _) = load(&bytes).unwrap();
        assert_eq!(got.dump(), db.dump());
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let clean = encode(&sample_db(), 7);
        // Truncations.
        for cut in 0..clean.len() {
            assert!(load(&clean[..cut]).is_err(), "prefix {cut} decoded");
        }
        // Bit flips: the CRC (or magic check) catches every one.
        for byte in 0..clean.len() {
            let mut bad = clean.clone();
            bad[byte] ^= 0x10;
            assert!(load(&bad).is_err(), "flip at {byte} undetected");
        }
    }

    #[test]
    fn hostile_structure_is_rejected() {
        // Forge a snapshot with a forward child reference and a fresh CRC:
        // structural validation has to catch what the checksum cannot.
        let mut nodes = vec![NODE_SET];
        put_u32(&mut nodes, 1);
        put_u32(&mut nodes, 5); // the one node's child is node 5
        let detail = corrupt_detail(&forge(1, &nodes, 0, &[]));
        assert!(detail.contains("child index"), "{detail}");
    }

    /// Two int nodes, 1 and 2.
    fn two_ints() -> Vec<u8> {
        let mut nodes = Vec::new();
        for i in [1u64, 2] {
            nodes.push(NODE_INT);
            put_u64(&mut nodes, i);
        }
        nodes
    }

    /// Relation `name`/`arity` holding `rows` (node indexes).
    fn relation(out: &mut Vec<u8>, name: &str, arity: u32, rows: &[&[u32]]) {
        put_str(out, name);
        put_u32(out, arity);
        put_u32(out, rows.len() as u32);
        for row in rows {
            for &idx in *row {
                put_u32(out, idx);
            }
        }
    }

    #[test]
    fn duplicate_row_is_corrupt() {
        // The writer emits each live row once, so a repeat is damage —
        // not a row to drop quietly below the header's count.
        let mut rels = Vec::new();
        relation(&mut rels, "e", 2, &[&[0, 1], &[1, 0], &[0, 1]]);
        let detail = corrupt_detail(&forge(2, &two_ints(), 1, &rels));
        assert!(detail.contains("relation e: duplicate row"), "{detail}");

        let mut rels = Vec::new();
        relation(&mut rels, "flag", 0, &[&[], &[]]);
        let detail = corrupt_detail(&forge(2, &two_ints(), 1, &rels));
        assert!(detail.contains("a nullary relation holds one"), "{detail}");

        // The distinct rows alone load, all of them.
        let mut rels = Vec::new();
        relation(&mut rels, "e", 2, &[&[0, 1], &[1, 0]]);
        let (db, _) = load(&forge(2, &two_ints(), 1, &rels)).unwrap();
        assert_eq!(db.num_facts(), 2);
    }

    /// `(offset, detail)` of a snapshot's `Corrupt` report.
    fn corrupt_at(bytes: &[u8]) -> (u64, String) {
        match load(bytes) {
            Err(WalError::Corrupt { offset, detail }) => (offset, detail),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("hostile snapshot decoded"),
        }
    }

    /// The rows' reports, byte for byte. Two int nodes take bytes 28..46
    /// of the file and the relation count 46..50, so the first relation's
    /// rows start at 63 when its name is one byte long.
    #[test]
    fn row_corruption_reports_its_offset() {
        // A row index past the node table, in the second row of the second
        // relation: reported just past the bad index.
        let mut rels = Vec::new();
        relation(&mut rels, "a", 2, &[&[0, 1]]);
        relation(&mut rels, "b", 2, &[&[1, 0], &[0, 2]]);
        assert_eq!(
            corrupt_at(&forge(2, &two_ints(), 2, &rels)),
            (
                100,
                "row index 2 is not an earlier node (table has 2)".to_string()
            )
        );

        // A repeated row: reported just past the repeat.
        let mut rels = Vec::new();
        relation(&mut rels, "e", 2, &[&[0, 1], &[1, 0], &[0, 1]]);
        assert_eq!(
            corrupt_at(&forge(2, &two_ints(), 1, &rels)),
            (87, "relation e: duplicate row".to_string())
        );

        // A row block cut short. Short by part of a row: the whole rows
        // load and the report is at the first row that does not fit.
        let full = {
            let mut rels = Vec::new();
            relation(&mut rels, "e", 2, &[&[0, 1], &[1, 0], &[1, 1]]);
            rels
        };
        for cut in [4, 2] {
            let rels = &full[..full.len() - cut];
            assert_eq!(
                corrupt_at(&forge(2, &two_ints(), 1, rels)),
                (79, "2 row indexes exceed remaining bytes".to_string()),
                "cut {cut}"
            );
        }
        // Short by more than one index: the header's count is refused.
        let rels = &full[..full.len() - 16];
        assert_eq!(
            corrupt_at(&forge(2, &two_ints(), 1, rels)),
            (
                63,
                "relation e: 3×2 rows exceed remaining bytes".to_string()
            )
        );
    }

    #[test]
    fn relation_listed_twice_is_corrupt() {
        // Even at a different arity: an error, not an arity panic.
        let mut rels = Vec::new();
        relation(&mut rels, "e", 2, &[&[0, 1]]);
        relation(&mut rels, "e", 1, &[&[0]]);
        let detail = corrupt_detail(&forge(2, &two_ints(), 2, &rels));
        assert!(detail.contains("relation e listed twice"), "{detail}");
    }
}
