//! Whole-database snapshots: a compact, checksummed image of every
//! relation at one log sequence number.
//!
//! ```text
//! "LDL1SNAP"  version:u32  reserved:u32  seq:u64
//! node_count:u32
//!   node*          -- structural value nodes, post-order: a node's
//!                  -- children are u32 indexes into *earlier* entries
//! rel_count:u32
//!   relation*      -- sorted by predicate name:
//!                  --   name:str  arity:u32  nrows:u32  (nrows × arity
//!                  --   node indexes)
//! crc:u32          -- CRC-32 of every preceding byte
//! ```
//!
//! Rows share their value nodes through the table, so a database whose
//! facts overlap structurally (the common case) snapshots far smaller
//! than one fact-per-fact dump. Like the log, nodes are structural —
//! indexes are *local to this file*, never interner ids — so any process
//! can load a snapshot regardless of interning order.
//!
//! Unlike the log, a snapshot is never partially trusted: it is written
//! whole to a temporary file, fsynced, and installed by atomic rename, so
//! either the old or the new snapshot is present after a crash. Any
//! checksum or structure failure — a child index that is not an earlier
//! node, a relation listed twice, a repeated row — is
//! [`WalError::Corrupt`].
//!
//! Loading is a bulk load: the node table is interned under one interner
//! lock ([`intern::batch`]), and each relation's duplicate filter is sized
//! from its row count before the rows go in.

use std::collections::HashMap;
use std::time::Instant;

use ldl_storage::Database;
use ldl_value::intern::{self, Node};
use ldl_value::{Symbol, ValueId};

use crate::codec::{put_str, put_u32, put_u64, Cursor};
use crate::crc::crc32;
use crate::{OpenTimes, WalError};

/// The snapshot's file name within a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const SNAP_MAGIC: &[u8; 8] = b"LDL1SNAP";
const SNAP_VERSION: u32 = 1;

const NODE_INT: u8 = 0;
const NODE_STR: u8 = 1;
const NODE_ATOM: u8 = 2;
const NODE_COMPOUND: u8 = 3;
const NODE_SET: u8 = 4;

/// Append `id`'s structure to the node table (children first), returning
/// its local index.
fn add_node(
    id: ValueId,
    table: &mut HashMap<ValueId, u32>,
    out: &mut Vec<u8>,
    count: &mut u32,
) -> u32 {
    if let Some(&idx) = table.get(&id) {
        return idx;
    }
    let emit = |children: &[ValueId],
                tag: u8,
                name: Option<Symbol>,
                table: &mut HashMap<ValueId, u32>,
                out: &mut Vec<u8>,
                count: &mut u32| {
        let idxs: Vec<u32> = children
            .iter()
            .map(|&c| add_node(c, table, out, count))
            .collect();
        out.push(tag);
        if let Some(n) = name {
            put_str(out, n.as_str());
        }
        put_u32(out, idxs.len() as u32);
        for i in idxs {
            put_u32(out, i);
        }
    };
    match intern::node(id) {
        Node::Int(i) => {
            out.push(NODE_INT);
            put_u64(out, *i as u64);
        }
        Node::Str(s) => {
            out.push(NODE_STR);
            put_str(out, s);
        }
        Node::Atom(a) => {
            out.push(NODE_ATOM);
            put_str(out, a.as_str());
        }
        Node::Compound(f, args) => emit(args, NODE_COMPOUND, Some(*f), table, out, count),
        Node::Set(elems) => emit(elems, NODE_SET, None, table, out, count),
    }
    let idx = *count;
    *count += 1;
    table.insert(id, idx);
    idx
}

/// Serialize `db` as a snapshot covering log sequence `seq`.
pub(crate) fn encode(db: &Database, seq: u64) -> Vec<u8> {
    let mut preds: Vec<Symbol> = db.predicates().collect();
    preds.sort_by_key(|p| p.as_str());

    // Node table and per-relation row indexes, in one pass.
    let mut table = HashMap::new();
    let mut nodes = Vec::new();
    let mut count = 0u32;
    let mut rels = Vec::new();
    for &pred in &preds {
        let rel = db.relation(pred).expect("listed predicate");
        put_str(&mut rels, pred.as_str());
        put_u32(&mut rels, rel.arity() as u32);
        put_u32(&mut rels, rel.live_len() as u32);
        for row in rel.iter() {
            for &id in row {
                let idx = add_node(id, &mut table, &mut nodes, &mut count);
                put_u32(&mut rels, idx);
            }
        }
    }

    let mut out = Vec::with_capacity(32 + nodes.len() + rels.len());
    out.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut out, SNAP_VERSION);
    put_u32(&mut out, 0); // reserved
    put_u64(&mut out, seq);
    put_u32(&mut out, count);
    out.extend_from_slice(&nodes);
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

    let node_count = c.u32("node count").map_err(|e| fail(&c, e))? as usize;
    if node_count > body.len() {
        return Err(fail(
            &c,
            format!("node count {node_count} exceeds snapshot size"),
        ));
    }
    let t = Instant::now();
    let ids = intern::batch(|b| read_nodes(&mut c, node_count, b)).map_err(|e| fail(&c, e))?;
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
        for _ in 0..nrows {
            row.clear();
            for _ in 0..arity {
                let idx = c.u32("row value index").map_err(|e| fail(&c, e))? as usize;
                row.push(*ids.get(idx).ok_or_else(|| {
                    fail(
                        &c,
                        format!("row value index {idx} out of range ({} nodes)", ids.len()),
                    )
                })?);
            }
            // The writer emits a relation's live rows, which are distinct:
            // a repeat means the file was damaged or forged.
            if !rel.insert_slice(&row) {
                return Err(fail(&c, format!("relation {name}: duplicate row")));
            }
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

/// Intern the node table. Each entry may only reference earlier entries,
/// so one forward pass under one interner lock rebuilds the ids.
fn read_nodes(
    c: &mut Cursor<'_>,
    count: usize,
    b: &mut intern::Batch,
) -> Result<Vec<ValueId>, String> {
    let mut ids = Vec::with_capacity(count);
    let mut kids = Vec::new();
    for _ in 0..count {
        let id = match c.u8("node tag")? {
            NODE_INT => b.int(c.i64("int node")?),
            NODE_STR => b.str(c.str("string node")?),
            NODE_ATOM => b.atom(Symbol::intern(c.str("atom node")?)),
            NODE_COMPOUND => {
                let functor = Symbol::intern(c.str("functor name")?);
                read_children(c, &ids, &mut kids)?;
                if kids.is_empty() {
                    return Err("compound node with zero children".into());
                }
                b.compound(functor, &kids)
            }
            NODE_SET => {
                // Writer emitted the canonical (sorted, deduped) element
                // order, but a hostile file may not have — re-canonicalize.
                read_children(c, &ids, &mut kids)?;
                b.set(&mut kids)
            }
            other => return Err(format!("unknown node tag {other}")),
        };
        ids.push(id);
    }
    Ok(ids)
}

/// Read a child list into `out` (cleared first), each index checked to
/// name an earlier node.
fn read_children(
    c: &mut Cursor<'_>,
    ids: &[ValueId],
    out: &mut Vec<ValueId>,
) -> Result<(), String> {
    out.clear();
    let n = c.u32("child count")? as usize;
    if n > c.remaining() / 4 {
        return Err(format!("child count {n} exceeds remaining bytes"));
    }
    for _ in 0..n {
        let idx = c.u32("child index")? as usize;
        out.push(*ids.get(idx).ok_or_else(|| {
            format!(
                "child index {idx} is not an earlier node (table has {})",
                ids.len()
            )
        })?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
