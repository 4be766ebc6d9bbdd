//! The crate's one value codec: a post-order node table, shared by
//! snapshots and log records.
//!
//! ```text
//! node_count:u32
//!   node*          -- tag:u8, then by tag:
//!                  --   int: i64 | str: str | atom: name:str
//!                  --   compound: functor:str  n:u32  n × child:u32
//!                  --   set: n:u32  n × child:u32
//! ```
//!
//! A child is the index of an *earlier* node, so one forward pass
//! rebuilds the values and no value nests in the bytes. Nodes are written
//! by *structure* — integer payloads and UTF-8 names, indexes local to
//! the table, never interner ids — so two processes that interned the
//! same values in different orders write and accept identical bytes: a
//! log or snapshot written by one process loads in any other, or in the
//! same one after a restart with an empty interner. Rows that share a
//! value share its node.
//!
//! A log record's payload is a node table followed by the batch's rows:
//!
//! ```text
//! node table  ndel:u32 fact*  nins:u32 fact*
//! fact:  pred:str  arity:u32  arity × node:u32   -- in commit order
//! ```
//!
//! All integers are little-endian. Decoding is defensive: every length is
//! bounds-checked against the remaining buffer and every index against
//! the nodes read so far, so a corrupt payload that slipped past the CRC
//! (or a deliberately hostile file) produces an error, never a panic or an
//! absurd allocation.

use ldl_storage::IdRows;
use ldl_value::fxhash::FastMap;
use ldl_value::intern::{self, Node};
use ldl_value::{Fact, Symbol, ValueId};

/// Node tags. Stable on-disk numbers — append-only.
pub(crate) const NODE_INT: u8 = 0;
const NODE_STR: u8 = 1;
const NODE_ATOM: u8 = 2;
const NODE_COMPOUND: u8 = 3;
pub(crate) const NODE_SET: u8 = 4;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an encoded buffer. Every read either
/// returns data that was fully present or a description of what was
/// missing — offsets are tracked so corruption reports can point at the
/// exact byte.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Current byte offset from the start of the buffer.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    #[inline]
    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    #[inline]
    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    #[inline]
    pub(crate) fn i64(&mut self, what: &str) -> Result<i64, String> {
        Ok(self.u64(what)? as i64)
    }

    pub(crate) fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|e| format!("{what} is not UTF-8: {e}"))
    }
}

/// A node table being written at the end of a buffer: each distinct value
/// once, children before their parents.
pub(crate) struct NodeTable {
    index: FastMap<ValueId, u32>,
    out: Vec<u8>,
    /// Where the node count goes once it is known.
    count_at: usize,
}

impl NodeTable {
    /// Start a table at the end of `out`.
    pub(crate) fn new(mut out: Vec<u8>) -> NodeTable {
        let count_at = out.len();
        put_u32(&mut out, 0);
        NodeTable {
            index: FastMap::default(),
            out,
            count_at,
        }
    }

    /// `id`'s index in the table, appending its structure (children
    /// first) when it is new.
    pub(crate) fn add(&mut self, id: ValueId) -> u32 {
        if let Some(&idx) = self.index.get(&id) {
            return idx;
        }
        if let Some(i) = intern::int_of(id) {
            // An immediate and an arena integer write the same entry.
            self.out.push(NODE_INT);
            put_u64(&mut self.out, i as u64);
        } else {
            let node = intern::node(id).expect("a non-integer is an arena node");
            let kids: Vec<u32> = match node {
                Node::Compound(_, kids) | Node::Set(kids) => {
                    kids.iter().map(|&k| self.add(k)).collect()
                }
                _ => Vec::new(),
            };
            let out = &mut self.out;
            match node {
                Node::Str(s) => {
                    out.push(NODE_STR);
                    put_str(out, s);
                }
                Node::Atom(a) => {
                    out.push(NODE_ATOM);
                    put_str(out, a.as_str());
                }
                Node::Compound(f, _) => {
                    out.push(NODE_COMPOUND);
                    put_str(out, f.as_str());
                }
                Node::Set(_) => out.push(NODE_SET),
                _ => unreachable!("int_of reads every integer"),
            }
            if matches!(node, Node::Compound(..) | Node::Set(_)) {
                put_u32(out, kids.len() as u32);
                for k in kids {
                    put_u32(out, k);
                }
            }
        }
        let idx = self.index.len() as u32;
        self.index.insert(id, idx);
        idx
    }

    /// Close the table, writing its node count, and hand back the buffer.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let count = (self.index.len() as u32).to_le_bytes();
        self.out[self.count_at..self.count_at + 4].copy_from_slice(&count);
        self.out
    }
}

/// Read a node table and intern it under one interner lock
/// ([`intern::batch`]), returning each node's id by index.
pub(crate) fn read_nodes(c: &mut Cursor<'_>) -> Result<Vec<ValueId>, String> {
    let count = c.u32("node count")? as usize;
    if count > c.remaining() {
        return Err(format!("node count {count} exceeds remaining bytes"));
    }
    intern::batch(|b| {
        let mut ids = Vec::with_capacity(count);
        let mut kids = Vec::new();
        for _ in 0..count {
            let id = match c.u8("node tag")? {
                NODE_INT => b.int(c.i64("int node")?),
                NODE_STR => b.str(c.str("string node")?),
                NODE_ATOM => b.atom(Symbol::intern(c.str("atom node")?)),
                NODE_COMPOUND => {
                    let functor = Symbol::intern(c.str("functor name")?);
                    let n = c.u32("child count")? as usize;
                    read_ids(c, &ids, n, "child index", &mut kids)?;
                    if kids.is_empty() {
                        return Err("compound node with zero children".into());
                    }
                    b.compound(functor, &kids)
                }
                NODE_SET => {
                    // The writer emits the canonical (sorted, deduped)
                    // element order, but a hostile file may not have —
                    // `set` re-canonicalizes.
                    let n = c.u32("child count")? as usize;
                    read_ids(c, &ids, n, "child index", &mut kids)?;
                    b.set(&mut kids)
                }
                other => return Err(format!("unknown node tag {other}")),
            };
            ids.push(id);
        }
        Ok(ids)
    })
}

/// Read `n` node indexes into `out` (cleared first), each resolved
/// through `ids`, the nodes read so far.
pub(crate) fn read_ids(
    c: &mut Cursor<'_>,
    ids: &[ValueId],
    n: usize,
    what: &str,
    out: &mut Vec<ValueId>,
) -> Result<(), String> {
    out.clear();
    if n > c.remaining() / 4 {
        return Err(format!("{n} {what}es exceed remaining bytes"));
    }
    for _ in 0..n {
        let idx = c.u32(what)? as usize;
        out.push(*ids.get(idx).ok_or_else(|| {
            format!(
                "{what} {idx} is not an earlier node (table has {})",
                ids.len()
            )
        })?);
    }
    Ok(())
}

/// Encode one committed mutation batch — the net deletions and insertions,
/// in commit order — as a log-record payload.
pub fn encode_batch(del: &[Fact], ins: &[Fact]) -> Vec<u8> {
    let mut nodes = NodeTable::new(Vec::with_capacity(16 + 32 * (del.len() + ins.len())));
    let args = del.iter().chain(ins).flat_map(Fact::args);
    let idxs: Vec<u32> = args.map(|a| nodes.add(intern::id_of(a))).collect();
    let mut out = nodes.finish();
    let mut idxs = idxs.into_iter();
    for facts in [del, ins] {
        put_u32(&mut out, facts.len() as u32);
        for f in facts {
            put_str(&mut out, f.pred().as_str());
            put_u32(&mut out, f.arity() as u32);
            for idx in idxs.by_ref().take(f.arity()) {
                put_u32(&mut out, idx);
            }
        }
    }
    out
}

/// Decode a log-record payload into its interned `(deletions,
/// insertions)`, the node table under one interner lock. Fails (with a
/// description, for a [`crate::Truncation`] report) on any truncation, bad
/// tag or index, or trailing garbage.
pub(crate) fn decode_batch(payload: &[u8]) -> Result<(IdRows, IdRows), String> {
    let mut c = Cursor::new(payload);
    let ids = read_nodes(&mut c)?;
    let del = read_facts(&mut c, &ids, "deletion count")?;
    let ins = read_facts(&mut c, &ids, "insertion count")?;
    if !c.is_empty() {
        return Err(format!(
            "{} bytes of trailing garbage after batch",
            c.remaining()
        ));
    }
    Ok((del, ins))
}

/// Read one list of a record's facts: a count, then each fact's predicate,
/// arity and node indexes.
fn read_facts(c: &mut Cursor<'_>, ids: &[ValueId], what: &str) -> Result<IdRows, String> {
    let n = c.u32(what)? as usize;
    // A fact takes at least its name length and arity: 8 bytes.
    if n > c.remaining() / 8 {
        return Err(format!("{what} {n} exceeds remaining bytes"));
    }
    let mut facts = IdRows::default();
    let mut row = Vec::new();
    for _ in 0..n {
        let pred = Symbol::intern(c.str("predicate name")?);
        let arity = c.u32("fact arity")? as usize;
        read_ids(c, ids, arity, "row index", &mut row)?;
        facts.push(pred, &row);
    }
    Ok(facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_value::Value;

    fn sample_facts() -> Vec<Fact> {
        vec![
            Fact::new("p", vec![]),
            Fact::new("edge", vec![Value::int(1), Value::int(-7)]),
            Fact::new("s", vec![Value::str("hi \"there\"")]),
            Fact::new("a", vec![Value::atom("john")]),
            Fact::new(
                "deep",
                vec![Value::compound(
                    "f",
                    vec![
                        Value::set(vec![Value::int(2), Value::int(1)]),
                        Value::compound("g", vec![Value::empty_set()]),
                    ],
                )],
            ),
        ]
    }

    #[test]
    fn batch_round_trip() {
        let facts = sample_facts();
        let payload = encode_batch(&facts[..2], &facts[2..]);
        let (del, ins) = decode_batch(&payload).unwrap();
        assert_eq!(del, IdRows::intern(&facts[..2]));
        assert_eq!(ins, IdRows::intern(&facts[2..]));
        // Empty batch round-trips too.
        let (d, i) = decode_batch(&encode_batch(&[], &[])).unwrap();
        assert_eq!((d, i), (IdRows::default(), IdRows::default()));
    }

    #[test]
    fn encoding_is_structural_and_deterministic() {
        // Set spelling order does not matter: canonical sets encode
        // identically.
        let a = Fact::new("q", vec![Value::set(vec![Value::int(1), Value::int(2)])]);
        let b = Fact::new("q", vec![Value::set(vec![Value::int(2), Value::int(1)])]);
        assert_eq!(encode_batch(&[], &[a]), encode_batch(&[], &[b]));
    }

    #[test]
    fn shared_values_share_a_node() {
        // `1` is written once, for both rows and inside the set.
        let one = Value::int(1);
        let facts = [
            Fact::new("e", vec![one.clone(), one.clone()]),
            Fact::new("w", vec![Value::set(vec![one])]),
        ];
        let payload = encode_batch(&[], &facts);
        assert_eq!(&payload[..4], &2u32.to_le_bytes(), "two nodes: 1 and {{1}}");
        assert_eq!(decode_batch(&payload).unwrap().1, IdRows::intern(&facts));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let payload = encode_batch(&[], &sample_facts());
        for cut in 0..payload.len() {
            let res = decode_batch(&payload[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        // Trailing garbage.
        let mut payload = encode_batch(&[], &[Fact::new("p", vec![Value::int(1)])]);
        payload.push(0);
        assert!(decode_batch(&payload).is_err());
        // Every single-bit corruption either decodes to *something* (if it
        // only changed a payload constant) or errors — never panics.
        let clean = encode_batch(&[], &sample_facts());
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                let _ = decode_batch(&bad);
            }
        }
        // A hostile length prefix cannot force a huge allocation.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        assert!(decode_batch(&hostile).is_err());
    }

    /// Node 0 is `7` and, given a `child`, node 1 a set of that one child;
    /// the one insertion is `p(row)`.
    fn forged(child: Option<u32>, row: u32) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, 1 + child.is_some() as u32);
        b.push(NODE_INT);
        put_u64(&mut b, 7);
        if let Some(child) = child {
            b.push(NODE_SET);
            put_u32(&mut b, 1);
            put_u32(&mut b, child);
        }
        put_u32(&mut b, 0);
        put_u32(&mut b, 1);
        put_str(&mut b, "p");
        put_u32(&mut b, 1);
        put_u32(&mut b, row);
        b
    }

    #[test]
    fn indexes_must_name_earlier_nodes() {
        let mut seven = IdRows::default();
        seven.push(Symbol::intern("p"), &[intern::mk_int(7)]);
        assert_eq!(decode_batch(&forged(None, 0)).unwrap().1, seven);
        assert!(decode_batch(&forged(Some(0), 1)).is_ok());
        // A set naming itself, and a row past the table.
        let err = decode_batch(&forged(Some(1), 1)).unwrap_err();
        assert!(
            err.contains("child index 1 is not an earlier node"),
            "{err}"
        );
        let err = decode_batch(&forged(None, 1)).unwrap_err();
        assert!(err.contains("row index 1 is not an earlier node"), "{err}");
    }
}
