//! Hash-consing interner: dense `u32` ids for ground values.
//!
//! Bottom-up evaluation (§3.2) spends its time on duplicate-elimination
//! inserts, hash-index probes, and grouping — all of which hash and compare
//! ground values. Interning every distinct value once and handing out a
//! [`ValueId`] makes those operations O(1) per value: equal values *are*
//! equal ids, and hashing a tuple hashes a few `u32`s instead of walking
//! trees.
//!
//! Like [`crate::Symbol`], the interner is process-global and append-only.
//! The id table is a chunked arena published with release/acquire atomics,
//! so [`node`] — the hot read path, shared read-mostly across the parallel
//! evaluation workers — takes no lock; only inserting a *new* value takes
//! the write mutex.
//!
//! **Ids carry no semantic order.** Id assignment depends on evaluation
//! order (and, under parallel evaluation, on thread interleaving), so
//! anything deterministic must order by *structure*: [`cmp_ids`] implements
//! exactly the total order of `Value::cmp` (Int < Str < Atom < Compound <
//! Set; names lexicographic), with an `a == b` fast path that hash-consing
//! makes sound. Set nodes keep their children sorted by that order, which
//! is why a resolved set prints identically to its structural counterpart
//! and why §2.4 domination comparisons are unaffected by interning.

use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::fxhash::FastMap;
use crate::symbol::Symbol;
use crate::value::Value;

/// An interned ground value. Two ids are equal iff the values are equal.
///
/// Ids are process-global and never expire. Their numeric order is
/// *assignment* order — meaningless and run-dependent; use [`cmp_ids`] for
/// the structural total order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValueId(u32);

impl ValueId {
    /// Initialization filler for fixed-capacity id buffers (stack-allocated
    /// probe keys and the like): the id of the first value ever interned.
    /// Slots holding the filler must never be read as values.
    pub const FILLER: ValueId = ValueId(0);
}

/// One interned node: the shallow structure of a value, children by id.
///
/// Set children are sorted by [`cmp_ids`] and deduplicated — the canonical
/// form, so structurally equal sets intern to the same node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(Arc<str>),
    /// An atomic constant.
    Atom(Symbol),
    /// A compound term `f(t₁, …, tₙ)`, n ≥ 1.
    Compound(Symbol, Box<[ValueId]>),
    /// A canonical finite set (children sorted by [`cmp_ids`], deduped).
    Set(Box<[ValueId]>),
}

impl Node {
    fn rank(&self) -> u8 {
        match self {
            Node::Int(_) => 0,
            Node::Str(_) => 1,
            Node::Atom(_) => 2,
            Node::Compound(..) => 3,
            Node::Set(_) => 4,
        }
    }
}

/// Chunk 0 holds `1 << FIRST_CHUNK_BITS` nodes; each later chunk doubles.
const FIRST_CHUNK_BITS: u32 = 12;
/// 21 doubling chunks cover the whole `u32` id space.
const CHUNK_COUNT: usize = 21;

/// `(chunk, offset, capacity)` of arena index `idx`.
#[inline]
fn locate(idx: u32) -> (usize, usize, usize) {
    let bucket = ((idx >> FIRST_CHUNK_BITS) + 1).ilog2();
    let start = ((1u64 << bucket) - 1) << FIRST_CHUNK_BITS;
    let cap = 1usize << (FIRST_CHUNK_BITS + bucket);
    (bucket as usize, (idx as u64 - start) as usize, cap)
}

struct Arena {
    /// Lazily allocated, never freed; slot `i` is valid once `len > index`.
    chunks: [AtomicPtr<Node>; CHUNK_COUNT],
    /// Published length: a `Release` store after the slot write makes the
    /// node visible to any reader that `Acquire`-loads a length past it.
    len: AtomicU32,
    /// The hash-consing table, and the sole writer gate.
    ids: Mutex<FastMap<Node, u32>>,
}

#[inline]
fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
        len: AtomicU32::new(0),
        ids: Mutex::new(FastMap::default()),
    })
}

/// Intern `node`, returning the existing id if an equal node is present.
fn intern_node(node: Node) -> ValueId {
    let arena = arena();
    let mut ids = arena.ids.lock().expect("value interner poisoned");
    if let Some(&id) = ids.get(&node) {
        return ValueId(id);
    }
    let idx = arena.len.load(Ordering::Relaxed);
    assert!(idx != u32::MAX, "too many interned values");
    let (chunk, offset, cap) = locate(idx);
    let mut ptr = arena.chunks[chunk].load(Ordering::Acquire);
    if ptr.is_null() {
        // Leak an uninitialized chunk; slots are written before `len`
        // publishes them, so readers never see an uninitialized node.
        let chunk_mem: Box<[std::mem::MaybeUninit<Node>]> = Box::new_uninit_slice(cap);
        ptr = Box::leak(chunk_mem).as_mut_ptr().cast::<Node>();
        arena.chunks[chunk].store(ptr, Ordering::Release);
    }
    // SAFETY: `offset < cap` by `locate`, the slot is below `len` for no
    // reader yet, and the `ids` mutex makes this the only writer.
    unsafe { ptr.add(offset).write(node.clone()) };
    arena.len.store(idx + 1, Ordering::Release);
    ids.insert(node, idx);
    ValueId(idx)
}

/// The interned node for `id` — the lock-free hot read path.
#[inline]
pub fn node(id: ValueId) -> &'static Node {
    let arena = arena();
    #[cfg(debug_assertions)]
    {
        let len = arena.len.load(Ordering::Acquire);
        assert!(id.0 < len, "ValueId {} out of bounds (len {len})", id.0);
    }
    let (chunk, offset, _) = locate(id.0);
    let ptr = arena.chunks[chunk].load(Ordering::Acquire);
    // SAFETY: `id` was handed out by `intern_node`, which wrote the slot
    // and its chunk pointer before publishing `len`; the id reached this
    // thread through some synchronization that happened after.
    unsafe { &*ptr.add(offset) }
}

/// Number of distinct values interned so far (the interner size statistic).
#[inline]
pub fn len() -> usize {
    arena().len.load(Ordering::Acquire) as usize
}

/// The structural total order on interned values — exactly `Value::cmp`
/// (Int < Str < Atom < Compound < Set; atom/functor names lexicographic;
/// compound by name, then arity, then args; sets lexicographic on their
/// canonical element order). Equal ids short-circuit: hash-consing
/// guarantees `a == b ⇔` equal values.
pub fn cmp_ids(a: ValueId, b: ValueId) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    if a == b {
        return Equal;
    }
    let (na, nb) = (node(a), node(b));
    match (na, nb) {
        (Node::Int(x), Node::Int(y)) => x.cmp(y),
        (Node::Str(x), Node::Str(y)) => x.cmp(y),
        (Node::Atom(x), Node::Atom(y)) => x.as_str().cmp(y.as_str()),
        (Node::Compound(f, xs), Node::Compound(g, ys)) => f
            .as_str()
            .cmp(g.as_str())
            .then_with(|| xs.len().cmp(&ys.len()))
            .then_with(|| cmp_id_slices(xs, ys)),
        (Node::Set(xs), Node::Set(ys)) => cmp_id_slices(xs, ys),
        _ => na.rank().cmp(&nb.rank()),
    }
}

/// Lexicographic [`cmp_ids`] on two id slices.
pub fn cmp_id_slices(xs: &[ValueId], ys: &[ValueId]) -> std::cmp::Ordering {
    for (&x, &y) in xs.iter().zip(ys) {
        let ord = cmp_ids(x, y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    xs.len().cmp(&ys.len())
}

/// Intern an integer.
#[inline]
pub fn mk_int(i: i64) -> ValueId {
    // Small non-negative integers dominate generated EDBs and arithmetic;
    // serve them from a lock-free table.
    static SMALL: OnceLock<[ValueId; 256]> = OnceLock::new();
    if (0..256).contains(&i) {
        return SMALL.get_or_init(|| std::array::from_fn(|k| intern_node(Node::Int(k as i64))))
            [i as usize];
    }
    intern_node(Node::Int(i))
}

/// Intern a string constant.
pub fn mk_str(s: &Arc<str>) -> ValueId {
    intern_node(Node::Str(Arc::clone(s)))
}

/// Intern an atom.
pub fn mk_atom(sym: Symbol) -> ValueId {
    intern_node(Node::Atom(sym))
}

/// Intern `functor(args…)`; a nullary application normalizes to an atom,
/// mirroring `Value::compound`.
pub fn mk_compound(functor: Symbol, args: Vec<ValueId>) -> ValueId {
    if args.is_empty() {
        mk_atom(functor)
    } else {
        intern_node(Node::Compound(functor, args.into()))
    }
}

/// Intern a set from arbitrary elements: sorts by [`cmp_ids`] and dedups
/// (equal values share an id, so duplicates are adjacent after the sort).
pub fn mk_set(mut elems: Vec<ValueId>) -> ValueId {
    elems.sort_unstable_by(|&a, &b| cmp_ids(a, b));
    elems.dedup();
    intern_node(Node::Set(elems.into()))
}

/// Intern a set whose elements are already in canonical order (sorted by
/// [`cmp_ids`], no duplicates) — the merge operations produce these.
pub fn mk_set_sorted(elems: Vec<ValueId>) -> ValueId {
    debug_assert!(
        elems
            .windows(2)
            .all(|w| cmp_ids(w[0], w[1]) == std::cmp::Ordering::Less),
        "set elements not canonical"
    );
    intern_node(Node::Set(elems.into()))
}

/// The empty set `{}`.
pub fn empty_set() -> ValueId {
    static EMPTY: OnceLock<ValueId> = OnceLock::new();
    *EMPTY.get_or_init(|| intern_node(Node::Set(Box::from([]))))
}

/// Intern a structural [`Value`]. Set elements arrive sorted by
/// `Value::cmp`, which coincides with [`cmp_ids`], so no re-sort happens.
pub fn id_of(v: &Value) -> ValueId {
    match v {
        Value::Int(i) => mk_int(*i),
        Value::Str(s) => mk_str(s),
        Value::Atom(a) => mk_atom(*a),
        Value::Compound(c) => intern_node(Node::Compound(
            c.functor(),
            c.args().iter().map(id_of).collect(),
        )),
        Value::Set(s) => intern_node(Node::Set(s.iter().map(id_of).collect())),
    }
}

/// Reconstruct the structural [`Value`] for `id` — the display/public-API
/// boundary; never on the evaluation hot path.
pub fn resolve(id: ValueId) -> Value {
    match node(id) {
        Node::Int(i) => Value::Int(*i),
        Node::Str(s) => Value::Str(Arc::clone(s)),
        Node::Atom(a) => Value::Atom(*a),
        Node::Compound(f, args) => Value::compound(*f, args.iter().map(|&a| resolve(a)).collect()),
        Node::Set(elems) => Value::set(elems.iter().map(|&e| resolve(e))),
    }
}

impl std::fmt::Display for ValueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_one_id() {
        let a = id_of(&Value::set(vec![Value::int(2), Value::int(1)]));
        let b = id_of(&Value::set(vec![Value::int(1), Value::int(2)]));
        assert_eq!(a, b);
        let c = mk_set(vec![mk_int(2), mk_int(1), mk_int(2)]);
        assert_eq!(a, c);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let vals = [
            Value::int(-7),
            Value::str("hi"),
            Value::atom("john"),
            Value::compound("f", vec![Value::int(1), Value::atom("a")]),
            Value::set(vec![
                Value::set(vec![Value::int(1)]),
                Value::int(3),
                Value::compound("g", vec![Value::str("x")]),
            ]),
            Value::empty_set(),
        ];
        for v in &vals {
            assert_eq!(&resolve(id_of(v)), v);
        }
    }

    #[test]
    fn cmp_ids_mirrors_value_cmp() {
        let vals = [
            Value::int(1),
            Value::int(2),
            Value::str("a"),
            Value::atom("aa_intern_order"),
            Value::atom("zz_intern_order"),
            Value::compound("f", vec![Value::int(1)]),
            Value::compound("f", vec![Value::int(1), Value::int(1)]),
            Value::compound("g", vec![Value::int(0)]),
            Value::set(vec![Value::int(1)]),
            Value::set(vec![Value::int(1), Value::int(2)]),
        ];
        // Intern in reverse so raw-id order disagrees with structure.
        let ids: Vec<ValueId> = vals.iter().rev().map(id_of).collect();
        for (i, (v1, id1)) in vals.iter().zip(ids.iter().rev()).enumerate() {
            for (v2, id2) in vals.iter().zip(ids.iter().rev()).skip(i) {
                assert_eq!(cmp_ids(*id1, *id2), v1.cmp(v2), "{v1} vs {v2}");
            }
        }
    }

    #[test]
    fn nullary_compound_normalizes_to_atom() {
        assert_eq!(mk_compound("a".into(), vec![]), mk_atom("a".into()));
    }

    #[test]
    fn empty_set_id_is_stable() {
        assert_eq!(empty_set(), id_of(&Value::empty_set()));
        assert_eq!(empty_set(), mk_set(vec![]));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let build = |k: i64| {
            Value::set(vec![
                Value::compound("f", vec![Value::int(k), Value::int(k + 1)]),
                Value::int(k % 16),
            ])
        };
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || (0..512).map(|k| id_of(&build(k))).collect::<Vec<_>>())
            })
            .collect();
        let results: Vec<Vec<ValueId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "threads must agree on every id");
        }
        for (k, &id) in results[0].iter().enumerate() {
            assert_eq!(resolve(id), build(k as i64));
        }
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0, 4096));
        assert_eq!(locate(4095), (0, 4095, 4096));
        assert_eq!(locate(4096), (1, 0, 8192));
        assert_eq!(locate(12287), (1, 8191, 8192));
        assert_eq!(locate(12288), (2, 0, 16384));
        let (c, o, cap) = locate(u32::MAX - 1);
        assert!(c < CHUNK_COUNT && o < cap);
    }
}
