//! Hash-consing interner: `u32` ids for ground values.
//!
//! Bottom-up evaluation (§3.2) spends its time on duplicate-elimination
//! inserts, hash-index probes, and grouping — all of which hash and compare
//! ground values. Interning every distinct value once and handing out a
//! [`ValueId`] makes those operations O(1) per value: equal values *are*
//! equal ids, and hashing a tuple hashes a few `u32`s instead of walking
//! trees.
//!
//! **Integers are their own ids.** Bit 31 of a [`ValueId`] tags an
//! *immediate* signed integer in `−2^30 ..= 2^30 − 1`, stored in the low 31
//! bits: every integer in that range has exactly that id and never enters
//! the arena, so decoding it ([`int_of`]) is a tag test and a shift, and
//! interning it ([`mk_int`]) takes no lock. Integers outside the range are
//! [`Node::Int`] arena nodes like any other value, so id equality is still
//! value equality. Arena ids stay below `1 << 31`, so no arena id can alias
//! an immediate.
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
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::fxhash::FastMap;
use crate::symbol::Symbol;
use crate::value::Value;

/// An interned ground value. Two ids are equal iff the values are equal.
///
/// Ids are process-global and never expire. Their numeric order is
/// *assignment* order — meaningless and run-dependent; use [`cmp_ids`] for
/// the structural total order. An id with bit 31 set is an immediate
/// integer (see the module docs); any other id indexes the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ValueId(u32);

impl ValueId {
    /// Initialization filler for fixed-capacity id buffers (stack-allocated
    /// probe keys and the like): the id of the first value ever interned.
    /// Slots holding the filler must never be read as values.
    pub const FILLER: ValueId = ValueId(0);

    #[inline]
    fn is_immediate(self) -> bool {
        self.0 & IMMEDIATE != 0
    }
}

/// The tag bit of an immediate integer id.
const IMMEDIATE: u32 = 1 << 31;

/// The immediate integer range, `−2^30 ..= 2^30 − 1`: the signed values
/// the 31 bits below the tag hold.
const IMMEDIATE_INTS: std::ops::RangeInclusive<i64> = -(1 << 30)..=(1 << 30) - 1;

/// The immediate id of `i`, or `None` if `i` lives in the arena — the one
/// place the range is decided.
#[inline]
fn immediate(i: i64) -> Option<ValueId> {
    IMMEDIATE_INTS
        .contains(&i)
        .then_some(ValueId(IMMEDIATE | (i as u32 & !IMMEDIATE)))
}

/// One arena node: the shallow structure of a value, children by id.
/// An immediate integer has no node.
///
/// Set children are sorted by [`cmp_ids`] and deduplicated — the canonical
/// form, so structurally equal sets intern to the same node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// An integer constant outside the immediate range.
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
/// 20 doubling chunks cover every arena id, `0 .. 1 << 31`.
const CHUNK_COUNT: usize = 20;

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
    intern_locked(arena, &mut ids, node)
}

/// [`intern_node`] with the `ids` guard already held — the one writer
/// path, shared by single interns and a [`Batch`]. Always inlined, so a
/// single intern's hit path stays one lock and one lookup.
#[inline(always)]
fn intern_locked(arena: &Arena, ids: &mut FastMap<Node, u32>, node: Node) -> ValueId {
    if let Some(&id) = ids.get(&node) {
        return ValueId(id);
    }
    let idx = arena.len.load(Ordering::Relaxed);
    assert!(idx < IMMEDIATE, "too many interned values");
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
    // reader yet, and the `ids` mutex (held by the caller) makes this the
    // only writer.
    unsafe { ptr.add(offset).write(node.clone()) };
    arena.len.store(idx + 1, Ordering::Release);
    ids.insert(node, idx);
    ValueId(idx)
}

/// The arena node for `id` — the lock-free hot read path — or `None` for
/// an immediate integer, which has none ([`int_of`] reads it).
#[inline]
pub fn node(id: ValueId) -> Option<&'static Node> {
    (!id.is_immediate()).then(|| arena_node(id))
}

/// The arena node of a non-immediate `id`.
#[inline]
fn arena_node(id: ValueId) -> &'static Node {
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

/// The integer `id` stands for, if it is one: an immediate decoded from
/// its bits, an arena integer read from its node. The one way integers
/// are read.
#[inline]
pub fn int_of(id: ValueId) -> Option<i64> {
    if id.is_immediate() {
        // Shift the tag out, then sign-extend the 31-bit payload.
        return Some(i64::from((id.0 << 1) as i32 >> 1));
    }
    match arena_node(id) {
        Node::Int(x) => Some(*x),
        _ => None,
    }
}

/// Number of distinct values in the arena so far (the interner size
/// statistic). Immediate integers take no slot.
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
    if a.is_immediate() || b.is_immediate() {
        // Integers sort first.
        return match (int_of(a), int_of(b)) {
            (Some(x), Some(y)) => x.cmp(&y),
            (Some(_), None) => Less,
            (None, _) => Greater,
        };
    }
    let (na, nb) = (arena_node(a), arena_node(b));
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

/// Intern an integer: its immediate id, or an arena node outside
/// `−2^30 ..= 2^30 − 1`.
#[inline]
pub fn mk_int(i: i64) -> ValueId {
    immediate(i).unwrap_or_else(|| intern_node(Node::Int(i)))
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

/// Many interns under one lock: see [`batch`].
pub struct Batch {
    arena: &'static Arena,
    ids: MutexGuard<'static, FastMap<Node, u32>>,
}

impl Batch {
    /// Intern an integer — the same id [`mk_int`] gives.
    pub fn int(&mut self, i: i64) -> ValueId {
        immediate(i).unwrap_or_else(|| self.node(Node::Int(i)))
    }

    /// Intern a string constant.
    pub fn str(&mut self, s: &str) -> ValueId {
        self.node(Node::Str(Arc::from(s)))
    }

    /// Intern an atom.
    pub fn atom(&mut self, sym: Symbol) -> ValueId {
        self.node(Node::Atom(sym))
    }

    /// Intern `functor(args…)`, as [`mk_compound`] does.
    pub fn compound(&mut self, functor: Symbol, args: &[ValueId]) -> ValueId {
        if args.is_empty() {
            self.atom(functor)
        } else {
            self.node(Node::Compound(functor, args.into()))
        }
    }

    /// Intern a set from arbitrary elements, as [`mk_set`] does; `elems`
    /// is left sorted and deduplicated.
    pub fn set(&mut self, elems: &mut Vec<ValueId>) -> ValueId {
        elems.sort_unstable_by(|&a, &b| cmp_ids(a, b));
        elems.dedup();
        self.node(Node::Set(elems.as_slice().into()))
    }

    fn node(&mut self, node: Node) -> ValueId {
        intern_locked(self.arena, &mut self.ids, node)
    }
}

/// Run `f` with the interner's write lock held once for all its interns
/// — a bulk load (a snapshot's node table) pays one lock, not one per
/// value. Lock-free reads ([`node`], [`int_of`], [`cmp_ids`]) and
/// [`mk_int`] of an immediate work inside `f`; any
/// other intern call (`mk_*`, [`id_of`], another `batch`) on this thread
/// deadlocks, and other threads' interns wait until `f` returns.
pub fn batch<R>(f: impl FnOnce(&mut Batch) -> R) -> R {
    let arena = arena();
    let ids = arena.ids.lock().expect("value interner poisoned");
    f(&mut Batch { arena, ids })
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

/// The id of `v` if every node of it is interned (an immediate integer
/// needs none), interning nothing —
/// the probe for a value that may never have been stored. `None` means no
/// stored row can hold `v`, and a rejected probe leaves the process-global
/// interner as it was.
pub fn find(v: &Value) -> Option<ValueId> {
    let ids = arena().ids.lock().expect("value interner poisoned");
    find_locked(&ids, v)
}

fn find_locked(ids: &FastMap<Node, u32>, v: &Value) -> Option<ValueId> {
    let node = match v {
        Value::Int(i) => match immediate(*i) {
            Some(id) => return Some(id),
            None => Node::Int(*i),
        },
        Value::Str(s) => Node::Str(Arc::clone(s)),
        Value::Atom(a) => Node::Atom(*a),
        Value::Compound(c) => Node::Compound(
            c.functor(),
            c.args()
                .iter()
                .map(|a| find_locked(ids, a))
                .collect::<Option<_>>()?,
        ),
        Value::Set(s) => Node::Set(
            s.iter()
                .map(|e| find_locked(ids, e))
                .collect::<Option<_>>()?,
        ),
    };
    ids.get(&node).map(|&id| ValueId(id))
}

/// Reconstruct the structural [`Value`] for `id` — the display/public-API
/// boundary; never on the evaluation hot path.
pub fn resolve(id: ValueId) -> Value {
    if let Some(i) = int_of(id) {
        return Value::Int(i);
    }
    match arena_node(id) {
        Node::Int(_) => unreachable!("int_of reads every integer"),
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
    fn batch_interns_what_mk_interns() {
        let s: Arc<str> = Arc::from("batch_str");
        let (i, big, st, at, f, set, elems) = batch(|b| {
            let i = b.int(7);
            let big = b.int(1 << 40);
            let st = b.str("batch_str");
            let at = b.atom("batch_atom".into());
            let f = b.compound("batch_f".into(), &[i, st]);
            let mut elems = vec![f, i, at, i];
            let set = b.set(&mut elems);
            (i, big, st, at, f, set, elems)
        });
        assert_eq!(i, mk_int(7));
        assert_eq!(big, mk_int(1 << 40));
        assert_eq!(st, mk_str(&s));
        assert_eq!(at, mk_atom("batch_atom".into()));
        assert_eq!(f, mk_compound("batch_f".into(), vec![i, st]));
        assert_eq!(set, mk_set(vec![at, f, i]));
        assert_eq!(elems, vec![i, at, f], "left in canonical order");
        assert_eq!(
            batch(|b| b.compound("batch_a".into(), &[])),
            mk_atom("batch_a".into())
        );
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0, 4096));
        assert_eq!(locate(4095), (0, 4095, 4096));
        assert_eq!(locate(4096), (1, 0, 8192));
        assert_eq!(locate(12287), (1, 8191, 8192));
        assert_eq!(locate(12288), (2, 0, 16384));
        let (c, o, cap) = locate(IMMEDIATE - 1);
        assert!(c < CHUNK_COUNT && o < cap);
    }
}
