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
//! The nodes live in a process-global, append-only arena — the same code
//! that holds [`crate::Symbol`]'s names, in a second instance with its own
//! lock. [`node`], the hot read path, takes no lock; only interning a *new*
//! value takes the write lock, and every intern goes through one writer,
//! [`Batch`], which alone applies the immediate-integer test, the
//! nullary-compound rule and set canonicalization.
//!
//! **Ids carry no semantic order.** Id assignment depends on evaluation
//! order, so anything deterministic must order by *structure*: [`cmp_ids`]
//! implements exactly the total order of `Value::cmp` (Int < Str < Atom <
//! Compound < Set; names lexicographic), with an `a == b` fast path that
//! hash-consing makes sound. Set nodes keep their children sorted by that
//! order, which is why a resolved set prints identically to its structural
//! counterpart and why §2.4 domination comparisons are unaffected by
//! interning.

use std::sync::{Arc, OnceLock};

use crate::arena::{self, Arena, Writer};
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

    /// The id's 32 bits — equal bits, equal ids — for packing ids into a
    /// wider key. Like the id's numeric order, the bits mean nothing else.
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    #[inline]
    fn is_immediate(self) -> bool {
        self.0 & IMMEDIATE != 0
    }
}

/// The tag bit of an immediate integer id: the arena's capacity, so no
/// arena id has it.
const IMMEDIATE: u32 = arena::CAPACITY;

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

/// The value arena: one [`Node`] per distinct non-immediate value.
static VALUES: Arena<Node> = Arena::new();

/// The arena node for `id` — the lock-free hot read path — or `None` for
/// an immediate integer, which has none ([`int_of`] reads it).
#[inline]
pub fn node(id: ValueId) -> Option<&'static Node> {
    (!id.is_immediate()).then(|| VALUES.get(id.0))
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
    arena_int(id)
}

/// [`int_of`] of an arena id, out of line: a caller's loop inlines only the
/// immediate decode.
#[inline(never)]
fn arena_int(id: ValueId) -> Option<i64> {
    match VALUES.get(id.0) {
        Node::Int(x) => Some(*x),
        _ => None,
    }
}

/// Number of distinct values in the arena so far (the interner size
/// statistic). Immediate integers take no slot.
#[inline]
pub fn len() -> usize {
    VALUES.len() as usize
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
    let (na, nb) = (VALUES.get(a.0), VALUES.get(b.0));
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
/// `−2^30 ..= 2^30 − 1`. An immediate takes no lock. Out of line, so a
/// caller's loop holds a call, not the [`Batch`] around it.
pub fn mk_int(i: i64) -> ValueId {
    batch(|b| b.int(i))
}

/// Intern a string constant.
pub fn mk_str(s: &Arc<str>) -> ValueId {
    batch(|b| b.str(Arc::clone(s)))
}

/// Intern an atom.
pub fn mk_atom(sym: Symbol) -> ValueId {
    batch(|b| b.atom(sym))
}

/// Intern `functor(args…)`; a nullary application normalizes to an atom,
/// mirroring `Value::compound`.
pub fn mk_compound(functor: Symbol, args: Vec<ValueId>) -> ValueId {
    batch(|b| b.compound(functor, &args))
}

/// Intern a set from arbitrary elements: sorts by [`cmp_ids`] and dedups
/// (equal values share an id, so duplicates are adjacent after the sort).
pub fn mk_set(mut elems: Vec<ValueId>) -> ValueId {
    batch(|b| b.set(&mut elems))
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
    batch(|b| b.node(Node::Set(elems.into())))
}

/// The empty set `{}`.
pub fn empty_set() -> ValueId {
    static EMPTY: OnceLock<ValueId> = OnceLock::new();
    *EMPTY.get_or_init(|| mk_set_sorted(Vec::new()))
}

/// The one writer of the value arena: every intern, single or bulk, is a
/// call on a `Batch` (see [`batch`]).
pub struct Batch {
    /// The arena's write lock, taken by the first node interned.
    lock: Option<Writer<Node>>,
}

impl Batch {
    /// Intern an integer — the same id [`mk_int`] gives.
    #[inline]
    pub fn int(&mut self, i: i64) -> ValueId {
        immediate(i).unwrap_or_else(|| self.node(Node::Int(i)))
    }

    /// Intern a string constant.
    pub fn str(&mut self, s: impl Into<Arc<str>>) -> ValueId {
        self.node(Node::Str(s.into()))
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
        let w = self.lock.get_or_insert_with(|| VALUES.lock());
        ValueId(w.find(&node).unwrap_or_else(|| w.push(node)))
    }
}

/// Run `f` with one [`Batch`], which takes the value arena's write lock at
/// its first arena intern and holds it until `f` returns — a bulk load (a
/// snapshot's node table) pays one lock, not one per value. Lock-free
/// reads ([`node`], [`int_of`], [`cmp_ids`]), immediate integers and
/// [`crate::Symbol::intern`] (names have their own lock) work anywhere in
/// `f`; any other value intern (`mk_*`, [`id_of`], [`find`], another
/// `batch`) on this thread after that first one deadlocks, and other
/// threads' interns wait until `f` returns.
#[inline]
pub fn batch<R>(f: impl FnOnce(&mut Batch) -> R) -> R {
    f(&mut Batch { lock: None })
}

/// Intern a structural [`Value`] under one lock. Set elements arrive
/// sorted by `Value::cmp`, which coincides with [`cmp_ids`], and a
/// `Value::Compound` has arguments, so the nodes are canonical as built.
pub fn id_of(v: &Value) -> ValueId {
    batch(|b| walk(v, &mut |n| Some(b.node(n)))).expect("interning always succeeds")
}

/// The id of `v` if every node of it is interned (an immediate integer
/// needs none), interning nothing —
/// the probe for a value that may never have been stored. `None` means no
/// stored row can hold `v`, and a rejected probe leaves the process-global
/// interner as it was.
pub fn find(v: &Value) -> Option<ValueId> {
    let ids = VALUES.lock();
    walk(v, &mut |n| ids.find(&n).map(ValueId))
}

/// `v`'s id, bottom-up: each node built from its children's ids and handed
/// to `id`, the walk stopping at the first `None` — [`id_of`]'s and
/// [`find`]'s one traversal.
fn walk(v: &Value, id: &mut impl FnMut(Node) -> Option<ValueId>) -> Option<ValueId> {
    let node = match v {
        Value::Int(i) => match immediate(*i) {
            Some(imm) => return Some(imm),
            None => Node::Int(*i),
        },
        Value::Str(s) => Node::Str(Arc::clone(s)),
        Value::Atom(a) => Node::Atom(*a),
        Value::Compound(c) => Node::Compound(
            c.functor(),
            c.args()
                .iter()
                .map(|a| walk(a, id))
                .collect::<Option<_>>()?,
        ),
        Value::Set(s) => Node::Set(s.iter().map(|e| walk(e, id)).collect::<Option<_>>()?),
    };
    id(node)
}

/// Reconstruct the structural [`Value`] for `id` — the display/public-API
/// boundary; never on the evaluation hot path.
pub fn resolve(id: ValueId) -> Value {
    if let Some(i) = int_of(id) {
        return Value::Int(i);
    }
    match VALUES.get(id.0) {
        Node::Int(_) => unreachable!("int_of reads every integer"),
        Node::Str(s) => Value::Str(Arc::clone(s)),
        Node::Atom(a) => Value::Atom(*a),
        Node::Compound(f, args) => Value::compound(*f, args.iter().map(|&a| resolve(a)).collect()),
        Node::Set(elems) => Value::set(elems.iter().map(|&e| resolve(e))),
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
        // Names no other test interns, so the threads race to create them.
        fn atom(k: i64) -> String {
            format!("concurrent_atom_{k}")
        }
        fn functor(k: i64) -> String {
            format!("concurrent_f_{k}")
        }
        fn build(k: i64) -> Value {
            Value::set(vec![
                Value::compound("f", vec![Value::int(k), Value::int(k + 1)]),
                Value::int(k % 16),
                Value::atom(&atom(k)),
                Value::compound(functor(k).as_str(), vec![Value::atom(&atom(k + 1))]),
            ])
        }
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    (0..512)
                        .map(|k| {
                            let id = id_of(&build(k));
                            let names = (Symbol::intern(&atom(k)), Symbol::intern(&functor(k)));
                            assert_eq!(names.0.as_str(), atom(k));
                            assert_eq!(names.1.as_str(), functor(k));
                            assert_eq!(resolve(id), build(k));
                            (id, names)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<_>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "threads must agree on every id and symbol");
        }
        for (k, &(id, _)) in results[0].iter().enumerate() {
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
}
