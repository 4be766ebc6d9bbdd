//! Append-only relations over flat paged tuple arenas, with
//! position-keyed hash indexes.
//!
//! Tuples are stored as interned [`ValueId`]s laid out contiguously in
//! fixed-stride arena pages: row `pos` of an arity-`k` relation is `k`
//! consecutive ids inside one page, so a scan is a linear memory walk and
//! a row access is a shift, a mask, and an add — no per-tuple heap
//! allocation, no pointer chasing. The duplicate filter and every index
//! key onto that arena by *row position*: a lookup hashes the probe slice
//! and compares it against rows in place, so neither the insert path nor
//! the probe path allocates. Index posting lists live in one flat arena
//! per index, so nothing is allocated per key either: a relation is a
//! fixed number of flat buffers per index plus its row pages, and cloning
//! one — what every snapshot, publication and EDB → model copy does — is
//! that many `memcpy`s. Structural [`ldl_value::Value`]s exist only at the
//! [`crate::Database`] fact boundary.
//!
//! Each table is walked once per entry and sized once where the entry
//! count is known or bounded ahead. An insert hashes its tuple once and
//! walks its probe path once: the walk either finds the key or stops at
//! the slot the new entry takes, the first tombstone on the path or else
//! the empty slot that ends it, and the entry is filed there. Only an
//! insert that must grow the table first walks the grown table again. A
//! bulk load of a known row count reserves the filter up front
//! ([`Relation::reserve`]). An index built over rows already present
//! counts a lower bound on its keys first, in one integer-only pass (linear
//! counting), and is allocated at that size before it is filled — never
//! larger than key-at-a-time growth would have made it, so a column with
//! few distinct values keeps a small table. Both passes walk the row pages
//! directly when no row is tombstoned.

use std::fmt;
use std::hash::{Hash, Hasher};

use ldl_value::fxhash::{FastMap, FastSet, FxHasher};
use ldl_value::ValueId;

/// Positions are dense `u32`s; the top two values are reserved for the
/// hash-table sentinels, so a relation holds at most `u32::MAX - 2` rows.
const MAX_ROWS: u32 = u32::MAX - 2;

/// Hash a slice of interned ids (FxHash fold — one multiply-xor per id).
#[inline]
fn hash_ids(ids: &[ValueId]) -> u64 {
    let mut h = FxHasher::default();
    for v in ids {
        v.hash(&mut h);
    }
    h.finish()
}

/// Hash the projection of `row` onto `cols` — the same stream
/// [`hash_ids`] produces for the materialized key, without materializing
/// it.
#[inline]
fn hash_projection(cols: &[usize], row: &[ValueId]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// The paged flat row arena: rows of a fixed arity stored contiguously in
/// chunks of `1 << shift` rows. Pages are append-only and never move or
/// reallocate once created (each is created at full capacity), so row
/// positions are stable and borrowed row slices stay valid for the life
/// of a `&Rows` borrow regardless of how many rows were appended before
/// it was taken.
#[derive(Debug)]
struct Rows {
    arity: usize,
    /// `log2` of rows per page.
    shift: u32,
    /// `(1 << shift) - 1`.
    mask: u32,
    /// Row count.
    len: u32,
    pages: Vec<Vec<ValueId>>,
}

impl Clone for Rows {
    /// The copy's tail page is given full capacity, like every page
    /// [`Rows::push`] opens: a derived clone sizes it to its length, and the
    /// copy's next `push` would move it.
    fn clone(&self) -> Rows {
        let mut pages = self.pages.clone();
        if let Some(tail) = pages.last_mut() {
            tail.reserve_exact(self.page_cap() - tail.len());
        }
        Rows { pages, ..*self }
    }
}

impl Rows {
    fn new(arity: usize) -> Rows {
        // Target ≈ 4096 ids (16 KiB) per page, at a power-of-two row
        // count so addressing is shift/mask. Wide relations degrade to
        // one row per page rather than overflowing; arity 0 stores no
        // page data, so its nominal page size is moot.
        let target = 4096usize.checked_div(arity).unwrap_or(4096).max(1);
        let per_page = 1usize << (usize::BITS - 1 - target.leading_zeros());
        let shift = per_page.trailing_zeros();
        Rows {
            arity,
            shift,
            mask: (per_page - 1) as u32,
            len: 0,
            pages: Vec::new(),
        }
    }

    /// Ids per page: the capacity every page is created with.
    #[inline]
    fn page_cap(&self) -> usize {
        ((self.mask as usize) + 1) * self.arity
    }

    /// The row at `pos` as a borrowed slice of `arity` ids.
    #[inline]
    fn get(&self, pos: u32) -> &[ValueId] {
        if self.arity == 0 {
            return &[];
        }
        let page = (pos >> self.shift) as usize;
        let off = ((pos & self.mask) as usize) * self.arity;
        &self.pages[page][off..off + self.arity]
    }

    /// Append one row, returning its position. Allocates only when a new
    /// page is opened (every `1 << shift` rows). Copies id by id: a slice
    /// copy of a row's few ids would be a `memcpy` call.
    #[inline(always)]
    fn push(&mut self, row: &[ValueId]) -> u32 {
        debug_assert_eq!(row.len(), self.arity);
        let pos = self.len;
        self.len += 1;
        if self.arity > 0 {
            let page = (pos >> self.shift) as usize;
            if page == self.pages.len() {
                self.open_page();
            }
            let page = &mut self.pages[page];
            for &id in row {
                page.push(id);
            }
        }
        pos
    }

    #[cold]
    fn open_page(&mut self) {
        self.pages.push(Vec::with_capacity(self.page_cap()));
    }

    /// Drop every row at position `n` or beyond.
    fn truncate(&mut self, n: u32) {
        if n >= self.len {
            return;
        }
        self.len = n;
        if self.arity == 0 {
            return;
        }
        let full = (n >> self.shift) as usize;
        let rem = (n & self.mask) as usize;
        if rem == 0 {
            self.pages.truncate(full);
        } else {
            self.pages.truncate(full + 1);
            self.pages[full].truncate(rem * self.arity);
        }
    }

    /// Bytes of arena page memory currently reserved.
    fn bytes(&self) -> usize {
        self.pages
            .iter()
            .map(|p| p.capacity() * std::mem::size_of::<ValueId>())
            .sum()
    }
}

/// Open-addressed hash-table core shared by the duplicate filter and the
/// indexes: 1-byte tags (empty / deleted / 7 hash bits) probed first, a
/// `u32` payload per slot (a row position or a bucket handle). Key
/// storage lives *outside* the table — callers compare candidate payloads
/// against arena rows in place — so growing or probing never touches an
/// owned key.
#[derive(Clone, Debug, Default)]
struct RawTable {
    tags: Vec<u8>,
    slots: Vec<u32>,
    live: usize,
    tombs: usize,
}

const T_EMPTY: u8 = 0;
const T_DELETED: u8 = 1;

/// Seven hash bits plus the occupied bit — probing rejects almost every
/// non-matching slot without fetching the row it points at.
#[inline]
fn tag_of(h: u64) -> u8 {
    (h >> 57) as u8 | 0x80
}

impl RawTable {
    /// The payload whose key matches, per `eq` (called only on slots whose
    /// tag byte matches the hash).
    #[inline]
    fn find(&self, h: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        Some(self.slots[self.find_slot(h, eq)?])
    }

    /// One walk of `h`'s probe path: `Ok` with the slot holding a matching
    /// payload, else `Err` with the slot [`RawTable::insert`] would file
    /// the key in — the first tombstone on the path, else the empty slot
    /// that ends it, for [`RawTable::put`].
    #[inline]
    fn find_or_vacant(&self, h: u64, eq: impl Fn(u32) -> bool) -> Result<usize, usize> {
        if self.tags.is_empty() {
            return Err(0);
        }
        let mask = self.tags.len() - 1;
        let tag = tag_of(h);
        let mut i = (h as usize) & mask;
        let mut step = 0;
        let mut tomb = None;
        loop {
            let t = self.tags[i];
            if t == T_EMPTY {
                return Err(tomb.unwrap_or(i));
            }
            if t == tag && eq(self.slots[i]) {
                return Ok(i);
            }
            if t == T_DELETED && tomb.is_none() {
                tomb = Some(i);
            }
            // Triangular probing: visits every slot of a power-of-two
            // table exactly once.
            step += 1;
            i = (i + step) & mask;
        }
    }

    /// Can one more entry go in without [`RawTable::ensure_cap`] growing
    /// or compacting the table (the same 3/4 load rule)?
    #[inline]
    fn has_room(&self) -> bool {
        (self.live + self.tombs + 1) * 4 <= self.tags.len() * 3
    }

    /// File `payload` under `h` in `vacant`, the slot
    /// [`RawTable::find_or_vacant`] returned for its key — where
    /// [`RawTable::insert`] would put it — unless the table must grow or
    /// be compacted first, when it takes [`RawTable::ensure_cap`] and
    /// `insert`, out of line.
    #[inline]
    fn put(&mut self, vacant: usize, h: u64, payload: u32, rehash: impl Fn(u32) -> u64) {
        if self.has_room() {
            self.fill(vacant, h, payload);
        } else {
            self.grow_and_insert(h, payload, rehash);
        }
    }

    #[cold]
    #[inline(never)]
    fn grow_and_insert(&mut self, h: u64, payload: u32, rehash: impl Fn(u32) -> u64) {
        self.ensure_cap(rehash);
        self.insert(h, payload);
    }

    /// File `payload` under `h` in the free slot `i`.
    #[inline]
    fn fill(&mut self, i: usize, h: u64, payload: u32) {
        if self.tags[i] == T_DELETED {
            self.tombs -= 1;
        }
        self.tags[i] = tag_of(h);
        self.slots[i] = payload;
        self.live += 1;
    }

    /// The slot holding a matching payload, by a walk that tracks no vacant
    /// slot: `find_or_vacant`'s slowed a probe by ~6 % (EXPERIMENTS P55).
    #[inline]
    fn find_slot(&self, h: u64, eq: impl Fn(u32) -> bool) -> Option<usize> {
        if self.tags.is_empty() {
            return None;
        }
        let mask = self.tags.len() - 1;
        let tag = tag_of(h);
        let mut i = (h as usize) & mask;
        let mut step = 0;
        loop {
            let t = self.tags[i];
            if t == T_EMPTY {
                return None;
            }
            if t == tag && eq(self.slots[i]) {
                return Some(i);
            }
            step += 1;
            i = (i + step) & mask;
        }
    }

    /// Insert a payload under `h`. The key must be absent (callers probe
    /// first) and capacity ensured ([`RawTable::ensure_cap`]).
    fn insert(&mut self, h: u64, payload: u32) {
        let mask = self.tags.len() - 1;
        let mut i = (h as usize) & mask;
        let mut step = 0;
        while self.tags[i] & 0x80 != 0 {
            step += 1;
            i = (i + step) & mask;
        }
        self.fill(i, h, payload);
    }

    /// Tombstone slot `i` (from [`RawTable::find_slot`]).
    fn delete_slot(&mut self, i: usize) {
        self.tags[i] = T_DELETED;
        self.live -= 1;
        self.tombs += 1;
    }

    /// Make room for one more entry, rehashing stored payloads through
    /// `rehash` when the table grows or needs its tombstones compacted.
    fn ensure_cap(&mut self, rehash: impl Fn(u32) -> u64) {
        let cap = self.tags.len();
        if cap == 0 {
            self.tags = vec![T_EMPTY; 16];
            self.slots = vec![0; 16];
            return;
        }
        if self.has_room() {
            return;
        }
        // Grow when genuinely full; rehash at the same size when
        // tombstones are the bulk of the occupancy.
        let new_cap = if (self.live + 1) * 2 > cap {
            cap * 2
        } else {
            cap
        };
        let old_tags = std::mem::replace(&mut self.tags, vec![T_EMPTY; new_cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        self.tombs = 0;
        let mask = new_cap - 1;
        for (t, s) in old_tags.into_iter().zip(old_slots) {
            if t & 0x80 == 0 {
                continue;
            }
            let h = rehash(s);
            let mut i = (h as usize) & mask;
            let mut step = 0;
            while self.tags[i] != T_EMPTY {
                step += 1;
                i = (i + step) & mask;
            }
            self.tags[i] = tag_of(h);
            self.slots[i] = s;
        }
    }
}

/// The duplicate filter *and* position map: row positions keyed by their
/// arena content. Each live tuple maps to its insertion position; removed
/// (tombstoned) tuples are absent, so `contains`/`position_of` see only
/// live facts. No owned keys — lookups compare the probe slice against
/// the arena.
#[derive(Clone, Debug, Default)]
struct Seen {
    table: RawTable,
}

impl Seen {
    #[inline]
    fn get(&self, rows: &Rows, key: &[ValueId]) -> Option<u32> {
        self.table.find(hash_ids(key), |p| rows.get(p) == key)
    }

    /// The same lookup as a posting list — what a probe with every column
    /// bound returns: the one live position on a hit, nothing on a miss.
    #[inline]
    fn probe<'a>(&'a self, rows: &Rows, key: &[ValueId]) -> &'a [u32] {
        match self.table.find_slot(hash_ids(key), |p| rows.get(p) == key) {
            Some(i) => std::slice::from_ref(&self.table.slots[i]),
            None => &[],
        }
    }

    /// Record `pos`, whose row hashes to `h` and must not already be
    /// present.
    fn insert(&mut self, rows: &Rows, h: u64, pos: u32) {
        self.table.ensure_cap(|p| hash_ids(rows.get(p)));
        self.table.insert(h, pos);
    }

    fn remove(&mut self, rows: &Rows, key: &[ValueId]) -> Option<u32> {
        let i = self
            .table
            .find_slot(hash_ids(key), |p| rows.get(p) == key)?;
        let pos = self.table.slots[i];
        self.table.delete_slot(i);
        Some(pos)
    }
}

/// An opaque handle to one of a relation's hash indexes (see
/// [`Relation::index`]).
#[derive(Clone, Copy, Debug)]
pub struct IndexRef<'a>(Handle<'a>);

#[derive(Clone, Copy, Debug)]
enum Handle<'a> {
    /// A posting-list [`Index`] over a proper subset of the columns.
    Partial(&'a Index),
    /// Every column bound: the duplicate filter already maps the key to
    /// its one live position, so it *is* the index (see [`Seen::probe`]).
    Full(&'a Relation),
}

impl<'a> IndexRef<'a> {
    /// Insertion positions of all tuples whose projection equals `key` (ids
    /// in sorted column order). Borrowed key: a probe allocates nothing.
    pub fn probe(self, key: &[ValueId]) -> &'a [u32] {
        match self.0 {
            Handle::Partial(idx) => {
                debug_assert_eq!(key.len(), idx.cols.len());
                idx.probe(key)
            }
            Handle::Full(rel) => {
                debug_assert_eq!(key.len(), rel.arity);
                rel.seen.probe(&rel.rows, key)
            }
        }
    }
}

/// One posting list's fixed-size record in [`Postings::lists`].
///
/// `cap == 0` is the inline form: `len` is 0 (a free bucket) or 1, and
/// `at` *is* the one position. Otherwise the list is
/// `arena[at .. at + len]` inside an extent of `cap` (a power of two ≥ 2)
/// slots.
#[derive(Clone, Copy, Debug, Default)]
struct List {
    len: u32,
    cap: u32,
    at: u32,
}

/// Empty free-list link.
const NIL: u32 = u32::MAX;

/// Extent offsets are `u32`s and `NIL` is reserved, so the posting arena
/// of one index holds fewer than `u32::MAX` slots.
const MAX_SLOTS: usize = u32::MAX as usize;

/// Every posting list of one index, in two flat vectors: a [`List`]
/// record per bucket, and one `u32` arena holding each multi-element list
/// as a contiguous extent of power-of-two capacity. Nothing is allocated
/// per key — cloning or dropping the lot is two buffers whatever the key
/// count — while a list is still one plain ascending `&[u32]`.
///
/// A list that outgrows its extent relocates to one of twice the size
/// (amortized O(1) per posting, however skewed the key), and the extent it
/// leaves goes on its size class's free list: a chain threaded through
/// the free extents' own first slots, so the allocator state is 32 heads.
#[derive(Clone, Debug)]
struct Postings {
    lists: Vec<List>,
    arena: Vec<u32>,
    /// `free[c]` heads the chain of free extents of capacity `1 << c`.
    free: [u32; 32],
}

impl Postings {
    fn new() -> Postings {
        Postings {
            lists: Vec::new(),
            arena: Vec::new(),
            free: [NIL; 32],
        }
    }

    /// Bucket `b`'s postings, ascending.
    #[inline]
    fn get(&self, b: u32) -> &[u32] {
        let l = &self.lists[b as usize];
        if l.cap == 0 {
            &std::slice::from_ref(&l.at)[..l.len as usize]
        } else {
            &self.arena[l.at as usize..(l.at + l.len) as usize]
        }
    }

    /// Add `pos` to bucket `b`: appended (positions only grow), or at its
    /// ascending slot when `sorted` (a revived position).
    fn insert(&mut self, b: u32, pos: u32, sorted: bool) {
        let l = self.lists[b as usize];
        if l.len == 0 {
            // Extents are released at length 0, so an empty list is inline.
            self.lists[b as usize] = List {
                len: 1,
                cap: 0,
                at: pos,
            };
            return;
        }
        let l = if l.len < l.cap { l } else { self.grow(b) };
        let (at, len) = (l.at as usize, l.len as usize);
        let ext = &mut self.arena[at..=at + len];
        // An appended position needs no room made: an empty `copy_within`
        // is still a `memmove` call, and one per posting cost an index
        // build over existing rows ~9 % (EXPERIMENTS.md P52).
        let slot = if sorted {
            let slot = ext[..len].partition_point(|&p| p < pos);
            ext.copy_within(slot..len, slot + 1);
            slot
        } else {
            len
        };
        ext[slot] = pos;
        self.lists[b as usize].len += 1;
    }

    /// Move bucket `b`'s full list (an inline singleton included) to an
    /// extent of twice the capacity.
    fn grow(&mut self, b: u32) -> List {
        let old = self.lists[b as usize];
        let cap = (old.cap as usize * 2).max(2);
        let at = self.alloc(cap);
        if old.cap == 0 {
            self.arena[at as usize] = old.at;
        } else {
            let from = old.at as usize;
            self.arena
                .copy_within(from..from + old.len as usize, at as usize);
            self.release(old.at, old.cap);
        }
        let l = List {
            len: old.len,
            cap: cap as u32,
            at,
        };
        self.lists[b as usize] = l;
        l
    }

    /// An extent of `cap` slots: the size class's most recently freed one,
    /// else fresh arena.
    fn alloc(&mut self, cap: usize) -> u32 {
        let class = cap.trailing_zeros() as usize;
        let head = self.free[class];
        if head != NIL {
            self.free[class] = self.arena[head as usize];
            return head;
        }
        let at = self.arena.len();
        assert!(at + cap <= MAX_SLOTS, "index postings exceed u32 slots");
        self.arena.resize(at + cap, 0);
        at as u32
    }

    /// Put the extent `[at, at + cap)` on its size class's free list.
    fn release(&mut self, at: u32, cap: u32) {
        let class = cap.trailing_zeros() as usize;
        self.arena[at as usize] = self.free[class];
        self.free[class] = at;
    }

    /// Cut bucket `b`'s list to its first `len` postings; an emptied list
    /// gives its extent back and becomes a free (inline, empty) record.
    fn shrink(&mut self, b: u32, len: u32) {
        let l = self.lists[b as usize];
        if len > 0 {
            self.lists[b as usize].len = len;
            return;
        }
        if l.cap > 0 {
            self.release(l.at, l.cap);
        }
        self.lists[b as usize] = List::default();
    }

    /// Drop `pos` from bucket `b`, closing the gap in place. Returns
    /// whether the list is now empty.
    fn remove(&mut self, b: u32, pos: u32) -> bool {
        let l = self.lists[b as usize];
        let Ok(i) = self.get(b).binary_search(&pos) else {
            return false;
        };
        if l.cap > 0 {
            let at = l.at as usize;
            self.arena[at..at + l.len as usize].copy_within(i + 1.., i);
        }
        self.shrink(b, l.len - 1);
        l.len == 1
    }

    /// Keep only bucket `b`'s postings below `cutoff` (a prefix: lists
    /// ascend). Returns whether the list is now empty.
    fn truncate(&mut self, b: u32, cutoff: u32) -> bool {
        let keep = self.get(b).partition_point(|&p| p < cutoff) as u32;
        self.shrink(b, keep);
        keep == 0
    }
}

/// A hash index over a proper subset of the columns, keyed by row
/// position.
///
/// Maps the projection of a tuple onto `cols` to the positions (insertion
/// indices) of all tuples with that projection. The table stores bucket
/// handles; bucket `b`'s projected key lives at stride-`cols.len()` offset
/// `b` of the flat `keys` arena, immediately comparable against a borrowed
/// probe slice — a probe never touches the row arena — and its posting
/// list is record `b` of [`Postings`]. The only allocations are the
/// amortized growth of five flat buffers (nothing per tuple, nothing per
/// key), so a clone is five `memcpy`s. Maintained incrementally as tuples
/// are inserted. An index on *every* column is never built: see
/// [`Relation::index`].
#[derive(Clone, Debug)]
struct Index {
    cols: Vec<usize>,
    table: RawTable,
    /// Flat key arena: bucket `b`'s projected key ids are
    /// `keys[b*k .. (b+1)*k]` with `k = cols.len()`.
    keys: Vec<ValueId>,
    /// Posting lists (ascending positions), one per bucket. An empty list
    /// is a free bucket awaiting reuse via `free`.
    postings: Postings,
    free: Vec<u32>,
}

impl Index {
    fn new(cols: Vec<usize>) -> Index {
        Index {
            cols,
            table: RawTable::default(),
            keys: Vec::new(),
            postings: Postings::new(),
            free: Vec::new(),
        }
    }

    /// Bucket `b`'s projected key.
    #[inline]
    fn key_at(&self, b: u32) -> &[ValueId] {
        let k = self.cols.len();
        let at = b as usize * k;
        &self.keys[at..at + k]
    }

    fn probe(&self, key: &[ValueId]) -> &[u32] {
        let h = hash_ids(key);
        match self.table.find(h, |b| self.key_at(b) == key) {
            Some(b) => self.postings.get(b),
            None => &[],
        }
    }

    fn add(&mut self, tuple: &[ValueId], pos: u32) {
        self.upsert(tuple, pos, false);
    }

    /// Re-insert `pos` into `tuple`'s posting list at its sorted slot —
    /// postings must stay ascending so probe results keep insertion order
    /// (the bit-for-bit determinism contract).
    fn add_sorted(&mut self, tuple: &[ValueId], pos: u32) {
        self.upsert(tuple, pos, true);
    }

    /// File `pos` under `tuple`'s key, walking the key's probe path once:
    /// an existing key's list takes the position, and a new key's bucket
    /// goes in the slot the walk stopped at, with `pos` as its one inline
    /// posting.
    fn upsert(&mut self, tuple: &[ValueId], pos: u32, sorted: bool) {
        let h = hash_projection(&self.cols, tuple);
        let found = self.table.find_or_vacant(h, |b| {
            self.cols
                .iter()
                .zip(self.key_at(b))
                .all(|(&c, &k)| tuple[c] == k)
        });
        let vacant = match found {
            Ok(i) => {
                self.postings.insert(self.table.slots[i], pos, sorted);
                return;
            }
            Err(vacant) => vacant,
        };
        let one = List {
            len: 1,
            cap: 0,
            at: pos,
        };
        let k = self.cols.len();
        let b = match self.free.pop() {
            Some(b) => {
                let at = b as usize * k;
                for (slot, &c) in self.keys[at..at + k].iter_mut().zip(&self.cols) {
                    *slot = tuple[c];
                }
                self.postings.lists[b as usize] = one;
                b
            }
            None => {
                self.postings.lists.push(one);
                self.keys.extend(self.cols.iter().map(|&c| tuple[c]));
                (self.postings.lists.len() - 1) as u32
            }
        };
        let keys = &self.keys;
        self.table.put(vacant, h, b, |b| {
            hash_ids(&keys[b as usize * k..(b as usize + 1) * k])
        });
    }

    /// Drop `pos` from the posting list of `tuple`'s key (tombstoning).
    fn remove(&mut self, tuple: &[ValueId], pos: u32) {
        let h = hash_projection(&self.cols, tuple);
        let Some(i) = self.table.find_slot(h, |b| {
            self.cols
                .iter()
                .zip(self.key_at(b))
                .all(|(&c, &k)| tuple[c] == k)
        }) else {
            return;
        };
        let b = self.table.slots[i];
        if self.postings.remove(b, pos) {
            self.table.delete_slot(i);
            self.free.push(b);
        }
    }

    /// Prune every posting at position `cutoff` or beyond and rebuild the
    /// table from the surviving buckets (truncation is the rare
    /// snapshot-rollback path), sized for them as a fresh index holding
    /// those keys would be. Freed buckets keep their stale key bytes;
    /// reuse overwrites them.
    fn truncate(&mut self, cutoff: u32) {
        self.free.clear();
        for b in 0..self.postings.lists.len() as u32 {
            if self.postings.truncate(b, cutoff) {
                self.free.push(b);
            }
        }
        self.table = RawTable::default();
        self.table
            .reserve(self.postings.lists.len() - self.free.len());
        for b in 0..self.postings.lists.len() as u32 {
            if !self.postings.get(b).is_empty() {
                self.table.insert(hash_ids(self.key_at(b)), b);
            }
        }
    }
}

/// What a relation records while a change log is open on it (see
/// [`Relation::catch_up`] for how it is read back).
#[derive(Debug)]
struct RelLog {
    /// The row count when the log was opened. Positions never move, so the
    /// rows appended since are exactly `[base_len, len)`: the insert path
    /// records nothing.
    base_len: u32,
    /// Positions tombstoned or revived since, in order, repeats included:
    /// each entry is one liveness flip, so no direction is kept.
    /// [`Relation::rewind`] undoes them newest first.
    touched: Vec<u32>,
}

/// A relation's change-log slot. A log describes one relation object's
/// history from one base state, so a clone starts without one.
#[derive(Debug, Default)]
struct LogSlot(Option<RelLog>);

impl Clone for LogSlot {
    fn clone(&self) -> LogSlot {
        LogSlot(None)
    }
}

/// An append-only, duplicate-free relation.
///
/// Tuples keep their insertion order and are never removed, so a *delta*
/// (the tuples derived since some point in time) is just the index range
/// `[mark, len)` — exactly what semi-naive evaluation needs. All reads are
/// `&self` with no interior mutability (enforced by the `Send + Sync`
/// assertion on `Database`), so a snapshot shared with reader threads is
/// safe. A clone shares nothing with its source: it is a deep copy whose
/// cost is the bytes — row pages plus a fixed handful of flat buffers per
/// index — never the number of keys or tuples.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    rows: Rows,
    /// Duplicate filter *and* position map (see [`Seen`]).
    seen: Seen,
    /// Tombstoned insertion positions. `None` (no heap) until the first
    /// removal — the append-only fast path never touches it. Positions are
    /// never reused, so deltas `[lo, hi)` and marks stay valid; readers
    /// skip dead positions via [`Relation::is_live`].
    dead: Option<Box<FastSet<u32>>>,
    /// Live tuple count: `rows.len - dead.len()`.
    live: usize,
    /// Keyed by the sorted, deduplicated column list (probed borrowed as
    /// `&[usize]`), so relations of any width can be indexed. Never holds
    /// the list of *every* column: `seen` answers that one.
    indexes: FastMap<Vec<usize>, Index>,
    /// The open change log, if any (see [`Relation::catch_up`]).
    log: LogSlot,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            rows: Rows::new(arity),
            seen: Seen::default(),
            dead: None,
            live: 0,
            indexes: FastMap::default(),
            log: LogSlot::default(),
        }
    }

    /// Column count.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of insertion positions (including tombstoned ones). Stays
    /// *physical*: delta frontiers and snapshot marks are defined over this
    /// value, and removals must not shift them. For the number of facts the
    /// relation currently holds, see [`Relation::live_len`].
    pub fn len(&self) -> usize {
        self.rows.len as usize
    }

    /// Number of live (non-tombstoned) tuples.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Does the relation hold no live tuples?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Arena pages currently allocated.
    pub fn arena_pages(&self) -> usize {
        self.rows.pages.len()
    }

    /// Bytes of arena page memory currently reserved.
    pub fn arena_bytes(&self) -> usize {
        self.rows.bytes()
    }

    /// Insert a borrowed tuple; returns `true` iff it was new. This is the
    /// merge-phase hot path, and the path every snapshot row and replayed
    /// fact takes: the tuple is hashed once, and one walk of its probe path
    /// both checks the duplicate filter and finds the slot an accepted
    /// tuple is filed in. A rejected
    /// duplicate compares the borrowed slice against the arena and touches
    /// nothing else (the probe comes before any growth), and an accepted
    /// tuple is copied into the current arena page — neither side performs
    /// a per-tuple or per-key heap allocation (pages, tables, and the
    /// posting arenas amortize their growth). Panics on arity mismatch (a
    /// schema violation is a caller bug, not data).
    pub fn insert_slice(&mut self, tuple: &[ValueId]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        let (h, rows) = (hash_ids(tuple), &self.rows);
        let Err(vacant) = self.seen.table.find_or_vacant(h, |p| rows.get(p) == tuple) else {
            return false;
        };
        assert!(self.rows.len < MAX_ROWS, "relation exceeds u32 tuples");
        let pos = self.rows.push(tuple);
        let rows = &self.rows;
        self.seen
            .table
            .put(vacant, h, pos, |p| hash_ids(rows.get(p)));
        for idx in self.indexes.values_mut() {
            idx.add(tuple, pos);
        }
        self.live += 1;
        true
    }

    /// Does the relation contain exactly this tuple (live — a tombstoned
    /// tuple is gone)?
    pub fn contains(&self, tuple: &[ValueId]) -> bool {
        self.seen.get(&self.rows, tuple).is_some()
    }

    /// The insertion position of a live tuple, if present.
    pub fn position_of(&self, tuple: &[ValueId]) -> Option<u32> {
        self.seen.get(&self.rows, tuple)
    }

    /// The row at insertion position `pos` (defined for tombstoned
    /// positions too — the row data is retained so rollback can revive
    /// it; scan loops filter with [`Relation::is_live`]).
    #[inline]
    pub fn get(&self, pos: u32) -> &[ValueId] {
        self.rows.get(pos)
    }

    /// Is insertion position `pos` live (not tombstoned)?
    #[inline]
    pub fn is_live(&self, pos: u32) -> bool {
        match &self.dead {
            None => true,
            Some(d) => !d.contains(&pos),
        }
    }

    /// All live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[ValueId]> + '_ {
        (0..self.rows.len)
            .filter(|&pos| self.is_live(pos))
            .map(|pos| self.rows.get(pos))
    }

    /// Tuples in the insertion range `[from, to)` — a delta. Physical: a
    /// delta range is always freshly inserted (hence live) when consumed;
    /// callers walking historical ranges must filter with
    /// [`Relation::is_live`].
    pub fn range(&self, from: usize, to: usize) -> impl Iterator<Item = &[ValueId]> + '_ {
        debug_assert!(from <= to && to <= self.len());
        (from as u32..to as u32).map(|pos| self.rows.get(pos))
    }

    /// Tombstone a live tuple: removes it from the duplicate filter and
    /// every index posting list, and marks its position dead. The position
    /// itself (and the row data) is
    /// retained so outstanding marks/deltas stay valid and
    /// [`Relation::revive`] can restore the exact pre-removal state.
    /// Returns the tombstoned position, or `None` if the tuple was not
    /// live.
    pub fn remove_slice(&mut self, tuple: &[ValueId]) -> Option<u32> {
        let pos = self.seen.remove(&self.rows, tuple)?;
        self.dead.get_or_insert_with(Default::default).insert(pos);
        self.live -= 1;
        let rows = &self.rows;
        for idx in self.indexes.values_mut() {
            idx.remove(rows.get(pos), pos);
        }
        if let Some(log) = &mut self.log.0 {
            log.touched.push(pos);
        }
        Some(pos)
    }

    /// Undo a tombstone: restore position `pos` to the duplicate filter and
    /// index posting lists (at its sorted slot, so probe order is exactly
    /// the pre-removal order — rollback is bit-identical). No-op if `pos`
    /// is not tombstoned.
    pub fn revive(&mut self, pos: u32) {
        if !self.dead.as_mut().is_some_and(|d| d.remove(&pos)) {
            return;
        }
        let rows = &self.rows;
        for idx in self.indexes.values_mut() {
            idx.add_sorted(rows.get(pos), pos);
        }
        self.seen.insert(rows, hash_ids(rows.get(pos)), pos);
        self.live += 1;
        if let Some(log) = &mut self.log.0 {
            log.touched.push(pos);
        }
    }

    /// Ensure a hash index exists on `cols` (sorted, deduplicated by caller
    /// convention — we normalize anyway). No-op if already present.
    ///
    /// A new index over existing rows is a bulk build: one pass counts a
    /// lower bound on its distinct keys, the index's table and buffers are
    /// allocated once at that size, and a second pass fills them. The
    /// table ends no larger than key-at-a-time growth would leave it, and
    /// when the bound is exact (as for one integer column) nothing is
    /// rehashed.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        let mut cols: Vec<usize> = cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        assert!(
            cols.iter().all(|&c| c < self.arity),
            "index column out of range"
        );
        if self.has_index(&cols) {
            return;
        }
        let mut idx = Index::new(cols.clone());
        idx.reserve(self.distinct_at_least(&cols), self.live);
        // Skip tombstoned positions: an index built after a removal must
        // agree with one that witnessed it (probes never check liveness).
        // `revive` re-adds the position to every index, so a later rollback
        // still restores the pre-removal posting lists exactly.
        self.for_each_live(|pos, row| idx.add(row, pos));
        self.indexes.insert(cols, idx);
    }

    /// Probe the index on `cols` (which must exist) with `key` ids in the
    /// same (sorted) column order. Returns matching insertion positions.
    /// Both the column list and the key are borrowed — a probe allocates
    /// nothing.
    pub fn probe(&self, cols: &[usize], key: &[ValueId]) -> &[u32] {
        self.index(cols)
            .expect("probe of a non-existent index; call ensure_index first")
            .probe(key)
    }

    /// The index on `cols`, if one exists — resolve the column list once,
    /// then probe through the handle (one hash of `cols` instead of one per
    /// probe). Every column of a relation of arity ≥ 1 always has one: a
    /// fully bound probe asks the duplicate filter's question, so the
    /// filter answers it and no second table is built or maintained.
    pub fn index(&self, cols: &[usize]) -> Option<IndexRef<'_>> {
        let handle = if self.is_full_key(cols) {
            Handle::Full(self)
        } else {
            Handle::Partial(self.indexes.get(cols)?)
        };
        Some(IndexRef(handle))
    }

    /// The best index this relation *already has* for a lookup that binds
    /// the columns `bound` (sorted, deduplicated), with the columns it is
    /// keyed on — a subset of `bound`, so its probe key is a projection of
    /// the bound values. Read-only: nothing is built, nothing allocated.
    ///
    /// The index on exactly `bound` wins (the duplicate filter when `bound`
    /// is every column, see [`Relation::index`]); otherwise the one over
    /// the most columns of `bound`, ties going to the lexicographically
    /// smallest column list so the choice never depends on map order.
    /// `None` when no index is keyed inside `bound` — always the case when
    /// nothing is bound.
    pub fn covering_index<'a: 'b, 'b>(
        &'a self,
        bound: &'b [usize],
    ) -> Option<(&'b [usize], IndexRef<'a>)> {
        if self.is_full_key(bound) {
            return Some((bound, IndexRef(Handle::Full(self))));
        }
        let mut best: Option<&'a Index> = None;
        for idx in self.indexes.values() {
            // Both lists ascend, so containment is one merge walk. (An
            // index on no column narrows nothing.)
            let mut rest = bound.iter();
            if idx.cols.is_empty() || !idx.cols.iter().all(|c| rest.any(|b| b == c)) {
                continue;
            }
            if best.is_none_or(|b| (idx.cols.len(), &b.cols[..]) > (b.cols.len(), &idx.cols[..])) {
                best = Some(idx);
            }
        }
        best.map(|idx| (&idx.cols[..], IndexRef(Handle::Partial(idx))))
    }

    /// The column list of every index the relation has, sorted: the built
    /// ones and, for arity ≥ 1, the duplicate filter standing in for the
    /// index on every column. For diagnostics — lookups go through
    /// [`Relation::index`] / [`Relation::covering_index`].
    pub fn index_columns(&self) -> Vec<Vec<usize>> {
        let mut all: Vec<Vec<usize>> = self.indexes.keys().cloned().collect();
        if self.arity >= 1 {
            all.push((0..self.arity).collect());
        }
        all.sort_unstable();
        all
    }

    /// Does an index exist on `cols`?
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.is_full_key(cols) || self.indexes.contains_key(cols)
    }

    /// Is `cols` (sorted, deduplicated) the list of every column?
    fn is_full_key(&self, cols: &[usize]) -> bool {
        self.arity >= 1 && cols.iter().copied().eq(0..self.arity)
    }

    /// Discard every tuple at insertion position `len` or beyond, restoring
    /// the relation to an earlier snapshot (see [`Relation::len`], whose
    /// value is exactly such a snapshot mark). Hash indexes and the
    /// duplicate filter are pruned in place; positions below `len` keep
    /// their identities, so outstanding delta ranges `[lo, hi)` with
    /// `hi <= len` stay valid. No-op if `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let cutoff = len as u32;
        // Positions are about to be reused, which a length watermark cannot
        // describe: the log ends here and `catch_up` copies the relation.
        self.log.0 = None;
        // Tombstones at or beyond the cutoff die with their positions;
        // tombstones below it survive (rollback revives them separately).
        if let Some(d) = &mut self.dead {
            d.retain(|&p| p < cutoff);
            if d.is_empty() {
                self.dead = None;
            }
        }
        // Forget each dropped row from the duplicate filter — but only if
        // its *live* position is being dropped: the same value may also
        // sit tombstoned below the cutoff. Must run before the arena is
        // truncated (the filter compares against row data).
        for pos in cutoff..self.rows.len {
            let row = self.rows.get(pos);
            if self.seen.get(&self.rows, row).is_some_and(|p| p >= cutoff) {
                self.seen.remove(&self.rows, row);
            }
        }
        self.rows.truncate(cutoff);
        self.live = len - self.dead.as_ref().map_or(0, |d| d.len());
        for idx in self.indexes.values_mut() {
            idx.truncate(cutoff);
        }
    }

    /// Start (or restart) this relation's change log at its present state.
    pub(crate) fn open_log(&mut self) {
        self.log.0 = Some(RelLog {
            base_len: self.rows.len,
            touched: Vec::new(),
        });
    }

    /// Forget the change log: from here on [`Relation::catch_up`] reads
    /// this relation as a new one.
    pub(crate) fn drop_log(&mut self) {
        self.log.0 = None;
    }

    /// Return to the rows, positions and liveness of when the change log
    /// opened, and close it; `false`, changing nothing, when no log is open.
    /// Undoing the flips newest first passes only through past states minus
    /// the truncated rows, so no tuple is ever live twice (DESIGN §3k). An
    /// index built since stays.
    pub(crate) fn rewind(&mut self) -> bool {
        let Some(log) = self.log.0.take() else {
            return false;
        };
        self.truncate(log.base_len as usize);
        for &pos in log.touched.iter().rev().filter(|&&pos| pos < log.base_len) {
            if self.is_live(pos) {
                let row = self.get(pos).to_vec();
                self.remove_slice(&row);
            } else {
                self.revive(pos);
            }
        }
        true
    }

    /// Bring this relation to `new`'s state, given that it equalled `new`
    /// when `new`'s change log was opened. Returns the number of changes
    /// applied: rows appended, tombstoned or revived — every row when there
    /// is no usable log (none open, a truncation closed it, or its
    /// watermark is not this relation's length) and `new` is copied whole.
    ///
    /// The cost is the change, not the relation: `new`'s appended rows are
    /// read from `new`'s arena and inserted, and the touched positions below
    /// the watermark are set to the liveness they have in `new`. That needs
    /// no order among the logged events. Tombstones go first, then the
    /// appended rows, then revivals, so the live set only ever holds
    /// positions live in `new` — which never holds one tuple twice — and the
    /// duplicate filter never meets a second copy of a key; a posting list
    /// is the ascending list of its key's live positions whichever way it
    /// was reached (appends land at the end, revivals at their sorted slot).
    pub(crate) fn catch_up(&mut self, new: &Relation) -> usize {
        self.log.0 = None;
        let log = match &new.log.0 {
            Some(log) if log.base_len == self.rows.len && self.arity == new.arity => log,
            _ => {
                *self = new.clone();
                return self.len();
            }
        };
        let below = |&&pos: &&u32| pos < log.base_len;
        let mut changes = 0;
        for &pos in log.touched.iter().filter(below) {
            // Rows below the watermark are the same in both copies.
            if self.is_live(pos) && !new.is_live(pos) {
                self.remove_slice(new.get(pos));
                changes += 1;
            }
        }
        for pos in log.base_len..new.rows.len {
            if new.is_live(pos) {
                let fresh = self.insert_slice(new.get(pos));
                debug_assert!(fresh, "a live tuple of `new` was live here too");
            } else {
                self.rows.push(new.get(pos));
                self.dead.get_or_insert_with(Default::default).insert(pos);
            }
            changes += 1;
        }
        for &pos in log.touched.iter().filter(below) {
            if !self.is_live(pos) && new.is_live(pos) {
                self.revive(pos);
                changes += 1;
            }
        }
        debug_assert_eq!(self.live, new.live);
        // An index `new` gained is a function of rows and liveness, which
        // now agree: copy it rather than rebuild it.
        for (cols, idx) in &new.indexes {
            if !self.indexes.contains_key(cols) {
                self.indexes.insert(cols.clone(), idx.clone());
            }
        }
        changes
    }

    /// `Ok` when the two relations are in the same observable state — rows
    /// and liveness position by position, the duplicate filter, index
    /// column sets and every posting list, arena footprint —
    /// else what differs first. Hash-table layouts and change logs are not
    /// state. Linear in the relation: for tests and debug self-checks.
    pub fn same_state(&self, other: &Relation) -> Result<(), String> {
        fn same<T: PartialEq + fmt::Debug>(what: &str, a: T, b: T) -> Result<(), String> {
            if a == b {
                Ok(())
            } else {
                Err(format!("{what}: {a:?} vs {b:?}"))
            }
        }
        same("arity", self.arity, other.arity)?;
        same("len", self.len(), other.len())?;
        same("live_len", self.live, other.live)?;
        for pos in 0..self.rows.len {
            same("row", (pos, self.get(pos)), (pos, other.get(pos)))?;
            same(
                "liveness",
                (pos, self.is_live(pos)),
                (pos, other.is_live(pos)),
            )?;
            let want = self.is_live(pos).then_some(pos);
            let found = |r: &Relation| r.position_of(r.get(pos)).filter(|&p| p == pos);
            same("position_of", (pos, found(self)), (pos, want))?;
            same("position_of", (pos, found(other)), (pos, want))?;
        }
        same("indexes", self.index_columns(), other.index_columns())?;
        for (cols, idx) in &self.indexes {
            let theirs = &other.indexes[cols];
            let keys = |i: &Index| i.table.live;
            same("index keys", (cols, keys(idx)), (cols, keys(theirs)))?;
            for b in 0..idx.postings.lists.len() as u32 {
                let (key, list) = (idx.key_at(b), idx.postings.get(b));
                if !list.is_empty() {
                    same(
                        "postings",
                        (cols, key, list),
                        (cols, key, theirs.probe(key)),
                    )?;
                }
            }
        }
        same("arena_pages", self.arena_pages(), other.arena_pages())?;
        same("arena_bytes", self.arena_bytes(), other.arena_bytes())
    }
}

// Bulk loading. Kept apart from the insert and probe paths above: placed
// among them, it moved their code and measurably slowed `tc_chain`.
impl RawTable {
    /// Allocate an unallocated table at the capacity `n` one-at-a-time
    /// inserts would end at (the same 3/4 load rule as
    /// [`RawTable::ensure_cap`]), so they never rehash. A no-op on a
    /// table that has allocated.
    fn reserve(&mut self, n: usize) {
        if n == 0 || !self.tags.is_empty() {
            return;
        }
        let mut cap = 16;
        while n * 4 > cap * 3 {
            cap *= 2;
        }
        self.tags = vec![T_EMPTY; cap];
        self.slots = vec![0; cap];
    }
}

impl Index {
    /// Size a fresh index for `rows` postings under at least `keys` keys
    /// (`keys <= rows`): its table at the capacity `keys` one-at-a-time
    /// inserts end at ([`RawTable::reserve`]); its key and list buffers at
    /// the power of two their push-by-push growth passes on the way to
    /// `keys` entries, so that past `keys` they double on that same path
    /// and end where growth alone would have left them; and its posting
    /// arena at the `rows - keys` postings beyond one per key, the floor of
    /// what the extents hold when the key count is exact.
    fn reserve(&mut self, keys: usize, rows: usize) {
        if keys == 0 {
            return;
        }
        self.table.reserve(keys);
        self.keys
            .reserve((keys * self.cols.len()).next_power_of_two());
        self.postings.lists.reserve(keys.next_power_of_two());
        self.postings.arena.reserve(rows - keys);
    }
}

impl Relation {
    /// A lower bound on the number of distinct projections of the live rows
    /// onto `cols`, by linear counting (Whang, Vander-Zanden and Taylor,
    /// TODS 1990): each live row sets the bit its projection hash selects in
    /// a bitmap of 8 to 16 bits per row, and the set bits are counted. Equal
    /// keys set the same bit, so the count never exceeds the distinct keys;
    /// it falls short only by the keys whose bits collide, at most about
    /// 1/16 of them for well-spread hashes.
    ///
    /// The count is not corrected towards the estimator's expected value
    /// (`-m ln(1 - set/m)`). A correction assumes random collisions, and a
    /// single integer column has none: its hash is the id times an odd
    /// constant, whose low bits — the ones used here, as in the tables — are
    /// a bijection of the id's low bits, so the count is exact and any
    /// correction would overshoot, sizing a table one doubling too large.
    /// Integer arithmetic only: the engine links no `libm`.
    fn distinct_at_least(&self, cols: &[usize]) -> usize {
        if self.live == 0 {
            return 0;
        }
        let bits = (self.live * 8).next_power_of_two();
        let mut map = vec![0u64; bits.div_ceil(64)];
        self.for_each_live(|_, row| {
            let b = hash_projection(cols, row) as usize & (bits - 1);
            map[b / 64] |= 1 << (b % 64);
        });
        map.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Call `f` on each live row with its position, in position order.
    /// With no row tombstoned it walks the row pages directly, rather
    /// than testing liveness and addressing each position.
    #[inline]
    fn for_each_live(&self, mut f: impl FnMut(u32, &[ValueId])) {
        if self.dead.is_none() && self.arity > 0 {
            let mut pos = 0;
            for page in &self.rows.pages {
                for row in page.chunks_exact(self.arity) {
                    f(pos, row);
                    pos += 1;
                }
            }
        } else {
            for pos in (0..self.rows.len).filter(|&pos| self.is_live(pos)) {
                f(pos, self.rows.get(pos));
            }
        }
    }

    /// Size a fresh relation's duplicate filter for `n` rows at once — a
    /// bulk load of a known row count (a snapshot's relation) then never
    /// rehashes, and ends at the capacity `n` inserts would have grown it
    /// to. A no-op once the relation has held a row.
    pub fn reserve(&mut self, n: usize) {
        self.seen.table.reserve(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_value::intern;
    use ldl_value::Value;

    fn id(v: i64) -> ValueId {
        intern::mk_int(v)
    }

    fn t(vals: &[i64]) -> Vec<ValueId> {
        vals.iter().map(|&v| id(v)).collect()
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert_slice(&t(&[1, 2])));
        assert!(!r.insert_slice(&t(&[1, 2])));
        assert!(r.insert_slice(&t(&[1, 3])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[id(1), id(2)]));
        assert!(!r.contains(&[id(2), id(1)]));
    }

    #[test]
    fn reserve_ends_where_growth_ends() {
        for n in [0, 1, 12, 13, 24, 25, 1000, 20_000] {
            let mut grown = Relation::new(1);
            let mut reserved = Relation::new(1);
            reserved.reserve(n);
            let cap = reserved.seen.table.tags.len();
            for i in 0..n as i64 {
                assert!(grown.insert_slice(&t(&[i])));
                assert!(reserved.insert_slice(&t(&[i])));
            }
            assert_eq!(reserved.seen.table.tags.len(), cap, "n = {n}: rehashed");
            assert_eq!(cap, grown.seen.table.tags.len(), "n = {n}");
        }
    }

    /// An index built over existing rows holds the same ascending posting
    /// list for every key as one kept from the start, and its table is no
    /// larger than key-at-a-time growth made that one's: the sizing never
    /// buys the low-cardinality `anc[0]` (12 880 rows, 160 keys) or the
    /// 257-key case more slots than they use, and it buys the all-distinct
    /// `par[0]` (20 500 rows) its final table at once.
    #[test]
    fn a_bulk_built_index_equals_the_grown_one_and_is_no_larger() {
        for (rows, keys) in [(12_880, 160), (100_000, 257), (20_500, 20_500)] {
            let row = |i: i64| t(&[i % keys, i]);
            let mut grown = Relation::new(2);
            grown.ensure_index(&[0]);
            let mut built = Relation::new(2);
            for i in 0..rows {
                assert!(grown.insert_slice(&row(i)));
                assert!(built.insert_slice(&row(i)));
            }
            built.ensure_index(&[0]);
            assert_eq!(built.same_state(&grown), Ok(()), "{rows} rows, {keys} keys");
            // No larger than growth's table, and here no smaller either:
            // on one integer column the bound is the exact key count.
            let cap = |r: &Relation| r.indexes[&[0usize][..]].table.tags.len();
            assert_eq!(cap(&built), cap(&grown), "{rows} rows, {keys} keys");
            // A truncation rebuilds both tables at the size a build over
            // the surviving rows has.
            let kept = rows / 3;
            built.truncate(kept as usize);
            grown.truncate(kept as usize);
            assert_eq!(built.same_state(&grown), Ok(()));
            let mut fresh = Relation::new(2);
            for i in 0..kept {
                fresh.insert_slice(&row(i));
            }
            fresh.ensure_index(&[0]);
            assert_eq!(cap(&built), cap(&fresh), "{rows} rows cut to {kept}");
            assert_eq!(cap(&grown), cap(&fresh), "{rows} rows cut to {kept}");
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(2);
        r.insert_slice(&t(&[1]));
    }

    #[test]
    fn index_probe() {
        let mut r = Relation::new(2);
        r.insert_slice(&t(&[1, 10]));
        r.insert_slice(&t(&[1, 20]));
        r.insert_slice(&t(&[2, 30]));
        r.ensure_index(&[0]);
        let hits = r.probe(&[0], &[id(1)]);
        assert_eq!(hits.len(), 2);
        assert_eq!(r.get(hits[0])[1], id(10));
        assert_eq!(r.get(hits[1])[1], id(20));
        assert!(r.probe(&[0], &[id(9)]).is_empty());
    }

    #[test]
    fn index_maintained_incrementally() {
        let mut r = Relation::new(2);
        r.ensure_index(&[1]);
        r.insert_slice(&t(&[1, 10]));
        r.insert_slice(&t(&[2, 10]));
        assert_eq!(r.probe(&[1], &[id(10)]).len(), 2);
        r.insert_slice(&t(&[3, 10]));
        assert_eq!(r.probe(&[1], &[id(10)]).len(), 3);
    }

    #[test]
    fn full_key_probe_is_the_duplicate_filter() {
        let mut r = Relation::new(2);
        r.insert_slice(&t(&[1, 10]));
        r.insert_slice(&t(&[1, 20]));
        // Present without being asked for, and asking builds nothing.
        assert!(r.has_index(&[0, 1]));
        r.ensure_index(&[1, 0]);
        r.ensure_index(&[0, 1]);
        assert!(r.indexes.is_empty());
        assert_eq!(r.probe(&[0, 1], &[id(1), id(20)]), &[1]);
        assert!(r.probe(&[0, 1], &[id(20), id(1)]).is_empty());
        // It follows tombstones, revival and truncation like any index.
        let pos = r.remove_slice(&[id(1), id(20)]).unwrap();
        assert!(r.index(&[0, 1]).unwrap().probe(&[id(1), id(20)]).is_empty());
        r.revive(pos);
        assert_eq!(r.probe(&[0, 1], &[id(1), id(20)]), &[1]);
        r.truncate(1);
        assert!(r.probe(&[0, 1], &[id(1), id(20)]).is_empty());
        assert_eq!(r.probe(&[0, 1], &[id(1), id(10)]), &[0]);
        // A proper subset is still a built index; arity 0 has no columns
        // to bind, so nothing stands in for its empty column list.
        r.ensure_index(&[1]);
        assert_eq!(r.indexes.len(), 1);
        assert!(!Relation::new(0).has_index(&[]));
    }

    #[test]
    fn covering_index_prefers_exact_then_largest_then_smallest_columns() {
        let mut r = Relation::new(4);
        r.insert_slice(&t(&[1, 2, 3, 4]));
        r.insert_slice(&t(&[1, 2, 5, 6]));
        let cols_of =
            |r: &Relation, bound: &[usize]| r.covering_index(bound).map(|(cols, _)| cols.to_vec());
        // No index yet: only the full key (the duplicate filter) answers.
        assert_eq!(cols_of(&r, &[0]), None);
        assert_eq!(cols_of(&r, &[0, 1, 2, 3]), Some(vec![0, 1, 2, 3]));
        assert!(r.indexes.is_empty(), "a lookup builds nothing");
        for cols in [&[0][..], &[2], &[1, 3], &[0, 1], &[]] {
            r.ensure_index(cols);
        }
        assert_eq!(cols_of(&r, &[]), None, "nothing bound");
        assert_eq!(cols_of(&r, &[3]), None, "no index inside [3]");
        assert_eq!(cols_of(&r, &[2]), Some(vec![2]), "exact");
        assert_eq!(cols_of(&r, &[1, 3]), Some(vec![1, 3]), "exact");
        // [0, 1] over the most columns beats [0] and [2]…
        assert_eq!(cols_of(&r, &[0, 1, 2]), Some(vec![0, 1]));
        // …[0] beats [2] on column order, [0, 1] beats [1, 3] likewise.
        assert_eq!(cols_of(&r, &[0, 2]), Some(vec![0]));
        assert_eq!(cols_of(&r, &[0, 1, 3]), Some(vec![0, 1]));
        // Every column bound is the duplicate filter, whatever else exists.
        let (cols, idx) = r.covering_index(&[0, 1, 2, 3]).unwrap();
        assert_eq!(cols, &[0, 1, 2, 3]);
        assert_eq!(idx.probe(&t(&[1, 2, 5, 6])), &[1]);
        // The handle probes with the projection onto the chosen columns.
        let (cols, idx) = r.covering_index(&[0, 1, 2]).unwrap();
        let key: Vec<ValueId> = cols.iter().map(|&c| t(&[1, 2, 5])[c]).collect();
        assert_eq!(idx.probe(&key), &[0, 1]);
        assert_eq!(
            r.index_columns(),
            [
                vec![],
                vec![0],
                vec![0, 1],
                vec![0, 1, 2, 3],
                vec![1, 3],
                vec![2]
            ]
        );
    }

    #[test]
    fn released_extents_are_reused_by_size_class() {
        // 300 keys × 9 postings: every list has moved 1 → 2 → 4 → 8 → 16
        // slots and left three extents behind.
        let fill = |r: &mut Relation, base: i64| {
            for round in 0..9 {
                for key in 0..300 {
                    r.insert_slice(&t(&[key, base + round]));
                }
            }
        };
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        fill(&mut r, 0);
        let slots = r.indexes[&[0usize][..]].postings.arena.len();
        assert_eq!(slots, 300 * (2 + 4 + 8 + 16));
        // Emptied lists give their last extent back too, and refilling
        // every key then finds each size it asks for on a free list: no
        // fresh arena.
        for round in 0..9 {
            for key in 0..300 {
                r.remove_slice(&[id(key), id(round)]).unwrap();
            }
        }
        assert!(r.probe(&[0], &[id(7)]).is_empty());
        fill(&mut r, 100);
        assert_eq!(r.probe(&[0], &[id(7)]).len(), 9);
        assert_eq!(r.indexes[&[0usize][..]].postings.arena.len(), slots);
    }

    #[test]
    fn multi_column_index_key_order_is_sorted_cols() {
        let mut r = Relation::new(3);
        r.insert_slice(&t(&[1, 2, 3]));
        r.ensure_index(&[2, 0]); // normalized to [0, 2]
        assert!(r.has_index(&[0, 2]));
        let hits = r.probe(&[0, 2], &[id(1), id(3)]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn wide_relations_index_beyond_column_64() {
        // Regression: the index registry used a u64 column bitmask and
        // panicked on any column ≥ 64.
        let arity = 70;
        let mut r = Relation::new(arity);
        r.insert_slice(&(0..arity as i64).map(id).collect::<Vec<_>>());
        r.insert_slice(&(100..100 + arity as i64).map(id).collect::<Vec<_>>());
        r.ensure_index(&[68]);
        assert!(r.has_index(&[68]));
        assert_eq!(r.probe(&[68], &[id(68)]).len(), 1);
        assert_eq!(r.probe(&[68], &[id(168)]).len(), 1);
        assert!(r.probe(&[68], &[id(999)]).is_empty());
        r.ensure_index(&[1, 69]);
        assert_eq!(r.probe(&[1, 69], &[id(101), id(169)]), &[1]);
    }

    #[test]
    fn ranges_are_deltas() {
        let mut r = Relation::new(1);
        r.insert_slice(&t(&[1]));
        let mark = r.len();
        r.insert_slice(&t(&[2]));
        r.insert_slice(&t(&[1])); // duplicate, not part of the delta
        r.insert_slice(&t(&[3]));
        let delta: Vec<Vec<ValueId>> = r.range(mark, r.len()).map(<[ValueId]>::to_vec).collect();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0][0], id(2));
        assert_eq!(delta[1][0], id(3));
    }

    #[test]
    fn truncate_restores_snapshot() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        r.insert_slice(&t(&[1, 10]));
        r.insert_slice(&t(&[1, 20]));
        let mark = r.len();
        r.insert_slice(&t(&[1, 30]));
        r.insert_slice(&t(&[2, 40]));
        assert_eq!(r.probe(&[0], &[id(1)]).len(), 3);

        r.truncate(mark);
        assert_eq!(r.len(), 2);
        // Duplicate filter forgets the dropped tuples…
        assert!(!r.contains(&[id(1), id(30)]));
        assert!(r.insert_slice(&t(&[1, 30])));
        // …and indexes are pruned: the (2, 40) posting list is gone, the
        // re-inserted (1, 30) shows up again.
        r.truncate(2);
        assert!(r.probe(&[0], &[id(2)]).is_empty());
        assert_eq!(r.probe(&[0], &[id(1)]).len(), 2);
        // Truncating beyond the end is a no-op.
        r.truncate(99);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arena_pages_grow_and_truncate() {
        let mut r = Relation::new(3);
        assert_eq!(r.arena_pages(), 0);
        let per_page = 1usize << Rows::new(3).shift;
        for x in 0..(2 * per_page + 3) as i64 {
            r.insert_slice(&t(&[x, x + 1, x + 2]));
        }
        assert_eq!(r.arena_pages(), 3);
        assert!(r.arena_bytes() >= 3 * per_page * std::mem::size_of::<ValueId>());
        // Row addressing is stable across page boundaries.
        let boundary = per_page as u32;
        assert_eq!(r.get(boundary - 1)[0], id(per_page as i64 - 1));
        assert_eq!(r.get(boundary)[0], id(per_page as i64));
        // Truncating to a page boundary drops whole pages; to mid-page
        // keeps the partial page.
        r.truncate(per_page + 1);
        assert_eq!(r.arena_pages(), 2);
        r.truncate(per_page);
        assert_eq!(r.arena_pages(), 1);
        assert!(r.insert_slice(&t(&[9999, 0, 0])));
        assert_eq!(r.get(per_page as u32)[0], id(9999));
    }

    #[test]
    fn a_clone_keeps_every_page_at_full_capacity() {
        let mut r = Relation::new(3);
        let per_page = 1usize << r.rows.shift;
        for x in 0..(per_page + 7) as i64 {
            r.insert_slice(&t(&[x, x, x]));
        }
        let mut c = r.clone();
        assert_eq!(c.arena_bytes(), r.arena_bytes());
        // The derived clone sized the tail page to its 7 rows, and this
        // push reallocated it.
        let tail = c.rows.pages[1].as_ptr();
        assert!(c.insert_slice(&t(&[-1, -1, -1])));
        assert_eq!(c.rows.pages[1].as_ptr(), tail, "tail page moved");
        assert_eq!(c.arena_bytes(), r.arena_bytes());
    }

    #[test]
    fn zero_arity_relation_holds_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.insert_slice(&[]));
        assert!(!r.insert_slice(&[]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0), &[] as &[ValueId]);
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.arena_bytes(), 0);
    }

    #[test]
    fn remove_tombstones_and_revive_restores() {
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        r.insert_slice(&t(&[1, 10]));
        r.insert_slice(&t(&[1, 20]));
        r.insert_slice(&t(&[2, 30]));
        let pos = r.remove_slice(&[id(1), id(10)]).unwrap();
        assert_eq!(pos, 0);
        assert_eq!(r.len(), 3, "len stays physical");
        assert_eq!(r.live_len(), 2);
        assert!(!r.contains(&[id(1), id(10)]));
        assert!(!r.is_live(0) && r.is_live(1) && r.is_live(2));
        // Index postings are pruned eagerly…
        assert_eq!(r.probe(&[0], &[id(1)]), &[1]);
        // …and iter skips the tombstone.
        assert_eq!(r.iter().count(), 2);
        // Removing a non-member (or the same tuple twice) is None.
        assert!(r.remove_slice(&[id(1), id(10)]).is_none());
        assert!(r.remove_slice(&[id(9), id(9)]).is_none());

        r.revive(pos);
        assert!(r.contains(&[id(1), id(10)]));
        assert_eq!(r.live_len(), 3);
        // Posting order is restored ascending, not appended.
        assert_eq!(r.probe(&[0], &[id(1)]), &[0, 1]);
        r.revive(pos); // double revive is a no-op
        assert_eq!(r.live_len(), 3);
    }

    #[test]
    fn removed_tuple_can_be_reinserted_at_new_position() {
        let mut r = Relation::new(1);
        r.insert_slice(&t(&[7]));
        r.remove_slice(&[id(7)]).unwrap();
        assert!(
            r.insert_slice(&t(&[7])),
            "tombstoned tuple is re-insertable"
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.live_len(), 1);
        assert_eq!(r.position_of(&[id(7)]), Some(1));
    }

    #[test]
    fn truncate_interacts_with_tombstones() {
        let mut r = Relation::new(1);
        r.insert_slice(&t(&[1]));
        r.insert_slice(&t(&[2]));
        let p1 = r.remove_slice(&[id(1)]).unwrap();
        let mark = r.len();
        r.insert_slice(&t(&[1])); // revived-by-reinsert above the mark
        r.insert_slice(&t(&[3]));
        r.remove_slice(&[id(3)]).unwrap();

        r.truncate(mark);
        // The pre-mark tombstone survives; post-mark state is gone.
        assert_eq!(r.len(), 2);
        assert_eq!(r.live_len(), 1);
        assert!(!r.contains(&[id(1)]));
        assert!(r.contains(&[id(2)]));
        r.revive(p1);
        assert!(r.contains(&[id(1)]));
        assert_eq!(r.live_len(), 2);
    }

    #[test]
    fn set_valued_columns_index_correctly() {
        let mut r = Relation::new(2);
        let s12 = intern::id_of(&Value::set(vec![Value::int(1), Value::int(2)]));
        let s21 = intern::id_of(&Value::set(vec![Value::int(2), Value::int(1)]));
        r.insert_slice(&[intern::id_of(&Value::atom("a")), s12]);
        r.ensure_index(&[1]);
        // Canonical sets: {2,1} interns equal to {1,2}.
        assert_eq!(r.probe(&[1], &[s21]).len(), 1);
    }
}
