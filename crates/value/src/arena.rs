//! The append-only table behind both interners, [`crate::Symbol`]'s names
//! and [`crate::intern`]'s values: two `static` instances, two write locks.
//! Ids are dense `u32`s in first-intern order. Entries live in doubling
//! chunks that never move, published with release/acquire atomics, so
//! reading one is an acquire load and an index; only adding an entry takes
//! the write lock, which also guards the hash-consing map from a view of
//! each entry to its id.

use std::borrow::Borrow;
use std::cell::UnsafeCell;
use std::hash::{BuildHasherDefault, Hash};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::fxhash::FastMap;

/// Chunk 0 holds `1 << FIRST_CHUNK_BITS` entries; each later chunk doubles.
const FIRST_CHUNK_BITS: u32 = 12;
/// 20 doubling chunks cover every id below [`CAPACITY`].
const CHUNK_COUNT: usize = 20;
/// Ids stay below `1 << 31`, so bit 31 is free for a caller's tag.
pub(crate) const CAPACITY: u32 = 1 << 31;

/// `(chunk, offset, capacity)` of entry `idx`.
#[inline]
fn locate(idx: u32) -> (usize, usize, usize) {
    let bucket = ((idx >> FIRST_CHUNK_BITS) + 1).ilog2();
    let start = ((1u64 << bucket) - 1) << FIRST_CHUNK_BITS;
    let cap = 1usize << (FIRST_CHUNK_BITS + bucket);
    (bucket as usize, (idx as u64 - start) as usize, cap)
}

/// A process-global, append-only interner of `T`s, looked up by `K` (a
/// view every `T` lends, such as `str` for a `Box<str>`).
pub(crate) struct Arena<T: 'static, K: ?Sized + 'static = T> {
    /// Chunk 0's storage, inside the `static` itself, so an arena that
    /// never outgrows it takes nothing from the heap.
    first: UnsafeCell<[MaybeUninit<T>; 1 << FIRST_CHUNK_BITS]>,
    /// `first`, then lazily allocated chunks, never freed; slot `i` is
    /// valid once `len > i`.
    chunks: [AtomicPtr<T>; CHUNK_COUNT],
    /// Published length: a `Release` store after the slot write makes the
    /// entry visible to any reader that `Acquire`-loads a length past it.
    len: AtomicU32,
    /// The hash-consing table, keyed by views of the published entries
    /// themselves, so each entry is stored once; also the sole writer gate.
    ids: Mutex<FastMap<&'static K, u32>>,
}

// SAFETY: `first` is written only under the `ids` lock, each slot once
// and before `len` publishes it (see `Writer::push`), and read only below
// `len`; every other field is `Sync` (`ids` because `K: Sync`). Readers
// on any thread get `&T`, also through the map's views, and the lock's
// holder on any thread writes a `T`, hence `T: Send + Sync`.
unsafe impl<T: Send + Sync, K: ?Sized + Sync> Sync for Arena<T, K> {}

impl<T: Borrow<K> + Send + Sync, K: ?Sized + Eq + Hash + Sync> Arena<T, K> {
    /// An empty arena.
    pub(crate) const fn new() -> Self {
        Arena {
            first: UnsafeCell::new([const { MaybeUninit::uninit() }; 1 << FIRST_CHUNK_BITS]),
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; CHUNK_COUNT],
            len: AtomicU32::new(0),
            ids: Mutex::new(FastMap::with_hasher(BuildHasherDefault::new())),
        }
    }

    /// The entry `idx` — the lock-free read path.
    #[inline]
    pub(crate) fn get(&'static self, idx: u32) -> &'static T {
        debug_assert!(idx < self.len(), "arena id {idx} out of bounds");
        let (chunk, offset, _) = locate(idx);
        let ptr = self.chunks[chunk].load(Ordering::Acquire);
        // SAFETY: `idx` was handed out by `Writer::push`, which wrote the
        // slot and its chunk pointer before publishing `len`; the id reached
        // this thread through some synchronization that happened after.
        unsafe { &*ptr.add(offset) }
    }

    /// Number of entries published so far.
    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// Take the write lock: the way to look an entry up by key or add one.
    pub(crate) fn lock(&'static self) -> Writer<T, K> {
        Writer {
            arena: self,
            ids: self.ids.lock().expect("interner poisoned"),
        }
    }
}

/// An [`Arena`]'s write lock, held.
pub(crate) struct Writer<T: 'static, K: ?Sized + 'static = T> {
    arena: &'static Arena<T, K>,
    ids: MutexGuard<'static, FastMap<&'static K, u32>>,
}

impl<T: Borrow<K> + Send + Sync, K: ?Sized + Eq + Hash + Sync> Writer<T, K> {
    /// The id of the entry whose view equals `key`, if there is one.
    pub(crate) fn find(&self, key: &K) -> Option<u32> {
        self.ids.get(key).copied()
    }

    /// Append `entry`, whose view no present entry shares, and publish it.
    pub(crate) fn push(&mut self, entry: T) -> u32 {
        let arena = self.arena;
        let idx = arena.len.load(Ordering::Relaxed);
        assert!(idx < CAPACITY, "too many interned entries");
        let (chunk, offset, cap) = locate(idx);
        let mut ptr = arena.chunks[chunk].load(Ordering::Acquire);
        if ptr.is_null() {
            // Chunk 0 is `first`; leak an uninitialized chunk for the rest.
            // Slots are written before `len` publishes them, so readers
            // never see an uninitialized entry.
            ptr = match chunk {
                0 => arena.first.get().cast::<T>(),
                _ => Box::leak(Box::<[T]>::new_uninit_slice(cap))
                    .as_mut_ptr()
                    .cast::<T>(),
            };
            arena.chunks[chunk].store(ptr, Ordering::Release);
        }
        // SAFETY: `offset < cap` by `locate`, the slot is below `len` for no
        // reader yet, and the held lock makes this the only writer. The slot
        // is never moved, written again or dropped, so the map may keep a
        // `'static` view of it.
        let slot: &'static T = unsafe {
            ptr.add(offset).write(entry);
            &*ptr.add(offset)
        };
        arena.len.store(idx + 1, Ordering::Release);
        self.ids.insert(slot.borrow(), idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0, 4096));
        assert_eq!(locate(4095), (0, 4095, 4096));
        assert_eq!(locate(4096), (1, 0, 8192));
        assert_eq!(locate(12287), (1, 8191, 8192));
        assert_eq!(locate(12288), (2, 0, 16384));
        let (c, o, cap) = locate(CAPACITY - 1);
        assert!(c < CHUNK_COUNT && o < cap);
    }
}
