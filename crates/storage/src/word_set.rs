//! A set of 64-bit words, for tuples of one or two ids packed into a word.
//!
//! A marked rule pass (`ldl_eval::fixpoint`) keeps one to drop a head tuple
//! it has already emitted before the tuple reaches its buffer. The tuple's
//! ids pack into the key itself ([`WordSet::key`]), so a lookup compares
//! words inside the table and never reads a row: one multiply for the
//! hash, linear probing. A set keyed by a buffer position and compared
//! through the buffer's slice measured no faster than the merge it was to
//! spare (EXPERIMENTS.md P52).

use ldl_value::ValueId;

/// A set of `u64` keys: open addressing with linear probing, the hash one
/// multiply, grown fourfold at half full from [`WordSet::FIRST`] slots.
/// `u64::MAX` marks a free slot; that one key — the pair of two all-ones
/// ids — is a flag of its own.
#[derive(Default)]
pub struct WordSet {
    slots: Vec<u64>,
    len: usize,
    /// `64 − log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    holds_free: bool,
}

impl WordSet {
    /// The first table's slot count (8 KB). A tuple pass that keeps a few
    /// thousand tuples grows twice at most.
    pub const FIRST: usize = 1 << 10;
    const FREE: u64 = u64::MAX;

    /// The key of a tuple of one or two ids: their bits, the first id in
    /// the high half. Equal keys, equal tuples of one arity.
    #[inline]
    pub fn key(ids: &[ValueId]) -> u64 {
        debug_assert!(ids.len() <= 2, "a key packs at most two ids");
        ids.iter().fold(0, |k, id| k << 32 | u64::from(id.bits()))
    }

    /// Add `key`; `false` if it was already present.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        if key == Self::FREE {
            return !std::mem::replace(&mut self.holds_free, true);
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                Self::FREE => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let cap = if self.slots.is_empty() {
            Self::FIRST
        } else {
            4 * self.slots.len()
        };
        let old = std::mem::replace(&mut self.slots, vec![Self::FREE; cap]);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for key in old.into_iter().filter(|&k| k != Self::FREE) {
            let mut i = self.home(key);
            while self.slots[i] != Self::FREE {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_value::intern;
    use std::collections::HashSet;

    fn len(set: &WordSet) -> usize {
        set.len + usize::from(set.holds_free)
    }

    /// Against `HashSet` over keys that collide in their low and high
    /// halves, across two growths, with the free-slot key among them.
    #[test]
    fn agrees_with_a_hash_set_across_growth() {
        let mut set = WordSet::default();
        let mut oracle = HashSet::new();
        let mut x: u64 = 1;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = match i % 5 {
                0 => u64::MAX,
                1 => x >> 52,
                2 => (x >> 54) << 32,
                _ => x % 3_000,
            };
            assert_eq!(set.insert(key), oracle.insert(key), "key {key:#x}");
        }
        assert_eq!(len(&set), oracle.len());
        assert!(set.slots.len() > WordSet::FIRST, "the table grew");
    }

    /// A pair and its mirror are different keys, and the pair of two −1s
    /// is the free-slot key, which the set keeps in its flag.
    #[test]
    fn a_key_keeps_the_order_of_its_ids() {
        let (a, b) = (intern::mk_int(1), intern::mk_int(2));
        assert_ne!(WordSet::key(&[a, b]), WordSet::key(&[b, a]));
        assert_eq!(WordSet::key(&[a]), u64::from(a.bits()));
        let minus_one = intern::mk_int(-1);
        assert_eq!(WordSet::key(&[minus_one, minus_one]), u64::MAX);
        let mut set = WordSet::default();
        assert!(set.insert(WordSet::key(&[minus_one, minus_one])));
        assert!(!set.insert(u64::MAX));
        assert_eq!(len(&set), 1);
    }
}
