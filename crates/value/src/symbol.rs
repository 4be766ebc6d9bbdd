//! Global interner for atom, functor, and predicate names.
//!
//! LDL1 programs mention the same names (predicate symbols, functors,
//! constants) very many times during bottom-up evaluation. Interning them to a
//! `u32` makes value comparison, hashing, and join keys cheap, and lets tuples
//! be copied without touching string allocations. The names live in the same
//! append-only arena code as the value interner ([`crate::intern`]), in an
//! instance of their own: [`Symbol::as_str`] takes no lock, and only a name
//! never seen before takes the names' write lock.

use std::fmt;

use crate::arena::Arena;

/// An interned name. Two symbols are equal iff they intern the same string.
///
/// Symbols are process-global: they never expire, ids are handed out in
/// first-intern order, and `as_str` returns a `'static` string (the interner
/// keeps one copy of every distinct name for the life of the process, the
/// standard trade-off for a process-lifetime interner).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// The name arena: entry `i` is the name of `Symbol(i)`.
static NAMES: Arena<Box<str>, str> = Arena::new();

impl Symbol {
    /// Intern `name`, returning its unique symbol. A known name allocates
    /// nothing.
    pub fn intern(name: &str) -> Symbol {
        let mut names = NAMES.lock();
        Symbol(names.find(name).unwrap_or_else(|| names.push(name.into())))
    }

    /// The interned string — a lock-free read.
    #[inline]
    pub fn as_str(self) -> &'static str {
        NAMES.get(self.0)
    }

    /// Derive a fresh related symbol by applying `f` to the name; used by the
    /// source transformations (magic predicates, `p̄` complements, generated
    /// helper predicates).
    pub fn map_name(self, f: impl FnOnce(&str) -> String) -> Symbol {
        Symbol::intern(&f(self.as_str()))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("ancestor");
        let b = Symbol::intern("ancestor");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "ancestor");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("p"), Symbol::intern("q"));
    }

    #[test]
    fn from_str_matches_intern() {
        let s: Symbol = "parent".into();
        assert_eq!(s, Symbol::intern("parent"));
    }

    #[test]
    fn map_name_derives_related_symbol() {
        let p = Symbol::intern("sg");
        let m = p.map_name(|n| format!("magic_{n}"));
        assert_eq!(m.as_str(), "magic_sg");
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("tc");
        assert_eq!(format!("{s}"), "tc");
        assert_eq!(format!("{s:?}"), "Symbol(\"tc\")");
    }

    #[test]
    fn symbols_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Symbol>();
    }
}
