//! Global string interner for atom, functor, and predicate names.
//!
//! LDL1 programs mention the same names (predicate symbols, functors,
//! constants) very many times during bottom-up evaluation. Interning them to a
//! `u32` makes value comparison, hashing, and join keys cheap, and lets tuples
//! be copied without touching string allocations.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned name. Two symbols are equal iff they intern the same string.
///
/// Symbols are process-global: they never expire, and `as_str` returns a
/// `'static` string (the interner leaks one copy of every distinct name, which
/// is the standard trade-off for a process-lifetime interner).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Intern `name`, returning its unique symbol.
    pub fn intern(name: &str) -> Symbol {
        let mut int = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = int.ids.get(name) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(int.names.len()).expect("too many interned symbols");
        int.names.push(leaked);
        int.ids.insert(leaked, id);
        Symbol(id)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        let int = interner().lock().expect("symbol interner poisoned");
        int.names[self.0 as usize]
    }

    /// The raw interner id. Stable within a process run only.
    pub fn id(self) -> u32 {
        self.0
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
