//! Variable bindings with trail-based undo.
//!
//! Rule bodies are evaluated by nested-loop/index joins that bind variables
//! incrementally and backtrack. A [`Bindings`] is a stack of
//! (variable, id) pairs: binding pushes, backtracking truncates to a
//! [`Mark`]. Lookup is a linear scan — rules have a handful of variables, so
//! this beats any map. Values are interned [`ValueId`]s, so a slot is two
//! words and an equality check is an integer compare.

use ldl_ast::term::Var;
use ldl_value::ValueId;

/// A snapshot of the binding stack, for undo.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mark(usize);

/// The binding environment `θ` of §3.2.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    slots: Vec<(Var, ValueId)>,
}

impl Bindings {
    /// An empty environment.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// The current value of `v`, if bound.
    pub fn get(&self, v: Var) -> Option<ValueId> {
        self.slots
            .iter()
            .rev()
            .find(|(u, _)| *u == v)
            .map(|&(_, val)| val)
    }

    /// Is `v` bound?
    pub fn is_bound(&self, v: Var) -> bool {
        self.get(v).is_some()
    }

    /// Bind `v` to `val`. The caller must know `v` is unbound (debug-checked)
    /// — rebinding is always a bug; equality tests go through matching.
    pub fn bind(&mut self, v: Var, val: ValueId) {
        debug_assert!(self.get(v).is_none(), "rebinding {v}");
        self.slots.push((v, val));
    }

    /// Snapshot for later [`Bindings::undo`].
    pub fn mark(&self) -> Mark {
        Mark(self.slots.len())
    }

    /// Roll back to a snapshot.
    pub fn undo(&mut self, m: Mark) {
        self.slots.truncate(m.0);
    }
}

/// What tests read of an environment: the engine reads a binding only by
/// its variable.
#[cfg(test)]
impl Bindings {
    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Any bindings at all?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterate current bindings (innermost last).
    pub fn iter(&self) -> impl Iterator<Item = (Var, ValueId)> + '_ {
        self.slots.iter().map(|&(v, val)| (v, val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_value::intern;

    #[test]
    fn bind_and_get() {
        let mut b = Bindings::new();
        let x = Var::new("X");
        assert!(!b.is_bound(x));
        b.bind(x, intern::mk_int(1));
        assert_eq!(b.get(x), Some(intern::mk_int(1)));
    }

    #[test]
    fn mark_undo() {
        let mut b = Bindings::new();
        let (x, y) = (Var::new("X"), Var::new("Y"));
        b.bind(x, intern::mk_int(1));
        let m = b.mark();
        b.bind(y, intern::mk_int(2));
        assert!(b.is_bound(y));
        b.undo(m);
        assert!(!b.is_bound(y));
        assert!(b.is_bound(x));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rebinding")]
    fn rebinding_panics_in_debug() {
        let mut b = Bindings::new();
        let x = Var::new("X");
        b.bind(x, intern::mk_int(1));
        b.bind(x, intern::mk_int(2));
    }
}
