//! Finite sets — the `F(·)` closure of §2.2 — and the one implementation
//! of its set algebra.
//!
//! A [`SetValue`] is the structural form: elements sorted (by the total
//! order on [`Value`]) and deduplicated behind an `Arc`, so equality and
//! hashing are structural, membership is a binary search, and cloning a
//! set is a refcount bump. It is a constructor and a container only.
//!
//! The operations — `scons` (`S ∪ {h}`), `S − {h}`, union, intersection,
//! difference, subset and disjointness — are the kernels below, on the
//! interned form the engine runs on: a set's element slice in canonical
//! [`intern::cmp_ids`] order, so each is one binary search or one linear
//! merge, and a result slice is canonical as built (it interns through
//! [`intern::mk_set_sorted`]). The built-ins, matching and the register
//! programs all call these.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::intern::{self, Node, ValueId};
use crate::value::Value;

/// A canonical (sorted, deduplicated) finite set of values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetValue {
    elems: Arc<[Value]>,
}

impl SetValue {
    /// The empty set `{}`.
    pub fn empty() -> SetValue {
        static EMPTY: std::sync::OnceLock<SetValue> = std::sync::OnceLock::new();
        EMPTY
            .get_or_init(|| SetValue {
                elems: Arc::from(Vec::new()),
            })
            .clone()
    }

    /// Build from elements, sorting and deduplicating.
    ///
    /// Shadows `FromIterator::from_iter` on purpose: the inherent method is
    /// the canonical constructor and the trait impl delegates here.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(elems: impl IntoIterator<Item = Value>) -> SetValue {
        let mut v: Vec<Value> = elems.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        SetValue { elems: v.into() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Is this the empty set?
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The elements in canonical order.
    pub fn as_slice(&self) -> &[Value] {
        &self.elems
    }

    /// Iterate elements in canonical order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.elems.iter()
    }

    /// Membership test (`member(t, S)` built-in): binary search.
    pub fn contains(&self, v: &Value) -> bool {
        self.elems.binary_search(v).is_ok()
    }
}

impl fmt::Display for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{e}")?;
        }
        f.write_str("}")
    }
}

impl fmt::Debug for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromIterator<Value> for SetValue {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> SetValue {
        SetValue::from_iter(iter)
    }
}

/// The canonical element slice of an interned set, or `None` for a
/// non-set.
#[inline]
pub fn as_set(v: ValueId) -> Option<&'static [ValueId]> {
    match intern::node(v) {
        Some(Node::Set(elems)) => Some(elems),
        _ => None,
    }
}

/// `scons(h, S) = S ∪ {h}` (restriction (1) of §2.2): `s` itself when `h`
/// is already a member; `None` when `s` is not a set — an object outside
/// `U`.
pub fn insert(s: ValueId, h: ValueId) -> Option<ValueId> {
    let elems = as_set(s)?;
    Some(match elems.binary_search_by(|&e| intern::cmp_ids(e, h)) {
        Ok(_) => s,
        Err(at) => {
            let mut out = Vec::with_capacity(elems.len() + 1);
            out.extend_from_slice(&elems[..at]);
            out.push(h);
            out.extend_from_slice(&elems[at..]);
            intern::mk_set_sorted(out)
        }
    })
}

/// `S − {h}`: `s` itself when `h` is not a member; `None` when `s` is not a
/// set.
pub fn remove(s: ValueId, h: ValueId) -> Option<ValueId> {
    let elems = as_set(s)?;
    Some(match elems.binary_search_by(|&e| intern::cmp_ids(e, h)) {
        Ok(at) => {
            let mut out = Vec::with_capacity(elems.len() - 1);
            out.extend_from_slice(&elems[..at]);
            out.extend_from_slice(&elems[at + 1..]);
            intern::mk_set_sorted(out)
        }
        Err(_) => s,
    })
}

/// `a ∪ b` of two canonical element slices, canonical.
pub fn merge_union(a: &[ValueId], b: &[ValueId]) -> Vec<ValueId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match intern::cmp_ids(a[i], b[j]) {
            Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// `a ∩ b` (`keep = true`) or `a − b` (`keep = false`) of two canonical
/// element slices: the elements of `a` that are / are not in `b`,
/// canonical.
pub fn merge_filter(a: &[ValueId], b: &[ValueId], keep: bool) -> Vec<ValueId> {
    let mut out = Vec::new();
    let mut j = 0;
    for &x in a {
        while j < b.len() && intern::cmp_ids(b[j], x) == Ordering::Less {
            j += 1;
        }
        let present = j < b.len() && b[j] == x;
        if present == keep {
            out.push(x);
        }
    }
    out
}

/// Is canonical `a` a subset of canonical `b`?
pub fn is_subset(a: &[ValueId], b: &[ValueId]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && intern::cmp_ids(b[j], x) == Ordering::Less {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Are canonical `a` and `b` disjoint (the LPS `disj` example of §5)?
pub fn is_disjoint(a: &[ValueId], b: &[ValueId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match intern::cmp_ids(a[i], b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(xs: &[i64]) -> SetValue {
        xs.iter().map(|&i| Value::int(i)).collect()
    }

    #[test]
    fn canonical_construction() {
        assert_eq!(ints(&[3, 1, 2, 1]), ints(&[1, 2, 3]));
        assert_eq!(ints(&[]).len(), 0);
        assert!(ints(&[]).is_empty());
    }

    #[test]
    fn membership() {
        let s = ints(&[1, 3, 5]);
        assert!(s.contains(&Value::int(3)));
        assert!(!s.contains(&Value::int(2)));
    }

    #[test]
    fn empty_set_is_shared() {
        let a = SetValue::empty();
        let b = SetValue::empty();
        assert_eq!(a, b);
        assert!(std::sync::Arc::ptr_eq(&a.elems, &b.elems));
    }
}
