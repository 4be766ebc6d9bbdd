//! Ground values: elements of the LDL1 universe `U`.

use std::fmt;
use std::sync::Arc;

use crate::set::SetValue;
use crate::symbol::Symbol;

/// A ground element of the LDL1 universe.
///
/// `Int`, `Str`, and `Atom` are the constants of `U₀`; `Compound` is function
/// application (never `scons` — `scons` *evaluates* during binding, per
/// restriction (1) of §2.2); `Set` is a canonical finite set, the `F(·)`
/// closure that distinguishes `U` from the Herbrand universe.
///
/// Values are cheap to clone: compound arguments and set elements live behind
/// `Arc`s.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// A string constant (double-quoted in the concrete syntax).
    Str(Arc<str>),
    /// An atomic constant such as `john`.
    Atom(Symbol),
    /// A compound term `f(t₁, …, tₙ)` with n ≥ 1.
    Compound(Compound),
    /// A canonical finite set.
    Set(SetValue),
}

/// A ground compound term `f(t₁, …, tₙ)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Compound {
    functor: Symbol,
    args: Arc<[Value]>,
}

impl Compound {
    /// Build `functor(args…)`. Zero-argument compounds are represented as
    /// [`Value::Atom`]; use [`Value::compound`] which normalizes.
    fn new(functor: Symbol, args: Vec<Value>) -> Compound {
        debug_assert!(!args.is_empty(), "nullary compound must be an Atom");
        Compound {
            functor,
            args: args.into(),
        }
    }

    /// The functor symbol.
    pub fn functor(&self) -> Symbol {
        self.functor
    }

    /// The argument values.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Arity (number of arguments, ≥ 1).
    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

impl Value {
    /// An atom value, interning the name.
    pub fn atom(name: &str) -> Value {
        Value::Atom(Symbol::intern(name))
    }

    /// An integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// A string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// A compound term; a nullary application normalizes to an atom.
    pub fn compound(functor: impl Into<Symbol>, args: Vec<Value>) -> Value {
        let functor = functor.into();
        if args.is_empty() {
            Value::Atom(functor)
        } else {
            Value::Compound(Compound::new(functor, args))
        }
    }

    /// A set value from any collection of elements (canonicalized).
    pub fn set(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(SetValue::from_iter(elems))
    }

    /// The empty set `{}`.
    pub fn empty_set() -> Value {
        Value::Set(SetValue::empty())
    }

    /// The `⊥` sentinel used by the §3.3 negation→grouping transformation.
    /// Its use is "prohibited in programs", so the parser rejects the name.
    pub fn bottom() -> Value {
        Value::atom("'⊥'")
    }

    /// View as a set, if it is one.
    pub fn as_set(&self) -> Option<&SetValue> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// View as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Structural size: number of constant/function/set nodes. Useful for
    /// bounding property-test generators and for diagnostics.
    pub fn size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Str(_) | Value::Atom(_) => 1,
            Value::Compound(c) => 1 + c.args().iter().map(Value::size).sum::<usize>(),
            Value::Set(s) => 1 + s.iter().map(Value::size).sum::<usize>(),
        }
    }

    /// Rank of the variant for the total order (Int < Str < Atom < Compound <
    /// Set).
    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Str(_) => 1,
            Value::Atom(_) => 2,
            Value::Compound(_) => 3,
            Value::Set(_) => 4,
        }
    }
}

/// Total order on values.
///
/// The paper needs no order on `U`, but a total order gives sets a canonical
/// sorted representation, making set equality, hashing, and membership cheap.
/// Atoms and functors compare by *name* so the order (and therefore printed
/// set element order) does not depend on interning order.
impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Atom(a), Value::Atom(b)) => a.as_str().cmp(b.as_str()),
            (Value::Compound(a), Value::Compound(b)) => a
                .functor()
                .as_str()
                .cmp(b.functor().as_str())
                .then_with(|| a.arity().cmp(&b.arity()))
                .then_with(|| a.args().cmp(b.args())),
            (Value::Set(a), Value::Set(b)) => a.as_slice().cmp(b.as_slice()),
            _ => self.rank().cmp(&other.rank()).then(Ordering::Equal),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Atom(a) => write!(f, "{a}"),
            Value::Compound(c) => {
                // Lists print in their surface syntax.
                if c.functor().as_str() == "cons" && c.arity() == 2 {
                    f.write_str("[")?;
                    let mut head = &c.args()[0];
                    let mut tail = &c.args()[1];
                    loop {
                        write!(f, "{head}")?;
                        match tail {
                            Value::Compound(c2)
                                if c2.functor().as_str() == "cons" && c2.arity() == 2 =>
                            {
                                f.write_str(", ")?;
                                head = &c2.args()[0];
                                tail = &c2.args()[1];
                            }
                            Value::Atom(a) if a.as_str() == "nil" => break,
                            other => {
                                write!(f, " | {other}")?;
                                break;
                            }
                        }
                    }
                    return f.write_str("]");
                }
                write!(f, "{}(", c.functor())?;
                for (i, arg) in c.args().iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                f.write_str(")")
            }
            Value::Set(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nullary_compound_is_atom() {
        assert_eq!(Value::compound("a", vec![]), Value::atom("a"));
    }

    #[test]
    fn set_canonicalizes_order_and_duplicates() {
        let a = Value::set(vec![Value::int(2), Value::int(1), Value::int(2)]);
        let b = Value::set(vec![Value::int(1), Value::int(2)]);
        assert_eq!(a, b);
        assert_eq!(format!("{a}"), "{1, 2}");
    }

    #[test]
    fn display_forms() {
        let v = Value::compound("f", vec![Value::atom("a"), Value::int(3)]);
        assert_eq!(format!("{v}"), "f(a, 3)");
        assert_eq!(format!("{}", Value::empty_set()), "{}");
        assert_eq!(format!("{}", Value::str("hi")), "\"hi\"");
    }

    #[test]
    fn atoms_order_by_name_not_intern_order() {
        let z = Value::atom("zz_value_order");
        let a = Value::atom("aa_value_order");
        assert!(a < z);
    }

    #[test]
    fn variant_ranks_are_total() {
        let vals = [
            Value::int(0),
            Value::str("s"),
            Value::atom("a"),
            Value::compound("f", vec![Value::int(1)]),
            Value::empty_set(),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} < {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn compound_orders_by_functor_arity_args() {
        let f1 = Value::compound("f", vec![Value::int(1)]);
        let f2 = Value::compound("f", vec![Value::int(2)]);
        let f11 = Value::compound("f", vec![Value::int(1), Value::int(1)]);
        let g1 = Value::compound("g", vec![Value::int(0)]);
        assert!(f1 < f2);
        assert!(f2 < f11); // arity before args
        assert!(f11 < g1); // functor name first
    }

    #[test]
    fn size_counts_nodes() {
        let v = Value::set(vec![
            Value::compound("f", vec![Value::int(1), Value::int(2)]),
            Value::int(3),
        ]);
        // set node + compound + 2 ints + 1 int
        assert_eq!(v.size(), 5);
    }

    #[test]
    fn nested_sets_compare_structurally() {
        let inner = Value::set(vec![Value::int(1)]);
        let s1 = Value::set(vec![inner.clone()]);
        let s2 = Value::set(vec![Value::set(vec![Value::int(1)])]);
        assert_eq!(s1, s2);
        assert!(s1.as_set().unwrap().contains(&inner));
    }
}
