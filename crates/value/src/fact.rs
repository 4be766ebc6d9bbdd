//! Ground U-facts and interpretations.
//!
//! A *U-fact* (§2.2) is `p(e₁, …, eₙ)` with each `eᵢ ∈ U`. A set of U-facts
//! defines an interpretation over the LDL1 universe, analogously to Herbrand
//! interpretations; built-in predicates have a fixed interpretation and are
//! never stored.

use std::fmt;
use std::sync::Arc;

use crate::fxhash::FastSet;
use crate::symbol::Symbol;
use crate::value::Value;

/// A ground fact `p(e₁, …, eₙ)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    pred: Symbol,
    args: Arc<[Value]>,
}

/// An interpretation: a finite set of U-facts.
pub type FactSet = FastSet<Fact>;

impl Fact {
    /// Build `pred(args…)`.
    pub fn new(pred: impl Into<Symbol>, args: Vec<Value>) -> Fact {
        Fact {
            pred: pred.into(),
            args: args.into(),
        }
    }

    /// The predicate symbol.
    pub fn pred(&self) -> Symbol {
        self.pred
    }

    /// The argument values.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        if self.args.is_empty() {
            return Ok(());
        }
        f.write_str("(")?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_display() {
        let f = Fact::new("parent", vec![Value::atom("a"), Value::atom("b")]);
        assert_eq!(f.to_string(), "parent(a, b)");
        let zero = Fact::new("true_fact", vec![]);
        assert_eq!(zero.to_string(), "true_fact");
    }

    #[test]
    fn fact_equality_is_structural() {
        let a = Fact::new("p", vec![Value::int(1)]);
        let b = Fact::new("p", vec![Value::int(1)]);
        assert_eq!(a, b);
        let mut s = FactSet::default();
        s.insert(a);
        assert!(!s.insert(b));
    }
}
