//! Atoms and literals.

use std::fmt;

use ldl_value::Symbol;

use crate::program::Builtin;
use crate::term::{Term, Var};

/// A positive predicate application `p(t₁, …, tₙ)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: Symbol,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build `pred(args…)`.
    pub fn new(pred: impl Into<Symbol>, args: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            args,
        }
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// All named variables, first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.args {
            t.vars(&mut out);
        }
        out
    }

    /// Variables occurring outside every `<…>` in the arguments (the `Z̄` of
    /// §2.2's grouping semantics).
    pub fn vars_outside_group(&self) -> Vec<Var> {
        let mut out = Vec::new();
        for t in &self.args {
            t.vars_outside_group(&mut out);
        }
        out
    }

    /// Does any argument contain `<…>`?
    pub fn has_group(&self) -> bool {
        self.args.iter().any(Term::has_group)
    }

    /// Positions of arguments that are exactly `<X>`.
    pub fn simple_group_positions(&self) -> Vec<(usize, Var)> {
        self.args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_simple_group().map(|v| (i, v)))
            .collect()
    }

    /// Apply a substitution to every argument.
    pub fn substitute(&self, subst: &dyn Fn(Var) -> Option<Term>) -> Atom {
        Atom {
            pred: self.pred,
            args: self.args.iter().map(|t| t.substitute(subst)).collect(),
        }
    }
}

impl fmt::Display for Atom {
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

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A body literal: a positive or negated predicate (§2.1).
///
/// Comparisons and arithmetic appear as predicates with reserved names
/// (`=`, `/=`, `<`, …, `+`, `-`, …) and are recognized by the evaluator; the
/// stratifier ignores them (they are built-ins with fixed interpretations).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// `true` for `p(…)`, `false` for `¬p(…)`.
    pub positive: bool,
    /// The underlying predicate application.
    pub atom: Atom,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            positive: true,
            atom,
        }
    }

    /// A negated literal `¬p(…)`.
    pub fn neg(atom: Atom) -> Literal {
        Literal {
            positive: false,
            atom,
        }
    }

    /// The built-in this literal calls, if its predicate and arity name one
    /// — the one place that decides whether a literal reads a relation.
    #[inline]
    pub fn builtin(&self) -> Option<Builtin> {
        Builtin::resolve(self.atom.pred, self.atom.arity())
    }

    /// All named variables of the underlying atom.
    pub fn vars(&self) -> Vec<Var> {
        self.atom.vars()
    }

    /// Apply a substitution.
    pub fn substitute(&self, subst: &dyn Fn(Var) -> Option<Term>) -> Literal {
        Literal {
            positive: self.positive,
            atom: self.atom.substitute(subst),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.positive {
            f.write_str("~")?;
        }
        write!(f, "{}", self.atom)
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_display() {
        let a = Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]);
        assert_eq!(a.to_string(), "ancestor(X, Y)");
        assert_eq!(Atom::new("halt", vec![]).to_string(), "halt");
    }

    #[test]
    fn literal_display_negation() {
        let a = Atom::new("a", vec![Term::var("X"), Term::var("Z")]);
        assert_eq!(Literal::neg(a.clone()).to_string(), "~a(X, Z)");
        assert_eq!(Literal::pos(a).to_string(), "a(X, Z)");
    }

    #[test]
    fn group_positions() {
        let a = Atom::new("part", vec![Term::var("P"), Term::group_var("S")]);
        assert!(a.has_group());
        assert_eq!(a.simple_group_positions(), vec![(1, Var::new("S"))]);
        assert_eq!(a.vars_outside_group(), vec![Var::new("P")]);
        assert_eq!(a.vars(), vec![Var::new("P"), Var::new("S")]);
    }
}
