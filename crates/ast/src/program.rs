//! Programs: finite sets of well-formed rules (§2.1), plus the catalogue of
//! built-in predicates.

use std::fmt;

use ldl_value::arith::{ArithOp, CmpOp};
use ldl_value::fxhash::FastMap;
use ldl_value::Symbol;

use crate::rule::Rule;

/// A built-in predicate with a fixed interpretation (§2.2, restrictions on
/// built-ins). These never appear in the dependency graph of §3.1 and are
/// never stored as facts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Builtin {
    /// `member(t, S)`: true iff `S` is a set and `t ∈ S`.
    Member,
    /// `union(S₁, S₂, S₃)`: true iff all are sets and `S₁ ∪ S₂ = S₃`.
    Union,
    /// `partition(S, S₁, S₂)`: `S₁ ∪ S₂ = S`, `S₁ ∩ S₂ = ∅` (the §1 `tc`
    /// example says partition "can be realized by using the built-in
    /// predicate union"; we provide it directly).
    Partition,
    /// `subset(S₁, S₂)`: `S₁ ⊆ S₂`.
    Subset,
    /// `intersection(S₁, S₂, S₃)`: `S₁ ∩ S₂ = S₃` (companion of `union`,
    /// definable from it and `partition` but provided directly).
    Intersection,
    /// `difference(S₁, S₂, S₃)`: `S₁ − S₂ = S₃`.
    Difference,
    /// `card(S, N)`: `N = |S|`.
    Card,
    /// A comparison `=`, `/=`, `<`, `<=`, `>`, `>=`.
    Cmp(CmpOp),
    /// Functional arithmetic `+(X, Y, Z)` meaning `Z = X ⊕ Y`.
    Arith(ArithOp),
}

impl Builtin {
    /// Resolve a predicate symbol + arity to a built-in, if it is one.
    pub fn resolve(pred: Symbol, arity: usize) -> Option<Builtin> {
        let name = pred.as_str();
        match (name, arity) {
            ("member", 2) => Some(Builtin::Member),
            ("union", 3) => Some(Builtin::Union),
            ("partition", 3) => Some(Builtin::Partition),
            ("intersection", 3) => Some(Builtin::Intersection),
            ("difference", 3) => Some(Builtin::Difference),
            ("subset", 2) => Some(Builtin::Subset),
            ("card", 2) => Some(Builtin::Card),
            (_, 2) => CmpOp::from_name(name).map(Builtin::Cmp),
            (_, 3) => ArithOp::from_name(name).map(Builtin::Arith),
            _ => None,
        }
    }
}

/// A program: an ordered collection of rules. Order is irrelevant to the
/// semantics (LDL1 is assertional, §1) but preserved for printing.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// A program from rules.
    pub fn from_rules(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// Add a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Predicates defined by rule heads (the IDB), with arity.
    pub fn idb_predicates(&self) -> FastMap<Symbol, usize> {
        let mut out = FastMap::default();
        for r in &self.rules {
            out.insert(r.head.pred, r.head.arity());
        }
        out
    }

    /// Predicates that occur in bodies but are neither rule heads nor
    /// built-ins — the EDB (base relations) the program expects.
    pub fn edb_predicates(&self) -> FastMap<Symbol, usize> {
        let idb = self.idb_predicates();
        let mut out = FastMap::default();
        for r in &self.rules {
            for l in &r.body {
                let (p, n) = (l.atom.pred, l.atom.arity());
                if !idb.contains_key(&p) && Builtin::resolve(p, n).is_none() {
                    out.insert(p, n);
                }
            }
        }
        out
    }

    /// The rules whose head predicate is `pred`.
    pub fn rules_for(&self, pred: Symbol) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.head.pred == pred)
    }

    /// Is the program positive (no negated relation literal, §2.1)? A
    /// negated built-in is a test with a fixed interpretation, not negation
    /// over a relation: it adds no stratum, and §3.3's rewrite keeps it.
    pub fn is_positive(&self) -> bool {
        self.rules
            .iter()
            .all(|r| r.body.iter().all(|l| l.positive || l.builtin().is_some()))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::{Atom, Literal};
    use crate::term::Term;

    fn ancestor_program() -> Program {
        Program::from_rules(vec![
            Rule::new(
                Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]),
                vec![Literal::pos(Atom::new(
                    "parent",
                    vec![Term::var("X"), Term::var("Y")],
                ))],
            ),
            Rule::new(
                Atom::new("ancestor", vec![Term::var("X"), Term::var("Y")]),
                vec![
                    Literal::pos(Atom::new("parent", vec![Term::var("X"), Term::var("Z")])),
                    Literal::pos(Atom::new("ancestor", vec![Term::var("Z"), Term::var("Y")])),
                ],
            ),
        ])
    }

    #[test]
    fn idb_and_edb_partition() {
        let p = ancestor_program();
        let idb = p.idb_predicates();
        assert!(idb.contains_key(&Symbol::intern("ancestor")));
        let edb = p.edb_predicates();
        assert!(edb.contains_key(&Symbol::intern("parent")));
        assert!(!edb.contains_key(&Symbol::intern("ancestor")));
    }

    #[test]
    fn builtins_resolve_by_name_and_arity() {
        assert_eq!(
            Builtin::resolve(Symbol::intern("member"), 2),
            Some(Builtin::Member)
        );
        assert_eq!(Builtin::resolve(Symbol::intern("member"), 3), None);
        assert_eq!(
            Builtin::resolve(Symbol::intern("union"), 3),
            Some(Builtin::Union)
        );
        assert_eq!(
            Builtin::resolve(Symbol::intern("<"), 2),
            Some(Builtin::Cmp(CmpOp::Lt))
        );
        assert_eq!(
            Builtin::resolve(Symbol::intern("+"), 3),
            Some(Builtin::Arith(ArithOp::Add))
        );
        assert_eq!(Builtin::resolve(Symbol::intern("parent"), 2), None);
    }

    #[test]
    fn builtins_excluded_from_edb() {
        let mut p = ancestor_program();
        p.push(Rule::new(
            Atom::new("small", vec![Term::var("X")]),
            vec![
                Literal::pos(Atom::new("num", vec![Term::var("X")])),
                Literal::pos(Atom::new("<", vec![Term::var("X"), Term::int(10)])),
            ],
        ));
        let edb = p.edb_predicates();
        assert!(edb.contains_key(&Symbol::intern("num")));
        assert!(!edb.contains_key(&Symbol::intern("<")));
    }

    #[test]
    fn positivity() {
        let mut p = ancestor_program();
        assert!(p.is_positive());
        p.push(Rule::new(
            Atom::new("far", vec![Term::var("X"), Term::var("Y")]),
            vec![
                Literal::pos(Atom::new("parent", vec![Term::var("X"), Term::var("Y")])),
                Literal::neg(Atom::new(">", vec![Term::var("X"), Term::var("Y")])),
            ],
        ));
        assert!(p.is_positive(), "a negated built-in is not negation");
        p.push(Rule::new(
            Atom::new("lonely", vec![Term::var("X")]),
            vec![
                Literal::pos(Atom::new("person", vec![Term::var("X")])),
                Literal::neg(Atom::new("parent", vec![Term::var("X"), Term::Anon])),
            ],
        ));
        assert!(!p.is_positive());
    }

    #[test]
    fn display_round_trips_rule_text() {
        let p = ancestor_program();
        let text = p.to_string();
        assert!(text.contains("ancestor(X, Y) <- parent(X, Y)."));
        assert!(text.contains("ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y)."));
    }
}
