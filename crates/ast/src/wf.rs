//! Well-formedness checking (§2.1 restrictions, §7 range restriction).

use std::fmt;

use ldl_value::Value;

use crate::program::Program;
use crate::rule::Rule;
use crate::term::{Term, Var};

/// Which surface language the program claims to be written in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dialect {
    /// Core LDL1 (§2.1): grouping only as a whole head argument `<X>`, no
    /// `<…>` in bodies.
    Ldl1,
    /// LDL1.5 (§4): complex head terms and `<t>` body patterns allowed.
    /// Complex heads are macro-expanded to LDL1 before evaluation; a body
    /// `<t>` is matched natively, and §4.1's macro is kept as its oracle.
    Ldl15,
}

/// A well-formedness violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WfError {
    /// §2.1 (1): `<…>` occurs in a body literal (LDL1 dialect only).
    GroupInBody(Rule),
    /// §2.1 (2): more than one `<…>` occurrence in the head.
    MultipleGroupsInHead(Rule),
    /// §2.1 (2): a `<…>` occurrence that is not a whole argument of the head
    /// predicate, or whose content is not a variable (LDL1 dialect only).
    NonSimpleHeadGroup(Rule),
    /// §2.1 (3) as written says grouping-rule bodies must be all-positive,
    /// but the paper's own §6 running example (`young(X, <Y>) <- ¬a(X, Z),
    /// sg(X, Y)`) negates inside a grouping rule — and admissibility (§3.1
    /// clause 2) already forces every body predicate of a grouping rule into
    /// a strictly lower layer, which is exactly what makes negation safe.
    /// We therefore follow §6 and allow it; this variant remains only for
    /// the *strict* check ([`check_rule_strict`]).
    NegationInGroupingRule(Rule),
    /// §7 range restriction: a head variable, or a variable of a negative
    /// literal, appears in no positive body literal.
    UnrestrictedVariable(Rule, Var),
    /// §3.3: the constant `⊥` is "prohibited in programs". The lexer
    /// already makes `⊥` unspellable in user programs (generated names
    /// contain `'`, which user identifiers cannot), so this only flags
    /// hand-built ASTs checked with [`check_rule_strict`].
    BottomInProgram(Rule),
    /// Grouping inside a negative literal (meaningless in any dialect).
    GroupInNegativeLiteral(Rule),
    /// §4.1 (LDL1.5 dialect): a `<t>` in a relation literal nested inside a
    /// set enumeration, `scons` or arithmetic. The paper's macro rewrites a
    /// `<t>` reached through function symbols only.
    GroupInUnsupportedPosition(Rule),
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfError::GroupInBody(r) => {
                write!(f, "LDL1 forbids <...> in rule bodies: {r}")
            }
            WfError::MultipleGroupsInHead(r) => {
                write!(f, "at most one <...> is allowed in a rule head: {r}")
            }
            WfError::NonSimpleHeadGroup(r) => write!(
                f,
                "LDL1 allows grouping only as a whole head argument <X>: {r}"
            ),
            WfError::NegationInGroupingRule(r) => write!(
                f,
                "all body literals of a grouping rule must be positive: {r}"
            ),
            WfError::UnrestrictedVariable(r, v) => write!(
                f,
                "variable {v} must appear in a positive body literal: {r}"
            ),
            WfError::BottomInProgram(r) => {
                write!(f, "the constant ⊥ may not be used in programs: {r}")
            }
            WfError::GroupInNegativeLiteral(r) => {
                write!(f, "<...> may not occur under negation: {r}")
            }
            WfError::GroupInUnsupportedPosition(r) => write!(
                f,
                "<...> in a body literal may not sit inside a set, scons or arithmetic: {r}"
            ),
        }
    }
}

impl std::error::Error for WfError {}

fn term_mentions_bottom(t: &Term) -> bool {
    fn value_mentions_bottom(v: &Value) -> bool {
        match v {
            Value::Atom(_) => *v == Value::bottom(),
            Value::Compound(c) => c.args().iter().any(value_mentions_bottom),
            Value::Set(s) => s.iter().any(value_mentions_bottom),
            _ => false,
        }
    }
    match t {
        Term::Const(v) => value_mentions_bottom(v),
        Term::Var(_) | Term::Anon => false,
        Term::Compound(_, args) | Term::SetEnum(args) => args.iter().any(term_mentions_bottom),
        Term::Scons(h, s) => term_mentions_bottom(h) || term_mentions_bottom(s),
        Term::Group(g) => term_mentions_bottom(g),
        Term::Arith(_, l, r) => term_mentions_bottom(l) || term_mentions_bottom(r),
    }
}

/// Is every outermost `<…>` of a relation-literal argument reached through
/// function symbols only? Inside a `<t>`, anything goes: §4.1's macro moves
/// `t` into built-in literals.
fn groups_reachable(t: &Term) -> bool {
    match t {
        Term::Group(_) | Term::Var(_) | Term::Anon | Term::Const(_) => true,
        Term::Compound(_, args) => args.iter().all(groups_reachable),
        Term::SetEnum(_) | Term::Scons(..) | Term::Arith(..) => !t.has_group(),
    }
}

fn count_groups(t: &Term) -> usize {
    match t {
        Term::Group(inner) => 1 + count_groups(inner),
        Term::Var(_) | Term::Anon | Term::Const(_) => 0,
        Term::Compound(_, args) | Term::SetEnum(args) => args.iter().map(count_groups).sum(),
        Term::Scons(h, s) => count_groups(h) + count_groups(s),
        Term::Arith(_, l, r) => count_groups(l) + count_groups(r),
    }
}

/// Check one rule against the given dialect. Returns all violations.
pub fn check_rule(rule: &Rule, dialect: Dialect) -> Vec<WfError> {
    let mut errs = Vec::new();

    // Grouping occurrences in the body.
    for l in &rule.body {
        let groups: usize = l.atom.args.iter().map(count_groups).sum();
        if groups > 0 {
            if !l.positive {
                errs.push(WfError::GroupInNegativeLiteral(rule.clone()));
            } else if dialect == Dialect::Ldl1 {
                errs.push(WfError::GroupInBody(rule.clone()));
            } else if l.builtin().is_none() && !l.atom.args.iter().all(groups_reachable) {
                errs.push(WfError::GroupInUnsupportedPosition(rule.clone()));
            }
        }
    }

    // Grouping occurrences in the head.
    let head_groups: usize = rule.head.args.iter().map(count_groups).sum();
    if dialect == Dialect::Ldl1 {
        if head_groups > 1 {
            errs.push(WfError::MultipleGroupsInHead(rule.clone()));
        }
        // In LDL1 the single occurrence must be a whole argument <X>.
        if head_groups == 1 {
            let simple = rule
                .head
                .args
                .iter()
                .filter(|t| t.has_group())
                .all(|t| t.as_simple_group().is_some());
            if !simple {
                errs.push(WfError::NonSimpleHeadGroup(rule.clone()));
            }
        }
    }

    // §7 range restriction: head variables and negative-literal variables
    // must occur in a positive body literal (built-ins count: the evaluator
    // schedules them after their inputs are bound).
    let mut positive_vars: Vec<Var> = Vec::new();
    for l in rule.body.iter().filter(|l| l.positive) {
        for t in &l.atom.args {
            t.vars(&mut positive_vars);
        }
    }
    let mut must_be_bound: Vec<Var> = Vec::new();
    for t in &rule.head.args {
        t.vars(&mut must_be_bound);
    }
    for l in rule.body.iter().filter(|l| !l.positive) {
        for t in &l.atom.args {
            t.vars(&mut must_be_bound);
        }
    }
    for v in must_be_bound {
        if !positive_vars.contains(&v) {
            errs.push(WfError::UnrestrictedVariable(rule.clone(), v));
        }
    }

    errs
}

/// The literal §2.1 restriction (3): grouping rules with negative body
/// literals are rejected. [`check_rule`] deliberately does *not* enforce
/// this (see [`WfError::NegationInGroupingRule`]); programs written against
/// the strict §2 fragment can opt in.
pub fn check_rule_strict(rule: &Rule, dialect: Dialect) -> Vec<WfError> {
    let mut errs = check_rule(rule, dialect);
    let head_groups: usize = rule.head.args.iter().map(count_groups).sum();
    if head_groups > 0 && rule.body.iter().any(|l| !l.positive) {
        errs.push(WfError::NegationInGroupingRule(rule.clone()));
    }
    let mentions_bottom = rule.head.args.iter().any(term_mentions_bottom)
        || rule
            .body
            .iter()
            .any(|l| l.atom.args.iter().any(term_mentions_bottom));
    if mentions_bottom {
        errs.push(WfError::BottomInProgram(rule.clone()));
    }
    errs
}

/// Check a whole program. `Ok(())` iff every rule is well-formed.
pub fn check_program(program: &Program, dialect: Dialect) -> Result<(), Vec<WfError>> {
    let errs: Vec<WfError> = program
        .rules
        .iter()
        .flat_map(|r| check_rule(r, dialect))
        .collect();
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::{Atom, Literal};

    fn rule(head: Atom, body: Vec<Literal>) -> Rule {
        Rule::new(head, body)
    }

    #[test]
    fn good_grouping_rule_passes() {
        // part(P#, <Sub#>) <- p(P#, Sub#).   (the §1 example)
        let r = rule(
            Atom::new("part", vec![Term::var("P"), Term::group_var("S")]),
            vec![Literal::pos(Atom::new(
                "p",
                vec![Term::var("P"), Term::var("S")],
            ))],
        );
        assert!(check_rule(&r, Dialect::Ldl1).is_empty());
    }

    #[test]
    fn group_in_body_rejected_in_ldl1_allowed_in_ldl15() {
        let r = rule(
            Atom::new("q", vec![Term::var("X")]),
            vec![Literal::pos(Atom::new("p", vec![Term::group_var("X")]))],
        );
        assert!(matches!(
            check_rule(&r, Dialect::Ldl1).as_slice(),
            [WfError::GroupInBody(_)]
        ));
        assert!(check_rule(&r, Dialect::Ldl15).is_empty());
    }

    #[test]
    fn body_group_positions_in_ldl15() {
        let q = || Atom::new("q", vec![Term::var("X")]);
        let x = || Term::group_var("X");
        let in_p = |t: Term| rule(q(), vec![Literal::pos(Atom::new("p", vec![t]))]);
        // Reached through function symbols, or inside another `<…>`: fine.
        for t in [
            Term::compound("h", vec![Term::var("Y"), x()]),
            Term::group(Term::SetEnum(vec![x()])),
        ] {
            assert!(check_rule(&in_p(t), Dialect::Ldl15).is_empty());
        }
        // Under a set enumeration, scons or arithmetic: rejected.
        for t in [
            Term::SetEnum(vec![x()]),
            Term::Scons(Box::new(Term::Const(Value::int(3))), Box::new(x())),
            Term::Arith(
                ldl_value::arith::ArithOp::Add,
                Box::new(x()),
                Box::new(Term::Const(Value::int(1))),
            ),
        ] {
            assert!(matches!(
                check_rule(&in_p(t), Dialect::Ldl15).as_slice(),
                [WfError::GroupInUnsupportedPosition(_)]
            ));
        }
        // A built-in literal keeps whatever pattern it has.
        let r = rule(
            q(),
            vec![
                Literal::pos(Atom::new("p", vec![Term::var("S")])),
                Literal::pos(Atom::new(
                    "=",
                    vec![Term::var("S"), Term::SetEnum(vec![x()])],
                )),
            ],
        );
        assert!(check_rule(&r, Dialect::Ldl15).is_empty());
    }

    #[test]
    fn multiple_head_groups_rejected_in_ldl1() {
        let r = rule(
            Atom::new("q", vec![Term::group_var("X"), Term::group_var("Y")]),
            vec![Literal::pos(Atom::new(
                "p",
                vec![Term::var("X"), Term::var("Y")],
            ))],
        );
        assert!(check_rule(&r, Dialect::Ldl1)
            .iter()
            .any(|e| matches!(e, WfError::MultipleGroupsInHead(_))));
        // LDL1.5 allows this shape (distribution rewrites it).
        assert!(check_rule(&r, Dialect::Ldl15).is_empty());
    }

    #[test]
    fn nested_head_group_rejected_in_ldl1() {
        // q(f(<X>)) <- p(X).
        let r = rule(
            Atom::new("q", vec![Term::compound("f", vec![Term::group_var("X")])]),
            vec![Literal::pos(Atom::new("p", vec![Term::var("X")]))],
        );
        assert!(check_rule(&r, Dialect::Ldl1)
            .iter()
            .any(|e| matches!(e, WfError::NonSimpleHeadGroup(_))));
    }

    #[test]
    fn negation_in_grouping_rule_allowed_by_default_rejected_strictly() {
        // §6's young rule negates inside a grouping rule; the default check
        // follows §6, the strict check follows the letter of §2.1 (3).
        let r = rule(
            Atom::new("q", vec![Term::group_var("X")]),
            vec![
                Literal::pos(Atom::new("p", vec![Term::var("X")])),
                Literal::neg(Atom::new("r", vec![Term::var("X")])),
            ],
        );
        for d in [Dialect::Ldl1, Dialect::Ldl15] {
            assert!(check_rule(&r, d).is_empty());
            assert!(check_rule_strict(&r, d)
                .iter()
                .any(|e| matches!(e, WfError::NegationInGroupingRule(_))));
        }
    }

    #[test]
    fn range_restriction() {
        // q(X, Y) <- p(X).      — Y unrestricted
        let r = rule(
            Atom::new("q", vec![Term::var("X"), Term::var("Y")]),
            vec![Literal::pos(Atom::new("p", vec![Term::var("X")]))],
        );
        assert!(check_rule(&r, Dialect::Ldl1)
            .iter()
            .any(|e| matches!(e, WfError::UnrestrictedVariable(_, v) if *v == Var::new("Y"))));

        // q(X) <- p(X), ~r(X, Z).   — Z unrestricted (negative literal)
        let r2 = rule(
            Atom::new("q", vec![Term::var("X")]),
            vec![
                Literal::pos(Atom::new("p", vec![Term::var("X")])),
                Literal::neg(Atom::new("r", vec![Term::var("X"), Term::var("Z")])),
            ],
        );
        assert!(check_rule(&r2, Dialect::Ldl1)
            .iter()
            .any(|e| matches!(e, WfError::UnrestrictedVariable(_, v) if *v == Var::new("Z"))));
    }

    #[test]
    fn facts_must_be_ground() {
        let f = Rule::fact(Atom::new("p", vec![Term::var("X")]));
        assert!(check_rule(&f, Dialect::Ldl1)
            .iter()
            .any(|e| matches!(e, WfError::UnrestrictedVariable(..))));
        let g = Rule::fact(Atom::new("p", vec![Term::int(1)]));
        assert!(check_rule(&g, Dialect::Ldl1).is_empty());
    }

    #[test]
    fn builtins_count_as_binding_positive_literals() {
        // tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).
        let r = rule(
            Atom::new("tc", vec![Term::var("S"), Term::var("C")]),
            vec![
                Literal::pos(Atom::new(
                    "partition",
                    vec![Term::var("S"), Term::var("S1"), Term::var("S2")],
                )),
                Literal::pos(Atom::new("tc", vec![Term::var("S1"), Term::var("C1")])),
                Literal::pos(Atom::new("tc", vec![Term::var("S2"), Term::var("C2")])),
                Literal::pos(Atom::new(
                    "+",
                    vec![Term::var("C1"), Term::var("C2"), Term::var("C")],
                )),
            ],
        );
        assert!(check_rule(&r, Dialect::Ldl1).is_empty());
    }

    #[test]
    fn bottom_rejected_strictly_only() {
        let r = Rule::fact(Atom::new("g", vec![Term::Const(Value::bottom())]));
        assert!(check_rule(&r, Dialect::Ldl1).is_empty());
        assert!(check_rule_strict(&r, Dialect::Ldl1)
            .iter()
            .any(|e| matches!(e, WfError::BottomInProgram(_))));
    }

    #[test]
    fn group_under_negation_rejected_everywhere() {
        let r = rule(
            Atom::new("q", vec![Term::var("X")]),
            vec![
                Literal::pos(Atom::new("p", vec![Term::var("X")])),
                Literal::neg(Atom::new("r", vec![Term::group_var("X")])),
            ],
        );
        for d in [Dialect::Ldl1, Dialect::Ldl15] {
            assert!(check_rule(&r, d)
                .iter()
                .any(|e| matches!(e, WfError::GroupInNegativeLiteral(_))));
        }
    }

    #[test]
    fn check_program_aggregates() {
        let mut p = Program::new();
        p.push(Rule::fact(Atom::new("p", vec![Term::int(1)])));
        assert!(check_program(&p, Dialect::Ldl1).is_ok());
        p.push(Rule::fact(Atom::new("p", vec![Term::var("X")])));
        assert_eq!(check_program(&p, Dialect::Ldl1).unwrap_err().len(), 1);
    }
}
