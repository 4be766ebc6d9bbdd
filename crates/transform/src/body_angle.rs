//! §4.1: complex `<t>` terms in rule bodies.
//!
//! A term `<t>` in a body literal matches only set values of *uniform*
//! structure: `p(<X>)` matches `p` tuples whose argument is a set, with `X`
//! ranging over its elements; `p(<<X>>)` matches only sets **all** of whose
//! elements are sets (the paper's example: it matches `p({{1,2},{3},{4,5}})`
//! but not `p({{1,2}, 3, {4,5}})`).
//!
//! The paper's rewrite replaces `<t>` by a fresh variable `S`, appends
//! `member(t, S), collect(S, S)`, and defines `collect(X, <Y>) <-
//! member(t, X), Y = t` — `collect(S, S)` holds exactly when grouping the
//! elements of `S` that match `t` reproduces all of `S`, i.e. when every
//! element matches. Our version specializes `collect` with a domain
//! predicate (the enclosing literal projected onto the rewritten argument)
//! so the result is range-restricted and evaluable bottom-up.
//!
//! `System` does not run this rewrite: the evaluator matches a body `<t>`
//! natively (`match_term`'s `Term::Group` arm), and the stratifier gives a
//! relation literal with a `<t>` argument the `>` edge the `collect` rule
//! would have. The macro stays as the paper's definition, the oracle the
//! native matcher is tested against.

use ldl_ast::gensym::Gensym;
use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::{Builtin, Program};
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;

use crate::TransformError;

/// Rewrite every rule until no body literal contains `<…>`.
pub fn eliminate_body_groups(program: &Program) -> Result<Program, TransformError> {
    let g = Gensym::new();
    let mut out = Program::new();
    let mut queue: Vec<Rule> = program.rules.clone();
    while let Some(rule) = queue.pop() {
        match rewrite_one(&rule, &g)? {
            None => out.push(rule),
            Some(new_rules) => queue.extend(new_rules),
        }
    }
    // `queue.pop()` reverses; restore a stable order for readability.
    out.rules.sort_by_key(|r| r.to_string());
    Ok(out)
}

/// If some body literal of `rule` contains `<t>`, rewrite that one
/// occurrence and return the replacement rules (which may still contain
/// deeper occurrences — the caller iterates). `None` if the rule is clean.
fn rewrite_one(rule: &Rule, g: &Gensym) -> Result<Option<Vec<Rule>>, TransformError> {
    for (li, lit) in rule.body.iter().enumerate() {
        // Built-in literals keep their `<t>` patterns: the domain-projection
        // trick below is only meaningful for stored relations, so the
        // rewrite stops at them and leaves their `<t>` to the evaluator's
        // native matcher. (These arise from this very transformation, when
        // the extracted `t` of a nested group lands inside the generated
        // `member`/`=` literals.)
        if Builtin::resolve(lit.atom.pred, lit.atom.arity()).is_some() {
            continue;
        }
        for (ai, arg) in lit.atom.args.iter().enumerate() {
            if !arg.has_group() {
                continue;
            }
            if !lit.positive {
                return Err(TransformError::UnsupportedGroupPosition(format!(
                    "negated literal {lit}"
                )));
            }
            // Find the outermost <t> within this argument and rewrite it.
            let s_var = g.var("S");
            let (new_arg, inner) = replace_outer_group(arg, Term::Var(s_var))
                .ok_or_else(|| TransformError::UnsupportedGroupPosition(arg.to_string()))?;

            // Domain predicate: the enclosing literal with the rewritten
            // argument — dom'(S) <- p(..., S, ...) projected.
            let dom = g.pred("dom");
            let mut dom_body_atom = lit.atom.clone();
            dom_body_atom.args[ai] = new_arg.clone();
            let dom_rule = Rule::new(
                Atom::new(dom, vec![Term::Var(s_var)]),
                vec![Literal::pos(dom_body_atom)],
            );

            // collect'(X, <Y>) <- dom'(X), member(Y, X), Y = t″   with t″ a
            // fresh-variable copy of t (its variables are local to
            // collect'). Binding Y to the element first and then matching it
            // against the pattern keeps the rule schedulable even when t″
            // itself carries a nested `<…>`.
            let collect = g.pred("collect");
            let x = g.var("X");
            let y = g.var("Y");
            let inner_fresh = freshen(&inner, g);
            let collect_rule = Rule::new(
                Atom::new(collect, vec![Term::Var(x), Term::group(Term::Var(y))]),
                vec![
                    Literal::pos(Atom::new(dom, vec![Term::Var(x)])),
                    Literal::pos(Atom::new("member", vec![Term::Var(y), Term::Var(x)])),
                    Literal::pos(Atom::new("=", vec![Term::Var(y), inner_fresh])),
                ],
            );

            // The rewritten rule: replace the argument, append
            // member(t, S), collect'(S, S).
            let mut new_body = rule.body.clone();
            new_body[li].atom.args[ai] = new_arg;
            new_body.push(Literal::pos(Atom::new(
                "member",
                vec![inner.clone(), Term::Var(s_var)],
            )));
            new_body.push(Literal::pos(Atom::new(
                collect,
                vec![Term::Var(s_var), Term::Var(s_var)],
            )));
            let new_rule = Rule::new(rule.head.clone(), new_body);

            return Ok(Some(vec![new_rule, dom_rule, collect_rule]));
        }
    }
    Ok(None)
}

/// Replace the outermost `<t>` in `term` by `replacement`, returning the new
/// term and the extracted `t`. `None` for groups nested in positions the
/// §4.1 rewrite does not define (sets, scons, arithmetic).
fn replace_outer_group(term: &Term, replacement: Term) -> Option<(Term, Term)> {
    match term {
        Term::Group(inner) => Some((replacement, (**inner).clone())),
        Term::Compound(f, args) => {
            for (i, a) in args.iter().enumerate() {
                if a.has_group() {
                    let (new_a, inner) = replace_outer_group(a, replacement)?;
                    let mut new_args = args.clone();
                    new_args[i] = new_a;
                    return Some((Term::Compound(*f, new_args), inner));
                }
            }
            None
        }
        _ => None,
    }
}

/// Copy a term with every named variable replaced by a fresh one (shared
/// across repeated occurrences within the copy).
fn freshen(term: &Term, g: &Gensym) -> Term {
    let mut vars = Vec::new();
    term.vars(&mut vars);
    let fresh: Vec<_> = vars.iter().map(|v| g.var(v.name())).collect();
    term.substitute(&|v| {
        vars.iter()
            .position(|&u| u == v)
            .map(|i| Term::Var(fresh[i]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;

    #[test]
    fn simple_body_group_rewritten() {
        let p = parse_program("q(X) <- p(<X>).").unwrap();
        let out = eliminate_body_groups(&p).unwrap();
        // One rewritten rule + dom + collect.
        assert_eq!(out.len(), 3);
        let text = out.to_string();
        assert!(text.contains("member("), "member literal added: {text}");
        assert!(text.contains("collect'"), "collect rule added: {text}");
        assert_no_relation_groups(&out);
    }

    /// After the rewrite, `<t>` survives only inside built-in literals
    /// (where the evaluator applies the §4.1 semantics natively).
    fn assert_no_relation_groups(p: &Program) {
        for r in &p.rules {
            for l in &r.body {
                if ldl_ast::program::Builtin::resolve(l.atom.pred, l.atom.arity()).is_some() {
                    continue;
                }
                assert!(l.atom.args.iter().all(|t| !t.has_group()), "{r}");
            }
        }
    }

    #[test]
    fn nested_group_confined_to_builtins() {
        // p(<<X>>): the rewrite leaves member(<X>, S) — the inner pattern
        // stays in the built-in literal.
        let p = parse_program("q(X) <- p(<<X>>).").unwrap();
        let out = eliminate_body_groups(&p).unwrap();
        assert_no_relation_groups(&out);
        let text = out.to_string();
        assert!(text.contains("collect'"), "{text}");
    }

    #[test]
    fn group_under_compound_in_body() {
        let p = parse_program("q(T) <- r(h(T, <D>)).").unwrap();
        let out = eliminate_body_groups(&p).unwrap();
        assert_no_relation_groups(&out);
    }

    #[test]
    fn clean_program_unchanged() {
        let p = parse_program("q(X) <- p(X), r(X, {1, 2}).").unwrap();
        let out = eliminate_body_groups(&p).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rules[0], p.rules[0]);
    }

    #[test]
    fn group_in_set_enum_rejected() {
        let p = parse_program("q(X) <- p({<X>}).").unwrap();
        assert!(matches!(
            eliminate_body_groups(&p),
            Err(TransformError::UnsupportedGroupPosition(_))
        ));
    }
}
