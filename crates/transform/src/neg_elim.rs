//! §3.3 "The Power of Grouping": compiling negation into grouping.
//!
//! The paper shows any admissible program can be made *positive*: an
//! occurrence `¬p(T̄)` becomes `g(T̄, {⊥})` with
//!
//! ```text
//! g(T̄, <S>) <- ok(T̄, S).
//! ok(T̄, ⊥).
//! ok(T̄, S)  <- S = {T̄}, p(T̄).
//! ```
//!
//! Per `T̄`, the grouped set is `{⊥}` when `p(T̄)` fails and `{⊥, {T̄}}` when
//! it holds, so testing the group against `{⊥}` is exactly `¬p(T̄)`.
//!
//! Taken literally, `ok(T̄, ⊥)` is a fact with free variables (it holds for
//! *all* of `U`), which no bottom-up engine can materialize. We specialize
//! each occurrence with a *domain* predicate collecting the positive body
//! prefix of the rewritten rule, which ranges `T̄` over exactly the bindings
//! the rule can reach — the standard magic-set-style domain trick. The
//! transformed program is admissible whenever the original is (§3.3
//! observation (1)), and its standard model restricted to the original
//! predicates coincides (observation (2), verified by the integration
//! tests).

use ldl_ast::gensym::Gensym;
use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::{Builtin, Program};
use ldl_ast::rule::Rule;
use ldl_ast::term::{tuple_functor, Term, Var};
use ldl_value::Value;

use crate::TransformError;

/// Eliminate every negated *relation* literal (negated built-ins stay:
/// they are already positive tests with fixed interpretations).
pub fn eliminate_negation(program: &Program) -> Result<Program, TransformError> {
    let g = Gensym::new();
    let mut out = Program::new();
    for rule in &program.rules {
        rewrite_rule(rule, &g, &mut out)?;
    }
    Ok(out)
}

fn bottom_term() -> Term {
    Term::Const(Value::bottom())
}

fn rewrite_rule(rule: &Rule, g: &Gensym, out: &mut Program) -> Result<(), TransformError> {
    // Find the first negated non-built-in literal.
    let neg_idx = rule
        .body
        .iter()
        .position(|l| !l.positive && Builtin::resolve(l.atom.pred, l.atom.arity()).is_none());
    let Some(idx) = neg_idx else {
        out.push(rule.clone());
        return Ok(());
    };
    let neg = &rule.body[idx];
    if neg.atom.args.is_empty() {
        return Err(TransformError::Unsupported(format!(
            "cannot eliminate negation of the 0-ary predicate in {rule}"
        )));
    }
    let tbar = neg.atom.args.clone();
    let mut tvars: Vec<Var> = Vec::new();
    for t in &tbar {
        t.vars(&mut tvars);
    }
    let tvar_terms: Vec<Term> = tvars.iter().map(|&v| Term::Var(v)).collect();

    // Domain: the positive literals of the rule bind every variable of T̄
    // (range restriction), so dom(T̄-vars) ranges over exactly the reachable
    // instances.
    let dom = g.pred("dom");
    let dom_rule = Rule::new(
        Atom::new(dom, tvar_terms.clone()),
        rule.body.iter().filter(|l| l.positive).cloned().collect(),
    );

    // ok(T̄, ⊥) <- dom(T̄-vars).    ok(T̄, S) <- dom(T̄-vars), S = {T̄}, p(T̄).
    let ok = g.pred("ok");
    let mut ok_bot_args = tvar_terms.clone();
    ok_bot_args.push(bottom_term());
    let ok_bot = Rule::new(
        Atom::new(ok, ok_bot_args),
        vec![Literal::pos(Atom::new(dom, tvar_terms.clone()))],
    );
    let s = g.var("S");
    let tbar_as_term = if tbar.len() == 1 {
        fill_anon(&tbar[0])
    } else {
        Term::Compound(tuple_functor(), tbar.iter().map(fill_anon).collect())
    };
    let mut ok_p_args = tvar_terms.clone();
    ok_p_args.push(Term::Var(s));
    let ok_p = Rule::new(
        Atom::new(ok, ok_p_args),
        vec![
            Literal::pos(Atom::new(dom, tvar_terms.clone())),
            Literal::pos(Atom::new(
                "=",
                vec![Term::Var(s), Term::SetEnum(vec![tbar_as_term])],
            )),
            Literal::pos(neg.atom.clone()),
        ],
    );

    // g(T̄-vars, <S>) <- ok(T̄-vars, S).
    let gneg = g.pred("g");
    let s2 = g.var("S");
    let mut gneg_head_args = tvar_terms.clone();
    gneg_head_args.push(Term::group(Term::Var(s2)));
    let mut ok_probe = tvar_terms.clone();
    ok_probe.push(Term::Var(s2));
    let gneg_rule = Rule::new(
        Atom::new(gneg, gneg_head_args),
        vec![Literal::pos(Atom::new(ok, ok_probe))],
    );

    // The rewritten occurrence: ¬p(T̄) ⇒ g(T̄-vars, {⊥}).
    let mut new_body = rule.body.clone();
    let mut test_args = tvar_terms.clone();
    test_args.push(Term::SetEnum(vec![bottom_term()]));
    new_body[idx] = Literal::pos(Atom::new(gneg, test_args));
    let new_rule = Rule::new(rule.head.clone(), new_body);

    out.push(dom_rule);
    out.push(ok_bot);
    out.push(ok_p);
    out.push(gneg_rule);
    // The rewritten rule may carry further negations: recurse.
    rewrite_rule(&new_rule, g, out)
}

/// `t` with every `_` replaced by the constant `0`. The witness `{T̄}` of
/// an `ok` rule need only differ from `⊥`, and an `_` left in it could never
/// be bound, so the rule would not be schedulable.
fn fill_anon(t: &Term) -> Term {
    let fill = |t: &Term| Box::new(fill_anon(t));
    match t {
        Term::Anon => Term::Const(Value::int(0)),
        Term::Var(_) | Term::Const(_) => t.clone(),
        Term::Compound(f, args) => Term::Compound(*f, args.iter().map(fill_anon).collect()),
        Term::SetEnum(args) => Term::SetEnum(args.iter().map(fill_anon).collect()),
        Term::Scons(h, rest) => Term::Scons(fill(h), fill(rest)),
        Term::Group(inner) => Term::Group(fill(inner)),
        Term::Arith(op, l, r) => Term::Arith(*op, fill(l), fill(r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;

    #[test]
    fn positive_program_unchanged() {
        let p = parse_program("a(X) <- b(X). b(1).").unwrap();
        let out = eliminate_negation(&p).unwrap();
        assert_eq!(out.rules, p.rules);
    }

    #[test]
    fn single_negation_becomes_grouping() {
        let p = parse_program("q(X) <- r(X), ~s(X).").unwrap();
        let out = eliminate_negation(&p).unwrap();
        assert!(out.is_positive(), "{out}");
        // dom, ok(⊥), ok(p), g, rewritten rule.
        assert_eq!(out.len(), 5);
        assert!(out.rules.iter().any(Rule::is_grouping));
    }

    #[test]
    fn multiple_negations_recurse() {
        let p = parse_program("q(X) <- r(X), ~s(X), ~t(X).").unwrap();
        let out = eliminate_negation(&p).unwrap();
        assert!(out.is_positive());
        assert_eq!(out.len(), 9); // 4 + 4 + the final rewritten rule
    }

    #[test]
    fn anonymous_variables_leave_the_witness_ground() {
        // `S = {(Y, _)}` could never bind S; the witness fills `_` in.
        let p = parse_program("q(Y) <- r(Y), ~s(Y, _).").unwrap();
        let out = eliminate_negation(&p).unwrap();
        assert!(out.to_string().contains("{(Y, 0)}"), "{out}");
    }

    #[test]
    fn negated_builtin_left_alone() {
        let p = parse_program("q(X, S) <- r(X, S), ~member(X, S).").unwrap();
        let out = eliminate_negation(&p).unwrap();
        assert_eq!(out.rules, p.rules);
    }

    #[test]
    fn multi_argument_negation_uses_tuple() {
        let p = parse_program("q(X, Y) <- r(X, Y), ~s(X, Y).").unwrap();
        let out = eliminate_negation(&p).unwrap();
        assert!(out.is_positive());
        // S = {(X, Y)} appears in some ok-rule.
        assert!(out.to_string().contains("{(X, Y)}"), "{out}");
    }
}
