//! Generalized Supplementary Magic Sets rewriting (§6, after \[BR87\]).
//!
//! From the adorned program, produce `P^mg`. Each adorned rule
//! `p^a(t̄) <- B₁ … Bₙ` (body in sip order) is walked left to right with a
//! *guard* — at first the head's magic literal `magic_p^a(t̄_b)` — and a
//! *segment* of the literals read since the guard was set:
//!
//! * at each adorned body literal `Bⱼ = [¬]q^c(s̄)` (negated literals
//!   included — "we first compute p completely" for the relevant bindings),
//!   if the magic rule needs a variable of `s̄_b` that the segment binds and
//!   the guard does not, the guard and segment become a *supplementary
//!   rule* `sup(v̄) <- guard, segment`, where `v̄` are the bound variables
//!   that `Bⱼ … Bₙ` or the head still use, in order of first occurrence.
//!   `sup(v̄)` is the new guard and the segment starts empty. The magic rule
//!   is then `magic_q^c(s̄_b) <- guard, segment` — `<- sup(v̄)` after a
//!   supplementary rule — and `Bⱼ` joins the segment;
//! * the *modified rule* is `p^a(t̄) <- guard, segment`;
//! * the *seed* `magic_q₀^a(query constants)` comes from the query.
//!
//! So a body prefix that binds what a magic rule needs is joined once, by
//! its supplementary rule, and the magic rule and the rest of the body
//! read the result — the bill of materials' `partition(S, S1, S2), S1 /=
//! {}, S2 /= {}` runs in one rule, not in the magic rules of `tc(S1, C1)`
//! and `tc(S2, C2)` and the modified rule. A prefix whose bindings the
//! magic rule does not need stays in the segment instead of being
//! materialised: `excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z)` needs
//! only `X`, which the guard binds, so no supplementary relation holds
//! `anc × node`. Unfolding every supplementary literal into the body of its
//! one rule gives back the generalized magic sets rewrite, rule for rule.
//!
//! A supplementary predicate is named `sup'p'a'i'j` — the adorned head,
//! the adorned rule's index and the position of `Bⱼ` — and, like a magic
//! name, cannot be written in a program. It maps to its rule's original
//! head predicate, whose stratum it takes in the staged evaluation.

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Program;
use ldl_ast::rule::Rule;
use ldl_ast::term::{Term, Var};
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{Fact, Symbol};

use crate::adorn::{adorned_name, AdornedProgram, Adornment};

/// The magic predicate name for an adorned predicate: `m'p'bf`.
pub fn magic_name(pred: Symbol, a: &Adornment) -> Symbol {
    pred.map_name(|n| format!("m'{n}'{}", a.suffix()))
}

/// The supplementary predicate name `sup'p'bf'i'j` for the prefix of
/// adorned rule `rule` (head `head`) that ends before body literal `j`.
fn supplementary_name(head: Symbol, rule: usize, j: usize) -> Symbol {
    head.map_name(|n| format!("sup'{n}'{rule}'{j}"))
}

/// A magic-rewritten program, ready for [`crate::eval::MagicEvaluator`].
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// Supplementary, magic and modified rules.
    pub program: Program,
    /// The seed fact for the query.
    pub seed: Fact,
    /// The query's binding pattern: the seed holds the query's arguments at
    /// its bound positions. The rewrite depends on the query only through
    /// its predicate and this pattern, so another query of the same form
    /// differs only in the seed (`crate::MagicForm::seed`).
    pub adornment: Adornment,
    /// The query against the rewritten program: the adorned predicate with
    /// the original argument patterns.
    pub query: Atom,
    /// Adorned and supplementary predicate → original predicate (for
    /// stratum lookup and for restricting answers back to user predicates).
    pub adorned_to_original: FastMap<Symbol, Symbol>,
}

/// The seed `pred(query constants)`: the query's ground arguments at the
/// bound positions of `adornment`. Adornment marks a position bound only
/// when the term evaluates into U, so `to_value` cannot fail here — and if
/// that invariant ever breaks we want a clear message, not a downstream
/// arity panic.
pub(crate) fn seed(pred: Symbol, adornment: &Adornment, query: &Atom) -> Fact {
    let args = query.args.iter().zip(&adornment.0).filter(|(_, &b)| b);
    let args = args.map(|(t, _)| {
        t.to_value()
            .unwrap_or_else(|| panic!("bound query argument {t} does not denote a U-value"))
    });
    Fact::new(pred, args.collect())
}

/// Rewrite an adorned program into its magic version, seeding from `query`
/// (the same atom used for adornment; its ground arguments become the seed
/// values).
pub fn rewrite_magic(adorned: &AdornedProgram, query: &Atom) -> MagicProgram {
    let mut program = Program::new();
    let mut adorned_to_original: FastMap<Symbol, Symbol> = FastMap::default();

    for (ri, ar) in adorned.rules.iter().enumerate() {
        adorned_to_original.insert(ar.rule.head.pred, ar.head_pred);
        let mut guard = Literal::pos(Atom::new(
            magic_name(ar.head_pred, &ar.head_adornment),
            ar.bound_head_args.clone(),
        ));
        let mut segment: Vec<Literal> = Vec::new();
        for (j, (lit, info)) in ar.rule.body.iter().zip(&ar.body_adornments).enumerate() {
            if let Some((orig_pred, adornment)) = info {
                let bound_args: Vec<Term> = lit
                    .atom
                    .args
                    .iter()
                    .zip(&adornment.0)
                    .filter(|(_, &b)| b)
                    .map(|(t, _)| t.clone())
                    .collect();
                let magic_head = Atom::new(magic_name(*orig_pred, adornment), bound_args);
                let guard_vars = guard.vars();
                if magic_head.vars().iter().any(|v| !guard_vars.contains(v)) {
                    // Every variable of the guard and segment is bound: a
                    // positive literal binds its own, and a negated one
                    // reads only bound ones.
                    let mut used = ar.rule.head.vars();
                    used.extend(ar.rule.body[j..].iter().flat_map(Literal::vars));
                    let mut vars: Vec<Var> = Vec::new();
                    for v in std::iter::once(&guard)
                        .chain(&segment)
                        .flat_map(Literal::vars)
                    {
                        if used.contains(&v) && !vars.contains(&v) {
                            vars.push(v);
                        }
                    }
                    let sup = Atom::new(
                        supplementary_name(ar.rule.head.pred, ri, j),
                        vars.iter().map(|&v| Term::Var(v)).collect(),
                    );
                    adorned_to_original.insert(sup.pred, ar.head_pred);
                    let body = std::iter::once(guard).chain(segment.drain(..)).collect();
                    program.push(Rule::new(sup.clone(), body));
                    guard = Literal::pos(sup);
                }
                let body = std::iter::once(&guard).chain(&segment).cloned().collect();
                program.push(Rule::new(magic_head, body));
                adorned_to_original.insert(adorned_name(*orig_pred, adornment), *orig_pred);
            }
            segment.push(lit.clone());
        }
        let body = std::iter::once(guard).chain(segment).collect();
        program.push(Rule::new(ar.rule.head.clone(), body));
    }

    // Import rules: a predicate with rules may *also* have stored facts
    // (mixed EDB/IDB). The rewrite renames every IDB occurrence to its
    // adorned version, which would silently drop those facts — so each
    // adorned predicate additionally imports the original relation,
    // guarded by its magic predicate to preserve the binding restriction:
    //
    //     p'a(V̄) <- m'p'a(V̄_b), p(V̄).
    let mut imported: FastSet<Symbol> = FastSet::default();
    for ar in &adorned.rules {
        let apred = ar.rule.head.pred;
        if !imported.insert(apred) {
            continue; // one import per distinct (predicate, adornment)
        }
        let vars: Vec<Term> = (0..ar.rule.head.arity())
            .map(|i| Term::var(&format!("V{i}")))
            .collect();
        let bound_vars: Vec<Term> = vars
            .iter()
            .zip(&ar.head_adornment.0)
            .filter(|(_, &b)| b)
            .map(|(t, _)| t.clone())
            .collect();
        program.push(Rule::new(
            Atom::new(apred, vars.clone()),
            vec![
                Literal::pos(Atom::new(
                    magic_name(ar.head_pred, &ar.head_adornment),
                    bound_vars,
                )),
                Literal::pos(Atom::new(ar.head_pred, vars)),
            ],
        ));
    }

    let adornment = adorned.query_adornment.clone();
    let seed_pred = magic_name(adorned.original_query_pred, &adornment);
    MagicProgram {
        program,
        seed: seed(seed_pred, &adornment, query),
        adornment,
        query: Atom::new(adorned.query_pred, query.args.clone()),
        adorned_to_original,
    }
}

#[cfg(test)]
#[path = "../tests/support/unfold.rs"]
mod unfold;

#[cfg(test)]
mod tests {
    use super::unfold::unfold;
    use super::*;
    use crate::adorn::adorn_program;
    use ldl_parser::{parse_atom, parse_program};

    fn young_magic() -> MagicProgram {
        let p = parse_program(
            "a(X, Y) <- p(X, Y).\n\
             a(X, Y) <- a(X, Z), a(Z, Y).\n\
             sg(X, Y) <- siblings(X, Y).\n\
             sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n\
             young(X, <Y>) <- ~a(X, _), sg(X, Y).",
        )
        .unwrap();
        let q = parse_atom("young(john, S)").unwrap();
        let ap = adorn_program(&p, &q).unwrap();
        rewrite_magic(&ap, &q)
    }

    /// The §6 example, unfolded, yields the rules 1′–11′ (modulo the
    /// paper's redundant 1′ `magic_a <- magic_a`, which our sip generates as
    /// well from rule 2's first recursive literal, and the fused rules 4′/5′
    /// shapes).
    #[test]
    fn young_rewrite_shape() {
        let mp = young_magic();
        let text = unfold(&mp.program).to_string();
        // Seed (the paper's 11′).
        assert_eq!(mp.seed.to_string(), "m'young'bf(john)");
        // Magic of a from young (3′): m'a'bf(X) <- m'young'bf(X).
        assert!(
            text.contains("m'a'bf(X) <- m'young'bf(X)."),
            "missing 3': {text}"
        );
        // Magic of sg from young (5′ shape): after ¬a.
        assert!(
            text.contains("m'sg'bf(X) <- m'young'bf(X), ~a'bf(X, _)."),
            "missing 5': {text}"
        );
        // Recursive magic for sg (4′ shape): m'sg'bf(Z1) <- m'sg'bf(X), p(Z1, X).
        assert!(
            text.contains("m'sg'bf(Z1) <- m'sg'bf(X), p(Z1, X)."),
            "missing 4': {text}"
        );
        // Modified rule 10′: young with its magic guard.
        assert!(
            text.contains("young'bf(X, <Y>) <- m'young'bf(X), ~a'bf(X, _), sg'bf(X, Y)."),
            "missing 10': {text}"
        );
        // Modified rule 6′: a'bf(X, Y) <- m'a'bf(X), p(X, Y).
        assert!(
            text.contains("a'bf(X, Y) <- m'a'bf(X), p(X, Y)."),
            "missing 6': {text}"
        );
    }

    #[test]
    fn ancestor_bound_rewrite() {
        let p = parse_program(
            "anc(X, Y) <- par(X, Y).\n\
             anc(X, Y) <- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let q = parse_atom("anc(a, Y)").unwrap();
        let ap = adorn_program(&p, &q).unwrap();
        let mp = rewrite_magic(&ap, &q);
        let text = unfold(&mp.program).to_string();
        assert!(
            text.contains("m'anc'bf(Z) <- m'anc'bf(X), par(X, Z)."),
            "{text}"
        );
        assert!(
            text.contains("anc'bf(X, Y) <- m'anc'bf(X), par(X, Y)."),
            "{text}"
        );
        assert_eq!(mp.seed.to_string(), "m'anc'bf(a)");
        assert_eq!(mp.query.pred.as_str(), "anc'bf");
        // Folded: `par(X, Z)` is joined once, for the magic rule and the
        // modified rule both.
        let text = mp.program.to_string();
        for rule in [
            "sup'anc'bf'1'1(X, Z) <- m'anc'bf(X), par(X, Z).",
            "m'anc'bf(Z) <- sup'anc'bf'1'1(X, Z).",
            "anc'bf(X, Y) <- sup'anc'bf'1'1(X, Z), anc'bf(Z, Y).",
        ] {
            assert!(text.contains(rule), "missing {rule}: {text}");
        }
    }

    /// The negated literal probes the positive literal's `anc'bf`, and its
    /// own magic rule is still emitted — what the staged evaluation's
    /// soundness argument needs, whichever adornment it carries.
    #[test]
    fn excl_negation_probes_the_positive_relation() {
        let p = parse_program(
            "anc(X, Y) <- par(X, Y).\n\
             anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
             excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).",
        )
        .unwrap();
        let q = parse_atom("excl(0, Y, Z)").unwrap();
        let mp = rewrite_magic(&adorn_program(&p, &q).unwrap(), &q);
        let text = unfold(&mp.program).to_string();
        assert!(
            text.contains(
                "excl'bff(X, Y, Z) <- m'excl'bff(X), anc'bf(X, Y), node(Z), ~anc'bf(X, Z)."
            ),
            "{text}"
        );
        assert!(
            text.contains("m'anc'bf(X) <- m'excl'bff(X), anc'bf(X, Y), node(Z)."),
            "{text}"
        );
        assert!(!text.contains("anc'bb"), "{text}");
        // Folded, too, nothing is joined before `~anc'bf(X, Z)`: its magic
        // rule needs only `X`, which the guard binds, so no supplementary
        // relation holds `anc × node`.
        let excl: Vec<String> = mp
            .program
            .rules
            .iter()
            .map(|r| r.to_string())
            .filter(|r| r.contains("excl"))
            .collect();
        assert_eq!(
            excl,
            [
                "m'anc'bf(X) <- m'excl'bff(X).",
                "m'anc'bf(X) <- m'excl'bff(X), anc'bf(X, Y), node(Z).",
                "excl'bff(X, Y, Z) <- m'excl'bff(X), anc'bf(X, Y), node(Z), ~anc'bf(X, Z).",
                "excl'bff(V0, V1, V2) <- m'excl'bff(V0), excl(V0, V1, V2).",
            ]
        );
    }

    /// §1's bill of materials under `result(1, C)`: the prefix
    /// `partition(S, S1, S2), S1 /= {}, S2 /= {}` is joined by one rule,
    /// and the magic rules of `tc(S1, C1)` and `tc(S2, C2)` and the
    /// modified rule read its supplementary relation.
    #[test]
    fn bom_partition_is_joined_once() {
        let p = parse_program(
            "part(P, <S>) <- p(P, S).\n\
             tc({X}, C) <- q(X, C).\n\
             tc({X}, C) <- part(X, S), tc(S, C).\n\
             tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                         tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
             result(X, C) <- tc({X}, C).",
        )
        .unwrap();
        let q = parse_atom("result(1, C)").unwrap();
        let mp = rewrite_magic(&adorn_program(&p, &q).unwrap(), &q);
        let text = mp.program.to_string();
        let partition: Vec<&Rule> = mp
            .program
            .rules
            .iter()
            .filter(|r| r.body.iter().any(|l| l.atom.pred.as_str() == "partition"))
            .collect();
        assert_eq!(partition.len(), 1, "{text}");
        let sup = partition[0].head.clone();
        assert_eq!(sup.to_string(), "sup'tc'bf'3'3(S, S1, S2)");
        for rule in [
            format!("m'tc'bf(S1) <- {sup}."),
            format!("m'tc'bf(S2) <- {sup}, tc'bf(S1, C1)."),
            format!("tc'bf(S, C) <- {sup}, tc'bf(S1, C1), tc'bf(S2, C2), +(C1, C2, C)."),
        ] {
            assert!(text.contains(&rule), "missing {rule}: {text}");
        }
        assert_eq!(
            mp.adorned_to_original.get(&sup.pred),
            Some(&Symbol::intern("tc"))
        );
    }

    #[test]
    fn all_free_query_degenerates() {
        let p = parse_program("anc(X, Y) <- par(X, Y).").unwrap();
        let q = parse_atom("anc(X, Y)").unwrap();
        let ap = adorn_program(&p, &q).unwrap();
        let mp = rewrite_magic(&ap, &q);
        // Seed is the 0-ary magic fact.
        assert_eq!(mp.seed.arity(), 0);
        assert_eq!(mp.seed.pred().as_str(), "m'anc'ff");
    }
}
