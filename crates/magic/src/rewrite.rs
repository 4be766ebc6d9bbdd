//! Generalized Magic Sets rewriting (§6, after \[BR87\]).
//!
//! From the adorned program, produce `P^mg`:
//!
//! * every adorned rule `p^a(t̄) <- B₁ … Bₙ` (body in sip order) becomes the
//!   *modified rule* `p^a(t̄) <- magic_p^a(t̄_b), B₁ … Bₙ`;
//! * for each adorned body literal `Bⱼ = [¬]q^c(s̄)` a *magic rule*
//!   `magic_q^c(s̄_b) <- magic_p^a(t̄_b), B₁ … Bⱼ₋₁` (negated literals get
//!   magic rules too — "we first compute p completely" for the relevant
//!   bindings);
//! * the *seed* `magic_q₀^a(query constants)` from the query.

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::Program;
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::{Fact, Symbol, Value};

use crate::adorn::{adorned_name, AdornedProgram, Adornment};

/// The magic predicate name for an adorned predicate: `m'p'bf`.
pub fn magic_name(pred: Symbol, a: &Adornment) -> Symbol {
    pred.map_name(|n| format!("m'{n}'{}", a.suffix()))
}

/// A magic-rewritten program, ready for [`crate::eval::MagicEvaluator`].
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// Magic rules + modified rules.
    pub program: Program,
    /// The seed fact for the query.
    pub seed: Fact,
    /// The query against the rewritten program: the adorned predicate with
    /// the original argument patterns.
    pub query: Atom,
    /// Adorned predicate → original predicate (for stratum lookup and for
    /// restricting answers back to user predicates).
    pub adorned_to_original: FastMap<Symbol, Symbol>,
}

/// Rewrite an adorned program into its magic version, seeding from `query`
/// (the same atom used for adornment; its ground arguments become the seed
/// values).
pub fn rewrite_magic(adorned: &AdornedProgram, query: &Atom) -> MagicProgram {
    let mut program = Program::new();
    let mut adorned_to_original: FastMap<Symbol, Symbol> = FastMap::default();

    for ar in &adorned.rules {
        let head_magic = magic_name(ar.head_pred, &ar.head_adornment);
        adorned_to_original.insert(ar.rule.head.pred, ar.head_pred);

        // Magic rules: one per adorned body literal.
        for (j, info) in ar.body_adornments.iter().enumerate() {
            let Some((orig_pred, adornment)) = info else {
                continue;
            };
            let lit = &ar.rule.body[j];
            let bound_args: Vec<Term> = lit
                .atom
                .args
                .iter()
                .zip(&adornment.0)
                .filter(|(_, &b)| b)
                .map(|(t, _)| t.clone())
                .collect();
            let mut body = vec![Literal::pos(Atom::new(
                head_magic,
                ar.bound_head_args.clone(),
            ))];
            body.extend(ar.rule.body[..j].iter().cloned());
            program.push(Rule::new(
                Atom::new(magic_name(*orig_pred, adornment), bound_args),
                body,
            ));
            adorned_to_original.insert(adorned_name(*orig_pred, adornment), *orig_pred);
        }

        // Modified rule.
        let mut body = vec![Literal::pos(Atom::new(
            head_magic,
            ar.bound_head_args.clone(),
        ))];
        body.extend(ar.rule.body.iter().cloned());
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

    // Seed: the ground query arguments at bound positions. Adornment marks
    // a position bound only when the term evaluates into U, so to_value
    // cannot fail here — and if that invariant ever breaks we want a clear
    // message, not a downstream arity panic.
    let seed_args: Vec<Value> = query
        .args
        .iter()
        .zip(&adorned.query_adornment.0)
        .filter(|(_, &b)| b)
        .map(|(t, _)| {
            t.to_value()
                .unwrap_or_else(|| panic!("bound query argument {t} does not denote a U-value"))
        })
        .collect();
    let seed_pred = magic_name(adorned.original_query_pred, &adorned.query_adornment);
    let seed = Fact::new(seed_pred, seed_args);

    let query_atom = Atom::new(adorned.query_pred, query.args.clone());

    MagicProgram {
        program,
        seed,
        query: query_atom,
        adorned_to_original,
    }
}

#[cfg(test)]
mod tests {
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

    /// The §6 example yields the rules 1′–11′ (modulo the paper's redundant
    /// 1′ `magic_a <- magic_a`, which our sip generates as well from rule
    /// 2's first recursive literal, and the fused rules 4′/5′ shapes).
    #[test]
    fn young_rewrite_shape() {
        let mp = young_magic();
        let text = mp.program.to_string();
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
        let text = mp.program.to_string();
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
        let text = mp.program.to_string();
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
