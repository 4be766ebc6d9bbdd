//! Adornment: specializing predicates by binding patterns (§6, after
//! \[BR87\]).

use std::collections::VecDeque;
use std::fmt;

use ldl_ast::literal::{Atom, Literal};
use ldl_ast::program::{Builtin, Program};
use ldl_ast::rule::Rule;
use ldl_ast::term::Term;
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::Symbol;

use crate::sip::{default_sip, Sip};

/// A binding pattern: one `b`/`f` per argument position.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Adornment(pub Vec<bool>);

impl Adornment {
    /// Number of bound positions.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|&&b| b).count()
    }

    /// The `bf`-style suffix.
    pub fn suffix(&self) -> String {
        self.0.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
    }
}

impl fmt::Display for Adornment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.suffix())
    }
}

/// The adorned name `p'bf` for `p` with adornment `a`. The `'` keeps the
/// namespace disjoint from user predicates.
pub fn adorned_name(pred: Symbol, a: &Adornment) -> Symbol {
    pred.map_name(|n| format!("{n}'{}", a.suffix()))
}

/// One adorned rule, with its sip retained for the magic rewriting.
#[derive(Clone, Debug)]
pub struct AdornedRule {
    /// The rule with IDB predicates renamed to their adorned versions and
    /// the body in sip order.
    pub rule: Rule,
    /// The original head predicate.
    pub head_pred: Symbol,
    /// The head's binding pattern.
    pub head_adornment: Adornment,
    /// For each body literal (in the rewritten order): the original
    /// predicate and adornment if it is an adorned IDB literal.
    pub body_adornments: Vec<Option<(Symbol, Adornment)>>,
    /// Bound argument terms of the head (the magic predicate's arguments).
    pub bound_head_args: Vec<Term>,
}

/// An adorned program: the reachable adorned rules plus the adorned query.
#[derive(Clone, Debug)]
pub struct AdornedProgram {
    /// All reachable adorned rules.
    pub rules: Vec<AdornedRule>,
    /// The adorned query predicate name.
    pub query_pred: Symbol,
    /// The query's binding pattern.
    pub query_adornment: Adornment,
    /// Original predicate of the query.
    pub original_query_pred: Symbol,
    /// How many negated literals probe an earlier positive literal's
    /// adorned relation instead of their own fully bound one (see
    /// [`adorn_program`]).
    pub negations_reused: usize,
}

/// Errors from adornment.
#[derive(Clone, Debug)]
pub enum AdornError {
    /// A rule has no executable sip for a required binding pattern.
    NoSip {
        /// The rule, rendered.
        rule: String,
        /// The binding pattern that could not be propagated.
        adornment: String,
    },
    /// The query predicate has no rules and is not an EDB predicate the
    /// caller can scan directly.
    NotIdb(String),
}

impl fmt::Display for AdornError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdornError::NoSip { rule, adornment } => {
                write!(
                    f,
                    "no executable sip for rule {rule} with adornment {adornment}"
                )
            }
            AdornError::NotIdb(p) => write!(f, "query predicate {p} is not defined by rules"),
        }
    }
}

impl std::error::Error for AdornError {}

/// Compute the adornment of the query atom: argument positions whose terms
/// are ground are bound — before [`adorn_program`] frees the positions the
/// query predicate groups (§6).
pub fn query_adornment(query: &Atom) -> Adornment {
    Adornment(
        query
            .args
            .iter()
            // Bound = ground *and* denoting an element of U: a term like
            // `scons(1, 2)` is syntactically ground but evaluates outside U
            // (§2.2 restriction 1); treating it as free keeps the seed's
            // arity honest and the term is post-filtered against answers
            // (matching nothing, as it should).
            .map(|t| t.is_ground() && t.to_value().is_some())
            .collect(),
    )
}

/// Produce the adorned program reachable from `query` (e.g. the paper's
/// rules 1–5 become the `a^bf`/`sg^bf`/`young^bf` set).
///
/// A negated IDB literal is adorned by the arguments bound when the sip
/// reaches it — with one exception. If an earlier positive literal of the
/// same predicate in the same body has, at every position its adornment
/// binds, the very term the negated literal has there, the negated literal
/// takes that adornment: in `excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X,
/// Z)` queried `excl'bff`, `~anc(X, Z)` becomes `~anc'bf(X, Z)`, a lookup
/// in the `anc'bf` relation the positive literal already has the magic
/// evaluation compute, where `~anc'bb` would seed `m'anc'bb` with every
/// (reachable, node) pair. Soundness does not rest on the earlier literal:
/// the rewrite still emits the negated literal's own magic rule, seeding
/// `m'anc'bf(X)`, and the staged evaluation applies a negation only at a
/// base fixpoint, where `anc'bf` is complete for every magic tuple.
pub fn adorn_program(program: &Program, query: &Atom) -> Result<AdornedProgram, AdornError> {
    let idb = program.idb_predicates();
    if !idb.contains_key(&query.pred) {
        return Err(AdornError::NotIdb(query.pred.to_string()));
    }
    // §6: a grouped head argument is never bound — restricting the body to
    // the values inside a bound set would be unsound, the grouped set being
    // defined as *all* values satisfying the body. So a position that any
    // rule head of a predicate groups is `f` in every adornment of that
    // predicate, the query's included (a ground term there is post-filtered
    // against the answers, like `scons(1, 2)`). Callers, import rules, seed
    // and guards then all agree on one arity per magic predicate.
    let grouped = |pred: Symbol, pos: usize| {
        program
            .rules_for(pred)
            .any(|r| r.head.args.get(pos).is_some_and(Term::has_group))
    };
    let mut q_adorn = query_adornment(query);
    for (pos, b) in q_adorn.0.iter_mut().enumerate() {
        *b &= !grouped(query.pred, pos);
    }

    let mut done: FastSet<(Symbol, Adornment)> = FastSet::default();
    let mut queue: VecDeque<(Symbol, Adornment)> = VecDeque::new();
    let mut rules = Vec::new();
    let mut negations_reused = 0;
    queue.push_back((query.pred, q_adorn.clone()));
    done.insert((query.pred, q_adorn.clone()));

    while let Some((pred, adornment)) = queue.pop_front() {
        for rule in program.rules_for(pred) {
            let Some(sip) = default_sip(rule, &adornment.0) else {
                return Err(AdornError::NoSip {
                    rule: rule.to_string(),
                    adornment: adornment.suffix(),
                });
            };
            let adorned = adorn_rule(
                rule,
                &adornment,
                &sip,
                &idb,
                &grouped,
                &mut negations_reused,
            );
            // Enqueue newly-discovered adorned predicates.
            for entry in adorned.body_adornments.iter().flatten() {
                if done.insert(entry.clone()) {
                    queue.push_back(entry.clone());
                }
            }
            rules.push(adorned);
        }
    }

    Ok(AdornedProgram {
        rules,
        query_pred: adorned_name(query.pred, &q_adorn),
        query_adornment: q_adorn,
        original_query_pred: query.pred,
        negations_reused,
    })
}

/// The adornment of the first positive literal of `body` (adorned as
/// `adornments` says) that calls `atom`'s predicate with `atom`'s terms at
/// every position it binds.
fn earlier_positive(
    atom: &Atom,
    body: &[Literal],
    adornments: &[Option<(Symbol, Adornment)>],
) -> Option<Adornment> {
    body.iter().zip(adornments).find_map(|(lit, adorned)| {
        let (pred, a) = adorned.as_ref()?;
        let same_terms =
            a.0.iter()
                .zip(&lit.atom.args)
                .zip(&atom.args)
                .all(|((&b, earlier), t)| !b || earlier == t);
        (lit.positive && *pred == atom.pred && same_terms).then(|| a.clone())
    })
}

fn adorn_rule(
    rule: &Rule,
    head_adornment: &Adornment,
    sip: &Sip,
    idb: &FastMap<Symbol, usize>,
    grouped: &dyn Fn(Symbol, usize) -> bool,
    negations_reused: &mut usize,
) -> AdornedRule {
    let mut body = Vec::with_capacity(rule.body.len());
    let mut body_adornments = Vec::with_capacity(rule.body.len());
    for (k, &li) in sip.order.iter().enumerate() {
        let lit = &rule.body[li];
        let is_builtin = Builtin::resolve(lit.atom.pred, lit.atom.arity()).is_some();
        if !is_builtin && idb.contains_key(&lit.atom.pred) {
            let bound = &sip.bound_before[k];
            let mut adornment = Adornment(
                lit.atom
                    .args
                    .iter()
                    .enumerate()
                    .map(|(pos, t)| {
                        t.is_bound_under(&|v| bound.contains(&v)) && !grouped(lit.atom.pred, pos)
                    })
                    .collect(),
            );
            if !lit.positive {
                if let Some(a) = earlier_positive(&lit.atom, &body, &body_adornments) {
                    if a != adornment {
                        *negations_reused += 1;
                        adornment = a;
                    }
                }
            }
            let renamed = Atom::new(
                adorned_name(lit.atom.pred, &adornment),
                lit.atom.args.clone(),
            );
            body.push(Literal {
                positive: lit.positive,
                atom: renamed,
            });
            body_adornments.push(Some((lit.atom.pred, adornment)));
        } else {
            body.push(lit.clone());
            body_adornments.push(None);
        }
    }
    let bound_head_args: Vec<Term> = rule
        .head
        .args
        .iter()
        .zip(&head_adornment.0)
        .filter(|(_, &b)| b)
        .map(|(t, _)| t.clone())
        .collect();
    let head = Atom::new(
        adorned_name(rule.head.pred, head_adornment),
        rule.head.args.clone(),
    );
    AdornedRule {
        rule: Rule::new(head, body),
        head_pred: rule.head.pred,
        head_adornment: head_adornment.clone(),
        body_adornments,
        bound_head_args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::{parse_atom, parse_program};

    fn young_program() -> Program {
        parse_program(
            "a(X, Y) <- p(X, Y).\n\
             a(X, Y) <- a(X, Z), a(Z, Y).\n\
             sg(X, Y) <- siblings(X, Y).\n\
             sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n\
             young(X, <Y>) <- ~a(X, _), sg(X, Y).",
        )
        .unwrap()
    }

    /// The paper's running example: the adorned set uses a^bf, sg^bf,
    /// young^bf throughout (its rules 1–5 with the bf superscripts).
    #[test]
    fn young_adornment_matches_paper() {
        let p = young_program();
        let ap = adorn_program(&p, &parse_atom("young(john, S)").unwrap()).unwrap();
        assert_eq!(ap.query_pred.as_str(), "young'bf");
        // Every adorned body literal is ^bf.
        let mut seen = FastSet::default();
        for r in &ap.rules {
            seen.insert(r.rule.head.pred);
            for ad in r.body_adornments.iter().flatten() {
                assert_eq!(ad.1.suffix(), "bf", "in {}", r.rule);
            }
        }
        assert!(seen.contains(&Symbol::intern("a'bf")));
        assert!(seen.contains(&Symbol::intern("sg'bf")));
        assert!(seen.contains(&Symbol::intern("young'bf")));
        // 5 original rules, each adorned exactly once.
        assert_eq!(ap.rules.len(), 5);
    }

    fn heads(ap: &AdornedProgram) -> Vec<&str> {
        ap.rules.iter().map(|r| r.rule.head.pred.as_str()).collect()
    }

    /// §1's exclusive ancestors: `~anc(X, Z)` has the term `X` where
    /// `anc(X, Y)` binds, so it probes `anc'bf` and no `anc'bb` is adorned.
    #[test]
    fn negated_literal_reuses_an_earlier_positive_adornment() {
        let p = parse_program(
            "anc(X, Y) <- par(X, Y).\n\
             anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
             excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).",
        )
        .unwrap();
        let ap = adorn_program(&p, &parse_atom("excl(0, Y, Z)").unwrap()).unwrap();
        assert_eq!(ap.negations_reused, 1);
        let excl = &ap.rules[0];
        assert_eq!(
            excl.rule.to_string(),
            "excl'bff(X, Y, Z) <- anc'bf(X, Y), node(Z), ~anc'bf(X, Z)."
        );
        assert!(!heads(&ap).contains(&"anc'bb"), "{:?}", heads(&ap));
    }

    /// The earlier literal binds `X` where the negated one has `Z`: not the
    /// same relation slice, so the negated literal keeps its own `bb`.
    #[test]
    fn different_bound_terms_keep_the_full_adornment() {
        let p = parse_program(
            "anc(X, Y) <- par(X, Y).\n\
             anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
             p(X, Y) <- anc(X, Y), node(Z), ~anc(Z, Y).",
        )
        .unwrap();
        let ap = adorn_program(&p, &parse_atom("p(a, Y)").unwrap()).unwrap();
        assert_eq!(ap.negations_reused, 0);
        assert!(heads(&ap).contains(&"anc'bb"), "{:?}", heads(&ap));
        assert_eq!(
            ap.rules[0].rule.to_string(),
            "p'bf(X, Y) <- anc'bf(X, Y), node(Z), ~anc'bb(Z, Y)."
        );
    }

    #[test]
    fn free_query_gives_all_free_adornments() {
        let p = parse_program(
            "anc(X, Y) <- par(X, Y).\n\
             anc(X, Y) <- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let ap = adorn_program(&p, &parse_atom("anc(X, Y)").unwrap()).unwrap();
        assert_eq!(ap.query_pred.as_str(), "anc'ff");
        // The recursive literal stays ff or becomes bf depending on the sip;
        // with nothing bound the scan order binds X, Z first via par.
        assert!(ap.rules.len() >= 2);
    }

    #[test]
    fn bound_first_arg_propagates() {
        let p = parse_program(
            "anc(X, Y) <- par(X, Y).\n\
             anc(X, Y) <- par(X, Z), anc(Z, Y).",
        )
        .unwrap();
        let ap = adorn_program(&p, &parse_atom("anc(a, Y)").unwrap()).unwrap();
        assert_eq!(ap.query_pred.as_str(), "anc'bf");
        // Recursive call anc(Z, Y) with Z bound by par(X, Z): adorned bf.
        let rec = ap
            .rules
            .iter()
            .find(|r| r.rule.body.len() == 2)
            .expect("recursive rule");
        let adorned: Vec<_> = rec.body_adornments.iter().flatten().collect();
        assert_eq!(adorned.len(), 1);
        assert_eq!(adorned[0].1.suffix(), "bf");
    }

    #[test]
    fn non_idb_query_rejected() {
        let p = parse_program("anc(X, Y) <- par(X, Y).").unwrap();
        assert!(matches!(
            adorn_program(&p, &parse_atom("par(a, Y)").unwrap()),
            Err(AdornError::NotIdb(_))
        ));
    }

    #[test]
    fn grouped_query_position_is_free() {
        let p = young_program();
        // Even a ground second argument must not bind the grouped position:
        // the adornment itself says so, so the seed, the callers and the
        // young rule's guard agree that the magic args are [X].
        let ap = adorn_program(&p, &parse_atom("young(john, {a})").unwrap()).unwrap();
        assert_eq!(ap.query_adornment.suffix(), "bf");
        assert_eq!(ap.query_pred.as_str(), "young'bf");
        let young_rule = ap
            .rules
            .iter()
            .find(|r| r.head_pred == Symbol::intern("young"))
            .unwrap();
        assert_eq!(young_rule.bound_head_args.len(), 1);
    }
}
