#![warn(missing_docs)]

//! Admissibility and layering (§3.1).
//!
//! The paper defines two relations on the predicate symbols of a program `P`:
//!
//! 1. `p ≥ q` — some rule has head predicate `p`, **no** `<X>` in the head,
//!    and `q` occurs *non-negated* in the body;
//! 2. `p > q` — some rule has head `p` **with** a `<X>` occurrence in the
//!    head and `q` occurs (in any polarity) in the body;
//! 3. `p > q` — some rule has head `p` and `q` occurs *negated* in the body.
//!
//! An LDL1.5 body literal `q(…, <t>, …)` (§4.1) also gives `p > q`: the
//! paper's macro reads `q` through a grouping `collect` rule, and the edge
//! keeps the macro's admissibility and layers. [`graph::edge_kind`] is the
//! one place these clauses are written.
//!
//! `P` is *admissible* iff there is no cyclic sequence `p₁ θ₁ p₂ … θₖ₋₁ pₖ`
//! with `p₁ = pₖ` in which some `θⱼ` is `>`. A *layering* is a partition
//! `L₀, …, Lₘ` of the predicate symbols such that `p ≥ q` implies
//! `layer(p) ≥ layer(q)` and `p > q` implies `layer(p) > layer(q)`.
//! Lemma 3.1: admissible ⟺ a layering exists.
//!
//! We build the dependency graph, find its strongly connected components,
//! reject any `>` edge inside an SCC (that is exactly a cycle through `>`),
//! and assign layers by longest-path over the condensation, counting `>`
//! edges as length 1 and `≥` edges as length 0. [`Stratification::fine`]
//! gives an alternative, finer layering (one layer per SCC) used to exercise
//! Theorem 2 (the computed model is independent of the layering chosen).

pub mod graph;

use std::fmt;

use ldl_ast::program::{Builtin, Program};
use ldl_value::fxhash::{FastMap, FastSet};
use ldl_value::Symbol;

pub use graph::{DepGraph, EdgeKind};

/// Why a program is not admissible.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotAdmissible {
    /// A cyclic sequence of predicates `p₁ … pₖ` (with `pₖ` depending on
    /// `p₁` again) in which at least one step is a `>` edge.
    pub cycle: Vec<Symbol>,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for NotAdmissible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program is not admissible: {}; cycle: ", self.reason)?;
        for (i, p) in self.cycle.iter().enumerate() {
            if i > 0 {
                f.write_str(" -> ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl std::error::Error for NotAdmissible {}

/// A layering of a program: predicates and rules assigned to layers
/// `0 ..= max_layer`, lowest first.
#[derive(Clone, Debug)]
pub struct Stratification {
    /// `layer_of[p]` for every non-built-in predicate (EDB predicates get
    /// layer 0).
    pub layer_of: FastMap<Symbol, usize>,
    /// Rule indices (into `program.rules`) per layer.
    pub rules_by_layer: Vec<Vec<usize>>,
    /// The order each layer's rules run in, per layer.
    pub schedule: Vec<LayerSchedule>,
}

/// The order one layer's rules run in, as *entries*: the units cold
/// evaluation runs to a fixpoint one after another and maintenance keeps
/// one at a time. Lemma 3.2.3 runs the grouping rules first, once. The
/// remaining rules run one strongly connected component of the dependency
/// graph at a time, each to its fixpoint, dependency-first. Theorem 2 makes
/// that sound: splitting the layer into one layer per entry is a valid
/// layering too, and every layering has the same model.
#[derive(Clone, Debug, Default)]
pub struct LayerSchedule {
    /// Rules with a `<X>` head argument whose head no other rule defines,
    /// in program order: one entry, never recursive. A malformed
    /// multi-grouping head is one of them; it fails with a diagnostic when
    /// its plan is compiled.
    pub grouping: Component,
    /// The remaining rules, one entry per component, dependency-first. A
    /// grouping rule whose head a simple rule also defines belongs to that
    /// head's component: its body lies strictly below the layer, so it may
    /// run anywhere in it, and the head's rows are then one entry's to
    /// rebuild.
    pub components: Vec<Component>,
}

/// The rules of one schedule entry: a strongly connected component, or a
/// layer's grouping rules.
#[derive(Clone, Debug, Default)]
pub struct Component {
    /// Their head predicates, in first-rule order: the semi-naive deltas.
    pub preds: Vec<Symbol>,
    /// Rule indices (into `program.rules`), in program order.
    pub rules: Vec<usize>,
    /// Does a rule read one of `preds`, so that the fixpoint loops?
    pub recursive: bool,
}

impl Component {
    fn new(program: &Program, rules: Vec<usize>) -> Component {
        let mut preds: Vec<Symbol> = Vec::new();
        for &ri in &rules {
            let p = program.rules[ri].head.pred;
            if !preds.contains(&p) {
                preds.push(p);
            }
        }
        let recursive = rules.iter().any(|&ri| {
            let body = &program.rules[ri].body;
            body.iter().any(|l| preds.contains(&l.atom.pred))
        });
        Component {
            preds,
            rules,
            recursive,
        }
    }
}

impl Stratification {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.rules_by_layer.len()
    }

    /// The layer of a predicate (0 for unknown/EDB predicates).
    pub fn layer(&self, p: Symbol) -> usize {
        self.layer_of.get(&p).copied().unwrap_or(0)
    }

    /// The *canonical* layering: longest-path layer assignment, producing the
    /// minimum number of layers.
    pub fn canonical(program: &Program) -> Result<Stratification, NotAdmissible> {
        let g = DepGraph::build(program);
        let sccs = g.sccs();
        check_admissible(&g, &sccs)?;

        // Longest path over the condensation: process SCCs in reverse
        // topological order (Tarjan emits them in reverse topological order
        // of the condensation — components are emitted before their callers
        // — so scc index order is dependency-first).
        let mut scc_layer = vec![0usize; sccs.components.len()];
        for (ci, comp) in sccs.components.iter().enumerate() {
            let mut layer = 0usize;
            for &p in comp {
                for (q, kind) in g.deps_of(p) {
                    let cq = sccs.comp_of[&q];
                    if cq == ci {
                        continue; // intra-SCC `≥` edge
                    }
                    let need = scc_layer[cq] + usize::from(kind == EdgeKind::Greater);
                    layer = layer.max(need);
                }
            }
            scc_layer[ci] = layer;
        }
        Ok(Self::assemble(program, &sccs, &scc_layer))
    }

    /// A *fine* layering: one layer per SCC, in topological order. Satisfies
    /// the same layering conditions; used to test Theorem 2 (layering
    /// independence).
    pub fn fine(program: &Program) -> Result<Stratification, NotAdmissible> {
        let g = DepGraph::build(program);
        let sccs = g.sccs();
        check_admissible(&g, &sccs)?;
        let scc_layer: Vec<usize> = (0..sccs.components.len()).collect();
        Ok(Self::assemble(program, &sccs, &scc_layer))
    }

    fn assemble(program: &Program, sccs: &graph::Sccs, scc_layer: &[usize]) -> Stratification {
        let mut layer_of: FastMap<Symbol, usize> = FastMap::default();
        let mut max_layer = 0usize;
        for (ci, comp) in sccs.components.iter().enumerate() {
            for &p in comp {
                layer_of.insert(p, scc_layer[ci]);
                max_layer = max_layer.max(scc_layer[ci]);
            }
        }
        let simple_heads: FastSet<Symbol> = program
            .rules
            .iter()
            .filter(|r| r.head.simple_group_positions().is_empty())
            .map(|r| r.head.pred)
            .collect();
        let mut rules_by_layer = vec![Vec::new(); max_layer + 1];
        let mut grouping = vec![Vec::new(); max_layer + 1];
        let mut comp_rules: Vec<Vec<usize>> = vec![Vec::new(); sccs.components.len()];
        for (i, r) in program.rules.iter().enumerate() {
            let l = layer_of[&r.head.pred];
            rules_by_layer[l].push(i);
            if simple_heads.contains(&r.head.pred) {
                comp_rules[sccs.comp_of[&r.head.pred]].push(i);
            } else {
                grouping[l].push(i);
            }
        }
        let mut schedule: Vec<LayerSchedule> = grouping
            .into_iter()
            .map(|rules| LayerSchedule {
                grouping: Component::new(program, rules),
                components: Vec::new(),
            })
            .collect();
        // Component indices are dependency-first, so pushing them in index
        // order keeps every layer's list dependency-first.
        for (ci, rules) in comp_rules.into_iter().enumerate() {
            if !rules.is_empty() {
                let layer = &mut schedule[scc_layer[ci]];
                layer.components.push(Component::new(program, rules));
            }
        }
        Stratification {
            layer_of,
            rules_by_layer,
            schedule,
        }
    }

    /// Every entry of the schedule with its layer, in run order: each
    /// layer's grouping rules (where it has any), then its components.
    pub fn entries(&self) -> impl Iterator<Item = (usize, &Component)> {
        self.schedule.iter().enumerate().flat_map(|(k, layer)| {
            let grouping = Some(&layer.grouping).filter(|g| !g.rules.is_empty());
            grouping
                .into_iter()
                .chain(&layer.components)
                .map(move |c| (k, c))
        })
    }

    /// How each entry of [`Stratification::entries`] *reads* predicates —
    /// the dependency query that drives incremental maintenance. For an
    /// entry `e` and a predicate `p` whose facts changed:
    ///
    /// * `p ∈ positive(e)` — some rule of `e` reads `p` through a
    ///   positive, non-grouping body literal. New `p` facts only *add*
    ///   derivations (monotone), so they can be propagated by
    ///   delta-restricted rule passes.
    /// * `p ∈ nonmonotone(e)` — some rule of `e` reads `p` under negation,
    ///   or from the body of a grouping-head rule. New `p` facts can
    ///   *retract* conclusions (a `~p(…)` test flips to false; a grouped
    ///   set `<X>` grows, and §2.2 semantics replace the old set rather than
    ///   keep both), so the entry's output must be recomputed from scratch.
    ///
    /// Admissibility (§3.1) guarantees every `nonmonotone` predicate lies in
    /// a strictly lower layer, which is what makes "recompute `e`" sound:
    /// everything `e` reads is final when `e` replays.
    pub fn sensitivity(&self, program: &Program) -> Vec<Sensitivity> {
        self.entries()
            .map(|(_, entry)| {
                let mut sens = Sensitivity::default();
                for &ri in &entry.rules {
                    let rule = &program.rules[ri];
                    let grouping = rule.head.has_group();
                    for lit in &rule.body {
                        let q = lit.atom.pred;
                        if Builtin::resolve(q, lit.atom.arity()).is_some() {
                            continue;
                        }
                        if grouping || !lit.positive {
                            sens.nonmonotone.insert(q);
                        } else {
                            sens.positive.insert(q);
                        }
                    }
                }
                sens
            })
            .collect()
    }

    /// Validate the layering conditions against a program (§3.1). Used by
    /// tests and by the evaluator's debug assertions.
    pub fn validate(&self, program: &Program) -> Result<(), String> {
        for r in &program.rules {
            let hp = r.head.pred;
            let hl = self.layer(hp);
            for l in &r.body {
                let Some(kind) = graph::edge_kind(r, l) else {
                    continue;
                };
                let q = l.atom.pred;
                let ql = self.layer(q);
                if kind == EdgeKind::Greater {
                    if hl <= ql {
                        return Err(format!(
                            "layering violated: {hp} (layer {hl}) must be above {q} (layer {ql}) in rule {r}"
                        ));
                    }
                } else if hl < ql {
                    return Err(format!(
                        "layering violated: {hp} (layer {hl}) must not be below {q} (layer {ql}) in rule {r}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// What one schedule entry reads from the database — see
/// [`Stratification::sensitivity`].
#[derive(Clone, Debug, Default)]
pub struct Sensitivity {
    /// Predicates read by positive literals of non-grouping rules: changes
    /// propagate monotonically (delta passes suffice).
    pub positive: FastSet<Symbol>,
    /// Predicates read under negation or inside grouping-rule bodies:
    /// changes force the entry to replay.
    pub nonmonotone: FastSet<Symbol>,
}

impl Sensitivity {
    /// Does a change to `p` affect this entry at all?
    pub fn affected_by(&self, p: Symbol) -> bool {
        self.positive.contains(&p) || self.nonmonotone.contains(&p)
    }

    /// Does a change to `p` invalidate (rather than merely extend) this
    /// entry's output?
    pub fn requires_replay_for(&self, p: Symbol) -> bool {
        self.nonmonotone.contains(&p)
    }
}

fn check_admissible(g: &DepGraph, sccs: &graph::Sccs) -> Result<(), NotAdmissible> {
    for (p, q, kind) in g.edges() {
        if kind == EdgeKind::Greater && sccs.comp_of[&p] == sccs.comp_of[&q] {
            // A `>` edge inside an SCC: exhibit the cycle p -> q -> … -> p.
            let mut cycle = vec![p];
            if p != q {
                let path = g
                    .path_within(sccs, q, p)
                    .expect("q and p are in the same SCC, a path exists");
                cycle.extend(path);
            }
            let reason = format!(
                "predicate {q} must be in a layer strictly below {p}, but they are mutually recursive"
            );
            return Err(NotAdmissible { cycle, reason });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_parser::parse_program;

    fn strat(src: &str) -> Result<Stratification, NotAdmissible> {
        Stratification::canonical(&parse_program(src).unwrap())
    }

    fn layer(s: &Stratification, p: &str) -> usize {
        s.layer(Symbol::intern(p))
    }

    #[test]
    fn simple_program_single_layer() {
        let s = strat(
            "ancestor(X, Y) <- parent(X, Y).\n\
             ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).",
        )
        .unwrap();
        assert_eq!(s.num_layers(), 1);
        assert_eq!(layer(&s, "ancestor"), 0);
        assert_eq!(layer(&s, "parent"), 0);
    }

    #[test]
    fn excl_ancestor_two_layers() {
        // The §1 example: "This program consists of two layers".
        let s = strat(
            "ancestor(X, Y) <- parent(X, Y).\n\
             ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n\
             excl_ancestor(X, Y, Z) <- ancestor(X, Y), ~ancestor(X, Z).",
        )
        .unwrap();
        assert_eq!(s.num_layers(), 2);
        assert_eq!(layer(&s, "ancestor"), 0);
        assert_eq!(layer(&s, "excl_ancestor"), 1);
    }

    #[test]
    fn even_program_inadmissible() {
        // §1: "the following is an inadmissible LDL program … even must be
        // in a layer below even".
        let err = strat(
            "int(0).\n\
             int(s(X)) <- int(X).\n\
             even(0).\n\
             even(s(X)) <- int(X), ~even(X).",
        )
        .unwrap_err();
        assert!(err.cycle.contains(&Symbol::intern("even")));
    }

    #[test]
    fn grouping_forces_strict_layer() {
        let s = strat(
            "part(P, <S>) <- p(P, S).\n\
             big(P) <- part(P, S), card(S, N), N > 2.",
        )
        .unwrap();
        assert_eq!(layer(&s, "p"), 0);
        assert_eq!(layer(&s, "part"), 1);
        assert_eq!(layer(&s, "big"), 1); // ≥ edge from part allows equality
        assert_eq!(s.num_layers(), 2);
    }

    #[test]
    fn recursion_through_grouping_inadmissible() {
        // §2.3's Russell-style program p(<X>) <- p(X): no model; the
        // stratifier rejects it (p > p).
        let err = strat("p(<X>) <- p(X). p(1).").unwrap_err();
        assert_eq!(err.cycle, vec![Symbol::intern("p")]);
    }

    #[test]
    fn indirect_recursion_through_grouping_inadmissible() {
        // The §2.3 two-minimal-models program: p(<X>) <- q(X),
        // q(Y) <- w(S,Y), p(S): cycle p > q ≥ p.
        let err = strat(
            "p(<X>) <- q(X).\n\
             q(Y) <- w(S, Y), p(S).\n\
             q(1). w({1}, 7).",
        )
        .unwrap_err();
        assert!(err.cycle.contains(&Symbol::intern("p")));
        assert!(err.cycle.contains(&Symbol::intern("q")));
    }

    #[test]
    fn negation_cycle_indirect_inadmissible() {
        let err = strat(
            "a(X) <- b(X).\n\
             b(X) <- c(X), ~a(X).\n\
             c(1).",
        )
        .unwrap_err();
        assert!(err.cycle.contains(&Symbol::intern("a")));
        assert!(err.cycle.contains(&Symbol::intern("b")));
    }

    #[test]
    fn tc_program_admissible() {
        // The §1 bill-of-materials program.
        let s = strat(
            "part(P, <S>) <- p(P, S).\n\
             tc({X}, C) <- q(X, C).\n\
             tc({X}, C) <- part(X, S), tc(S, C).\n\
             tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
             result(X, C) <- tc({X}, C).",
        )
        .unwrap();
        assert_eq!(layer(&s, "part"), 1);
        assert_eq!(layer(&s, "tc"), 1);
        assert_eq!(layer(&s, "result"), 1);
        s.validate(
            &parse_program(
                "part(P, <S>) <- p(P, S).\n\
             tc({X}, C) <- q(X, C).\n\
             tc({X}, C) <- part(X, S), tc(S, C).\n\
             tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
             result(X, C) <- tc({X}, C).",
            )
            .unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn young_program_three_strata() {
        // The §6 running example.
        let src = "a(X, Y) <- p(X, Y).\n\
                   a(X, Y) <- a(X, Z), a(Z, Y).\n\
                   sg(X, Y) <- siblings(X, Y).\n\
                   sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n\
                   young(X, <Y>) <- ~a(X, Z), sg(X, Y).";
        let s = strat(src).unwrap();
        assert_eq!(layer(&s, "a"), 0);
        assert_eq!(layer(&s, "sg"), 0);
        assert_eq!(layer(&s, "young"), 1);
        s.validate(&parse_program(src).unwrap()).unwrap();
    }

    #[test]
    fn fine_layering_also_validates() {
        let src = "a(X) <- e(X).\n\
                   b(X) <- a(X), ~e2(X).\n\
                   c(<X>) <- b(X).\n\
                   d(X) <- c(S), member(X, S).";
        let p = parse_program(src).unwrap();
        let fine = Stratification::fine(&p).unwrap();
        let canon = Stratification::canonical(&p).unwrap();
        fine.validate(&p).unwrap();
        canon.validate(&p).unwrap();
        // Fine has at least as many layers.
        assert!(fine.num_layers() >= canon.num_layers());
        // Relative order must agree on strict dependencies.
        let (b, c) = (Symbol::intern("b"), Symbol::intern("c"));
        assert!(fine.layer(c) > fine.layer(b));
        assert!(canon.layer(c) > canon.layer(b));
    }

    #[test]
    fn builtins_ignored_by_stratifier() {
        let s = strat("q(X, S) <- p(X), member(X, S), r(S), X < 5.").unwrap();
        assert_eq!(s.num_layers(), 1);
        assert!(!s.layer_of.contains_key(&Symbol::intern("member")));
        assert!(!s.layer_of.contains_key(&Symbol::intern("<")));
    }

    #[test]
    fn positive_grouping_chain_layers_increase() {
        let s = strat(
            "s1(<X>) <- e(X).\n\
             s2(<S>) <- s1(S).\n\
             s3(<S>) <- s2(S).",
        )
        .unwrap();
        assert_eq!(layer(&s, "e"), 0);
        assert_eq!(layer(&s, "s1"), 1);
        assert_eq!(layer(&s, "s2"), 2);
        assert_eq!(layer(&s, "s3"), 3);
    }

    #[test]
    fn sensitivity_classifies_reads() {
        let src = "anc(X, Y) <- par(X, Y).\n\
                   anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                   kids(P, <K>) <- par(P, K).\n\
                   excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).";
        let p = parse_program(src).unwrap();
        let s = Stratification::canonical(&p).unwrap();
        let sens = s.sensitivity(&p);
        // One read set per entry: {anc}, kids' grouping rule, {excl}.
        assert_eq!(sens.len(), 3);
        let of = |head: &str| {
            let head = Symbol::intern(head);
            &sens[s
                .entries()
                .position(|(_, e)| e.preds.contains(&head))
                .unwrap()]
        };
        let (par, anc) = (Symbol::intern("par"), Symbol::intern("anc"));

        // anc's component: par and anc are read positively, nothing replays.
        let l0 = of("anc");
        assert!(l0.affected_by(par) && l0.affected_by(anc));
        assert!(!l0.requires_replay_for(par));

        // kids groups over par: a par change forces replay.
        let lk = of("kids");
        assert!(lk.requires_replay_for(par));

        // excl negates anc (replay) but reads node positively.
        let le = of("excl");
        assert!(le.requires_replay_for(anc));
        assert!(le.affected_by(Symbol::intern("node")));
        assert!(!le.requires_replay_for(Symbol::intern("node")));
    }

    #[test]
    fn a_head_with_grouping_and_simple_rules_is_one_entry() {
        let src = "p(X, <Y>) <- e(X, Y).\n\
                   p(X, S) <- f(X, S).\n\
                   k(X, <Y>) <- e(X, Y).";
        let s = strat(src).unwrap();
        let entries: Vec<&Vec<usize>> = s.entries().map(|(_, c)| &c.rules).collect();
        assert_eq!(entries, [&vec![2], &vec![0, 1]]);
    }

    #[test]
    fn sensitivity_skips_builtins() {
        let src = "q(X, S) <- p(X), member(X, S), r(S), X < 5.";
        let p = parse_program(src).unwrap();
        let s = Stratification::canonical(&p).unwrap();
        let sens = s.sensitivity(&p);
        assert!(!sens[0].affected_by(Symbol::intern("member")));
        assert!(!sens[0].affected_by(Symbol::intern("<")));
        assert!(sens[0].affected_by(Symbol::intern("p")));
    }

    #[test]
    fn error_display_mentions_cycle() {
        let err = strat("p(X) <- ~p(X). p(1).").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not admissible"));
        assert!(msg.contains('p'));
    }

    #[test]
    fn rules_assigned_to_head_layers() {
        let src = "a(X) <- e(X).\n\
                   b(X) <- a(X), ~a2(X).\n\
                   a2(X) <- e(X).";
        let p = parse_program(src).unwrap();
        let s = Stratification::canonical(&p).unwrap();
        // Rules 0 and 2 (a, a2) in layer 0; rule 1 (b) in layer 1.
        assert_eq!(s.rules_by_layer[0], vec![0, 2]);
        assert_eq!(s.rules_by_layer[1], vec![1]);
    }
}
