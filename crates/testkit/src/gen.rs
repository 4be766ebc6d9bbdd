//! Random stratified-program generation for differential testing.
//!
//! Produces admissible LDL1.5 programs exercising the constructs whose
//! interaction is hardest to get right — recursion, stratified negation,
//! and grouping — together with a matching random EDB. The only LDL1.5
//! construct is a body `<t>` (§4.1), so evaluate under `Dialect::Ldl15`.
//! The output is plain data (source text + tuples), so this crate stays
//! dependency-free; the caller parses and loads it with whatever pipeline
//! it is testing.
//!
//! The shape mirrors the paper's layering discipline: a transitive-closure
//! base layer `p0` over edge relation `e0(X, Y)`, then a random stack of
//! layers `p1, p2, …` where each `pl` reads `p(l-1)` through one of nine
//! templates (recursion, negation on the marker relation `e1(X)`,
//! grouping with `member` flattening, a three-way join back through `e0`,
//! a set-constructing head, a head both a grouping and a simple rule
//! define, negated self-comparison and negated built-ins, set, compound
//! and `_` patterns in relation literals, or §4.1 `<t>` patterns over
//! set-valued columns).
//! Every template keeps arity 2 so layers compose freely, and every
//! negated, grouped or `<t>` read looks strictly down the stack — the
//! program is admissible by construction.
//!
//! EDB constants are not just integers: a slice of every node domain is
//! set-valued (`{a, b}`) or compound-valued (`f(a, b)`), so joins,
//! duplicate elimination, grouping, and negation all run over nested
//! ground values — the structures whose identity an interning engine must
//! get right — and grouping layers build sets *of* those sets.
//!
//! Above a minimum size, a third of the cases **skew** one EDB relation
//! 10–50× past the others (profiles: balanced, `e0`-heavy, `e1`-heavy).
//! Plans read no relation sizes (the sip rule), so skew does not change a
//! plan; it changes how far each join fans out, so the oracle sees
//! lopsided joins as well as balanced ones.

use crate::Rng;

/// A ground constant in a generated EDB tuple.
///
/// Kept as plain data (no `ldl-value` dependency): the loader converts to
/// engine values. Both endpoints of an edge draw from one shared per-case
/// pool, so structurally-equal nested constants recur across tuples and
/// joins/negation tests actually hit them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenConst {
    /// An integer constant.
    Int(i64),
    /// A set of integers, `{a, b, …}`. May list duplicates — set semantics
    /// collapse them, which is itself worth exercising.
    Set(Vec<i64>),
    /// A compound term over integers, `f(a, b, …)`.
    Compound(&'static str, Vec<i64>),
}

/// A generated differential-test case: program source plus EDB tuples.
#[derive(Clone, Debug)]
pub struct GeneratedCase {
    /// LDL1 source text (rules only; facts come from `edb`).
    pub src: String,
    /// EDB tuples, as `(predicate, ground arguments)`.
    pub edb: Vec<(&'static str, Vec<GenConst>)>,
    /// Number of layers in the generated program (≥ 1).
    pub layers: usize,
    /// The top predicate name, `p{layers - 1}` — query this to reach every
    /// layer below.
    pub top: String,
    /// How far one EDB relation was inflated past the others (1 = balanced,
    /// 10–50 = skewed). Skewed cases have lopsided join fan-outs.
    pub skew_factor: u32,
}

/// Generate one random stratified program + EDB, scaled by `size`.
///
/// `size` bounds everything at once — node-domain width, edge count, marker
/// count, and layer count — which is exactly the knob
/// [`crate::cases_shrink`] turns to minimize a failing case.
pub fn stratified_case(rng: &mut Rng, size: u32) -> GeneratedCase {
    let size = size.max(1) as usize;
    let nodes = (2 + size / 2) as i64;
    let max_edges = 2 * size;
    let layers = 2 + rng.index(3.min(size)); // 2..=4 strata
    let mut src = String::from("p0(X, Y) <- e0(X, Y).\np0(X, Y) <- e0(X, Z), p0(Z, Y).\n");
    for l in 1..layers {
        let below = l - 1;
        match rng.index(9) {
            0 => src.push_str(&format!(
                "p{l}(X, Y) <- p{below}(X, Y).\np{l}(X, Y) <- p{below}(X, Z), p{l}(Z, Y).\n"
            )),
            1 => src.push_str(&format!("p{l}(X, Y) <- p{below}(X, Y), ~e1(Y).\n")),
            2 => {
                // Grouping then flattening keeps arity 2 across layers.
                src.push_str(&format!(
                    "g{l}(X, <Y>) <- p{below}(X, Y).\n\
                     p{l}(X, Y) <- g{l}(X, S), member(Y, S).\n"
                ));
            }
            3 => {
                // Three-way join back through the base edges: with a skewed
                // `e0`, the scheduled order of these literals changes with
                // the planner, so cost vs greedy divergence is observable.
                src.push_str(&format!(
                    "p{l}(X, Y) <- e0(X, Z), p{below}(Z, W), e0(W, Y).\n"
                ));
            }
            // A head argument that does not invert. `~e1(X)` keeps the rules
            // out of `p0`'s recursive stratum, so over `p0` they form a
            // non-recursive one whose deletions rederive through a
            // `del$p(X, _)` anchor; the second rule is there so a tuple can
            // outlive one of its supports.
            4 => src.push_str(&format!(
                "p{l}(X, {{Y}}) <- p{below}(X, Y), ~e1(X).\n\
                 p{l}(X, {{Y}}) <- e0(Y, X), ~e1(X).\n"
            )),
            // One head, a grouping rule and a simple one: a single schedule
            // entry, which must replay on an `e1` retraction, not rederive
            // the singletons alone.
            5 => src.push_str(&format!(
                "g{l}(X, <Y>) <- p{below}(X, Y).\n\
                 g{l}(X, {{Y}}) <- p{below}(X, Y), e1(X).\n\
                 p{l}(X, Y) <- g{l}(X, S), member(Y, S).\n"
            )),
            // Negated self-comparison, and negated built-ins: a negated
            // comparison and a negated arithmetic relation, tested on
            // bound arguments (false on non-integers, so the negation holds).
            6 => src.push_str(&format!(
                "p{l}(X, Y) <- p{below}(X, Y), ~p{below}(Y, X).\n\
                 p{l}(X, Y) <- p{below}(X, Y), ~>(X, Y), ~+(X, 1, Y).\n"
            )),
            // Patterns that match a row's column by decomposition: a set
            // enumeration with a free variable and a `_`, a compound over
            // the pool's `f(n)` values, an existential negation whose `_`
            // is a whole argument, and one whose `_` is nested.
            7 => src.push_str(&format!(
                "p{l}(X, Y) <- p{below}(X, {{Y, _}}).\n\
                 p{l}(X, Y) <- p{below}(X, f(Y)), ~e0(Y, _).\n\
                 p{l}(X, Y) <- p{below}(X, Y), ~p{below}(Y, f(_)).\n"
            )),
            // §4.1 body `<t>` over set-valued columns: a grouped set matches
            // `<f(Y)>` only when every element is an `f(n)` — the pool mixes
            // ints, sets and compounds, so some sets are uniform and some
            // are not — and `<Y>` flattens the pool's `{a, b}` values.
            _ => src.push_str(&format!(
                "s{l}(X, <Y>) <- p{below}(X, Y).\n\
                 p{l}(X, Y) <- s{l}(X, <f(Y)>).\n\
                 p{l}(X, Y) <- p{below}(X, <Y>).\n"
            )),
        }
    }

    // A minority of cases store facts for the *IDB* head `p0` as well:
    // mixed EDB/IDB predicates are where magic-set rewrites and
    // retraction-of-stored-twin maintenance historically break, so the
    // differential oracle must see them. (Sizes below 3 stay pure-EDB so
    // shrinking converges on the simplest shape first.)
    let mixed_idb = size >= 3 && rng.index(3) == 0;

    // One shared node pool per case: mostly ints, with a set-valued and a
    // compound-valued minority. Edges and markers index into the same pool,
    // so nested values participate in joins and negation, not just storage.
    let pool: Vec<GenConst> = (0..nodes)
        .map(|i| match rng.index(4) {
            0 => GenConst::Set(vec![rng.range(0, nodes), rng.range(0, nodes)]),
            1 => GenConst::Compound("f", vec![rng.range(0, nodes)]),
            _ => GenConst::Int(i),
        })
        .collect();
    let pick = |rng: &mut Rng| pool[rng.index(pool.len())].clone();

    let mut edb: Vec<(&'static str, Vec<GenConst>)> = Vec::new();
    for _ in 0..rng.index(max_edges + 1) {
        let a = pick(rng);
        let b = pick(rng);
        edb.push(("e0", vec![a, b]));
    }
    for _ in 0..rng.index(size + 1) {
        edb.push(("e1", vec![pick(rng)]));
    }
    if mixed_idb {
        for _ in 0..(1 + rng.index(size)) {
            let a = pick(rng);
            let b = pick(rng);
            edb.push(("p0", vec![a, b]));
        }
    }

    // A third of the larger cases skew one relation far past the others.
    // The inflating tuples draw from a domain about 4× wider than their
    // own count: large relations with many distinct values, but sparse
    // enough that `p0`'s transitive closure stays near-linear and the
    // oracle's naive mode stays fast. Sizes below 4
    // never skew, so case shrinking still converges on tiny programs.
    let skew_factor = if size < 4 {
        1
    } else {
        match rng.index(3) {
            0 => 1,
            profile => {
                let factor = 10 + rng.index(41) as u32; // 10..=50
                let extra = size * factor as usize;
                let wide = (extra as i64 * 4).max(nodes + 1);
                for _ in 0..extra {
                    if profile == 1 {
                        // `e0`-heavy: fat edge relation, endpoints mixing the
                        // shared pool (joinable) with wide ints (selective).
                        let a = if rng.index(2) == 0 {
                            pick(rng)
                        } else {
                            GenConst::Int(rng.range(0, wide))
                        };
                        edb.push(("e0", vec![a, GenConst::Int(rng.range(0, wide))]));
                    } else {
                        // `e1`-heavy: fat marker relation, mostly off-domain,
                        // so `~e1(Y)` probes a large relation it rarely hits.
                        edb.push(("e1", vec![GenConst::Int(rng.range(0, wide))]));
                    }
                }
                factor
            }
        }
    };

    GeneratedCase {
        src,
        edb,
        layers,
        top: format!("p{}", layers - 1),
        skew_factor,
    }
}

/// A generated EDB tuple: `(predicate, ground arguments)`.
pub type GenTuple = (&'static str, Vec<GenConst>);

/// One step of a generated mutation sequence.
///
/// Plain data, like [`GenConst`]: the oracle converts to engine facts and
/// stages them on whatever mutation API it is testing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenMutation {
    /// Assert `pred(args…)`. May duplicate a present fact (a no-op the
    /// engine must tolerate).
    Assert(&'static str, Vec<GenConst>),
    /// Retract `pred(args…)`. The generator only emits retractions of
    /// facts present in the virtual state at that point, so every
    /// generated batch commits cleanly.
    Retract(&'static str, Vec<GenConst>),
    /// Replace `pred(old…)` with `pred(new…)` in one step.
    Update {
        /// The predicate both sides share.
        pred: &'static str,
        /// The present fact to remove.
        old: Vec<GenConst>,
        /// The arguments replacing it.
        new: Vec<GenConst>,
    },
}

/// Generate `batches` transactional mutation batches against `case`'s EDB,
/// returning them together with the surviving EDB after all of them — the
/// input for a one-shot recompute the oracle compares against.
///
/// The generator tracks the virtual EDB state batch by batch (set
/// semantics, like the engine): retractions and update-old sides always
/// name a present fact, assertions recombine argument values already in
/// the case (plus occasional fresh integers) so new tuples actually join
/// with existing ones. Batches are weighted toward churn — roughly half
/// the steps delete something — because deletion is the path under test.
pub fn mutation_sequence(
    rng: &mut Rng,
    case: &GeneratedCase,
    batches: usize,
) -> (Vec<Vec<GenMutation>>, Vec<GenTuple>) {
    // Engine equality is *structural on values*, not on `GenConst` spellings:
    // `Set([1, 0])` and `Set([0, 1])` name the same fact. The virtual state
    // must track canonical tuples, or retracting one spelling would leave the
    // equal twin "alive" here while the engine removed the fact.
    let canon_const = |c: &GenConst| -> GenConst {
        match c {
            GenConst::Set(xs) => {
                let mut v = xs.clone();
                v.sort_unstable();
                v.dedup();
                GenConst::Set(v)
            }
            other => other.clone(),
        }
    };
    let canon = |args: &[GenConst]| -> Vec<GenConst> { args.iter().map(canon_const).collect() };

    // The virtual state starts as the case EDB under set semantics.
    let mut live: Vec<GenTuple> = Vec::new();
    for (pred, args) in &case.edb {
        let t = (*pred, canon(args));
        if !live.contains(&t) {
            live.push(t);
        }
    }
    // Argument pool for fresh assertions: every constant the case already
    // uses, so generated tuples connect to the existing graph.
    let pool: Vec<GenConst> = {
        let mut p: Vec<GenConst> = Vec::new();
        for (_, args) in &case.edb {
            for a in args {
                let a = canon_const(a);
                if !p.contains(&a) {
                    p.push(a);
                }
            }
        }
        if p.is_empty() {
            p.push(GenConst::Int(0));
        }
        p
    };
    let fresh = |rng: &mut Rng| -> GenConst {
        if rng.index(4) == 0 {
            GenConst::Int(rng.range(0, 1 + pool.len() as i64 * 2))
        } else {
            pool[rng.index(pool.len())].clone()
        }
    };
    let preds: [(&'static str, usize); 3] = [("e0", 2), ("e1", 1), ("p0", 2)];

    let mut out: Vec<Vec<GenMutation>> = Vec::new();
    for _ in 0..batches {
        let mut batch: Vec<GenMutation> = Vec::new();
        for _ in 0..(1 + rng.index(3)) {
            let deletion_possible = !live.is_empty();
            match rng.index(4) {
                0 | 1 if deletion_possible => {
                    let i = rng.index(live.len());
                    let (pred, args) = live.swap_remove(i);
                    if rng.index(2) == 0 {
                        batch.push(GenMutation::Retract(pred, args));
                    } else {
                        let new: Vec<GenConst> = args.iter().map(|_| fresh(rng)).collect();
                        let t = (pred, new.clone());
                        if !live.contains(&t) {
                            live.push(t);
                        }
                        batch.push(GenMutation::Update {
                            pred,
                            old: args,
                            new,
                        });
                    }
                }
                _ => {
                    let (pred, arity) = preds[rng.index(preds.len())];
                    let args: Vec<GenConst> = (0..arity).map(|_| fresh(rng)).collect();
                    let t = (pred, args.clone());
                    if !live.contains(&t) {
                        live.push(t);
                    }
                    batch.push(GenMutation::Assert(pred, args));
                }
            }
        }
        out.push(batch);
    }
    (out, live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_are_deterministic_per_seed() {
        let a = stratified_case(&mut Rng::new(99), 8);
        let b = stratified_case(&mut Rng::new(99), 8);
        assert_eq!(a.src, b.src);
        assert_eq!(a.edb, b.edb);
    }

    #[test]
    fn generated_cases_vary_and_cover_all_templates() {
        let mut negation = false;
        let mut grouping = false;
        let mut recursion = false;
        let mut threeway = false;
        let mut mixed_head = false;
        let mut patterns = false;
        let mut angle = false;
        let mut negated_builtins = false;
        let mut sets = false;
        let mut compounds = false;
        let mut balanced = false;
        let mut skewed = false;
        for seed in 0..64 {
            let c = stratified_case(&mut Rng::new(crate::case_seed(seed)), 10);
            assert!(c.layers >= 2 && c.layers <= 4);
            assert!(c.src.contains("p0(X, Y) <- e0(X, Y)."));
            assert_eq!(c.top, format!("p{}", c.layers - 1));
            negation |= c.src.contains('~');
            grouping |= c.src.contains("<Y>");
            recursion |= c.src.contains("p1(X, Z), p1(Z, Y)") || c.layers == 2;
            threeway |= c.src.contains("e0(X, Z), p0(Z, W), e0(W, Y)");
            mixed_head |= c.src.contains(", e1(X).");
            patterns |= c.src.contains("(X, {Y, _})") && c.src.contains("~e0(Y, _)");
            angle |= c.src.contains("(X, <f(Y)>)") && c.src.contains("(X, <Y>).");
            negated_builtins |= c.src.contains("~>(X, Y), ~+(X, 1, Y).");
            balanced |= c.skew_factor == 1;
            skewed |= c.skew_factor > 1;
            if c.skew_factor > 1 {
                assert!((10..=50).contains(&c.skew_factor));
                assert!(c.edb.len() >= 10 * 10, "skewed case is not actually fat");
            }
            for (_, args) in &c.edb {
                for a in args {
                    sets |= matches!(a, GenConst::Set(_));
                    compounds |= matches!(a, GenConst::Compound(..));
                }
            }
        }
        assert!(negation && grouping && recursion && threeway && mixed_head && patterns && angle);
        assert!(negated_builtins, "no negated built-in literal generated");
        assert!(sets && compounds, "nested EDB constants never generated");
        assert!(balanced && skewed, "skew profiles never varied");
    }

    #[test]
    fn mutation_sequences_are_valid_and_deterministic() {
        let case = stratified_case(&mut Rng::new(7), 6);
        let (a, live_a) = mutation_sequence(&mut Rng::new(11), &case, 5);
        let (b, live_b) = mutation_sequence(&mut Rng::new(11), &case, 5);
        assert_eq!(a, b);
        assert_eq!(live_a, live_b);

        // Replaying the batches against the case EDB must never retract an
        // absent fact, and must land on the surviving EDB the generator
        // reported.
        let mut live: Vec<(&'static str, Vec<GenConst>)> = Vec::new();
        for t in &case.edb {
            if !live.contains(t) {
                live.push(t.clone());
            }
        }
        for batch in &a {
            for m in batch {
                match m {
                    GenMutation::Assert(p, args) => {
                        let t = (*p, args.clone());
                        if !live.contains(&t) {
                            live.push(t);
                        }
                    }
                    GenMutation::Retract(p, args) => {
                        let t = (*p, args.clone());
                        let i = live
                            .iter()
                            .position(|x| *x == t)
                            .expect("retraction of an absent fact");
                        live.remove(i);
                    }
                    GenMutation::Update { pred, old, new } => {
                        let t = (*pred, old.clone());
                        let i = live
                            .iter()
                            .position(|x| *x == t)
                            .expect("update of an absent fact");
                        live.remove(i);
                        let t = (*pred, new.clone());
                        if !live.contains(&t) {
                            live.push(t);
                        }
                    }
                }
            }
        }
        assert_eq!(live.len(), live_a.len());
        assert!(live.iter().all(|t| live_a.contains(t)));
    }

    #[test]
    fn mixed_idb_cases_store_facts_for_rule_heads() {
        let mut seen = false;
        for seed in 0..32 {
            let c = stratified_case(&mut Rng::new(crate::case_seed(seed)), 8);
            seen |= c.edb.iter().any(|(p, _)| *p == "p0");
        }
        assert!(seen, "no mixed EDB/IDB case in 32 seeds");
    }

    #[test]
    fn size_one_case_is_tiny() {
        let c = stratified_case(&mut Rng::new(1), 1);
        assert!(c.edb.len() <= 4);
        let in_domain = |v: i64| (0..=2).contains(&v);
        for (_, args) in &c.edb {
            for a in args {
                match a {
                    GenConst::Int(v) => assert!(in_domain(*v)),
                    GenConst::Set(xs) | GenConst::Compound(_, xs) => {
                        assert!(xs.iter().all(|&v| in_domain(v)))
                    }
                }
            }
        }
    }
}
