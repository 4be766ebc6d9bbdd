//! Property-based tests on the core data structures and engine invariants,
//! driven by the deterministic [`ldl_testkit::cases`] harness.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use ldl1::ast::literal::Atom;
use ldl1::ast::term::Term;
use ldl1::transform::{body_angle, neg_elim};
use ldl1::value::intern::{self, ValueId};
use ldl1::value::order::{dominates_elaborate, factset_dominated};
use ldl1::value::set;
use ldl1::{
    check_model, reference_model, Database, EvalOptions, EvalStats, Evaluator, Fact, FactSet,
    Mutation, QueryAnswer, Symbol, System, Value,
};
use ldl_testkit::gen::{stratified_case, GenConst, GeneratedCase};
use ldl_testkit::{cases, cases_shrink, Rng};

// ---------------------------------------------------------------- values --

/// Bounded random values over a small alphabet (so collisions happen).
fn rand_value(rng: &mut Rng, depth: u32) -> Value {
    let leaf = depth == 0 || rng.chance(1, 2);
    if leaf {
        if rng.chance(1, 2) {
            Value::int(rng.range(-5, 5))
        } else {
            Value::atom(["a", "b", "c"][rng.index(3)])
        }
    } else {
        let n = rng.index(4);
        let kids: Vec<Value> = (0..n).map(|_| rand_value(rng, depth - 1)).collect();
        if rng.chance(1, 2) {
            Value::compound("f", kids)
        } else {
            Value::set(kids)
        }
    }
}

/// A random set of mixed-shape elements — ints, atoms, compounds and
/// nested sets — interned, with its `BTreeSet` model.
fn rand_set(rng: &mut Rng) -> (ValueId, BTreeSet<Value>) {
    let elems: Vec<Value> = (0..rng.index(8)).map(|_| rand_value(rng, 2)).collect();
    let model: BTreeSet<Value> = elems.iter().cloned().collect();
    (intern::id_of(&Value::set(elems)), model)
}

/// A kernel's result `ids` is the model set: the same elements in the same
/// (canonical) order, and it interns through `mk_set_sorted` — whose
/// canonical-order `debug_assert` runs here — to the model's own id.
fn assert_is(ids: &[ValueId], model: &BTreeSet<Value>) -> ValueId {
    let got: Vec<Value> = ids.iter().map(|&e| intern::resolve(e)).collect();
    assert_eq!(got, model.iter().cloned().collect::<Vec<_>>());
    let id = intern::mk_set_sorted(ids.to_vec());
    assert_eq!(id, intern::id_of(&Value::set(model.iter().cloned())));
    id
}

/// The set kernels the engine runs (`ldl_value::set`) agree with a
/// `BTreeSet` model on every operation.
#[test]
fn set_ops_match_btreeset() {
    cases(256, |rng| {
        let (x, bx) = rand_set(rng);
        let (y, by) = rand_set(rng);
        let (sx, sy) = (set::as_set(x).unwrap(), set::as_set(y).unwrap());
        assert_is(sx, &bx);
        assert_is(&set::merge_union(sx, sy), &bx.union(&by).cloned().collect());
        assert_is(
            &set::merge_filter(sx, sy, true),
            &bx.intersection(&by).cloned().collect(),
        );
        assert_is(
            &set::merge_filter(sx, sy, false),
            &bx.difference(&by).cloned().collect(),
        );
        assert_eq!(set::is_subset(sx, sy), bx.is_subset(&by));
        assert!(set::is_subset(sx, sx));
        assert_eq!(set::is_disjoint(sx, sy), bx.is_disjoint(&by));
        assert!(set::as_set(intern::id_of(&rand_value(rng, 0))).is_none());
    });
}

/// `S ∪ {h}` and `S − {h}` match the model, return `S` itself when they
/// change nothing, and round-trip: inserting a non-member and removing it
/// again gives back `S`.
#[test]
fn set_insert_properties() {
    cases(256, |rng| {
        let (s, model) = rand_set(rng);
        let hv = match model.iter().nth(rng.index(model.len() + 1)) {
            Some(member) if rng.chance(1, 2) => member.clone(),
            _ => rand_value(rng, 2),
        };
        let h = intern::id_of(&hv);
        let with = set::insert(s, h).unwrap();
        let mut m_with = model.clone();
        m_with.insert(hv.clone());
        assert_eq!(with, assert_is(set::as_set(with).unwrap(), &m_with));
        let without = set::remove(s, h).unwrap();
        let mut m_without = model.clone();
        m_without.remove(&hv);
        assert_eq!(
            without,
            assert_is(set::as_set(without).unwrap(), &m_without)
        );
        if model.contains(&hv) {
            assert_eq!(with, s);
            assert_eq!(set::insert(without, h), Some(s));
        } else {
            assert_eq!(without, s);
            assert_eq!(set::remove(with, h), Some(s));
        }
        assert_eq!(set::insert(with, h), Some(with));
        assert_eq!(set::remove(without, h), Some(without));
        // `scons` onto a non-set is outside U.
        if !matches!(hv, Value::Set(_)) {
            assert_eq!(set::insert(h, s), None);
            assert_eq!(set::remove(h, s), None);
        }
    });
}

/// The total order on values is a total order (antisymmetric, transitive),
/// and set canonicalization is order-insensitive.
#[test]
fn value_order_lawful() {
    cases(256, |rng| {
        use std::cmp::Ordering;
        let a = rand_value(rng, 3);
        let b = rand_value(rng, 3);
        let c = rand_value(rng, 3);
        // Totality + consistency with Eq.
        assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity.
        if a <= b && b <= c {
            assert!(a <= c);
        }
        // Canonical sets ignore construction order.
        let s1 = Value::set(vec![a.clone(), b.clone(), c.clone()]);
        let s2 = Value::set(vec![c, a, b]);
        assert_eq!(s1, s2);
    });
}

/// Elaborate domination (§2.4 Remark) is reflexive and transitive, and set
/// insertion is monotone for it.
#[test]
fn domination_is_preorder() {
    cases(256, |rng| {
        let a = rand_value(rng, 3);
        let b = rand_value(rng, 3);
        let c = rand_value(rng, 3);
        assert!(dominates_elaborate(&a, &a));
        if dominates_elaborate(&a, &b) && dominates_elaborate(&b, &c) {
            assert!(dominates_elaborate(&a, &c));
        }
        if let (Value::Set(sa), Value::Set(_)) = (&a, &b) {
            let bigger = Value::set(sa.iter().cloned().chain([b.clone()]));
            assert!(dominates_elaborate(&a, &bigger));
        }
    });
}

/// Ground terms survive printing + reparsing.
#[test]
fn value_display_reparses() {
    cases(256, |rng| {
        let v = rand_value(rng, 3);
        let text = v.to_string();
        let term = ldl1::parser::parse_term(&text).unwrap();
        assert_eq!(term.to_value(), Some(v));
    });
}

/// An integer near an edge of the immediate range (`±2^30` and their
/// neighbours), an `i64` extreme, one from around the range, or one from
/// anywhere.
fn edge_int(rng: &mut Rng) -> i64 {
    const TOP: i64 = (1 << 30) - 1;
    const BOTTOM: i64 = -(1 << 30);
    const EDGES: [i64; 10] = [
        TOP - 1,
        TOP,
        TOP + 1,
        TOP + 2,
        BOTTOM - 2,
        BOTTOM - 1,
        BOTTOM,
        BOTTOM + 1,
        i64::MIN,
        i64::MAX,
    ];
    match rng.index(3) {
        0 => *rng.pick(&EDGES),
        1 => rng.range(2 * BOTTOM, 2 * TOP),
        _ => rng.next_u64() as i64,
    }
}

/// An in-range integer is its own id and any other is an arena node, and
/// nothing can tell the two apart: every constructor gives one id, the id
/// resolves back, `cmp_ids` is `Value::cmp`, arithmetic crosses the edge
/// into the arena and back, and a set mixing both kinds is canonical.
#[test]
fn immediate_integers_agree_with_the_arena() {
    use ldl1::value::arith::{ArithOp, CmpOp};
    cases_shrink(256, 8, |rng, size| {
        let ints: Vec<i64> = (0..size).map(|_| edge_int(rng)).collect();
        for &i in &ints {
            let v = Value::int(i);
            let id = intern::id_of(&v);
            assert_eq!(intern::mk_int(i), id, "mk_int({i})");
            assert_eq!(intern::batch(|b| b.int(i)), id, "batch int({i})");
            assert_eq!(intern::find(&v), Some(id), "find({i})");
            assert_eq!(intern::int_of(id), Some(i), "int_of({i})");
            assert_eq!(intern::resolve(id), v);
        }
        let mut vals: Vec<Value> = ints.iter().map(|&i| Value::int(i)).collect();
        vals.push(Value::str("s"));
        vals.push(Value::atom("a"));
        vals.push(Value::compound("f", vec![Value::int(ints[0])]));
        vals.push(Value::set(ints.iter().map(|&i| Value::int(i))));
        for a in &vals {
            for b in &vals {
                let (x, y) = (intern::id_of(a), intern::id_of(b));
                assert_eq!(intern::cmp_ids(x, y), a.cmp(b), "{a} vs {b}");
            }
        }
        for w in ints.windows(2) {
            let (x, y) = (intern::mk_int(w[0]), intern::mk_int(w[1]));
            for op in [
                ArithOp::Add,
                ArithOp::Sub,
                ArithOp::Mul,
                ArithOp::Div,
                ArithOp::Mod,
            ] {
                let want = op.eval_i64(w[0], w[1]).map(intern::mk_int);
                assert_eq!(op.eval_ids(x, y), want, "{w:?} {}", op.name());
            }
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                let want = op.holds(w[0].cmp(&w[1]));
                assert_eq!(op.eval_ids(x, y), Some(want), "{w:?} {}", op.name());
            }
        }
        let mut ids: Vec<ValueId> = ints.iter().map(|&i| intern::mk_int(i)).collect();
        let model: BTreeSet<Value> = ints.iter().map(|&i| Value::int(i)).collect();
        let forward = intern::mk_set(ids.clone());
        ids.reverse();
        assert_eq!(intern::mk_set(ids), forward);
        assert_is(set::as_set(forward).unwrap(), &model);
    });
    let top = intern::mk_int((1 << 30) - 1);
    let past = ArithOp::Add.eval_ids(top, intern::mk_int(1)).unwrap();
    assert_eq!(past, intern::mk_int(1 << 30));
    assert!(intern::node(top).is_none(), "2^30 - 1 is immediate");
    assert_eq!(intern::node(past), Some(&intern::Node::Int(1 << 30)));
    let back = ArithOp::Sub.eval_ids(past, intern::mk_int(1)).unwrap();
    assert_eq!(back, top);
}

// ---------------------------------------------------------------- engine --

fn rand_edges(rng: &mut Rng, max_edges: usize, nodes: i64) -> Vec<(i64, i64)> {
    (0..rng.index(max_edges + 1))
        .map(|_| (rng.range(0, nodes), rng.range(0, nodes)))
        .collect()
}

const TC: &str = "r(X, Y) <- e(X, Y).\n\
                  r(X, Y) <- e(X, Z), r(Z, Y).";

fn tc_edb(edges: &[(i64, i64)]) -> Database {
    let mut edb = Database::new();
    for &(a, b) in edges {
        edb.insert_tuple("e", vec![Value::int(a), Value::int(b)]);
    }
    edb
}

fn tc_model(edges: &[(i64, i64)], opts: EvalOptions) -> FactSet {
    let program = ldl1::parser::parse_program(TC).unwrap();
    Evaluator::with_options(opts)
        .evaluate(&program, &tc_edb(edges))
        .unwrap()
        .to_fact_set()
}

/// The engine and the reference evaluator (§3.2 executed literally) compute
/// the same model on arbitrary graphs (cycles included).
#[test]
fn all_configs_agree_on_random_graphs() {
    cases(64, |rng| {
        let edges = rand_edges(rng, 24, 12);
        let base = tc_model(&edges, EvalOptions::default());
        let program = ldl1::parser::parse_program(TC).unwrap();
        let reference = ldl1::reference_model(&program, &tc_edb(&edges)).unwrap();
        assert_eq!(&reference.to_fact_set(), &base);
        // And the result is a model of the program (Theorem 1).
        assert!(check_model(&program, &base).is_ok());
    });
}

/// The computed transitive closure equals the reachability relation
/// computed by a plain BFS oracle.
#[test]
fn tc_matches_bfs_oracle() {
    cases(64, |rng| {
        let edges = rand_edges(rng, 24, 12);
        let m = tc_model(&edges, EvalOptions::default());
        let derived: BTreeSet<(i64, i64)> = m
            .iter()
            .filter(|f| f.pred().as_str() == "r")
            .map(|f| (f.args()[0].as_int().unwrap(), f.args()[1].as_int().unwrap()))
            .collect();
        // Oracle.
        let mut oracle = BTreeSet::new();
        for start in 0..12 {
            let mut seen = BTreeSet::new();
            let mut stack: Vec<i64> = edges
                .iter()
                .filter(|&&(a, _)| a == start)
                .map(|&(_, b)| b)
                .collect();
            while let Some(n) = stack.pop() {
                if seen.insert(n) {
                    oracle.insert((start, n));
                    stack.extend(edges.iter().filter(|&&(a, _)| a == n).map(|&(_, b)| b));
                }
            }
        }
        assert_eq!(derived, oracle);
    });
}

/// Magic-set evaluation agrees with plain evaluation on random graphs and
/// random query bindings (Theorem 4, fuzzed).
#[test]
fn magic_equivalence_fuzzed() {
    cases(64, |rng| {
        let edges = rand_edges(rng, 24, 12);
        let src = rng.range(0, 12);
        let mut sys = System::new();
        sys.load(TC).unwrap();
        for &(a, b) in &edges {
            sys.insert("e", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let q = format!("r({src}, Y)");
        assert_eq!(sys.query(&q).unwrap(), sys.query_magic(&q).unwrap());
        let qf = "r(X, Y)";
        assert_eq!(sys.query(qf).unwrap(), sys.query_magic(qf).unwrap());
    });
}

/// Grouping invariants on random parent relations: each parent's group is
/// exactly its distinct children, and the grouped sets dominate any
/// subset-model per §2.4.
#[test]
fn grouping_collects_exactly() {
    cases(64, |rng| {
        let edges = rand_edges(rng, 24, 12);
        let mut sys = System::new();
        sys.load("kids(P, <K>) <- e(P, K).").unwrap();
        for &(a, b) in &edges {
            sys.insert("e", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let kids = sys.facts("kids").unwrap();
        // One tuple per distinct parent.
        let parents: BTreeSet<i64> = edges.iter().map(|&(a, _)| a).collect();
        assert_eq!(kids.len(), parents.len());
        for f in &kids {
            let p = f.args()[0].as_int().unwrap();
            let expect: BTreeSet<i64> = edges
                .iter()
                .filter(|&&(a, _)| a == p)
                .map(|&(_, b)| b)
                .collect();
            let got: BTreeSet<i64> = f.args()[1]
                .as_set()
                .unwrap()
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect();
            assert_eq!(got, expect);
        }
        // Fact-set self-domination sanity.
        let m: FactSet = kids.iter().cloned().collect();
        assert!(factset_dominated(&m, &m));
    });
}

// ------------------------------------------------- stratified program fuzz --

/// A random admissible program over EDB predicates e0/e1: `layers` strata,
/// each defining pred `pL` from the stratum below with a random mix of
/// positive deps, negation, and grouping.
fn random_stratified_program(layers: usize, choices: &[u8]) -> String {
    let mut out = String::new();
    out.push_str("p0(X, Y) <- e0(X, Y).\np0(X, Y) <- e0(X, Z), p0(Z, Y).\n");
    for l in 1..layers {
        let below = l - 1;
        match choices.get(l - 1).copied().unwrap_or(0) % 4 {
            0 => out.push_str(&format!(
                "p{l}(X, Y) <- p{below}(X, Y).\np{l}(X, Y) <- p{below}(X, Z), p{l}(Z, Y).\n"
            )),
            1 => out.push_str(&format!("p{l}(X, Y) <- p{below}(X, Y), ~e1(Y).\n")),
            2 => {
                // Grouping then flattening keeps arity 2.
                out.push_str(&format!(
                    "g{l}(X, <Y>) <- p{below}(X, Y).\n\
                     p{l}(X, Y) <- g{l}(X, S), member(Y, S).\n"
                ));
            }
            _ => out.push_str(&format!("p{l}(X, Y) <- p{below}(X, Y), ~p{below}(Y, X).\n")),
        }
    }
    out
}

fn rand_choices(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| (rng.next_u64() % 4) as u8).collect()
}

/// A generated case's EDB as a `Database`.
fn gen_edb(case: &GeneratedCase) -> Database {
    let mut edb = Database::new();
    for (pred, args) in &case.edb {
        edb.insert_tuple(*pred, args.iter().map(gen_value).collect());
    }
    edb
}

/// The generated programs are LDL1.5: a template reads sets through a body
/// `<t>`.
fn ldl15() -> Evaluator {
    Evaluator::with_options(EvalOptions {
        dialect: ldl1::ast::wf::Dialect::Ldl15,
        ..EvalOptions::default()
    })
}

/// Theorem 2: the model does not depend on the layering. The canonical
/// (fewest layers) and fine (one layer per component) layerings of every
/// generated stratified program are both valid and evaluate to one model.
#[test]
fn theorem2_fuzzed() {
    cases_shrink(96, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = gen_edb(&case);
        let canon = ldl1::Stratification::canonical(&program).unwrap();
        let fine = ldl1::Stratification::fine(&program).unwrap();
        canon.validate(&program).unwrap();
        fine.validate(&program).unwrap();
        let ev = ldl15();
        let m1 = ev.evaluate_with(&program, &edb, &canon).unwrap();
        let m2 = ev.evaluate_with(&program, &edb, &fine).unwrap();
        assert_eq!(m1.to_fact_set(), m2.to_fact_set(), "{}", case.src);
    });
}

/// Theorem 2 again, over layerings the stratifier never builds: the fine
/// layering's one-component layers put into a random topological order of
/// the dependency graph's condensation. Every such order is a valid
/// layering, and evaluating under it gives the canonical model — the
/// paper's `R(M)` run literally.
#[test]
fn theorem2_any_topological_order_of_the_fine_layers() {
    cases_shrink(96, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = gen_edb(&case);
        let fine = ldl1::Stratification::fine(&program).unwrap();

        // The condensation: fine has one layer per component, so an edge
        // p → q (p reads q) is the layer edge layer(q) before layer(p).
        let n = fine.schedule.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, q, _) in ldl1::stratify::DepGraph::build(&program).edges() {
            let (lp, lq) = (fine.layer_of[&p], fine.layer_of[&q]);
            if lp != lq {
                preds[lp].push(lq);
            }
        }
        // Kahn's algorithm, taking a random ready layer at every step.
        let mut waiting: Vec<usize> = preds.iter().map(|ps| ps.len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&l| waiting[l] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while !ready.is_empty() {
            let l = ready.swap_remove(rng.index(ready.len()));
            order.push(l);
            for (m, ps) in preds.iter().enumerate() {
                for _ in ps.iter().filter(|&&q| q == l) {
                    waiting[m] -= 1;
                    if waiting[m] == 0 {
                        ready.push(m);
                    }
                }
            }
        }
        assert_eq!(order.len(), n, "the condensation has a cycle");

        // `order[k]` is the fine layer that runs k-th.
        let mut at = vec![0; n];
        for (k, &l) in order.iter().enumerate() {
            at[l] = k;
        }
        let mut strat = fine.clone();
        strat.layer_of.values_mut().for_each(|l| *l = at[*l]);
        strat.rules_by_layer = order
            .iter()
            .map(|&l| fine.rules_by_layer[l].clone())
            .collect();
        strat.schedule = order.iter().map(|&l| fine.schedule[l].clone()).collect();
        strat.validate(&program).unwrap();

        let model = ldl15()
            .evaluate_with(&program, &edb, &strat)
            .unwrap()
            .to_fact_set();
        let canonical = ldl15().evaluate(&program, &edb).unwrap().to_fact_set();
        assert_eq!(model, canonical, "order {order:?}\n{}", case.src);
        let reference = reference_model(&program, &edb).unwrap().to_fact_set();
        assert_eq!(model, reference, "order {order:?}\n{}", case.src);
    });
}

/// Magic-set equivalence on the random stratified programs, querying the
/// top predicate with a bound first argument.
#[test]
fn magic_on_stratified_fuzzed() {
    cases(32, |rng| {
        let edges = rand_edges(rng, 11, 6);
        let marked: Vec<i64> = (0..rng.index(4)).map(|_| rng.range(0, 6)).collect();
        let choices = rand_choices(rng, 2);
        let src_node = rng.range(0, 6);
        let src = random_stratified_program(3, &choices);
        let mut sys = System::new();
        sys.load(&src).unwrap();
        for &(a, b) in &edges {
            sys.insert("e0", vec![Value::int(a), Value::int(b)])
                .unwrap();
        }
        for &m in &marked {
            sys.insert("e1", vec![Value::int(m)]).unwrap();
        }
        let q = format!("p2({src_node}, Y)");
        assert_eq!(sys.query(&q).unwrap(), sys.query_magic(&q).unwrap());
    });
}

// ------------------------------------------------ incremental maintenance --

/// Interleaved incremental commits against a cached model yield exactly
/// the model a one-shot recompute over the final EDB produces — across
/// recursion, negation, and grouping strata (delta propagation for the
/// monotone components, replay for the rest).
#[test]
fn incremental_commits_match_full_recompute() {
    cases(48, |rng| {
        let layers = 3 + rng.index(2); // 3 or 4 strata
        let choices = rand_choices(rng, layers - 1);
        let src = random_stratified_program(layers, &choices);

        let mut sys = System::new();
        sys.load(&src).unwrap();
        let mut edges: Vec<(i64, i64)> = Vec::new();
        let mut marked: Vec<i64> = Vec::new();
        for _ in 0..rng.index(8) {
            let e = (rng.range(0, 6), rng.range(0, 6));
            edges.push(e);
            sys.insert("e0", vec![Value::int(e.0), Value::int(e.1)])
                .unwrap();
        }
        // Force the initial model so later commits go through the
        // incremental path, then interleave batches with queries.
        sys.model_facts().unwrap();
        for _ in 0..3 {
            let mut b = sys.mutate();
            for _ in 0..rng.index(4) {
                if rng.chance(2, 3) {
                    let e = (rng.range(0, 6), rng.range(0, 6));
                    edges.push(e);
                    b.assert("e0", vec![Value::int(e.0), Value::int(e.1)]);
                } else {
                    let m = rng.range(0, 6);
                    marked.push(m);
                    b.assert("e1", vec![Value::int(m)]);
                }
            }
            b.commit().unwrap();
            // Query between commits: the maintained model must already be
            // consistent, not just at the end.
            sys.query("p1(X, Y)").unwrap();
        }

        let mut fresh = System::new();
        fresh.load(&src).unwrap();
        for &(a, b) in &edges {
            fresh
                .insert("e0", vec![Value::int(a), Value::int(b)])
                .unwrap();
        }
        for &m in &marked {
            fresh.insert("e1", vec![Value::int(m)]).unwrap();
        }
        assert_eq!(sys.model_facts().unwrap(), fresh.model_facts().unwrap());
    });
}

// -------------------------------------------------------- batch stagings --

/// Commit `steps` — `(retract?, fact)` in staging order — as one batch on a
/// fresh durable system holding `case` and its evaluated model. Returns
/// what the commit *is*: the model it leaves, how the sweep maintained each
/// stratum (`strata_skipped`, `_delta`, `_dred`, `_replayed`,
/// `facts_retracted`), and the bytes it appended to the log.
fn commit_staging(case: &GeneratedCase, steps: &[(bool, Fact)]) -> (FactSet, [u64; 5], Vec<u8>) {
    static N: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ldl-staging-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut sys = System::open(&dir).unwrap();
    sys.load(&case.src).unwrap();
    let mut b = sys.mutate();
    for (pred, args) in &case.edb {
        b.assert(pred, args.iter().map(gen_value).collect());
    }
    b.commit().unwrap();
    sys.model_facts().unwrap(); // cache a model: the batch is maintained
    let log = dir.join(ldl1::wal::WAL_FILE);
    let before = std::fs::read(&log).unwrap().len();
    let mut b = sys.mutate();
    for (retract, f) in steps {
        b.push(if *retract {
            Mutation::Retract(f.clone())
        } else {
            Mutation::Assert(f.clone())
        });
    }
    b.commit().unwrap();
    let s = sys.last_stats();
    let how = [
        s.strata_skipped,
        s.strata_delta,
        s.strata_dred,
        s.strata_replayed,
        s.facts_retracted,
    ];
    let logged = std::fs::read(&log).unwrap()[before..].to_vec();
    let model = sys.model_facts().unwrap();
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    (model, how, logged)
}

/// U-Datalog's deferred-update reading of a transaction (PAPERS.md): a
/// batch is the *set* of its net changes, applied together. However one net
/// batch is staged — padded with assert/retract pairs that cancel, or its
/// steps shuffled — it commits to the same model by the same maintenance
/// decisions. The log record lists the net changes in staging order: the
/// padded staging appends byte-identical records, the shuffled one a record
/// of the same length. Run over programs with negation and grouping strata,
/// so mixed batches reach the sweep's replay arm as well as DRed-then-delta.
#[test]
fn stagings_of_one_net_batch_commit_alike() {
    let replays = std::cell::Cell::new(0u64);
    cases_shrink(48, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let mut stored: Vec<Fact> = Vec::new();
        for (pred, args) in &case.edb {
            let f = Fact::new(*pred, args.iter().map(gen_value).collect());
            if !stored.contains(&f) {
                stored.push(f);
            }
        }
        // Arguments of new facts: the case's own constants, so they join,
        // and a few the case has never seen.
        let mut pool: Vec<Value> = (100..103).map(Value::int).collect();
        pool.extend(stored.iter().flat_map(|f| f.args().iter().cloned()));
        let absent = |rng: &mut Rng, taken: &[(bool, Fact)]| loop {
            let (pred, arity) = [("e0", 2), ("e1", 1), ("p0", 2)][rng.index(3)];
            let f = Fact::new(pred, (0..arity).map(|_| rng.pick(&pool).clone()).collect());
            if !stored.contains(&f) && !taken.iter().any(|(_, t)| *t == f) {
                return f;
            }
        };

        // The net batch: up to three stored facts go, up to three new come.
        let mut kept = stored.clone();
        let mut net: Vec<(bool, Fact)> = Vec::new();
        for _ in 0..rng.index(4).min(kept.len()) {
            net.push((true, kept.swap_remove(rng.index(kept.len()))));
        }
        for _ in 0..rng.index(4) {
            let f = absent(rng, &net);
            net.push((false, f));
        }
        if net.is_empty() {
            return;
        }

        // Padded: cancelling pairs on facts outside the net batch, each
        // pair in order, anywhere among the net steps.
        let mut padded = net.clone();
        for _ in 0..1 + rng.index(3) {
            let (first, f) = if kept.is_empty() || rng.chance(1, 2) {
                (false, absent(rng, &padded)) // assert it, then retract it
            } else {
                (true, rng.pick(&kept).clone()) // retract it, then assert it
            };
            if padded.iter().any(|(_, t)| *t == f) {
                continue;
            }
            let i = rng.index(padded.len() + 1);
            padded.insert(i, (first, f.clone()));
            let j = i + 1 + rng.index(padded.len() - i);
            padded.insert(j, (!first, f));
        }
        let mut shuffled = net.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.index(i + 1));
        }

        let plain = commit_staging(&case, &net);
        replays.set(replays.get() + plain.1[3]);
        assert_eq!(commit_staging(&case, &padded), plain, "padded {padded:?}");
        let (model, how, logged) = commit_staging(&case, &shuffled);
        assert_eq!(
            (model, how, logged.len()),
            (plain.0, plain.1, plain.2.len()),
            "shuffled {shuffled:?}"
        );
    });
    assert!(replays.get() > 0, "no case reached the replay arm");
}

// ------------------------------------------------------------ query path --

fn gen_value(c: &GenConst) -> Value {
    match c {
        GenConst::Int(i) => Value::int(*i),
        GenConst::Set(xs) => Value::set(xs.iter().map(|&i| Value::int(i))),
        GenConst::Compound(f, xs) => {
            Value::compound(*f, xs.iter().map(|&i| Value::int(i)).collect())
        }
    }
}

/// A ground value as query text, in spellings that must all denote it:
/// plain, or — for integers — as ground arithmetic, and — for sets — with
/// the elements out of canonical order and one of them repeated.
fn spell(v: &Value, style: usize) -> String {
    match v {
        Value::Int(i) if style % 2 == 1 => format!("{i} + 1 - 1"),
        Value::Set(s) if style % 2 == 1 && !s.is_empty() => {
            let mut elems: Vec<String> = s.iter().rev().map(|e| e.to_string()).collect();
            elems.push(elems[0].clone());
            format!("{{{}}}", elems.join(", "))
        }
        _ => v.to_string(),
    }
}

/// Variable names by column; the generated relations have at most three.
const NAMES: [&str; 3] = ["A", "B", "C"];

/// One argument of a generated query pattern.
#[derive(Clone)]
enum Pat {
    Ground(Value),
    Var(&'static str),
    Anon,
}

/// What the definition says `pred(pats…)` answers over `facts`: keep the
/// facts equal on the ground arguments and consistent on repeated
/// variables, project onto the variables in first-occurrence order.
fn hand_filter(facts: &[Fact], pats: &[Pat]) -> Vec<QueryAnswer> {
    let mut out = Vec::new();
    'facts: for f in facts {
        let mut bindings: Vec<(String, Value)> = Vec::new();
        for (pat, v) in pats.iter().zip(f.args()) {
            match pat {
                Pat::Ground(g) if g != v => continue 'facts,
                Pat::Var(x) => match bindings.iter().find(|(name, _)| name == x) {
                    Some((_, bound)) if bound != v => continue 'facts,
                    Some(_) => {}
                    None => bindings.push((x.to_string(), v.clone())),
                },
                _ => {}
            }
        }
        out.push(QueryAnswer { bindings });
    }
    out.sort();
    out.dedup();
    out
}

/// A value of every kind, from small pools so rows repeat: integers inside
/// and outside the immediate range, strings, atoms whose names do not sort
/// in interning order, compounds, and sets of these.
fn answer_value(rng: &mut Rng, depth: u32) -> Value {
    match rng.index(if depth == 0 { 4 } else { 6 }) {
        0 => Value::int(*rng.pick(&[-3, 0, 2, 1 << 40, -(1 << 40), i64::MIN, i64::MAX])),
        1 => Value::str(["", "b", "a b", "é"][rng.index(4)]),
        2 | 3 => Value::atom(["zeta", "alpha", "mu", "alpha2"][rng.index(4)]),
        4 => Value::compound(
            *rng.pick(&["g", "f"]),
            (0..1 + rng.index(2))
                .map(|_| answer_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::set((0..rng.index(3)).map(|_| answer_value(rng, depth - 1))),
    }
}

/// `Evaluator::query` sorts and deduplicates its matches as id rows, then
/// builds each answer once. That is the order and the dedup of building an
/// answer per match and calling `sort(); dedup()` on them (`hand_filter`),
/// on values of every kind, under patterns with repeated variables, `_` and
/// ground columns.
#[test]
fn query_answers_sort_and_dedup_as_values_do() {
    cases(96, |rng: &mut Rng| {
        let arity = 1 + rng.index(3);
        let mut db = Database::new();
        for _ in 0..rng.index(40) {
            db.insert_tuple("w", (0..arity).map(|_| answer_value(rng, 2)).collect());
        }
        let facts = db.facts_of("w".into());
        let pats: Vec<Pat> = (0..arity)
            .map(|_| match rng.index(6) {
                0 => Pat::Anon,
                1 if !facts.is_empty() => {
                    let f = &facts[rng.index(facts.len())];
                    Pat::Ground(f.args()[rng.index(arity)].clone())
                }
                _ => Pat::Var(["X", "Y"][rng.index(2)]),
            })
            .collect();
        let args = pats
            .iter()
            .map(|p| match p {
                Pat::Ground(v) => Term::Const(v.clone()),
                Pat::Var(x) => Term::var(x),
                Pat::Anon => Term::Anon,
            })
            .collect();
        let atom = Atom::new("w", args);
        assert_eq!(
            Evaluator::new().query(&db, &atom),
            hand_filter(&facts, &pats),
            "{atom}"
        );
    });
}

/// `db`'s predicates by name: map order follows symbol ids, which depend on
/// what the other tests of this binary interned first.
fn predicates_by_name(db: &Database) -> Vec<Symbol> {
    let mut preds: Vec<Symbol> = db.predicates().collect();
    preds.sort_by_key(|p| p.to_string());
    preds
}

/// `db` with an index on every non-empty column subset of every relation.
fn index_every_subset(db: &mut Database) {
    for pred in predicates_by_name(db) {
        let arity = db.relation(pred).unwrap().arity();
        for mask in 1u32..1 << arity {
            let cols: Vec<usize> = (0..arity).filter(|c| mask & (1 << c) != 0).collect();
            db.relation_mut(pred, arity).ensure_index(&cols);
        }
    }
}

/// Every query shape over every predicate and column subset of `dbs[0]`
/// answers the same on each of `dbs` — which hold the same facts behind
/// different sets of indexes, `dbs[0]` behind all of them — as the hand
/// filter of the facts does.
fn assert_query_paths_agree(dbs: &[&Database], rng: &mut Rng) {
    let ev = Evaluator::new();
    let ask = |text: &str, want: &[QueryAnswer]| {
        let atom = ldl1::parser::parse_atom(text).unwrap();
        for (i, db) in dbs.iter().enumerate() {
            assert_eq!(ev.query(db, &atom), want, "db {i}: {text}");
        }
        ev.explain_query(dbs[0], &atom)
    };
    for pred in predicates_by_name(dbs[0]) {
        let rel = dbs[0].relation(pred).unwrap();
        let arity = rel.arity();
        let facts = dbs[0].facts_of(pred);
        // Tuples to take bound values from.
        let spellable: Vec<&Fact> = facts.iter().collect();
        if arity == 0 || spellable.is_empty() {
            continue;
        }
        for mask in 1u32..1 << arity {
            let bound = |c: usize| mask & (1 << c) != 0;
            let free = (0..arity).filter(|&c| !bound(c)).count();
            // Bound to an existing tuple's values, then to a value no
            // relation holds.
            let hit = spellable[rng.index(spellable.len())];
            for absent in [false, true] {
                // The unbound columns as distinct variables, as `_`, and as
                // one repeated variable.
                for shape in 0..3 {
                    let pats: Vec<Pat> = (0..arity)
                        .map(|c| match (bound(c), shape) {
                            (true, _) if absent => Pat::Ground(Value::atom("nowhere")),
                            (true, _) => Pat::Ground(hit.args()[c].clone()),
                            (false, 0) => Pat::Var(NAMES[c]),
                            (false, 1) => Pat::Anon,
                            (false, _) => Pat::Var("R"),
                        })
                        .collect();
                    let args: Vec<String> = pats
                        .iter()
                        .enumerate()
                        .map(|(c, p)| match p {
                            Pat::Ground(v) => spell(v, c + shape),
                            Pat::Var(x) => x.to_string(),
                            Pat::Anon => "_".to_string(),
                        })
                        .collect();
                    let text = format!("{pred}({})", args.join(", "));
                    let want = hand_filter(&facts, &pats);
                    // The hand filter is not vacuous: the tuple the values
                    // came from is an answer unless `R` has to repeat.
                    assert!(want.is_empty() == absent || shape == 2, "{text}");
                    let how = ask(&text, &want);
                    assert!(how.contains(": probe "), "{how}");
                    if free == 0 {
                        assert!(how.contains(&format!("{} of ", want.len())), "{how}");
                    }
                }
            }
        }
        // Nothing bound: the plain scan.
        let all: Vec<Pat> = NAMES[..arity].iter().map(|x| Pat::Var(x)).collect();
        let how = ask(
            &format!("{pred}({})", NAMES[..arity].join(", ")),
            &hand_filter(&facts, &all),
        );
        assert!(how.contains(&format!(": scan {pred}, ")), "{how}");
        // A set pattern with a variable stays with the matcher, behind a
        // scan and behind a probe of column 0: `{X, e}` is the sets {e}
        // (X = e) and {e, X}.
        for col in 0..arity {
            let small_set = |v: &Value| matches!(v, Value::Set(s) if (1..=2).contains(&s.len()));
            let Some(hit) = spellable.iter().find(|f| small_set(&f.args()[col])) else {
                continue;
            };
            let e = hit.args()[col].as_set().unwrap().iter().next().unwrap();
            for key in [None, Some(&hit.args()[0])] {
                if col == 0 && key.is_some() {
                    continue;
                }
                let mut want = Vec::new();
                for f in facts
                    .iter()
                    .filter(|f| key.is_none_or(|k| *k == f.args()[0]))
                {
                    let Value::Set(t) = &f.args()[col] else {
                        continue;
                    };
                    for x in t.iter() {
                        if Value::set(vec![x.clone(), e.clone()]) == f.args()[col] {
                            let bindings = vec![("X".to_string(), x.clone())];
                            want.push(QueryAnswer { bindings });
                        }
                    }
                }
                want.sort();
                want.dedup();
                let args: Vec<String> = (0..arity)
                    .map(|c| match key {
                        _ if c == col => format!("{{X, {e}}}"),
                        Some(k) if c == 0 => k.to_string(),
                        _ => "_".to_string(),
                    })
                    .collect();
                assert!(!want.is_empty());
                ask(&format!("{pred}({})", args.join(", ")), &want);
            }
        }
        // A ground argument outside U matches nothing; neither does the
        // wrong arity.
        let rest = vec!["_"; arity - 1].join(", ");
        let sep = if arity > 1 { ", " } else { "" };
        for outside in ["9223372036854775807 + 1", "scons(1, 2)", "1 / 0"] {
            let how = ask(&format!("{pred}({outside}{sep}{rest})"), &[]);
            assert!(how.contains("does not evaluate"), "{how}");
        }
        ask(&format!("{pred}(_, {})", vec!["_"; arity].join(", ")), &[]);
    }
    ask("nosuch(X, 1)", &[]);
}

/// The three ways a query reads a relation — index probe, id-filtered scan,
/// plain scan — are one function of the facts: over random stratified
/// models, with every index / the indexes evaluation left / none at all,
/// through tombstoning, growth and a rewind of both.
#[test]
fn query_probe_scan_and_filter_agree() {
    cases_shrink(48, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let mut edb = Database::new();
        for (pred, args) in &case.edb {
            let args: Vec<Value> = args.iter().map(gen_value).collect();
            // A three-column relation too, so column subsets nest — its
            // first tuple keyed by a set past the 64 elements an
            // enumerated-set pattern used to stop at.
            if *pred == "e0" {
                if edb.relation("w3".into()).is_none() {
                    let big = Value::set((0..64 + i64::from(size)).map(Value::int));
                    edb.insert_tuple("w3", vec![big, args[0].clone(), args[1].clone()]);
                }
                edb.insert_tuple(
                    "w3",
                    vec![args[1].clone(), args[0].clone(), args[1].clone()],
                );
            }
            edb.insert_tuple(*pred, args);
        }
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let mut model = ldl15().evaluate(&program, &edb).unwrap();
        let mut indexed = model.clone();
        index_every_subset(&mut indexed);
        let unindexed = |db: &Database| Database::from_fact_set(&db.to_fact_set());
        assert_query_paths_agree(&[&indexed, &model, &unindexed(&model)], rng);

        // Under a change log, tombstone one tuple per relation: no probe may
        // return its position.
        indexed.open_log(0);
        model.open_log(0);
        let removed: Vec<Fact> = predicates_by_name(&indexed)
            .into_iter()
            .filter_map(|p| {
                let facts = indexed.facts_of(p);
                let f = facts.get(rng.index(facts.len().max(1)))?.clone();
                let pos = indexed.remove(&f)?;
                assert_eq!(model.remove(&f), Some(pos));
                Some(f)
            })
            .collect();
        assert_query_paths_agree(&[&indexed, &model, &unindexed(&model)], rng);
        // Grow past the log's watermark, then rewind: the appended tuples
        // go and the tombstoned ones come back.
        for f in &removed {
            let mut args = f.args().to_vec();
            args[0] = Value::atom("later");
            indexed.insert_tuple(f.pred(), args.clone());
            model.insert_tuple(f.pred(), args);
        }
        assert_query_paths_agree(&[&indexed, &model, &unindexed(&model)], rng);
        indexed.rewind();
        model.rewind();
        assert_query_paths_agree(&[&indexed, &model, &unindexed(&model)], rng);
    });
}

// ------------------------------------------------------------- counters --

/// A program whose evaluation moves every per-pass counter: index probes
/// (the closure's delta joins, and `~par(X, _)` probing `par` by its bound
/// column), existential cuts (`busy` needs one descendant, not all) and
/// plan lowerings.
const COUNTED: &str = "anc(X, Y) <- par(X, Y).\n\
                       anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                       leaf(X) <- node(X), ~par(X, _).\n\
                       busy(X) <- node(X), ~idle(X), anc(X, _).";

/// `COUNTED` over six chains of seven nodes, nothing evaluated yet.
fn counted_system() -> System {
    let mut sys = System::new();
    sys.load(COUNTED).unwrap();
    for c in 0..6i64 {
        for i in 0..7 {
            sys.insert("node", vec![Value::int(100 * c + i)]).unwrap();
            if i < 6 {
                let edge = vec![Value::int(100 * c + i), Value::int(100 * c + i + 1)];
                sys.insert("par", edge).unwrap();
            }
        }
    }
    sys.insert("idle", vec![Value::int(0)]).unwrap();
    sys
}

/// The work counters of two operations on a fresh system: a bound query,
/// which a cold system answers by magic sets, then the full evaluation.
/// The gauges are masked — `interner_values` and `arena_*` describe the
/// process and the model, not the work.
fn operation_counters() -> [EvalStats; 2] {
    let work = |s: EvalStats| EvalStats {
        interner_values: 0,
        arena_bytes: 0,
        arena_pages: 0,
        ..s
    };
    let mut sys = counted_system();
    assert!(sys.explain_query("busy(100)").unwrap().contains(": magic "));
    sys.query("busy(100)").unwrap();
    let magic = work(sys.last_stats());
    sys.model().unwrap();
    [magic, work(sys.last_stats())]
}

/// An operation's counters are its own: the same whether it runs alone,
/// right after `explain`, `explain_query`, `reference_model` and
/// `check_model` on the same thread (which lower plans and probe indexes
/// outside any operation), or while another system evaluates on a second
/// thread.
#[test]
fn work_counters_belong_to_their_operation() {
    let alone = operation_counters();
    for s in &alone {
        assert!(s.index_probes > 0 && s.lowerings > 0, "{s}");
    }
    assert!(alone[1].exist_cuts > 0, "{}", alone[1]);

    let mut other = counted_system();
    other.explain(None);
    other.explain_query("anc(100, Y)").unwrap();
    let m = reference_model(other.program(), other.edb()).unwrap();
    check_model(other.program(), &m.to_fact_set()).unwrap();
    assert_eq!(operation_counters(), alone, "after explain and the oracle");

    let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let beside = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                counted_system().model().unwrap();
                started.store(true, Ordering::Relaxed);
            }
        });
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let beside = operation_counters();
        stop.store(true, Ordering::Relaxed);
        beside
    });
    assert_eq!(beside, alone, "beside another thread's evaluation");
}

// ------------------------------------------------------ §4.1 native ≡ macro --

/// A ground value for §4.1's patterns, spelled as source: an int, an
/// `f(a, b)` or `g(a)` compound, or a set. A uniform set draws every element
/// from one shape, a non-uniform one draws each element on its own.
fn spell_nested(rng: &mut Rng, depth: u32) -> String {
    let shape = |rng: &mut Rng, kind: usize, depth: u32| match kind {
        0 => rng.range(0, 4).to_string(),
        1 => format!("f({}, {})", rng.range(0, 3), rng.range(0, 3)),
        2 => format!("g({})", rng.range(0, 3)),
        _ => spell_nested(rng, depth - 1),
    };
    let kinds = if depth == 0 { 3 } else { 4 };
    if depth == 0 || rng.chance(1, 4) {
        let kind = rng.index(3);
        return shape(rng, kind, depth);
    }
    let uniform = rng.chance(2, 3);
    let kind = rng.index(kinds);
    let elems: Vec<String> = (0..rng.index(4))
        .map(|_| {
            let k = if uniform { kind } else { rng.index(kinds) };
            shape(rng, k, depth)
        })
        .collect();
    format!("{{{}}}", elems.join(", "))
}

/// §4.1: a body `<t>` means the same matched natively as rewritten by the
/// paper's macro. `System` matches `<X>`, `<<X>>` and `<f(X, _)>` itself —
/// in a relation literal through the match step after the scan, in a
/// built-in literal through `=` and `member`. The oracle is
/// `reference_model` run over `body_angle`'s rewrite, which turns each
/// relation literal's `<t>` into a grouping `collect'` rule over a `dom'`
/// predicate. On nested sets of ints and compounds, uniform and not, the
/// two models agree on every user predicate.
#[test]
fn body_group_patterns_match_the_section_4_1_macro() {
    const RULES: [&str; 8] = [
        "r0(A, X) <- s(A, <X>).",
        "r1(A, X) <- s(A, <<X>>).",
        "r2(A, X) <- s(A, <f(X, _)>).",
        "r3(A) <- s(A, <X>), s(X, _).",
        "b0(A, X) <- s(A, V), V = <X>.",
        "b1(A, X) <- s(A, V), V = <<X>>.",
        "b2(A, X) <- s(A, V), V = <f(X, _)>.",
        "b3(A, X) <- s(A, V), member(<X>, V).",
    ];
    cases_shrink(48, 8, |rng: &mut Rng, size: u32| {
        let mut src = String::new();
        for _ in 0..size {
            src.push_str(&format!(
                "s({}, {}).\n",
                rng.range(0, 4),
                spell_nested(rng, 2)
            ));
        }
        let mut preds = vec!["s"];
        for rule in RULES {
            if rng.chance(2, 3) {
                src.push_str(rule);
                src.push('\n');
                preds.push(&rule[..2]);
            }
        }
        let program = ldl1::parser::parse_program(&src).unwrap();
        let rewritten = body_angle::eliminate_body_groups(&program).unwrap();
        let by_macro = reference_model(&rewritten, &Database::new())
            .unwrap()
            .to_fact_set();
        let mut sys = System::new();
        sys.load(&src).unwrap();
        let native = sys.model_facts().unwrap();
        let user = |m: &FactSet| -> BTreeSet<String> {
            m.iter()
                .filter(|f| preds.contains(&f.pred().as_str()))
                .map(|f| f.to_string())
                .collect()
        };
        assert_eq!(user(&native), user(&by_macro), "{src}");
    });
}

// ------------------------------------------ §3.3 negation into grouping --

/// §3.3: grouping subsumes negation. `neg_elim::eliminate_negation(P)` is
/// positive, and its model, restricted to `P`'s predicates, is
/// `reference_model(P)` on every generated stratified program. This pits
/// the engine's grouping operator, which evaluates the rewrite, against the
/// negation probe the reference runs.
#[test]
fn negation_compiled_into_grouping_matches_the_reference() {
    cases_shrink(96, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = gen_edb(&case);
        let expected = reference_model(&program, &edb).unwrap().to_fact_set();
        let positive = neg_elim::eliminate_negation(&program).unwrap();
        assert!(positive.is_positive(), "{positive}");
        let model = ldl15().evaluate(&positive, &edb).unwrap().to_fact_set();
        // The rewrite's own predicates carry a `'`, which user names cannot.
        let restricted: FactSet = model
            .iter()
            .filter(|f| !f.pred().as_str().contains('\''))
            .cloned()
            .collect();
        assert_eq!(restricted, expected, "{}", case.src);
    });
}
