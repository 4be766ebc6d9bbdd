//! Property-based tests on the core data structures and engine invariants,
//! driven by the deterministic [`ldl_testkit::cases`] harness.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use ldl1::value::order::{dominates_elaborate, factset_dominated};
use ldl1::{
    check_model, reference_model, Database, EvalOptions, EvalStats, Evaluator, Fact, FactSet,
    Mutation, QueryAnswer, SetValue, Symbol, System, Value,
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

fn rand_int_vec(rng: &mut Rng) -> Vec<i64> {
    (0..rng.index(12)).map(|_| rng.range(-8, 8)).collect()
}

/// SetValue agrees with a BTreeSet model on every operation.
#[test]
fn set_ops_match_btreeset() {
    cases(256, |rng| {
        let xs = rand_int_vec(rng);
        let ys = rand_int_vec(rng);
        let sx: SetValue = xs.iter().map(|&i| Value::int(i)).collect();
        let sy: SetValue = ys.iter().map(|&i| Value::int(i)).collect();
        let bx: BTreeSet<i64> = xs.iter().copied().collect();
        let by: BTreeSet<i64> = ys.iter().copied().collect();

        assert_eq!(sx.len(), bx.len());
        let as_vals =
            |b: &BTreeSet<i64>| -> SetValue { b.iter().map(|&i| Value::int(i)).collect() };
        assert_eq!(sx.union(&sy), as_vals(&bx.union(&by).copied().collect()));
        assert_eq!(
            sx.intersection(&sy),
            as_vals(&bx.intersection(&by).copied().collect())
        );
        assert_eq!(
            sx.difference(&sy),
            as_vals(&bx.difference(&by).copied().collect())
        );
        assert_eq!(sx.is_subset(&sy), bx.is_subset(&by));
        assert_eq!(sx.is_disjoint(&sy), bx.is_disjoint(&by));
        for i in -8..8 {
            assert_eq!(sx.contains(&Value::int(i)), bx.contains(&i));
        }
    });
}

/// insert is idempotent and grows by at most one.
#[test]
fn set_insert_properties() {
    cases(256, |rng| {
        let xs = rand_int_vec(rng);
        let x = rng.range(-8, 8);
        let s: SetValue = xs.iter().map(|&i| Value::int(i)).collect();
        let s1 = s.insert(Value::int(x));
        let s2 = s1.insert(Value::int(x));
        assert_eq!(&s1, &s2);
        assert!(s1.contains(&Value::int(x)));
        assert!(s1.len() <= s.len() + 1);
        assert!(s.is_subset(&s1));
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
            let bigger = Value::Set(sa.insert(b.clone()));
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

/// Theorem 2, fuzzed: canonical and fine layerings agree on random
/// admissible programs with negation and grouping at random strata.
#[test]
fn theorem2_fuzzed() {
    cases(32, |rng| {
        let edges = rand_edges(rng, 14, 8);
        let marked: Vec<i64> = (0..rng.index(5)).map(|_| rng.range(0, 8)).collect();
        let choices = rand_choices(rng, 3);
        let src = random_stratified_program(4, &choices);
        let program = ldl1::parser::parse_program(&src).unwrap();
        let mut edb = Database::new();
        for &(a, b) in &edges {
            edb.insert_tuple("e0", vec![Value::int(a), Value::int(b)]);
        }
        for &m in &marked {
            edb.insert_tuple("e1", vec![Value::int(m)]);
        }
        let ev = Evaluator::new();
        let canon = ldl1::Stratification::canonical(&program).unwrap();
        let fine = ldl1::Stratification::fine(&program).unwrap();
        canon.validate(&program).unwrap();
        fine.validate(&program).unwrap();
        let m1 = ev.evaluate_with(&program, &edb, &canon).unwrap();
        let m2 = ev.evaluate_with(&program, &edb, &fine).unwrap();
        assert_eq!(m1.to_fact_set(), m2.to_fact_set());
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
        let mut model = Evaluator::new().evaluate(&program, &edb).unwrap();
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
