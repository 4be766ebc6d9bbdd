//! Semi-naive evaluation internals: delta restrictions must cover exactly
//! the derivations the literal §3.2 iteration performs.

use ldl_eval::fixpoint::{run_round, Drive, RoundTask};
use ldl_eval::plan::{DeltaRestriction, RulePlan};
use ldl_eval::{reference_model, Compiled, EvalOptions, EvalStats, Evaluator};
use ldl_parser::{parse_program, parse_rule};
use ldl_storage::{Database, IdRows};
use ldl_stratify::Stratification;
use ldl_value::{intern, Fact, Value};

/// Run `rule` once over `db` — one round of one pass — with one scan step
/// confined to a delta range, returning the head relation's (unary) tuples
/// in derivation order.
fn derive_restricted(rule: &str, db: &mut Database, restrict: DeltaRestriction) -> Vec<Value> {
    let plan = RulePlan::compile(&parse_rule(rule).unwrap(), None).unwrap();
    let opts = EvalOptions::default();
    let mut stats = EvalStats::new();
    let pass = RoundTask {
        plan: &plan,
        restrict: Some(restrict),
    };
    let new = run_round(&[pass], db, &mut Drive::new(&opts, &mut stats)).unwrap();
    let head = db.relation(plan.head.pred).unwrap();
    assert_eq!(
        (new, stats.facts_derived as usize),
        (head.len(), head.len())
    );
    assert_eq!((stats.rounds, stats.rules_fired), (1, 1));
    head.iter().map(|t| intern::resolve(t[0])).collect()
}

#[test]
fn delta_restriction_confines_one_step() {
    // Relation e with 4 tuples; restrict the scan step to positions [2, 4).
    let mut db = Database::new();
    for i in 0..4 {
        db.insert_tuple("e", vec![Value::int(i)]);
    }
    let seen = derive_restricted(
        "q(X) <- e(X).",
        &mut db,
        DeltaRestriction {
            step: 0,
            lo: 2,
            hi: 4,
        },
    );
    assert_eq!(seen, vec![Value::int(2), Value::int(3)]);
}

#[test]
fn delta_restriction_applies_through_indexes() {
    let mut db = Database::new();
    for i in 0..6 {
        db.insert_tuple("e", vec![Value::int(i % 2), Value::int(i)]);
    }
    db.relation_mut("e".into(), 2).ensure_index(&[0]);
    // f(X) <- k(K), e(K, X): the e-scan probes the index on column 0.
    db.insert_tuple("k", vec![Value::int(0)]);
    // e tuples with K=0 sit at positions 0, 2, 4; restrict to [3, 6).
    let seen = derive_restricted(
        "f(X) <- k(K), e(K, X).",
        &mut db,
        DeltaRestriction {
            step: 1,
            lo: 3,
            hi: 6,
        },
    );
    assert_eq!(seen, vec![Value::int(4)]);
}

/// Derivation counts: on a chain, the transitive closure has exactly
/// n(n+1)/2 facts whatever the strategy; deltas must neither skip nor
/// multiply results.
#[test]
fn closure_sizes_match_formula() {
    for n in [1i64, 2, 5, 17, 40] {
        let program = parse_program(
            "r(X, Y) <- e(X, Y).\n\
             r(X, Y) <- e(X, Z), r(Z, Y).",
        )
        .unwrap();
        let mut edb = Database::new();
        for i in 0..n {
            edb.insert_tuple("e", vec![Value::int(i), Value::int(i + 1)]);
        }
        for m in [
            Evaluator::new().evaluate(&program, &edb).unwrap(),
            reference_model(&program, &edb).unwrap(),
        ] {
            let count = m.relation("r".into()).unwrap().len() as i64;
            assert_eq!(count, n * (n + 1) / 2, "n={n}");
        }
    }
}

/// Mutual recursion across two predicates in one layer: deltas of either
/// must wake the other's rules.
#[test]
fn mutual_recursion_within_a_layer() {
    let program = parse_program(
        "even_r(X) <- zero(X).\n\
         even_r(Y) <- odd_r(X), succ(X, Y).\n\
         odd_r(Y) <- even_r(X), succ(X, Y).",
    )
    .unwrap();
    let mut edb = Database::new();
    edb.insert_tuple("zero", vec![Value::int(0)]);
    for i in 0..20 {
        edb.insert_tuple("succ", vec![Value::int(i), Value::int(i + 1)]);
    }
    let m = Evaluator::new().evaluate(&program, &edb).unwrap();
    let evens = m.relation("even_r".into()).unwrap().len();
    let odds = m.relation("odd_r".into()).unwrap().len();
    assert_eq!(evens, 11); // 0, 2, …, 20
    assert_eq!(odds, 10); // 1, 3, …, 19
}

/// A rule with three recursive literals (all same layer): every delta role
/// must be exercised or the closure comes out short.
#[test]
fn triple_recursive_literal_rule() {
    let program = parse_program(
        "t(X, Y) <- e(X, Y).\n\
         t(X, W) <- t(X, Y), t(Y, Z), t(Z, W).",
    )
    .unwrap();
    let mut edb = Database::new();
    for i in 0..12 {
        edb.insert_tuple("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    let reference = reference_model(&program, &edb).unwrap();
    let semi = Evaluator::new().evaluate(&program, &edb).unwrap();
    assert_eq!(reference.to_fact_set(), semi.to_fact_set());
}

/// A cold non-recursive layer runs with its existential tail like any other:
/// `anc(X, _)` binds nothing the head needs, so the pass stops at a node's
/// first descendant instead of enumerating them all.
#[test]
fn cold_non_recursive_layer_takes_its_existential_cuts() {
    let program = parse_program(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         busy(X) <- node(X), ~idle(X), anc(X, _).",
    )
    .unwrap();
    let (chains, len) = (5i64, 6i64); // `len` edges, `len + 1` nodes a chain
    let mut edb = Database::new();
    for c in 0..chains {
        for i in 0..=len {
            edb.insert_tuple("node", vec![Value::int(100 * c + i)]);
            if i < len {
                let (x, y) = (100 * c + i, 100 * c + i + 1);
                edb.insert_tuple("par", vec![Value::int(x), Value::int(y)]);
            }
        }
    }
    edb.insert_tuple("idle", vec![Value::int(0)]);
    edb.insert_tuple("idle", vec![Value::int(203)]);

    let (m, stats) = Evaluator::new().evaluate_stats(&program, &edb).unwrap();
    // Every node but a chain's last has a descendant; two of those are idle.
    let busy = chains * len - 2;
    assert_eq!(m.relation("busy".into()).unwrap().len() as i64, busy);
    // In a chain every `anc` tuple has one derivation, and `busy` costs one
    // body solution per answer — not one per descendant (`closure` again) —
    // and that one solution is the answer's cut.
    let closure = chains * len * (len + 1) / 2;
    assert_eq!(stats.attempts as i64, closure + busy);
    assert_eq!(stats.exist_cuts as i64, busy);
}

/// A layer runs its components in dependency order. `far` shares `anc`'s
/// layer without being recursive, so it waits for `anc` to converge and
/// then fires once — one rule, one round — instead of joining `anc`'s
/// deltas in each of its rounds.
#[test]
fn non_recursive_component_fires_once_after_the_closure() {
    let anc = "anc(X, Y) <- par(X, Y).\n\
               anc(X, Y) <- par(X, Z), anc(Z, Y).\n";
    let far = format!("{anc}far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > 250.");
    let mut edb = Database::new(); // a 40-edge chain, stride 10
    for i in 0..40 {
        edb.insert_tuple("par", vec![Value::int(10 * i), Value::int(10 * i + 10)]);
    }
    let ev = Evaluator::new();
    let (_, alone) = ev
        .evaluate_stats(&parse_program(anc).unwrap(), &edb)
        .unwrap();
    let program = parse_program(&far).unwrap();
    let (m, stats) = ev.evaluate_stats(&program, &edb).unwrap();
    assert_eq!(
        (stats.rules_fired, stats.rounds),
        (alone.rules_fired + 1, alone.rounds + 1)
    );
    // Fired once, it saw the whole closure: every pair more than 25 edges
    // apart, so Σ_{d=26}^{40} (41 − d).
    assert_eq!(m.relation("far".into()).unwrap().len(), 120);
    let reference = reference_model(&program, &edb).unwrap();
    assert_eq!(m.to_fact_set(), reference.to_fact_set());
}

/// A plan's indexes are built once every relation it scans has a row. Cold
/// evaluation of the ancestor program runs `anc(X, Y) <- par(X, Z),
/// anc(Z, Y)` in full only in round 0, while `anc` is empty, so `anc[0]` is
/// never built; the delta passes probe `par[1]`. The first assertion into
/// `par` runs the rule on the `par` delta and leaves `anc[0]`, which a
/// query `anc(0, Y)` then probes. (`[0, 1]` is the duplicate filter.)
#[test]
fn indexes_wait_for_rows() {
    let program = parse_program(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).",
    )
    .unwrap();
    let mut edb = Database::new();
    for i in 0..10 {
        edb.insert_tuple("par", vec![Value::int(i), Value::int(i + 1)]);
    }
    let mut db = Evaluator::new().evaluate(&program, &edb).unwrap();
    let cols = |db: &Database, p: &str| db.relation(p.into()).unwrap().index_columns();
    assert_eq!(cols(&db, "anc"), [vec![0, 1]]);
    assert_eq!(cols(&db, "par"), [vec![0, 1], vec![1]]);

    let compiled = Compiled::new(program).unwrap();
    let new = Fact::new("par", vec![Value::int(10), Value::int(11)]);
    let (opts, mut stats) = (EvalOptions::default(), EvalStats::new());
    ldl_eval::apply_mutations(
        &compiled,
        &mut edb,
        &mut db,
        &IdRows::intern(&[]),
        &IdRows::intern(&[new]),
        &opts,
        &mut stats,
    )
    .unwrap();
    assert_eq!(cols(&db, "anc"), [vec![0], vec![0, 1]]);
    let query = ldl_parser::parse_atom("anc(0, Y)").unwrap();
    let arm = Evaluator::new().explain_query(&db, &query);
    assert!(arm.starts_with("anc(0, Y): probe anc[0], 11 of "), "{arm}");
}

/// One layer holding a grouping head, a three-rule non-recursive chain
/// written in reverse dependency order, and a recursive pair: the engine
/// agrees with the reference under the canonical layering (one layer, run
/// component by component) and the fine one (a layer per component).
#[test]
fn mixed_layer_matches_the_reference_under_both_layerings() {
    let program = parse_program(
        "c(X) <- b(X), node(X).\n\
         b(X) <- a(X).\n\
         a(P) <- kids(P, S), card(S, N), N >= 2.\n\
         kids(P, <K>) <- par(P, K).\n\
         ev(X) <- c(X).\n\
         od(Y) <- ev(X), par(X, Y).\n\
         ev(Y) <- od(X), par(X, Y).",
    )
    .unwrap();
    let canon = Stratification::canonical(&program).unwrap();
    let layer = &canon.schedule[canon.layer("kids".into())];
    assert_eq!(layer.grouping.rules, [3]);
    let order: Vec<(Vec<usize>, bool)> = layer
        .components
        .iter()
        .map(|c| (c.rules.clone(), c.recursive))
        .collect();
    let want = [(2, false), (1, false), (0, false)].map(|(r, rec)| (vec![r], rec));
    assert_eq!(order[..3], want);
    assert_eq!(order[3], (vec![4, 5, 6], true));

    let mut edb = Database::new();
    for (p, k) in [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 6), (4, 7)] {
        edb.insert_tuple("par", vec![Value::int(p), Value::int(k)]);
    }
    for n in 0..8 {
        edb.insert_tuple("node", vec![Value::int(n)]);
    }
    let reference = reference_model(&program, &edb).unwrap().to_fact_set();
    let ev = Evaluator::new();
    for strat in [canon.clone(), Stratification::fine(&program).unwrap()] {
        let m = ev.evaluate_with(&program, &edb, &strat).unwrap();
        assert_eq!(m.to_fact_set(), reference);
    }
    assert!(reference.contains(&Fact::new("od", vec![Value::int(6)])));
}
