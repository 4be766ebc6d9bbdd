//! Experiment index rows X6–X10: the model-theoretic examples of §2,
//! through the public API (`check_model`, the §2.4 domination order, and
//! the engine's computed standard model).

use ldl1::value::order::{dominates, dominates_elaborate, fact_dominates, strictly_smaller_model};
use std::collections::{HashMap, HashSet};

use ldl1::ast::rule::Rule;
use ldl1::{
    check_model, Database, EvalOptions, Evaluator, Fact, FactSet, Program, Symbol, System, Value,
};
use ldl_testkit::gen::{stratified_case, GenConst, GeneratedCase};
use ldl_testkit::{cases_shrink, Rng};

fn facts(list: &[Fact]) -> FactSet {
    list.iter().cloned().collect()
}

fn set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|&i| Value::int(i)))
}

fn program(src: &str) -> Program {
    ldl1::parser::parse_program(src).unwrap()
}

/// X6 — the §2.2 example program and its stated model / non-model.
#[test]
fn section22_model() {
    let p = program(
        "q(X) <- p(X), h(X).\n\
         p(<X>) <- r(X).\n\
         r(1).\n\
         h({1}).",
    );
    let model = facts(&[
        Fact::new("r", vec![Value::int(1)]),
        Fact::new("h", vec![set(&[1])]),
        Fact::new("p", vec![set(&[1])]),
        Fact::new("q", vec![set(&[1])]),
    ]);
    assert!(check_model(&p, &model).is_ok());
    let non_model = facts(&[
        Fact::new("r", vec![Value::int(1)]),
        Fact::new("h", vec![set(&[1])]),
        Fact::new("p", vec![set(&[1, 2])]),
    ]);
    assert!(check_model(&p, &non_model).is_err());

    // The engine computes exactly the stated model.
    let mut sys = System::new();
    sys.load("q(X) <- p(X), h(X). p(<X>) <- r(X). r(1). h({1}).")
        .unwrap();
    assert_eq!(sys.model_facts().unwrap(), model);
}

/// X7 — §2.3: the intersection of two models need not be a model.
#[test]
fn intersection_not_model() {
    let p = program("p(<X>) <- q(X).");
    let a = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("q", vec![Value::int(2)]),
        Fact::new("p", vec![set(&[1, 2])]),
    ]);
    let b = facts(&[
        Fact::new("q", vec![Value::int(2)]),
        Fact::new("q", vec![Value::int(3)]),
        Fact::new("p", vec![set(&[2, 3])]),
    ]);
    assert!(check_model(&p, &a).is_ok());
    assert!(check_model(&p, &b).is_ok());
    let inter: FactSet = a.intersection(&b).cloned().collect();
    let err = check_model(&p, &inter).unwrap_err();
    assert_eq!(err.missing, Fact::new("p", vec![set(&[2])]));
}

/// X8 — §2.3: the Russell-style program `p(<X>) <- p(X)` has no model; the
/// stratifier rejects it as inadmissible.
#[test]
fn russell_no_model() {
    let p = program("p(<X>) <- p(X). p(1).");
    // Candidate models keep failing (each demands yet another p-fact).
    let mut candidate = facts(&[Fact::new("p", vec![Value::int(1)])]);
    for _ in 0..5 {
        let err = check_model(&p, &candidate).unwrap_err();
        candidate.insert(err.missing);
    }
    assert!(check_model(&p, &candidate).is_err());

    let mut sys = System::new();
    assert!(sys
        .load("p(<X>) <- p(X). p(1).")
        .unwrap_err()
        .to_string()
        .contains("not admissible"));
}

/// X9 — §2.3/§2.4: the positive program with two incomparable minimal
/// models (under classical inclusion *and* under the new domination
/// minimality).
#[test]
fn two_minimal_models() {
    let p = program(
        "p(<X>) <- q(X).\n\
         q(Y) <- w(S, Y), p(S).\n\
         q(1).\n\
         w({1}, 7).",
    );
    let base = [
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("w", vec![set(&[1]), Value::int(7)]),
    ];
    // M and M ∪ {p({7})} are not models (both noted in the paper).
    assert!(check_model(&p, &facts(&base)).is_err());
    let mut with_p7 = base.to_vec();
    with_p7.push(Fact::new("p", vec![set(&[7])]));
    assert!(check_model(&p, &facts(&with_p7)).is_err());

    // Two genuinely different completions are both models.
    let mut m1 = base.to_vec();
    m1.push(Fact::new("q", vec![Value::int(7)]));
    m1.push(Fact::new("p", vec![set(&[1, 7])]));
    let m1 = facts(&m1);
    assert!(check_model(&p, &m1).is_ok());

    // Neither dominates the other in the §2.4 sense when both are minimal
    // completions; at minimum the program must be inadmissible for the
    // engine:
    let mut sys = System::new();
    assert!(sys
        .load("p(<X>) <- q(X). q(Y) <- w(S, Y), p(S). q(1). w({1}, 7).")
        .is_err());
}

/// X10 — the §2.4 worked minimality example.
#[test]
fn domination_minimality() {
    let p = program(
        "q(1).\n\
         p(<X>) <- q(X).\n\
         q(2) <- p({1, 2}).",
    );
    let m1 = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("q", vec![Value::int(2)]),
        Fact::new("p", vec![set(&[1, 2])]),
    ]);
    let m2 = facts(&[
        Fact::new("q", vec![Value::int(1)]),
        Fact::new("p", vec![set(&[1])]),
    ]);
    assert!(check_model(&p, &m1).is_ok());
    assert!(check_model(&p, &m2).is_ok());
    // (M2 − M1) ≤ (M1 − M2): p({1}) ≤ p({1,2}).
    assert!(strictly_smaller_model(&m2, &m1));
    assert!(!strictly_smaller_model(&m1, &m2));
    // The pointwise fact domination used underneath:
    assert!(fact_dominates(
        &Fact::new("p", vec![set(&[1])]),
        &Fact::new("p", vec![set(&[1, 2])])
    ));
}

/// The §2.4 Remark's elaborate domination is a superset of the basic one
/// and reaches through constructors.
#[test]
fn elaborate_domination_remark() {
    let basic_pairs = [(set(&[1]), set(&[1, 2])), (Value::int(3), Value::int(3))];
    for (a, b) in &basic_pairs {
        assert!(dominates(a, b));
        assert!(dominates_elaborate(a, b));
    }
    // f({1}) ≤ f({1,2}) only elaborately.
    let fa = Value::compound("f", vec![set(&[1])]);
    let fb = Value::compound("f", vec![set(&[1, 2])]);
    assert!(!dominates(&fa, &fb));
    assert!(dominates_elaborate(&fa, &fb));
    // {{1}} ≤ {{1,2},{9}} via the ∀∃ clause.
    let sa = Value::set(vec![set(&[1])]);
    let sb = Value::set(vec![set(&[1, 2]), set(&[9])]);
    assert!(dominates_elaborate(&sa, &sb));
    assert!(!dominates_elaborate(&sb, &sa));
}

/// Theorem 1 on a nontrivial admissible program: the computed model is a
/// model, and no "obviously smaller" candidate is.
#[test]
fn computed_model_is_minimal_model() {
    let src = "kids(P, <K>) <- par(P, K).\n\
               only_children(<P>) <- kids(P, S), card(S, 1).\n\
               rich(P) <- kids(P, S), card(S, N), N >= 2.";
    let mut sys = System::new();
    sys.load(src).unwrap();
    for (p, k) in [("a", 1), ("a", 2), ("b", 3), ("c", 4)] {
        sys.fact(&format!("par({p}, {k}).")).unwrap();
    }
    let m = sys.model_facts().unwrap();
    let p = program(src);
    assert!(check_model(&p, &m).is_ok());
    // Removing any derived fact breaks modelhood.
    for f in m.iter() {
        if f.pred().as_str() == "par" {
            continue; // EDB facts are given, not derived
        }
        let mut smaller = m.clone();
        smaller.remove(f);
        assert!(
            check_model(&p, &smaller).is_err(),
            "removing {f} should break the model"
        );
    }
}

// ------------------------------------------- §2.4 on generated programs --

fn gen_value(c: &GenConst) -> Value {
    match c {
        GenConst::Int(i) => Value::int(*i),
        GenConst::Set(xs) => Value::set(xs.iter().map(|&i| Value::int(i))),
        GenConst::Compound(f, xs) => {
            Value::compound(*f, xs.iter().map(|&i| Value::int(i)).collect())
        }
    }
}

/// A generated case's program, EDB facts and the engine's model of them.
fn generated_model(case: &GeneratedCase) -> (Program, FactSet, FactSet) {
    let p = program(&case.src);
    let mut edb = Database::new();
    for (pred, args) in &case.edb {
        edb.insert_tuple(*pred, args.iter().map(gen_value).collect());
    }
    let options = EvalOptions {
        dialect: ldl1::ast::wf::Dialect::Ldl15,
        ..EvalOptions::default()
    };
    let m = Evaluator::with_options(options).evaluate(&p, &edb).unwrap();
    (p, edb.to_fact_set(), m.to_fact_set())
}

/// The models one step below `m` in the §2.4 order that `check_model`
/// accepts: `m` without one of its derived facts, or with one derived fact
/// dominated down — one element taken out of one of its set arguments.
/// Each candidate is checked to be smaller through `value::order`. The
/// facts of `edb` are given, not derived, and stay. A minimal model has no
/// such neighbour.
fn smaller_models(p: &Program, edb: &FactSet, m: &FactSet) -> Vec<String> {
    let mut found = Vec::new();
    let mut near: HashMap<Symbol, (Program, FactSet)> = HashMap::new();
    for f in m.iter().filter(|f| !edb.contains(f)) {
        // A candidate differs from the model `m` in facts of `f`'s
        // predicate only, so only the rules that mention it can fail, and
        // they read and require facts of their own predicates only.
        let (rules, base) = near.entry(f.pred()).or_insert_with(|| {
            let mentions = |r: &&Rule| {
                r.head.pred == f.pred() || r.body.iter().any(|l| l.atom.pred == f.pred())
            };
            let rules: Vec<Rule> = p.rules.iter().filter(mentions).cloned().collect();
            let preds: HashSet<Symbol> = rules
                .iter()
                .flat_map(|r| {
                    std::iter::once(r.head.pred).chain(r.body.iter().map(|l| l.atom.pred))
                })
                .collect();
            let base = m
                .iter()
                .filter(|g| preds.contains(&g.pred()))
                .cloned()
                .collect();
            (Program::from_rules(rules), base)
        });
        let mut without = base.clone();
        without.remove(f);
        assert!(strictly_smaller_model(&without, base), "{f}");
        if check_model(rules, &without).is_ok() {
            found.push(format!("without {f}"));
        }
        for (i, arg) in f.args().iter().enumerate() {
            let Value::Set(s) = arg else { continue };
            for e in s.iter() {
                let mut args = f.args().to_vec();
                args[i] = Value::set(s.iter().filter(|x| *x != e).cloned());
                let down = Fact::new(f.pred(), args);
                if m.contains(&down) {
                    continue; // the same candidate as `without`
                }
                assert!(fact_dominates(&down, f) && !fact_dominates(f, &down));
                let mut cand = without.clone();
                cand.insert(down.clone());
                assert!(strictly_smaller_model(&cand, base), "{down} for {f}");
                if check_model(rules, &cand).is_ok() {
                    found.push(format!("{down} for {f}"));
                }
            }
        }
    }
    found
}

fn has_grouping(p: &Program) -> bool {
    p.rules.iter().any(|r| r.is_grouping())
}

/// §2.4 domination minimality on random stratified programs with grouping
/// (`testkit::gen`'s grouping, two-rule head and §4.1 templates): the
/// engine's model is a model, and no derived fact can be dropped or
/// dominated down while the result stays one.
#[test]
fn generated_models_are_domination_minimal() {
    let grouped = std::cell::Cell::new(0);
    cases_shrink(40, 4, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let (p, edb, m) = generated_model(&case);
        if !has_grouping(&p) {
            return;
        }
        grouped.set(grouped.get() + 1);
        check_model(&p, &m).unwrap();
        let smaller = smaller_models(&p, &edb, &m);
        assert!(smaller.is_empty(), "{}: {smaller:?}", case.src);
    });
    eprintln!("{} of 40 generated programs had grouping", grouped.get());
    assert!(grouped.get() > 0, "no generated program had grouping");
}

/// The property above sees a non-minimal model: the engine's model with one
/// grouped set grown by an element no rule puts there, closed under the
/// rules into a model again, fails it.
#[test]
fn a_model_with_an_extra_grouped_element_is_not_minimal() {
    let planted = std::cell::Cell::new(0);
    cases_shrink(32, 4, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let (p, edb, m) = generated_model(&case);
        let heads: Vec<_> = p
            .rules
            .iter()
            .filter(|r| r.is_grouping())
            .map(|r| r.head.pred)
            .collect();
        let Some(group) = m.iter().find(|f| heads.contains(&f.pred())) else {
            return;
        };
        let Value::Set(s) = &group.args()[1] else {
            panic!("{group} groups into its second argument")
        };
        let extra = Value::set(s.iter().cloned().chain([Value::int(-7)]));
        let mut bad = m.clone();
        bad.insert(Fact::new(
            group.pred(),
            vec![group.args()[0].clone(), extra],
        ));
        // Add what the rules require of the extra fact until it is a model.
        for _ in 0..10_000 {
            match check_model(&p, &bad) {
                Ok(()) => break,
                Err(v) => bad.insert(v.missing),
            };
        }
        check_model(&p, &bad).unwrap();
        planted.set(planted.get() + 1);
        assert!(
            !smaller_models(&p, &edb, &bad).is_empty(),
            "{}: {group} grown by -7 passed",
            case.src
        );
    });
    eprintln!(
        "{} of 32 cases had a group to grow; the property flagged each",
        planted.get()
    );
    assert!(planted.get() > 0, "no generated model had a group");
}
