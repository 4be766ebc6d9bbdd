//! Failure injection and edge cases: the engine must fail loudly and
//! precisely on bad programs, and behave sensibly at the boundaries of `U`.

use std::time::Duration;

use ldl1::eval::EvalError;
use ldl1::{reference_model, Budget, Database, Fact, ResourceKind, System, Value};

/// The canonical diverging program: its minimal model is infinite (n holds
/// for z, s(z), s(s(z)), ... — §2.2's omega-closure universe), so bottom-up
/// evaluation never reaches a fixpoint and *must* be stopped by a budget.
const DIVERGING: &str = "n(z).\nn(s(X)) <- n(X).";

/// Unwrap an evaluation error down to the `ResourceExhausted` variant and
/// assert which resource tripped.
fn expect_abort(err: ldl1::Error, want: ResourceKind) {
    match &err {
        ldl1::Error::Eval(EvalError::ResourceExhausted { resource, pred, .. }) => {
            assert_eq!(*resource, want, "wrong resource in {err}");
            assert_eq!(pred, "n", "abort should name the diverging predicate");
        }
        other => panic!("expected ResourceExhausted({want:?}), got {other:?}"),
    }
}

#[test]
fn arity_mismatch_across_rules_rejected() {
    let mut sys = System::new();
    sys.load("p(X) <- e(X). p(X, Y) <- e2(X, Y).").unwrap();
    sys.fact("e(1).").unwrap();
    sys.fact("e2(1, 2).").unwrap();
    let err = sys.query("p(X)").unwrap_err().to_string();
    assert!(err.contains("arity"), "{err}");
}

#[test]
fn arithmetic_overflow_derives_nothing() {
    // i64::MAX + 1 is outside U: the binding fails, no fact, no panic.
    let mut sys = System::new();
    sys.load(&format!(
        "big(Y) <- n(X), Y = X + 1.\n\
         n({}).",
        i64::MAX
    ))
    .unwrap();
    assert!(sys.facts("big").unwrap().is_empty());
    // Division by zero likewise.
    let mut sys2 = System::new();
    sys2.load("d(Y) <- n(X), Y = 1 / X. n(0). n(2).").unwrap();
    let d = sys2.facts("d").unwrap();
    assert_eq!(d, vec![Fact::new("d", vec![Value::int(0)])]);
}

#[test]
fn scons_onto_non_set_derives_nothing() {
    let mut sys = System::new();
    sys.load("s(scons(X, X)) <- n(X). n(1). n(2).").unwrap();
    // scons(1, 1): 1 is not a set — outside U, nothing derived.
    assert!(sys.facts("s").unwrap().is_empty());
}

#[test]
fn unschedulable_rule_reported_with_detail() {
    let mut sys = System::new();
    sys.load("q(X, S) <- member(X, S), e(X).").unwrap();
    sys.fact("e(1).").unwrap();
    // S never bound: member can never run; and S is a head variable with no
    // positive binder, which well-formedness already rejects.
    let err = sys.query("q(X, S)").unwrap_err().to_string();
    assert!(
        err.contains("S") || err.contains("member"),
        "diagnostic should mention the culprit: {err}"
    );
}

#[test]
fn empty_edb_empty_model() {
    let mut sys = System::new();
    sys.load(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         kids(P, <K>) <- par(P, K).",
    )
    .unwrap();
    assert!(sys.facts("anc").unwrap().is_empty());
    assert!(sys.facts("kids").unwrap().is_empty());
    assert!(sys.query("anc(X, Y)").unwrap().is_empty());
    assert!(sys.query_magic("anc(a, Y)").unwrap().is_empty());
}

#[test]
fn zero_arity_predicates_evaluate() {
    let mut sys = System::new();
    sys.load(
        "go.\n\
         ready <- go.\n\
         blocked <- go, ~ready.",
    )
    .unwrap();
    assert_eq!(sys.query("ready").unwrap().len(), 1);
    assert!(sys.query("blocked").unwrap().is_empty());
}

#[test]
fn deeply_nested_sets_round_trip() {
    // Build {{{...{1}...}}} ten levels deep through rules.
    let mut src = String::from("l0(1).\n");
    for i in 1..=10 {
        src.push_str(&format!("l{i}(<X>) <- l{}(X).\n", i - 1));
    }
    let mut sys = System::new();
    sys.load(&src).unwrap();
    let facts = sys.facts("l10").unwrap();
    assert_eq!(facts.len(), 1);
    let mut v = &facts[0].args()[0];
    for _ in 0..10 {
        let s = v.as_set().expect("nested set");
        assert_eq!(s.len(), 1);
        v = &s.as_slice()[0];
    }
    assert_eq!(v, &Value::int(1));
    // And the printed form parses back to the same value.
    let text = facts[0].args()[0].to_string();
    let parsed = ldl1::parser::parse_term(&text).unwrap().to_value().unwrap();
    assert_eq!(parsed, facts[0].args()[0]);
}

#[test]
fn duplicate_rules_and_facts_are_idempotent() {
    let mut sys = System::new();
    sys.load(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Y).\n\
         par(a, b). par(a, b).",
    )
    .unwrap();
    assert_eq!(sys.facts("anc").unwrap().len(), 1);
}

#[test]
fn self_join_same_relation_twice() {
    let mut sys = System::new();
    sys.load("grand(X, Z) <- par(X, Y), par(Y, Z).").unwrap();
    for (a, b) in [("a", "b"), ("b", "c"), ("b", "d")] {
        sys.fact(&format!("par({a}, {b}).")).unwrap();
    }
    let g = sys.facts("grand").unwrap();
    assert_eq!(g.len(), 2); // (a,c), (a,d)
}

#[test]
fn negation_on_empty_relation_succeeds() {
    // `missing` never gains facts; negating it must succeed for all
    // candidates, not error on the absent relation.
    let mut sys = System::new();
    sys.load(
        "ok(X) <- e(X), ~missing(X).\n\
         missing(X) <- e(X), e2(X).",
    )
    .unwrap();
    sys.fact("e(1).").unwrap();
    assert_eq!(sys.facts("ok").unwrap().len(), 1);
}

#[test]
fn large_group_sets() {
    // One group of 5000 elements: canonical set construction must not
    // degrade quadratically in a way that matters at this scale.
    let mut sys = System::new();
    sys.load("all(<X>) <- e(X).").unwrap();
    for i in 0..5000 {
        sys.insert("e", vec![Value::int(i)]).unwrap();
    }
    let all = sys.facts("all").unwrap();
    assert_eq!(all[0].args()[0].as_set().unwrap().len(), 5000);
}

#[test]
fn naive_mode_handles_negation_and_grouping_too() {
    // The reference evaluator is the naive mode: §3.2 iterated literally.
    let program = ldl1::parser::parse_program(
        "r(X, Y) <- e(X, Y).\n\
         r(X, Y) <- e(X, Z), r(Z, Y).\n\
         sinks(X, <Y>) <- r(X, Y), ~hasout(Y).\n\
         hasout(X) <- e(X, _).",
    )
    .unwrap();
    let mut edb = Database::new();
    for (a, b) in [(0, 1), (1, 2)] {
        edb.insert_tuple("e", vec![Value::int(a), Value::int(b)]);
    }
    let m = reference_model(&program, &edb).unwrap();
    assert!(m.contains(&Fact::new(
        "sinks",
        vec![Value::int(0), Value::set(vec![Value::int(2)])]
    )));
}

#[test]
fn strings_as_keys_and_in_sets() {
    let mut sys = System::new();
    sys.load(
        "tags(D, <T>) <- tag(D, T).\n\
         same(A, B) <- tags(A, S), tags(B, S), A /= B.",
    )
    .unwrap();
    for (d, t) in [
        ("d1", "\"x y\""),
        ("d1", "\"z\""),
        ("d2", "\"x y\""),
        ("d2", "\"z\""),
        ("d3", "\"z\""),
    ] {
        sys.fact(&format!("tag({d}, {t}).")).unwrap();
    }
    let same = sys.facts("same").unwrap();
    assert_eq!(same.len(), 2); // (d1,d2) and (d2,d1)
}

#[test]
fn update_after_query_recomputes() {
    let mut sys = System::new();
    sys.load("kids(P, <K>) <- par(P, K).").unwrap();
    sys.fact("par(a, 1).").unwrap();
    assert_eq!(
        sys.query("kids(a, S)").unwrap()[0].bindings[0].1,
        Value::set(vec![Value::int(1)])
    );
    sys.fact("par(a, 2).").unwrap();
    assert_eq!(
        sys.query("kids(a, S)").unwrap()[0].bindings[0].1,
        Value::set(vec![Value::int(1), Value::int(2)])
    );
}

#[test]
fn diverging_program_aborts_under_each_cap() {
    // Every cap must stop the infinite fixpoint, and the diagnostic must
    // name the tripped resource.
    for (budget, want) in [
        (Budget::unlimited().with_fuel(10_000), ResourceKind::Fuel),
        (
            Budget::unlimited().with_deadline(Duration::from_millis(100)),
            ResourceKind::Time,
        ),
        (
            Budget::unlimited().with_max_facts(5_000),
            ResourceKind::Facts,
        ),
        // The interner is process-global and already holds values from
        // other tests, so a cap of 1 is exceeded on the first check.
        (
            Budget::unlimited().with_max_interned(1),
            ResourceKind::Interner,
        ),
    ] {
        let mut sys = System::new();
        sys.load(DIVERGING).unwrap();
        sys.set_budget(budget);
        expect_abort(sys.model().map(|_| ()).unwrap_err(), want);
    }
}

#[test]
fn cancelled_token_aborts_immediately_and_reset_recovers() {
    let mut sys = System::new();
    sys.load("p(X) <- e(X). e(1).").unwrap();
    let handle = sys.interrupt_handle();
    sys.set_budget(Budget::unlimited().with_cancel(handle.clone()));
    handle.cancel();
    expect_interrupt(sys.facts("p").map(|_| ()).unwrap_err());
    // reset() re-arms the same system; the query then succeeds normally.
    handle.reset();
    assert_eq!(sys.facts("p").unwrap().len(), 1);
}

/// Like [`expect_abort`] but for external cancellation, where the stratum
/// context depends on where the check lands.
fn expect_interrupt(err: ldl1::Error) {
    match &err {
        ldl1::Error::Eval(EvalError::ResourceExhausted { resource, .. }) => {
            assert_eq!(*resource, ResourceKind::Interrupt, "{err}");
        }
        other => panic!("expected interrupt abort, got {other:?}"),
    }
}

#[test]
fn aborted_commit_rolls_back_and_retry_matches_clean_run() {
    // Transactionality of the incremental path: a batch commit that runs out
    // of fuel must leave the System exactly as it was before the commit, and
    // retrying with a bigger budget must produce the same model a clean
    // system (which never saw the abort) computes.
    let rules = "r(X, Y) <- e(X, Y).\n\
                 r(X, Y) <- e(X, Z), r(Z, Y).\n\
                 reach(X, <Y>) <- r(X, Y).";
    let mut sys = System::new();
    sys.load(rules).unwrap();
    for i in 0..20 {
        sys.insert("e", vec![Value::int(i), Value::int(i + 1)])
            .unwrap();
    }
    // Materialise the model so the next commit takes the incremental
    // path.
    let before = sys.model().unwrap().dump();

    // A commit whose maintenance work exceeds the fuel budget aborts...
    sys.set_budget(Budget::unlimited().with_fuel(10));
    let mut batch = sys.mutate();
    for i in 20..40 {
        batch.assert("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    let err = batch.commit().map(|_| ()).unwrap_err();
    match &err {
        ldl1::Error::Eval(EvalError::ResourceExhausted { resource, .. }) => {
            assert_eq!(*resource, ResourceKind::Fuel, "{err}");
        }
        other => panic!("expected fuel abort, got {other:?}"),
    }

    // ...and the EDB is rolled back: the model is byte-identical to the
    // pre-commit state once the budget allows recomputation.
    sys.set_budget(Budget::unlimited());
    assert_eq!(sys.model().unwrap().dump(), before);

    // Retrying the same batch under a sufficient budget now succeeds,
    // and the result is bit-identical to a clean system that never
    // aborted.
    let mut batch = sys.mutate();
    for i in 20..40 {
        batch.assert("e", vec![Value::int(i), Value::int(i + 1)]);
    }
    batch.commit().unwrap();
    let retried = sys.model().unwrap().dump();

    let mut clean = System::new();
    clean.load(rules).unwrap();
    for i in 0..40 {
        clean
            .insert("e", vec![Value::int(i), Value::int(i + 1)])
            .unwrap();
    }
    assert_eq!(retried, clean.model().unwrap().dump());
}

#[test]
fn abort_during_grouping_never_leaks_partial_sets() {
    // Fuel runs out while grouping rules are active: no partially built
    // group set may survive into a later successful evaluation.
    let rules = "r(X, Y) <- e(X, Y).\n\
                 r(X, Y) <- e(X, Z), r(Z, Y).\n\
                 reach(X, <Y>) <- r(X, Y).";
    let mut aborted = 0;
    for fuel in [1, 10, 100, 1000] {
        let mut sys = System::new();
        sys.load(rules).unwrap();
        for i in 0..30 {
            sys.insert("e", vec![Value::int(i), Value::int(i + 1)])
                .unwrap();
        }
        sys.set_budget(Budget::unlimited().with_fuel(fuel));
        if sys.model().is_err() {
            aborted += 1;
        }
        sys.set_budget(Budget::unlimited());
        let reach = sys.facts("reach").unwrap();
        // Node 0 reaches exactly nodes 1..=30.
        let full = reach
            .iter()
            .find(|f| f.args()[0] == Value::int(0))
            .expect("reach(0, S) exists after retry");
        assert_eq!(full.args()[1].as_set().unwrap().len(), 30, "fuel={fuel}");
    }
    assert!(aborted >= 2, "too few fuel levels aborted ({aborted})");
}

#[test]
fn abort_during_negation_stratum_is_transactional() {
    // Stratum 0 (reachability) fits the budget; the fuel runs out in the
    // negation stratum. The abort must name a stratum > 0 and a retry must
    // match a clean run exactly.
    let rules = "r(X, Y) <- e(X, Y).\n\
                 r(X, Y) <- e(X, Z), r(Z, Y).\n\
                 unreached(Y) <- e(Y, _), ~r(z0, Y).";
    let build = |sys: &mut System| {
        sys.load(rules).unwrap();
        sys.fact("e(z0, z1).").unwrap();
        for i in 1..15 {
            sys.insert(
                "e",
                vec![
                    Value::atom(&format!("z{i}")),
                    Value::atom(&format!("z{}", i + 1)),
                ],
            )
            .unwrap();
        }
        // A second component the z0-walk never reaches.
        for i in 0..15 {
            sys.insert(
                "e",
                vec![
                    Value::atom(&format!("w{i}")),
                    Value::atom(&format!("w{}", i + 1)),
                ],
            )
            .unwrap();
        }
    };

    // Find a fuel level that aborts *past* stratum 0 by scanning upward;
    // the exact threshold depends on join order, the property under test
    // does not.
    let mut aborted_in_negation = false;
    for fuel in (50..2000).step_by(50) {
        let mut sys = System::new();
        build(&mut sys);
        sys.set_budget(Budget::unlimited().with_fuel(fuel));
        match sys.model().map(|db| db.dump()) {
            Err(ldl1::Error::Eval(EvalError::ResourceExhausted { stratum, .. })) => {
                if stratum > 0 {
                    aborted_in_negation = true;
                    // Retry under no budget must equal a clean run.
                    sys.set_budget(Budget::unlimited());
                    let retried = sys.model().unwrap().dump();
                    let mut clean = System::new();
                    build(&mut clean);
                    assert_eq!(retried, clean.model().unwrap().dump());
                }
            }
            Err(other) => panic!("unexpected error: {other:?}"),
            Ok(_) => break, // fuel now covers the whole evaluation
        }
    }
    assert!(
        aborted_in_negation,
        "no fuel level hit the negation stratum; tighten the scan"
    );
}

#[test]
fn magic_query_aborts_under_fuel_too() {
    // The magic-sets pipeline threads the same budget. The diverging
    // predicate is kept pure-IDB (seeded from an EDB relation) because the
    // magic rewrite reads EDB facts through the original predicate name,
    // and the query is all-free so the rewrite degenerates to the full
    // (infinite) bottom-up evaluation.
    let mut sys = System::new();
    sys.load("n(X) <- base(X).\nn(s(X)) <- n(X).\nbase(z).")
        .unwrap();
    sys.set_budget(Budget::unlimited().with_fuel(5_000));
    let err = sys.query_magic("n(X)").map(|_| ()).unwrap_err();
    match &err {
        ldl1::Error::Eval(EvalError::ResourceExhausted { resource, .. }) => {
            assert_eq!(*resource, ResourceKind::Fuel, "{err}");
        }
        other => panic!("expected fuel abort from magic query, got {other:?}"),
    }
}

#[test]
fn magic_query_with_outside_u_term() {
    // scons(1, 2) is syntactically ground but denotes nothing in U (scons
    // onto a non-set); the magic pipeline must answer "no", not panic.
    let mut sys = System::new();
    sys.load(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         par(1, 2).",
    )
    .unwrap();
    assert!(sys.query_magic("anc(scons(1, 2), Y)").unwrap().is_empty());
    assert!(sys.query("anc(scons(1, 2), Y)").unwrap().is_empty());
    // Non-recursive variant (no other adornment creates the magic relation,
    // which exercised a different failure path historically).
    let mut sys2 = System::new();
    sys2.load("anc(X, Y) <- par(X, Y). par(1, 2).").unwrap();
    assert!(sys2.query_magic("anc(scons(1, 2), Y)").unwrap().is_empty());
    assert_eq!(sys2.query_magic("anc(1, Y)").unwrap().len(), 1);
}

/// A predicate has one arity. An assertion that disagrees — with the
/// stored relation, with the cached model, or with an earlier assertion of
/// its own batch — fails validation before anything is applied (it used to
/// abort the process in the storage layer's `assert_eq!`).
#[test]
fn asserting_a_second_arity_is_a_mutation_error() {
    use ldl1::{Error, MutationError};
    let rejected = |res: Result<(), Error>, want: usize| match res {
        Err(Error::Mutation(MutationError::ArityMismatch { fact, expected })) => {
            assert_eq!((fact.arity(), expected), (3, want), "{fact}")
        }
        other => panic!("expected MutationError::ArityMismatch, got {other:?}"),
    };

    // Against the stored relation, with no model cached.
    let mut sys = System::new();
    sys.load("q(X) <- e(X, _). e(1, 2).").unwrap();
    rejected(sys.fact("e(1, 2, 3)."), 2);
    rejected(sys.load("e(3, 4). e(1, 2, 3)."), 2);
    assert_eq!(sys.edb().num_facts(), 1, "a rejected batch applies nothing");
    assert_eq!(sys.query("q(X)").unwrap().len(), 1);
    assert_eq!(sys.query_magic("q(X)").unwrap().len(), 1);

    // Onto a cached model: against the EDB relation, and against a relation
    // only the model holds (a derived predicate with no stored facts).
    rejected(sys.fact("e(1, 2, 3)."), 2);
    rejected(sys.fact("q(1, 2, 3)."), 1);
    // Against an earlier assertion of the same batch.
    let mut b = sys.mutate();
    b.assert_fact("fresh(1).").unwrap();
    b.assert_fact("fresh(1, 2, 3).").unwrap();
    rejected(b.commit(), 1);
    assert!(sys.query("fresh(X)").unwrap().is_empty());

    // The system keeps committing and answering.
    sys.fact("e(5, 6).").unwrap();
    assert_eq!(sys.query("q(X)").unwrap().len(), 2);
    assert_eq!(sys.query_magic("q(X)").unwrap().len(), 2);
}

/// A body literal whose argument count differs from the stored relation's
/// is an `ArityMismatch` wherever the rule is run — not an index out of
/// bounds in the executor, not a silently short match with `_`, and the
/// same under `query`, `query_magic` and the reference evaluator.
#[test]
fn body_literal_arity_conflict_is_an_eval_error() {
    let arity_error = |res: Result<Vec<ldl1::QueryAnswer>, ldl1::Error>| match res {
        Err(ldl1::Error::Eval(EvalError::ArityMismatch {
            pred,
            expected,
            found,
        })) => (pred, expected, found),
        other => panic!("expected EvalError::ArityMismatch, got {other:?}"),
    };
    for body in ["e(X, Y, Z)", "e(X, _, _)", "ok(X), ~e(X, _, _)"] {
        let mut sys = System::new();
        sys.load(&format!("q(X) <- {body}. ok(X) <- f(X). e(1, 2). f(1)."))
            .unwrap();
        for _ in 0..2 {
            let want = ("e".to_string(), 2, 3);
            assert_eq!(arity_error(sys.query("q(X)")), want, "{body}");
            assert_eq!(arity_error(sys.query_magic("q(X)")), want, "{body}");
        }
        assert!(matches!(
            reference_model(sys.program(), sys.edb()),
            Err(EvalError::ArityMismatch { .. })
        ));
        // Magic evaluation only runs the rules the query reaches.
        assert_eq!(sys.query_magic("ok(X)").unwrap().len(), 1);
    }

    // A stored fact at odds with the rules defining its predicate: the same
    // error under both strategies (`query_magic` used to panic).
    let mut sys = System::new();
    sys.load("r(X, Y) <- e(X, Y). q(X) <- r(X, _). ok(X) <- e(X, _). e(1, 2). r(7).")
        .unwrap();
    let want = ("r".to_string(), 1, 2);
    assert_eq!(arity_error(sys.query("q(X)")), want);
    assert_eq!(arity_error(sys.query_magic("q(X)")), want);
    assert_eq!(sys.query_magic("ok(X)").unwrap().len(), 1);
}

/// A predicate with no facts left — and no rule that mentions it — has no
/// arity: retracting its last fact must not pin the old arity until a fresh
/// `System` (the all-tombstoned relation used to keep it). The log replays
/// the same history, so a durable system recovers it too. What stays
/// rejected: a batch that itself empties the predicate and refills it at
/// another arity, and any predicate a loaded rule gives an arity to.
#[test]
fn emptied_predicate_forgets_its_arity() {
    use ldl1::{Error, MutationError, Value};
    let answers = |sys: &mut System, q: &str| -> Vec<String> {
        let mut rows: Vec<String> = sys
            .query(q)
            .unwrap()
            .iter()
            .map(|a| a.to_string())
            .collect();
        rows.sort();
        rows
    };

    let dir = std::env::temp_dir().join(format!("ldl1-arity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for durable in [false, true] {
        let mut sys = if durable {
            System::open(&dir).unwrap()
        } else {
            System::new()
        };
        sys.load("q(X) <- e(X, _). p(1, 2). e(1, 2).").unwrap();
        if durable {
            assert_eq!(sys.query("q(X)").unwrap().len(), 1); // maintain a model too
        }

        // Emptying and refilling in one batch is still one predicate with
        // two arities; the rejected batch applies nothing.
        let mut b = sys.mutate();
        b.retract("p", vec![Value::int(1), Value::int(2)]);
        b.assert("p", vec![Value::int(7)]);
        assert!(matches!(
            b.commit(),
            Err(Error::Mutation(MutationError::ArityMismatch {
                expected: 2,
                ..
            }))
        ));
        assert_eq!(sys.edb().num_facts(), 2);

        let mut b = sys.mutate();
        b.retract("p", vec![Value::int(1), Value::int(2)]);
        b.commit().unwrap();
        assert_eq!(sys.edb().num_facts(), 1);
        sys.fact("p(7).").unwrap();
        sys.load("p(8).").unwrap();
        assert_eq!(answers(&mut sys, "p(X)"), ["X = 7", "X = 8"]);
        assert!(sys.query("p(X, Y)").unwrap().is_empty());

        // `e` is emptied as well, but a rule fixes its arity.
        sys.retract("e(1, 2).").unwrap();
        assert!(matches!(
            sys.fact("e(1, 2, 3)."),
            Err(Error::Mutation(MutationError::ArityMismatch {
                expected: 2,
                ..
            }))
        ));

        if durable {
            drop(sys);
            let mut sys = System::open(&dir).unwrap();
            assert_eq!(sys.recovery_info().unwrap().replayed, 5);
            assert_eq!(answers(&mut sys, "p(X)"), ["X = 7", "X = 8"]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rule `load` rejects must not stay behind in the system's source: it
/// used to, and every later rule load — re-compiling source + new rules —
/// failed with the rejected rule's error until a fresh `System`.
#[test]
fn rejected_load_leaves_the_system_usable() {
    use ldl1::Error;
    let mut sys = System::new();
    sys.load("r(X) <- e(X). e(1).").unwrap();
    assert!(matches!(
        sys.load("bad(X, {<Y>}) <- e2(X, Y). e(2)."),
        Err(Error::Transform(_))
    ));
    assert_eq!(sys.edb().num_facts(), 1, "a rejected load commits no facts");
    sys.load("s(X) <- r(X).").unwrap();
    let answers = sys.query("s(X)").unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0].to_string(), "X = 1");
}

/// A `load` whose rules compile but make the program inadmissible used to
/// be installed anyway: no model could be computed from then on, so every
/// query — and every query after a later, perfectly good `load` — failed
/// with the cycle until a fresh `System`, and an attached `Reader` got no
/// further publication. It is rejected whole now, like a transform error.
#[test]
fn inadmissible_load_leaves_the_system_usable() {
    use ldl1::Error;
    let mut sys = System::new();
    sys.load("q(1). q(2). r(X) <- q(X).").unwrap();
    assert_eq!(sys.query("r(X)").unwrap().len(), 2);
    let reader = sys.reader().unwrap();
    let epoch = reader.epoch();

    let err = sys.load("p(X) <- q(X), ~p(X). q(3).").unwrap_err();
    assert!(matches!(err, Error::Eval(_)), "{err}");
    assert!(err.to_string().contains("cycle: p"), "{err}");
    assert_eq!(sys.edb().num_facts(), 2, "a rejected load commits no facts");
    assert_eq!(sys.program().rules.len(), 1, "nor installs its rules");
    assert_eq!(reader.epoch(), epoch, "nor publishes anything");
    // So is a rule that is ill-formed rather than inadmissible.
    assert!(matches!(sys.load("s(X) <- ~q(X)."), Err(Error::Eval(_))));

    // The cached model, later loads and the reader all keep working.
    assert_eq!(sys.query("r(X)").unwrap().len(), 2);
    sys.load("t(X) <- q(X).").unwrap();
    assert_eq!(sys.query("t(X)").unwrap().len(), 2);
    let epoch = reader.epoch();
    sys.fact("q(4).").unwrap();
    assert!(reader.epoch() > epoch, "the next commit is published");
    assert_eq!(reader.latest().query("t(X)").unwrap().len(), 3);
}
