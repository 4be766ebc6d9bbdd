//! Abort-then-retry differential suite for resource governance: aborting an
//! evaluation after a random number of derivation attempts, then retrying
//! without a limit, must reproduce the clean run *bit for bit* — same facts,
//! same tuple insertion order — on every evaluation path: one-shot,
//! magic-sets, and incremental commits.
//!
//! This is the abort-safety contract stated operationally: an abort may cost
//! the work of the aborted call, but it may not change anything the caller
//! can observe afterwards. Each random case picks several abort points
//! spanning "almost immediately" to "almost done", so the abort lands in
//! different strata, after grouping rounds, and in negation strata — a
//! partial operation must never leak.
//!
//! An abort lands only at a round boundary, so "stop at the `n`-th attempt"
//! is fuel `n − 1`: the drive aborts at the end of the first round whose
//! cumulative attempts reach `n`. A draw of `n = 0` stops before the first
//! round, with a token cancelled in advance.

use ldl1::eval::EvalError;
use ldl1::magic::MagicEvaluator;
use ldl1::{
    reference_model, Budget, CancelToken, Database, EvalOptions, Evaluator, ResourceKind, Symbol,
    System, Value,
};
use ldl_testkit::gen::{mutation_sequence, stratified_case, GenConst, GenMutation, GenTuple};
use ldl_testkit::{cases_shrink, Rng};

fn value_of(c: &GenConst) -> Value {
    match c {
        GenConst::Int(i) => Value::int(*i),
        GenConst::Set(xs) => Value::set(xs.iter().map(|&i| Value::int(i))),
        GenConst::Compound(f, xs) => {
            Value::compound(*f, xs.iter().map(|&i| Value::int(i)).collect())
        }
    }
}

fn edb_of(tuples: &[GenTuple]) -> Database {
    let mut edb = Database::new();
    for (pred, args) in tuples {
        edb.insert_tuple(*pred, args.iter().map(value_of).collect());
    }
    edb
}

/// Every relation's tuples in insertion order — the bit-for-bit view of a
/// model (ids are structural identity within one process).
fn insertion_orders(db: &Database) -> Vec<(Symbol, Vec<Vec<ldl1::value::ValueId>>)> {
    let mut preds: Vec<Symbol> = db.predicates().collect();
    preds.sort_by_key(|p| p.to_string());
    preds
        .into_iter()
        .map(|p| {
            let rel = db.relation(p).unwrap();
            (p, rel.iter().map(|t| t.to_vec()).collect())
        })
        .collect()
}

/// A generated program is LDL1.5 (a template reads sets through a body
/// `<t>`), so it is checked as such.
fn opts(budget: Budget) -> EvalOptions {
    EvalOptions {
        dialect: ldl1::ast::wf::Dialect::Ldl15,
        budget,
        ..EvalOptions::default()
    }
}

/// The budget that stops a drive at its `n`-th derivation attempt: for
/// `n` ≥ 1, fuel `n − 1`, which aborts at the boundary of the round that
/// makes the `n`-th attempt; for `n = 0`, a token cancelled before the
/// first round.
fn abort_at(n: u64) -> Budget {
    match n {
        0 => {
            let cancel = CancelToken::new();
            cancel.cancel();
            Budget::unlimited().with_cancel(cancel)
        }
        n => Budget::unlimited().with_fuel(n - 1),
    }
}

/// An aborted run must fail with the resource its draw names — fuel
/// spent on at least `n` attempts, or (for `n = 0`) an interrupt before any
/// attempt. Anything else (wrong variant, panic, wrong resource) is a bug
/// in the abort plumbing.
fn assert_aborted_at(err: &EvalError, n: u64) {
    match err {
        EvalError::ResourceExhausted {
            resource, consumed, ..
        } if n == 0 => {
            assert_eq!(
                (*resource, *consumed),
                (ResourceKind::Interrupt, 0),
                "{err}"
            );
        }
        EvalError::ResourceExhausted {
            resource, consumed, ..
        } => {
            assert_eq!(*resource, ResourceKind::Fuel, "{err}");
            assert!(*consumed >= n, "aborted before attempt {n}: {err}");
        }
        other => panic!("expected a budget abort, got {other}"),
    }
}

/// Abort at attempt `n` (which lies inside the run, so the abort must
/// happen), lift the limit, re-run, and return the retried database.
fn abort_then_retry(program: &ldl1::Program, edb: &Database, n: u64) -> Database {
    let mut ev = Evaluator::with_options(opts(abort_at(n)));
    match ev.evaluate(program, edb) {
        Ok(_) => panic!("attempt {n} lies inside the run, yet it completed"),
        Err(e) => assert_aborted_at(&e, n),
    }
    ev.options.budget = Budget::unlimited();
    ev.evaluate(program, edb)
        .expect("retry without a limit must succeed")
}

/// 36 random programs × 3 abort points (108 (program, abort-point) cases),
/// plus the magic path below: abort + retry is indistinguishable from never
/// having aborted.
#[test]
fn abort_then_retry_matches_clean_run_bit_for_bit() {
    cases_shrink(36, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = edb_of(&case.edb);

        // Clean run. `attempts` scales the random abort points so they land
        // *inside* the computation, not trivially past its end.
        let (clean, stats) = Evaluator::with_options(opts(Budget::unlimited()))
            .evaluate_stats(&program, &edb)
            .unwrap();
        assert_eq!(
            clean.to_fact_set(),
            reference_model(&program, &edb).unwrap().to_fact_set(),
            "clean run diverged from the reference model"
        );
        let total = stats.attempts.max(1);

        for _ in 0..3 {
            let n = rng.range(0, total as i64) as u64;

            // The retry reproduces the clean run's insertion order, not just
            // its fact set.
            let retried = abort_then_retry(&program, &edb, n);
            assert_eq!(
                insertion_orders(&retried),
                insertion_orders(&clean),
                "abort at {n}"
            );
        }
    });
}

/// The magic-sets query path: aborting mid-query and retrying returns the
/// same answers the clean magic query computes.
#[test]
fn magic_abort_then_retry_matches_clean_answers() {
    cases_shrink(16, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = edb_of(&case.edb);
        let query = ldl1::parser::parse_atom(&format!("{}(X, Y)", case.top)).unwrap();

        let clean = MagicEvaluator::with_options(opts(Budget::unlimited()))
            .query(&program, &edb, &query)
            .unwrap();
        let (_, stats) = Evaluator::with_options(opts(Budget::unlimited()))
            .evaluate_stats(&program, &edb)
            .unwrap();

        for _ in 0..3 {
            let n = rng.range(0, stats.attempts.max(1) as i64) as u64;
            let mut mev = MagicEvaluator::with_options(opts(abort_at(n)));
            match mev.query(&program, &edb, &query) {
                // The magic run can need fewer attempts than the full one.
                Ok(ans) => assert_eq!(ans, clean, "unaborted magic run diverged"),
                Err(e) => assert_aborted_at(&e, n),
            }
            mev.options.budget = Budget::unlimited();
            let retried = mev.query(&program, &edb, &query).unwrap();
            assert_eq!(retried, clean, "magic retry after abort at {n}");
        }
    });
}

/// Stage one generated batch — retractions, assertions, updates — and
/// commit it.
fn commit_batch(sys: &mut System, batch: &[GenMutation]) -> Result<(), ldl1::Error> {
    let vals = |args: &[GenConst]| args.iter().map(value_of).collect::<Vec<_>>();
    let mut b = sys.mutate();
    for m in batch {
        match m {
            GenMutation::Assert(p, args) => b.assert(p, vals(args)),
            GenMutation::Retract(p, args) => b.retract(p, vals(args)),
            GenMutation::Update { pred, old, new } => b.update(pred, vals(old), vals(new)),
        };
    }
    b.commit()
}

/// `got` holds `want`'s relations position by position: the same `len()`,
/// and the same `get(pos)` and `is_live(pos)` at every position.
fn assert_same_positions(got: &Database, want: &Database, what: &str) {
    let names = |db: &Database| {
        let mut names: Vec<Symbol> = db.predicates().collect();
        names.sort_by_key(|p| p.to_string());
        names
    };
    assert_eq!(names(got), names(want), "{what}: relations");
    for p in names(want) {
        let (g, w) = (got.relation(p).unwrap(), want.relation(p).unwrap());
        assert_eq!(g.len(), w.len(), "{what}: {p} len");
        for pos in 0..w.len() as u32 {
            let at = |r: &ldl1::storage::Relation| (r.get(pos).to_vec(), r.is_live(pos));
            assert_eq!(at(g), at(w), "{what}: {p} at {pos}");
        }
    }
}

/// The incremental path: a batch commit — retractions, assertions and
/// updates — aborted mid-maintenance leaves the EDB as it was, position by
/// position (tombstones revived, appended tuples gone), and re-committing the
/// same batch converges to the state a never-aborted run reaches: the same
/// EDB positions, the same model, the from-scratch model of the survivors.
#[test]
fn incremental_abort_then_recommit_matches_clean_model() {
    cases_shrink(16, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        if case.edb.len() < 4 {
            return;
        }
        let (batches, survivors) = mutation_sequence(rng, &case, 6);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let reference = Evaluator::with_options(opts(Budget::unlimited()))
            .evaluate(&program, &edb_of(&survivors))
            .unwrap();
        let system = || {
            let mut sys = System::new();
            sys.load(&case.src).unwrap();
            for (pred, args) in &case.edb {
                sys.insert(pred, args.iter().map(value_of).collect())
                    .unwrap();
            }
            sys
        };

        let mut clean = system();
        clean.model_facts().unwrap();
        for batch in &batches {
            commit_batch(&mut clean, batch).unwrap();
        }

        let mut sys = system();
        for batch in &batches {
            sys.model_facts().unwrap(); // cache a model: the commit goes incremental
            let before = sys.edb().clone();
            // Abort somewhere inside the maintenance work for this batch (0
            // stops before the first round — the commit must still be
            // transactional).
            let n = rng.range(0, 50) as u64;
            sys.set_budget(abort_at(n));
            let res = commit_batch(&mut sys, batch);
            sys.set_budget(Budget::unlimited());
            match res {
                Ok(()) => {}
                Err(ldl1::Error::Eval(e)) => {
                    assert_aborted_at(&e, n);
                    if n == 0 {
                        assert_eq!(sys.last_stats().rounds, 0, "a round ran");
                    }
                    assert_same_positions(sys.edb(), &before, "after abort");
                    // Rewound: re-stage the identical batch and commit for
                    // real this time, over a model re-evaluated from it.
                    sys.model_facts().unwrap();
                    commit_batch(&mut sys, batch).unwrap();
                }
                Err(other) => panic!("unexpected commit error: {other}"),
            }
        }
        assert_same_positions(sys.edb(), clean.edb(), "retried vs clean");
        let model = sys.model_facts().unwrap();
        assert_eq!(
            model,
            clean.model_facts().unwrap(),
            "retried vs clean model"
        );
        assert_eq!(
            model,
            reference.to_fact_set(),
            "incremental model after aborted commits diverged from scratch run"
        );
    });
}
