//! Fault-injection differential suite for resource governance: tripping the
//! cancel token after a random number of derivation attempts, then retrying
//! with the token reset, must reproduce the clean run *bit for bit* — same
//! facts, same tuple insertion order — on every evaluation path: one-shot
//! (sequential, pooled), magic-sets, and incremental commits.
//!
//! This is the abort-safety contract stated operationally: an abort may cost
//! the work of the aborted call, but it may not change anything the caller
//! can observe afterwards. Each random case picks several trip points
//! spanning "almost immediately" to "almost done", so the abort lands in
//! different strata, inside grouping rounds, and inside negation strata —
//! wherever the budget checks are, a partial round must never leak.

use ldl1::eval::EvalError;
use ldl1::magic::MagicEvaluator;
use ldl1::{
    reference_model, Budget, CancelToken, Database, EvalOptions, Evaluator, ResourceKind, Symbol,
    System, Value,
};
use ldl_testkit::gen::{stratified_case, GenConst, GeneratedCase};
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

fn edb_of(case: &GeneratedCase) -> Database {
    let mut edb = Database::new();
    for (pred, args) in &case.edb {
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

fn opts(cancel: &CancelToken) -> EvalOptions {
    EvalOptions {
        budget: Budget::unlimited().with_cancel(cancel.clone()),
        ..EvalOptions::default()
    }
}

/// An aborted run must fail with the `Interrupt` resource — anything else
/// (wrong variant, panic, wrong resource) is a bug in the abort plumbing.
fn assert_interrupt(err: &EvalError) {
    match err {
        EvalError::ResourceExhausted { resource, .. } => {
            assert_eq!(*resource, ResourceKind::Interrupt, "{err}");
        }
        other => panic!("expected interrupt abort, got {other}"),
    }
}

/// Trip after `n` attempts, expect abort-or-completion, reset, re-run
/// clean, and return the retried database.
fn trip_then_retry(ev: &Evaluator, program: &ldl1::Program, edb: &Database, n: u64) -> Database {
    let cancel = &ev.options.budget.cancel;
    cancel.trip_after(n);
    match ev.evaluate(program, edb) {
        // n past this path's total attempts: nothing to abort.
        Ok(db) => {
            cancel.reset();
            return db;
        }
        Err(e) => assert_interrupt(&e),
    }
    cancel.reset();
    ev.evaluate(program, edb)
        .expect("retry after reset must succeed")
}

/// 36 random programs × 3 trip points (108 (program, trip-point) cases),
/// plus the magic path below: abort + retry is indistinguishable from never
/// having aborted.
#[test]
fn abort_then_retry_matches_clean_run_bit_for_bit() {
    cases_shrink(36, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = edb_of(&case);

        // Clean run. `attempts` scales the random trip points so they land
        // *inside* the computation, not trivially past its end.
        let quiet = CancelToken::new();
        let (clean, stats) = Evaluator::with_options(opts(&quiet))
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
            let ev = Evaluator::with_options(opts(&CancelToken::new()));
            let retried = trip_then_retry(&ev, &program, &edb, n);
            assert_eq!(
                insertion_orders(&retried),
                insertion_orders(&clean),
                "trip={n}"
            );
        }
    });
}

/// The magic-sets query path: tripping mid-query and retrying returns the
/// same answers the clean magic query computes.
#[test]
fn magic_abort_then_retry_matches_clean_answers() {
    cases_shrink(16, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let edb = edb_of(&case);
        let query = ldl1::parser::parse_atom(&format!("{}(X, Y)", case.top)).unwrap();

        let quiet = CancelToken::new();
        let clean = MagicEvaluator::with_options(opts(&quiet))
            .query(&program, &edb, &query)
            .unwrap();
        let (_, stats) = Evaluator::with_options(opts(&quiet))
            .evaluate_stats(&program, &edb)
            .unwrap();

        for _ in 0..3 {
            let n = rng.range(0, stats.attempts.max(1) as i64) as u64;
            let cancel = CancelToken::new();
            let mev = MagicEvaluator::with_options(opts(&cancel));
            cancel.trip_after(n);
            match mev.query(&program, &edb, &query) {
                Ok(ans) => assert_eq!(ans, clean, "untripped magic run diverged"),
                Err(e) => assert_interrupt(&e),
            }
            cancel.reset();
            let retried = mev.query(&program, &edb, &query).unwrap();
            assert_eq!(retried, clean, "magic retry after trip={n}");
        }
    });
}

/// The incremental path: a batch commit aborted mid-maintenance rolls the
/// EDB back, and re-committing the same facts converges to the same model a
/// never-aborted incremental run (and a from-scratch run) produces.
#[test]
fn incremental_abort_then_recommit_matches_clean_model() {
    cases_shrink(16, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        if case.edb.len() < 4 {
            return;
        }

        // Clean reference: from-scratch model over the full EDB.
        let program = ldl1::parser::parse_program(&case.src).unwrap();
        let reference = Evaluator::new().evaluate(&program, &edb_of(&case)).unwrap();

        let cancel = CancelToken::new();
        let mut sys = System::new();
        sys.set_budget(Budget::unlimited().with_cancel(cancel.clone()));
        sys.load(&case.src).unwrap();
        let split = case.edb.len() / 2;
        for (pred, args) in &case.edb[..split] {
            sys.insert(pred, args.iter().map(value_of).collect())
                .unwrap();
        }
        sys.model_facts().unwrap(); // cache a model: commits go incremental

        for chunk in case.edb[split..].chunks(3) {
            // Trip somewhere inside the maintenance work for this chunk
            // (0 trips before the first attempt — the commit must still be
            // transactional).
            cancel.trip_after(rng.range(0, 50) as u64);
            let mut failed = false;
            {
                let mut b = sys.mutate();
                for (pred, args) in chunk {
                    b.assert(pred, args.iter().map(value_of).collect());
                }
                match b.commit() {
                    Ok(()) => {}
                    Err(ldl1::Error::Eval(e)) => {
                        assert_interrupt(&e);
                        failed = true;
                    }
                    Err(other) => panic!("unexpected commit error: {other}"),
                }
            }
            cancel.reset();
            if failed {
                // Rolled back: re-stage the identical chunk and commit for
                // real this time.
                let mut b = sys.mutate();
                for (pred, args) in chunk {
                    b.assert(pred, args.iter().map(value_of).collect());
                }
                b.commit().unwrap();
            }
        }
        assert_eq!(
            sys.model_facts().unwrap(),
            reference.to_fact_set(),
            "incremental model after aborted commits diverged from scratch run"
        );
    });
}
