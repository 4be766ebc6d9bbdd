//! The differential test oracle: on random stratified programs the engine
//! must compute the model the paper defines, however the work is spread and
//! however the model was reached.
//!
//! The reference is [`ldl1::reference_model`] — §3.2 executed literally:
//! stratify, then per layer apply every rule to the same database until
//! nothing is added, through a tree-walking interpreter over greedy
//! statistics-free plans — together with [`ldl1::check_model`], the §2.2
//! truth definition. Neither shares the engine's cost-based planner,
//! register programs, delta frontiers, worker pool or maintenance
//! algorithms, so a bug in any of those shows up as a divergence here, and
//! the [`ldl_testkit::cases_shrink`] driver reports the minimal failing
//! program/EDB size for the offending seed. The arms:
//!
//! * engine ≡ reference model, and the engine's result is a model, on every
//!   generated program (skewed EDBs included — see [`ldl_testkit::gen`]);
//! * incremental maintenance (delta seeding, truncate-and-replay) reaches
//!   the same model as a one-shot evaluation;
//! * random assert/retract/update histories (counting, DRed, replay) end on
//!   the reference model of the surviving EDB;
//! * magic-sets answers ≡ plain answers;
//! * sliced parallel execution at 4 and 8 workers ≡ sequential execution —
//!   same facts, same insertion orders, same work counters — for one-shot
//!   evaluation, for mutation maintenance, and for the magic evaluator's
//!   staged schedule.
//!
//! Beyond set equality, sequential and parallel evaluation must agree on
//! every relation's *tuple insertion order*: the parallel evaluator's claim
//! is bit-for-bit determinism (the positional delta frontiers of semi-naive
//! and incremental evaluation depend on it), not just the same set of
//! facts. They must also agree on the work counters: how a pass is sliced
//! decides who does the work, never how much of it there is.

use ldl1::{
    check_model, reference_model, Database, EvalOptions, Evaluator, FactSet, MagicEvaluator,
    Program, Symbol, System, Value,
};
use ldl_testkit::gen::{mutation_sequence, stratified_case, GenConst, GenMutation, GeneratedCase};
use ldl_testkit::{cases_shrink, Rng};

/// Generated constants include nested sets and compounds, so the oracle
/// exercises structural identity (interning, set canonicalization), not
/// just integer equality.
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

fn program_of(case: &GeneratedCase) -> Program {
    ldl1::parser::parse_program(&case.src).unwrap()
}

/// Evaluate at a pinned worker count, returning the work counters too.
fn evaluate_stats(case: &GeneratedCase, parallelism: usize) -> (Database, ldl1::EvalStats) {
    let opts = EvalOptions {
        parallelism,
        ..EvalOptions::default()
    };
    Evaluator::with_options(opts)
        .evaluate_stats(&program_of(case), &edb_of(case))
        .unwrap()
}

fn evaluate(case: &GeneratedCase, parallelism: usize) -> Database {
    evaluate_stats(case, parallelism).0
}

/// The paper's answer for `case`: §3.2 executed literally.
fn reference(case: &GeneratedCase) -> FactSet {
    reference_model(&program_of(case), &edb_of(case))
        .unwrap()
        .to_fact_set()
}

/// The model built by incremental maintenance: load the rules, insert a
/// prefix of the EDB, force a model, then commit the rest in batches so
/// delta propagation / replay actually runs.
fn incremental_model(case: &GeneratedCase) -> FactSet {
    let mut sys = System::new();
    sys.load(&case.src).unwrap();
    let split = case.edb.len() / 2;
    for (pred, args) in &case.edb[..split] {
        sys.insert(pred, args.iter().map(value_of).collect())
            .unwrap();
    }
    sys.model_facts().unwrap(); // cache a model before the commits
    for chunk in case.edb[split..].chunks(3) {
        let mut b = sys.mutate();
        for (pred, args) in chunk {
            b.assert(pred, args.iter().map(value_of).collect());
        }
        b.commit().unwrap();
    }
    sys.model_facts().unwrap()
}

/// Every relation's tuples, in insertion order — the bit-for-bit view.
/// Tuples are interned ids; within one process structurally-equal values
/// share an id, so id-level comparison is exactly structural comparison.
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

/// engine ≡ reference model, over 208 random stratified programs mixing
/// recursion, negation, grouping, and skewed EDBs: the sequential engine,
/// the parallel engine and incremental maintenance all land on the model
/// §3.2 defines, and that model satisfies every rule (§2.2).
#[test]
fn engine_matches_reference_model() {
    cases_shrink(208, 12, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);

        let seq = evaluate(&case, 1);
        let par4 = evaluate(&case, 4);
        let model = seq.to_fact_set();

        assert_eq!(model, reference(&case), "engine vs reference model");
        check_model(&program_of(&case), &model).unwrap();
        assert_eq!(model, incremental_model(&case), "one-shot vs incremental");

        // Determinism is stronger than set equality: the parallel rounds
        // must reproduce the exact insertion order of the sequential run.
        assert_eq!(
            insertion_orders(&seq),
            insertion_orders(&par4),
            "parallel(4) permuted tuple insertion order"
        );
    });
}

/// A differential system over `case`, with a cached model so every commit
/// runs maintenance (counting / DRed / replay) rather than a recompute.
fn differential_system(case: &GeneratedCase, parallelism: usize) -> System {
    let mut sys = System::with_options(EvalOptions {
        parallelism,
        ..EvalOptions::default()
    });
    sys.load(&case.src).unwrap();
    for (pred, args) in &case.edb {
        sys.insert(pred, args.iter().map(value_of).collect())
            .unwrap();
    }
    sys.model_facts().unwrap();
    sys
}

fn apply_gen_batch(sys: &mut System, batch: &[GenMutation]) {
    let mut b = sys.mutate();
    for m in batch {
        match m {
            GenMutation::Assert(p, args) => {
                b.assert(p, args.iter().map(value_of).collect());
            }
            GenMutation::Retract(p, args) => {
                b.retract(p, args.iter().map(value_of).collect());
            }
            GenMutation::Update { pred, old, new } => {
                b.update(
                    pred,
                    old.iter().map(value_of).collect(),
                    new.iter().map(value_of).collect(),
                );
            }
        }
    }
    b.commit().unwrap();
}

/// The differential-maintenance oracle: random interleavings of
/// assert/retract/update batches, committed against a live model, must land
/// on exactly the model a one-shot recompute builds from the surviving EDB
/// — which must be the reference model of that EDB, and a model (§2.2).
/// Sequential and parallel(4) maintenance must agree bit-for-bit with each
/// other — counting decrements and DRed rederivation are required to be
/// schedule-invariant, not just set-equivalent.
#[test]
fn mutation_interleavings_match_one_shot_recompute() {
    cases_shrink(208, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let batches = 1 + rng.index(4);
        let (muts, survivors) = mutation_sequence(rng, &case, batches);

        let mut seq = differential_system(&case, 1);
        let mut par = differential_system(&case, 4);
        for batch in &muts {
            apply_gen_batch(&mut seq, batch);
            apply_gen_batch(&mut par, batch);
        }

        let surviving = GeneratedCase {
            edb: survivors,
            ..case.clone()
        };
        let oracle = evaluate(&surviving, 1).to_fact_set();
        assert_eq!(
            oracle,
            reference(&surviving),
            "recompute vs reference model of the surviving EDB"
        );
        check_model(&program_of(&case), &oracle).unwrap();
        assert_eq!(
            seq.model_facts().unwrap(),
            oracle,
            "sequential maintenance diverged after {muts:?}"
        );
        assert_eq!(
            par.model_facts().unwrap(),
            oracle,
            "parallel(4) maintenance diverged after {muts:?}"
        );
        assert_eq!(
            insertion_orders(seq.model().unwrap()),
            insertion_orders(par.model().unwrap()),
            "parallel maintenance permuted tuple insertion order"
        );
    });
}

/// The magic arm of the oracle: after a churned mutation history — which
/// leaves `p0` a mixed EDB/IDB predicate whenever facts were asserted into
/// it — a magic-sets query on the top predicate must agree with the plain
/// query over the maintained model. Pins the §6 pipeline (sips → adornment
/// → rewrite with EDB-import rules → staged evaluation) over generated
/// programs, not just hand-written cases.
#[test]
fn magic_queries_agree_after_mutations() {
    cases_shrink(48, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let (muts, _) = mutation_sequence(rng, &case, 2);
        let mut sys = differential_system(&case, 1);
        for batch in &muts {
            apply_gen_batch(&mut sys, batch);
        }
        let q = format!("{}(X, Y)", case.top);
        let plain: std::collections::BTreeSet<String> = sys
            .query(&q)
            .unwrap()
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        let magic: std::collections::BTreeSet<String> = sys
            .query_magic(&q)
            .unwrap()
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        assert_eq!(plain, magic, "magic vs plain diverged on {q}");
    });
}

/// The magic evaluator runs its staged schedule on the engine's own rounds,
/// so it owes the same determinism: at 1, 4 and 8 workers the rewritten
/// program's model has identical per-relation insertion orders and costs
/// identical work — and a query with its first argument bound (to a
/// constant the EDB actually holds) answers as the plain engine does.
#[test]
fn magic_evaluation_matches_across_worker_counts() {
    cases_shrink(96, 12, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let (program, edb) = (program_of(&case), edb_of(&case));
        let q = match case.edb.iter().find(|(pred, _)| *pred == "e0") {
            Some((_, args)) => format!("{}({}, Y)", case.top, value_of(&args[0])),
            None => format!("{}(X, Y)", case.top),
        };
        let query = ldl1::parser::parse_atom(&q).unwrap();
        let mp = MagicEvaluator::compile(&program, &query).unwrap();
        let run = |parallelism: usize| {
            let opts = EvalOptions {
                parallelism,
                ..EvalOptions::default()
            };
            MagicEvaluator::with_options(opts)
                .evaluate_stats(&mp, &program, &edb)
                .unwrap()
        };
        let work = |s: &ldl1::EvalStats| (s.attempts, s.index_probes, s.dedup_inserts, s.rounds);

        let (seq, seq_stats) = run(1);
        assert_eq!(
            Evaluator::new().query(&evaluate(&case, 1), &query),
            Evaluator::new().query(&seq, &mp.query),
            "magic vs plain diverged on {q}"
        );
        let seq_orders = insertion_orders(&seq);
        for jobs in [4, 8] {
            let (par, par_stats) = run(jobs);
            assert_eq!(
                seq_orders,
                insertion_orders(&par),
                "magic schedule permuted insertion order at jobs={jobs} on {q}"
            );
            assert_eq!(
                work(&seq_stats),
                work(&par_stats),
                "magic schedule changed (attempts, index_probes, dedup_inserts, rounds) at jobs={jobs} on {q}"
            );
        }
    });
}

/// Slicing is a work-distribution choice: at 4 and 8 workers the engine
/// must reproduce the one-worker run bit for bit — identical per-relation
/// tuple insertion orders — *and* do exactly the same work. Every counter
/// below is a property of the program and the data; a slice that repeats a
/// probe or re-derives a neighbour's tuple shows up here as a difference.
#[test]
fn slicing_matches_sequential() {
    cases_shrink(208, 12, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let work = |s: &ldl1::EvalStats| {
            (
                s.attempts,
                s.index_probes,
                s.exist_cuts,
                s.dedup_inserts,
                s.rounds,
            )
        };
        let (seq, seq_stats) = evaluate_stats(&case, 1);
        let seq_orders = insertion_orders(&seq);
        for jobs in [4, 8] {
            let (par, par_stats) = evaluate_stats(&case, jobs);
            assert_eq!(
                seq_orders,
                insertion_orders(&par),
                "slicing permuted insertion order at jobs={jobs}"
            );
            assert_eq!(
                work(&seq_stats),
                work(&par_stats),
                "slicing changed (attempts, index_probes, exist_cuts, dedup_inserts, rounds) at jobs={jobs}"
            );
        }
    });
}

/// The mutation-interleaving leg of the slicing arm: differential
/// maintenance (counting decrements, DRed overdelete/rederive, replay) must
/// land tuple-for-tuple on the same state at one, four and eight workers.
#[test]
fn mutation_maintenance_matches_across_worker_counts() {
    cases_shrink(96, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let batches = 1 + rng.index(4);
        let (muts, _) = mutation_sequence(rng, &case, batches);

        let mut systems: Vec<(usize, System)> = [1usize, 4, 8]
            .into_iter()
            .map(|jobs| (jobs, differential_system(&case, jobs)))
            .collect();
        for batch in &muts {
            for (_, sys) in &mut systems {
                apply_gen_batch(sys, batch);
            }
        }
        let reference = insertion_orders(systems[0].1.model().unwrap());
        for (jobs, sys) in &mut systems[1..] {
            assert_eq!(
                reference,
                insertion_orders(sys.model().unwrap()),
                "jobs={jobs} maintenance diverged from jobs=1 after {muts:?}"
            );
        }
    });
}

/// The computed result is an actual model of the program (§2.2 truth
/// definition), independently of which engine produced it.
#[test]
fn parallel_results_are_models() {
    cases_shrink(24, 8, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let db = evaluate(&case, 4);
        check_model(&program_of(&case), &db.to_fact_set()).unwrap();
    });
}
