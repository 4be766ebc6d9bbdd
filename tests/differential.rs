//! The differential test oracle: on random stratified programs the engine
//! must compute the model the paper defines, however the model was reached.
//!
//! The reference is [`ldl1::reference_model`] — §3.2 executed literally:
//! stratify, then per layer apply every rule to the same database until
//! nothing is added, through a tree-walking interpreter over plans ordered
//! by the engine's own rule — together with [`ldl1::check_model`], the §2.2
//! truth definition. Neither shares the engine's register programs,
//! existential tails, delta frontiers or maintenance
//! algorithms, so a bug in any of those shows up as a divergence here, and
//! the [`ldl_testkit::cases_shrink`] driver reports the minimal failing
//! program/EDB size for the offending seed. The arms:
//!
//! * engine ≡ reference model, and the engine's result is a model, on every
//!   generated program (skewed EDBs included — see [`ldl_testkit::gen`]);
//! * incremental maintenance (delta seeding, replay) reaches
//!   the same model as a one-shot evaluation;
//! * random assert/retract/update histories (delta, DRed, replay) end on
//!   the reference model of the surviving EDB — and with a `Reader`
//!   attached, every snapshot published along the way is the writer's model;
//! * magic-sets answers ≡ plain answers, and `System::query` ≡
//!   `query_magic` ≡ the reference model's answers whichever arm the query
//!   takes on a cold system (magic sets for a bound query, the model for an
//!   unbound one).

use ldl1::{
    check_model, reference_model, Database, Evaluator, FactSet, MagicEvaluator, Program, System,
    Value,
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

fn evaluate(case: &GeneratedCase) -> Database {
    Evaluator::new()
        .evaluate(&program_of(case), &edb_of(case))
        .unwrap()
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

/// engine ≡ reference model, over 208 random stratified programs mixing
/// recursion, negation, grouping, and skewed EDBs: one-shot evaluation and
/// incremental maintenance both land on the model §3.2 defines, and that
/// model satisfies every rule (§2.2).
#[test]
fn engine_matches_reference_model() {
    cases_shrink(208, 12, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);

        let model = evaluate(&case).to_fact_set();

        assert_eq!(model, reference(&case), "engine vs reference model");
        check_model(&program_of(&case), &model).unwrap();
        assert_eq!(model, incremental_model(&case), "one-shot vs incremental");
    });
}

/// `case` loaded into a fresh system that has evaluated nothing.
fn cold_system(case: &GeneratedCase) -> System {
    let mut sys = System::new();
    sys.load(&case.src).unwrap();
    for (pred, args) in &case.edb {
        sys.insert(pred, args.iter().map(value_of).collect())
            .unwrap();
    }
    sys
}

/// A differential system over `case`, with a cached model so every commit
/// runs maintenance (delta / DRed / replay) rather than a recompute.
fn differential_system(case: &GeneratedCase) -> System {
    let mut sys = cold_system(case);
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
#[test]
fn mutation_interleavings_match_one_shot_recompute() {
    cases_shrink(208, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let batches = 1 + rng.index(4);
        let (muts, survivors) = mutation_sequence(rng, &case, batches);

        let mut sys = differential_system(&case);
        for batch in &muts {
            apply_gen_batch(&mut sys, batch);
        }

        let surviving = GeneratedCase {
            edb: survivors,
            ..case.clone()
        };
        let oracle = evaluate(&surviving).to_fact_set();
        assert_eq!(
            oracle,
            reference(&surviving),
            "recompute vs reference model of the surviving EDB"
        );
        check_model(&program_of(&case), &oracle).unwrap();
        assert_eq!(
            sys.model_facts().unwrap(),
            oracle,
            "maintenance diverged after {muts:?}"
        );
    });
}

/// The same histories with a `Reader` attached. A commit then publishes by
/// replaying its change log onto the snapshot it replaces — after delta,
/// DRed and replayed strata alike, and debug builds compare the caught-up
/// copy with the published one each time — and what a reader sees after
/// every commit is the model the writer holds.
#[test]
fn published_snapshots_follow_mutation_interleavings() {
    let replays = std::cell::Cell::new(0);
    cases_shrink(96, 10, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let batches = 1 + rng.index(4);
        let (muts, _) = mutation_sequence(rng, &case, batches);

        let mut sys = differential_system(&case);
        let reader = sys.reader().unwrap();
        for batch in &muts {
            let before = reader.epoch();
            apply_gen_batch(&mut sys, batch);
            if reader.epoch() > before {
                replays.set(replays.get() + sys.last_stats().publish_replays);
            }
            let model = sys.model_facts().unwrap();
            let snap = reader.latest();
            assert_eq!(snap.num_facts(), model.len(), "after {batch:?}");
            let mut preds: Vec<String> = model.iter().map(|f| f.pred().to_string()).collect();
            preds.sort();
            preds.dedup();
            for pred in preds {
                let of_pred = model.iter().filter(|f| f.pred().to_string() == pred);
                let mut facts: Vec<_> = of_pred.cloned().collect();
                facts.sort();
                assert_eq!(snap.facts(&pred), facts, "{pred} after {batch:?}");
            }
        }
    });
    assert!(replays.get() > 0, "no commit took the replay arm");
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
        let mut sys = differential_system(&case);
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

/// A magic-sets query with its first argument bound (to a constant the EDB
/// actually holds) — the case §6 is about — answers as the plain engine
/// does, on the cold path: rewritten program evaluated over the raw EDB.
#[test]
fn magic_evaluation_matches_plain_on_bound_queries() {
    cases_shrink(96, 12, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let (program, edb) = (program_of(&case), edb_of(&case));
        let q = match case.edb.iter().find(|(pred, _)| *pred == "e0") {
            Some((_, args)) => format!("{}({}, Y)", case.top, value_of(&args[0])),
            None => format!("{}(X, Y)", case.top),
        };
        let query = ldl1::parser::parse_atom(&q).unwrap();
        let mp = MagicEvaluator::compile(&program, &query).unwrap();
        let magic = MagicEvaluator::new().evaluate(&mp, &program, &edb).unwrap();
        assert_eq!(
            Evaluator::new().query(&evaluate(&case), &query),
            Evaluator::new().query(&magic, &mp.query),
            "magic vs plain diverged on {q}"
        );
    });
}

/// `System::query` picks its arm itself, and every arm answers what the
/// paper's model does. On a cold system a bound `top(c, Y)` runs §6 magic
/// sets (where the rules admit a sip for it) and an unbound `top(X, Y)`
/// builds the model; both ≡ `query_magic` ≡ the reference model's answers.
/// The second bound query buys the model (rent-or-buy): the commit after it
/// is maintained, which only a cached model is.
///
/// Also counted: bound queries whose rewrite reuses an earlier positive
/// literal's adornment for a negated one. The generator's only negated IDB
/// literal, `~p(Y, X)` after `p(X, Y)`, swaps the bound term, so none does;
/// `tests/magic.rs` holds the hand-written case. And magic-arm queries
/// whose rewrite has a delta pass that runs its rule's full plan in place
/// (the bill of materials' `partition` rules are the hand-written case).
#[test]
fn query_arms_match_reference_model() {
    let (magic_arm, reused) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    let in_place = std::cell::Cell::new(0);
    cases_shrink(208, 12, |rng: &mut Rng, size: u32| {
        let case = stratified_case(rng, size);
        let (program, edb) = (program_of(&case), edb_of(&case));
        let reference = reference_model(&program, &edb).unwrap();
        let c = case
            .edb
            .iter()
            .find(|(pred, _)| *pred == "e0")
            .map_or(Value::int(0), |(_, args)| value_of(&args[0]));
        let bound = format!("{}({c}, Y)", case.top);
        let unbound = format!("{}(X, Y)", case.top);
        for (q, asks) in [(&bound, 2), (&unbound, 1)] {
            let atom = ldl1::parser::parse_atom(q).unwrap();
            let expected = Evaluator::new().query(&reference, &atom);
            let mut sys = cold_system(&case);
            let arm = sys.explain_query(q).unwrap();
            if arm.contains(": magic ") {
                magic_arm.set(magic_arm.get() + 1);
                let mp = MagicEvaluator::compile(&program, &atom).unwrap();
                in_place.set(in_place.get() + usize::from(runs_a_pass_in_place(&mp.program)));
            }
            for _ in 0..asks {
                assert_eq!(sys.query(q).unwrap(), expected, "{q} via {arm}");
                // The query's evaluation — magic sets, or the model it
                // built — ran every plan it compiled, and lowered each once.
                let s = sys.last_stats();
                assert_eq!(s.lowerings, s.plan_cache_misses, "{q} via {arm}: {s}");
            }
            assert_eq!(sys.query_magic(q).unwrap(), expected, "query_magic {q}");
            sys.insert("e0", vec![Value::int(-1), Value::int(-1)])
                .unwrap();
            let s = sys.last_stats();
            assert!(
                s.strata_delta + s.strata_dred + s.strata_replayed + s.strata_skipped > 0,
                "no model cached after {asks} × {q}: {s}"
            );
        }
        let bound = ldl1::parser::parse_atom(&bound).unwrap();
        let adorned = ldl1::magic::adorn::adorn_program(&program, &bound).unwrap();
        reused.set(reused.get() + usize::from(adorned.negations_reused > 0));
    });
    eprintln!(
        "query arms: {} of 208 bound queries took the magic arm, {} reused a negated adornment, \
         {} ran a delta pass in place",
        magic_arm.get(),
        reused.get(),
        in_place.get()
    );
    assert!(magic_arm.get() > 0, "no bound query took the magic arm");
    let bom = ldl1::parser::parse_program(
        "tc({X}, C) <- q(X, C).\n\
         tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, tc(S1, C1), tc(S2, C2), +(C1, C2, C).",
    )
    .unwrap();
    let tc = ldl1::parser::parse_atom("tc({1, 2}, C)").unwrap();
    let mp = MagicEvaluator::compile(&bom, &tc).unwrap();
    assert!(runs_a_pass_in_place(&mp.program), "{}", mp.program);
}

/// Does a delta pass of the magic-rewritten `program` run its rule's full
/// plan in place? The magic evaluator's delta passes are the positive
/// literals over rule heads in its base rules — no grouping head, no
/// negated relation literal — planned without statistics; one runs in
/// place when its delta-first variant rescans what the full plan scans
/// first.
fn runs_a_pass_in_place(program: &Program) -> bool {
    use ldl1::ast::program::Builtin;
    use ldl1::eval::plan::RulePlan;
    let heads: std::collections::HashSet<_> = program.rules.iter().map(|r| r.head.pred).collect();
    program
        .rules
        .iter()
        .filter(|rule| {
            rule.head.simple_group_positions().is_empty()
                && rule
                    .body
                    .iter()
                    .all(|l| l.positive || Builtin::resolve(l.atom.pred, l.atom.arity()).is_some())
        })
        .any(|rule| {
            let full = RulePlan::compile(rule, None).unwrap();
            (0..rule.body.len()).any(|occ| {
                let l = &rule.body[occ];
                l.positive
                    && heads.contains(&l.atom.pred)
                    && RulePlan::compile(rule, Some(occ))
                        .unwrap()
                        .rescans_first_scan_of(&full)
            })
        })
}
