//! A program compiles once: its layering, plans, DRed programs and §6
//! rewrites are built per load, not per operation. The work counters say
//! so — `plan_cache_misses` and `lowerings` count what an operation was
//! the first on its program to compile and lower — and the answers stay
//! those of a fresh system and of `reference_model`.

use ldl1::eval::Compiled;
use ldl1::magic::MagicTable;
use ldl1::parser::parse_atom;
use ldl1::{
    reference_model, Database, EvalOptions, EvalStats, Evaluator, GroupingSemantics, Mutation,
    QueryAnswer, System,
};

const ANCESTOR: &str = "anc(X, Y) <- par(X, Y).\n\
                        anc(X, Y) <- par(X, Z), anc(Z, Y).";

/// The ancestor rules, a negation over their EDB, and a non-recursive
/// head DRed anchors on its first argument.
const MAINTAINED: &str = "anc(X, Y) <- par(X, Y).\n\
                          anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                          leaf(X) <- node(X), ~par(X, _).\n\
                          twice(X, P + P) <- price(X, P).";

/// A system holding `rules` and the facts of `edb`, evaluated from scratch.
fn fresh(rules: &str, edb: &Database) -> System {
    let mut sys = System::new();
    sys.load(rules).unwrap();
    let mut batch = sys.mutate();
    for p in edb.predicates() {
        for f in edb.facts_of(p) {
            batch.push(Mutation::Assert(f));
        }
    }
    batch.commit().unwrap();
    sys
}

/// `sys`'s model is the one a fresh system computes, and §3.2's.
fn assert_model_is_fresh(sys: &mut System, rules: &str) {
    let reference = reference_model(sys.program(), sys.edb()).unwrap();
    let model = sys.model_facts().unwrap();
    assert_eq!(model, reference.to_fact_set());
    assert_eq!(model, fresh(rules, sys.edb()).model_facts().unwrap());
}

/// `query`'s answers in the standard model of `sys`'s program and EDB.
fn reference_answers(sys: &System, query: &str) -> Vec<QueryAnswer> {
    let reference = reference_model(sys.program(), sys.edb()).unwrap();
    Evaluator::new().query(&reference, &parse_atom(query).unwrap())
}

fn compiled_nothing(s: &EvalStats) -> bool {
    s.lowerings == 0 && s.plan_cache_misses == 0 && s.plan_cache_hits > 0
}

/// Block `k` of the maintained EDB: a diamond `a → b, c → d → e` (two
/// paths from `a` to `d`), its nodes, and a price.
fn block(k: i64) -> String {
    let n = |i: i64| 10 * k + i;
    let mut src = String::new();
    for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
        src += &format!("par({}, {}). ", n(x), n(y));
    }
    for i in 0..5 {
        src += &format!("node({}). ", n(i));
    }
    src + &format!("price({k}, {k}).\n")
}

/// Over a stream of commits of one shape, each on its own block — cut an
/// edge of the diamond (DRed overdeletes `anc(a, d)` and `anc(a, e)`, and
/// rederives both through the other path), grow the block by an edge (the
/// delta; `leaf` replays), and reprice — the first commit plans what the
/// shape needs and every later one compiles and lowers nothing.
#[test]
fn commits_after_the_first_compile_nothing() {
    let mut sys = System::new();
    sys.load(MAINTAINED).unwrap();
    for k in 0..6 {
        sys.load(&block(k)).unwrap();
    }
    sys.model().unwrap();
    for k in 0..6 {
        let n = |i: i64| 10 * k + i;
        let mut batch = sys.mutate();
        batch
            .retract_fact(&format!("par({}, {}).", n(0), n(1)))
            .unwrap();
        batch
            .assert_fact(&format!("par({}, {}).", n(4), n(5)))
            .unwrap();
        batch
            .update_fact(
                &format!("price({k}, {k})."),
                &format!("price({k}, {}).", k + 100),
            )
            .unwrap();
        batch.commit().unwrap();
        let s = sys.last_stats();
        assert!(s.strata_dred >= 2 && s.strata_delta >= 1, "{s}");
        assert!(s.strata_replayed >= 1, "{s}");
        if k == 0 {
            assert!(s.plan_cache_misses > 0 && s.lowerings > 0, "{s}");
        } else {
            assert!(compiled_nothing(&s), "commit {k}: {s}");
        }
        assert_model_is_fresh(&mut sys, MAINTAINED);
    }
}

/// A forest of `anc` chains with one cycle, `2 → 3 → 2`.
fn forest() -> String {
    let mut src = String::from(ANCESTOR);
    src += "\npar(3, 2).\n";
    for c in 0..4 {
        for i in 0..5 {
            src += &format!("par({}, {}).\n", 10 * c + i, 10 * c + i + 1);
        }
    }
    src
}

/// Queries of one form — one predicate, one binding pattern — rewrite and
/// plan once: every later one, whatever its constants, compiles and lowers
/// nothing. Forms that differ in adornment or in their repeated variables
/// are entries of their own. Every answer is the reference's.
#[test]
fn a_query_form_compiles_once() {
    let mut sys = System::new();
    sys.load(&forest()).unwrap();
    let compiled = Compiled::new(sys.program().clone()).unwrap();
    let (table, opts) = (MagicTable::default(), EvalOptions::default());
    let ask = |query: &str| {
        let atom = parse_atom(query).unwrap();
        let form = table.form(&compiled, &atom).unwrap();
        let (answers, stats) = form.answer(&atom, sys.edb(), &opts).unwrap();
        assert_eq!(answers, reference_answers(&sys, query), "{query}");
        stats
    };
    for (i, c) in [0, 10, 2, 33, 41].into_iter().enumerate() {
        let s = ask(&format!("anc({c}, Y)"));
        assert_eq!(i == 0, !compiled_nothing(&s), "anc({c}, Y): {s}");
    }
    // Another adornment, and two free forms told apart by their repeated
    // variable: three more entries, each compiled by its first query.
    for (query, known) in [
        ("anc(X, 4)", false),
        ("anc(X, 13)", true),
        ("anc(X, X)", false),
        ("anc(Y, Y)", true),
        ("anc(X, Y)", false),
        ("anc(Y, X)", true),
        ("anc(0, Y)", true),
    ] {
        let s = ask(query);
        assert_eq!(compiled_nothing(&s), known, "{query}: {s}");
    }
}

/// The bill of materials (§1): grouping, sets and negation-free recursion
/// through `partition`. Every `result` query of the form `result'bf` after
/// the first reuses its rewrite and plans, and answers as `reference_model`
/// does.
#[test]
fn bill_of_materials_queries_reuse_their_form() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../programs/bill_of_materials.ldl"
    ))
    .unwrap();
    let rules: String = src
        .lines()
        .filter(|l| !l.starts_with("?-"))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut sys = System::new();
    sys.load(&rules).unwrap();
    let compiled = Compiled::new(sys.program().clone()).unwrap();
    let (table, opts) = (MagicTable::default(), EvalOptions::default());
    for (i, part) in [1, 2, 3, 7, 1].into_iter().enumerate() {
        let query = format!("result({part}, C)");
        let atom = parse_atom(&query).unwrap();
        let form = table.form(&compiled, &atom).unwrap();
        let (answers, s) = form.answer(&atom, sys.edb(), &opts).unwrap();
        assert_eq!(answers, reference_answers(&sys, &query), "{query}");
        assert_eq!(sys.query_magic(&query).unwrap(), answers, "{query}");
        assert_eq!(i == 0, !compiled_nothing(&s), "{query}: {s}");
    }
}

/// `System::query_magic` and the magic arm of `System::query` share the
/// system's forms, and so do its clones: a query of a form `query_magic`
/// already answered compiles nothing, one of another adornment does.
#[test]
fn query_magic_and_the_magic_arm_share_forms_with_clones() {
    let mut sys = System::new();
    sys.load(&forest()).unwrap();
    assert_eq!(
        sys.query_magic("anc(0, Y)").unwrap(),
        reference_answers(&sys, "anc(0, Y)")
    );
    for (query, known) in [("anc(21, Y)", true), ("anc(X, 3)", false)] {
        let mut clone = sys.clone();
        assert!(clone.explain_query(query).unwrap().contains(": magic "));
        assert_eq!(clone.query(query).unwrap(), reference_answers(&sys, query));
        let s = clone.last_stats();
        assert_eq!(compiled_nothing(&s), known, "{query}: {s}");
    }
    // The clone that took the second form shared it with `sys`.
    let mut again = sys.clone();
    again.query("anc(X, 5)").unwrap();
    assert!(compiled_nothing(&again.last_stats()));
}

/// New rules, or another grouping semantics, are a new program: the next
/// query plans and rewrites afresh and answers as a fresh system does,
/// never from a stale plan or rewrite. A clone that loads rules leaves the
/// original's program as it was.
#[test]
fn a_new_program_compiles_afresh() {
    let mut sys = System::new();
    sys.load(&forest()).unwrap();
    sys.query_magic("anc(0, Y)").unwrap();
    sys.model().unwrap();
    let clone = sys.clone();

    let more = "anc(X, Y) <- jump(X, Y).\njump(0, 30).";
    sys.load(more).unwrap();
    let rules = format!("{}\n{more}", forest());
    // The form `anc(0, Y)` was compiled for the old program: the magic
    // arm compiles it again, for the new one.
    let answers = sys.query("anc(0, Y)").unwrap();
    assert!(!compiled_nothing(&sys.last_stats()));
    assert_eq!(answers, reference_answers(&sys, "anc(0, Y)"));
    assert!(answers.iter().any(|a| a.to_string() == "Y = 30"));
    for query in ["anc(0, Y)", "anc(X, 30)"] {
        let want = fresh(&rules, &Database::new()).query_magic(query).unwrap();
        assert_eq!(sys.query_magic(query).unwrap(), want, "{query}");
        assert_eq!(want, reference_answers(&sys, query), "{query}");
    }
    assert_model_is_fresh(&mut sys, &rules);

    // The clone kept the program it was cloned with.
    let old = clone.query_magic("anc(0, Y)").unwrap();
    assert_eq!(old, reference_answers(&clone, "anc(0, Y)"));
    assert!(old.iter().all(|a| a.to_string() != "Y = 30"));

    // (ii) and (ii)′ differ on nested groupings (§4.2).
    let nested = "out(T, <h(S, <D>)>) <- r(T, S, D).\n\
                  r(t1, s1, d1). r(t2, s1, d2).";
    let mut sys = System::new();
    sys.load(nested).unwrap();
    let per_group = sys.query_magic("out(t1, G)").unwrap();
    assert_eq!(per_group[0].to_string(), "G = {h(s1, {d1, d2})}");
    sys.set_grouping_semantics(GroupingSemantics::WithContext)
        .unwrap();
    let mut scoped = System::new();
    scoped
        .set_grouping_semantics(GroupingSemantics::WithContext)
        .unwrap();
    scoped.load(nested).unwrap();
    let want = scoped.query_magic("out(t1, G)").unwrap();
    assert_eq!(want[0].to_string(), "G = {h(s1, {d1})}");
    // The magic arm's form was compiled under (ii): it is compiled again.
    assert_eq!(sys.query("out(t1, G)").unwrap(), want);
    assert!(!compiled_nothing(&sys.last_stats()));
    assert_eq!(sys.query_magic("out(t1, G)").unwrap(), want);
    let reference = reference_model(sys.program(), sys.edb()).unwrap();
    assert_eq!(sys.model_facts().unwrap(), reference.to_fact_set());
}
