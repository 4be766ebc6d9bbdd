//! One-shot reproduction harness: prints the paper-section experiment
//! series from DESIGN.md's index (P1, P2, P4–P8, P10) as markdown tables —
//! the source of EXPERIMENTS.md's measured columns.
//!
//! Run with: `cargo run --release -p ldl-bench --bin reproduce`
//! (append an experiment id, e.g. `P1`, to run a single one).

use std::time::{Duration, Instant};

use ldl1::transform::lps::{translate_lps, LpsRule};
use ldl1::transform::neg_elim::eliminate_negation;
use ldl1::{Database, Stratification, Value};
use ldl_bench::*;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn time(mut f: impl FnMut()) -> Duration {
    let runs = 3;
    let mut out = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f();
        out.push(t.elapsed());
    }
    median(out)
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn ratio(a: Duration, b: Duration) -> String {
    format!("{:.1}x", a.as_secs_f64() / b.as_secs_f64().max(1e-12))
}

fn chain_with_nodes(n: i64) -> Database {
    let mut db = chain(n);
    for i in 0..=n {
        db.insert_tuple("node", vec![Value::int(i)]);
    }
    db
}

fn p1() {
    println!("\n## P1 — §6 young query: magic vs plain bottom-up (ms, median of 3)\n");
    println!("| persons | plain | magic | plain/magic |");
    println!("|---|---|---|---|");
    for depth in [3u32, 4, 5] {
        let (db, leaf) = family_forest(4, depth);
        let query = format!("young({leaf}, S)");
        let persons = 4 * ((1usize << (depth + 1)) - 1);
        let t_magic = time(|| {
            magic_query(YOUNG, &db, &query);
        });
        let t_plain = time(|| {
            plain_query(YOUNG, &db, &query);
        });
        println!(
            "| {persons} | {} | {} | {} |",
            ms(t_plain),
            ms(t_magic),
            ratio(t_plain, t_magic)
        );
    }
}

fn p2() {
    println!("\n## P2 — bound transitive closure: magic vs plain (ms)\n");
    println!("(`System::query`: the first query of a cold system, which picks");
    println!("its own arm — the magic one for every row here.)\n");
    println!("| workload | plain | magic | speedup | `System::query` |");
    println!("|---|---|---|---|---|");
    let row = |label: String, db: &Database, q: &str| {
        let tp = time(|| {
            plain_query(ANCESTOR, db, q);
        });
        let tm = time(|| {
            magic_query(ANCESTOR, db, q);
        });
        let sys = cold_system(ANCESTOR, db);
        let ts = time(|| {
            sys.clone().query(q).expect("query answers");
        });
        println!(
            "| {label} | {} | {} | {} | {} |",
            ms(tp),
            ms(tm),
            ratio(tp, tm),
            ms(ts)
        );
    };
    for n in [100i64, 300, 600] {
        row(
            format!("chain n={n}"),
            &chain(n),
            &format!("anc({}, Y)", n / 2),
        );
    }
    for depth in [8u32, 10] {
        row(
            format!("tree depth={depth}"),
            &binary_tree(depth),
            "anc(2, Y)",
        );
    }
    for &(n, e) in &[(200i64, 150usize), (200, 400)] {
        row(
            format!("random {n}n/{e}e"),
            &random_graph(n, e, 7),
            "anc(0, Y)",
        );
    }
}

fn p4() {
    println!("\n## P4 — §1 bill of materials: grouping + set recursion (ms)\n");
    println!("(`tc` holds for *every* set of part ids, so the full model is");
    println!("exponential in the part count — the program is meant to be run");
    println!("query-driven. We measure the magic-compiled `result(root, C)`");
    println!("query, with full evaluation only at the paper-scale instance.)\n");
    println!("| depth | branching | facts | full model | magic query |");
    println!("|---|---|---|---|---|");
    for (depth, branching) in [
        (2u32, 2i64),
        (3, 2),
        (4, 2),
        (5, 2),
        (6, 2),
        (7, 2),
        (8, 2),
        (2, 3),
    ] {
        let db = bom(depth, branching);
        let tm = time(|| {
            magic_query(BOM, &db, "result(1, C)");
        });
        let tf = if db.num_facts() <= 12 {
            ms(time(|| {
                eval(BOM, &db);
            }))
        } else {
            "— (exp.)".into()
        };
        println!(
            "| {depth} | {branching} | {} | {tf} | {} |",
            db.num_facts(),
            ms(tm)
        );
    }
}

fn p5() {
    println!("\n## P5 — stratified negation: excl_ancestor (ms)\n");
    println!("| chain n | time |");
    println!("|---|---|");
    for n in [20i64, 40, 80] {
        let db = chain_with_nodes(n);
        let t = time(|| {
            eval(EXCL_ANCESTOR, &db);
        });
        println!("| {n} | {} |", ms(t));
    }
}

fn p6() {
    println!("\n## P6 — §3.3 ablation: native negation vs grouping-compiled (ms)\n");
    println!("| chain n | native | compiled | compiled/native |");
    println!("|---|---|---|---|");
    let positive = {
        let p = ldl1::parser::parse_program(EXCL_ANCESTOR).unwrap();
        eliminate_negation(&p).unwrap()
    };
    for n in [20i64, 40, 80] {
        let db = chain_with_nodes(n);
        let tn = time(|| {
            eval(EXCL_ANCESTOR, &db);
        });
        let tc = time(|| {
            eval_program(&positive, &db);
        });
        println!("| {n} | {} | {} | {} |", ms(tn), ms(tc), ratio(tc, tn));
    }
}

fn p7() {
    println!("\n## P7 — §5 ablation: subset built-in vs LPS translation (ms)\n");
    println!("| pairs | set size | native | translated | translated/native |");
    println!("|---|---|---|---|---|");
    let native = "sub(X, Y) <- pair(X, Y), subset(X, Y).";
    let translated = {
        let rule = LpsRule {
            head: ldl1::parser::parse_atom("sub(X, Y)").unwrap(),
            domain: vec![ldl1::ast::literal::Literal::pos(
                ldl1::parser::parse_atom("pair(X, Y)").unwrap(),
            )],
            quantifiers: vec![("E".into(), "X".into())],
            body: vec![ldl1::ast::literal::Literal::pos(
                ldl1::parser::parse_atom("member(E, Y)").unwrap(),
            )],
        };
        translate_lps(&[rule]).unwrap()
    };
    for (pairs, size) in [(50i64, 4i64), (200, 4), (50, 8)] {
        let mut db = Database::new();
        for i in 0..pairs {
            // Distinct pairs: offset every element by a per-pair stride.
            let x = Value::set((0..size).map(|k| Value::int(i * 100 + k * 2)));
            let y = Value::set((0..size + 2).map(|k| Value::int(i * 100 + k)));
            db.insert_tuple("pair", vec![x, y]);
        }
        let tn = time(|| {
            eval(native, &db);
        });
        let tt = time(|| {
            eval_program(&translated, &db);
        });
        println!(
            "| {pairs} | {size} | {} | {} | {} |",
            ms(tn),
            ms(tt),
            ratio(tt, tn)
        );
    }
}

fn p8() {
    println!("\n## P8 — §1 book_deal set enumeration (ms)\n");
    println!("| books | deals | time |");
    println!("|---|---|---|");
    for n in [10usize, 20, 40] {
        let db = books(n, 99);
        let deals = {
            let m = eval(BOOK_DEAL, &db);
            m.relation("book_deal".into()).map_or(0, |r| r.len())
        };
        let t = time(|| {
            eval(BOOK_DEAL, &db);
        });
        println!("| {n} | {deals} | {} |", ms(t));
    }
}

fn p10() {
    println!("\n## P10 — stratifier scaling (ms)\n");
    println!("| rules | time |");
    println!("|---|---|");
    for (layers, width) in [(10usize, 10usize), (50, 10), (100, 20), (200, 20)] {
        let src = layered_program(layers, width);
        let program = ldl1::parser::parse_program(&src).unwrap();
        let rules = program.len();
        let t = time(|| {
            Stratification::canonical(&program).unwrap();
        });
        println!("| {rules} | {} |", ms(t));
    }
}

fn main() {
    let only: Option<String> = std::env::args().nth(1).map(|s| s.to_uppercase());
    let run = |id: &str| only.as_deref().is_none_or(|o| o == id);
    println!("# Experiment reproduction run");
    if run("P1") {
        p1();
    }
    if run("P2") {
        p2();
    }
    if run("P4") {
        p4();
    }
    if run("P5") {
        p5();
    }
    if run("P6") {
        p6();
    }
    if run("P7") {
        p7();
    }
    if run("P8") {
        p8();
    }
    if run("P10") {
        p10();
    }
}
