#![warn(missing_docs)]

//! Workload generators and the programs under test.
//!
//! `src/bin/reproduce.rs` builds the paper-section experiment series of
//! `DESIGN.md`'s index (P1, P2, P4–P8, P10) from these generators and
//! regenerates their `EXPERIMENTS.md` tables in one shot. Engine
//! performance is measured by the end-to-end harness in `benchmark/`.
//!
//! The paper has no quantitative evaluation to match number-for-number; the
//! workloads here are synthetic families of the *shapes* its programs are
//! about — chains, trees and random graphs for transitive closure, family
//! forests for the §6 `young` query, part hierarchies for the §1
//! bill-of-materials program, price lists for `book_deal`.

use ldl1::{Database, Value};
use ldl_testkit::Rng;

/// The §1 ancestor program.
pub const ANCESTOR: &str = "anc(X, Y) <- par(X, Y).\n\
                            anc(X, Y) <- par(X, Z), anc(Z, Y).";

/// The §1 exclusive-ancestor program (stratified negation).
pub const EXCL_ANCESTOR: &str = "anc(X, Y) <- par(X, Y).\n\
                                 anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                                 excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).";

/// The §6 running example.
pub const YOUNG: &str = "a(X, Y) <- p(X, Y).\n\
                         a(X, Y) <- a(X, Z), a(Z, Y).\n\
                         sg(X, Y) <- siblings(X, Y).\n\
                         sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n\
                         young(X, <Y>) <- ~a(X, _), sg(X, Y).";

/// The §1 bill-of-materials program.
pub const BOM: &str = "part(P, <S>) <- p(P, S).\n\
                       tc({X}, C) <- q(X, C).\n\
                       tc({X}, C) <- part(X, S), tc(S, C).\n\
                       tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                                   tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
                       result(X, C) <- tc({X}, C).";

/// The §1 book_deal program.
pub const BOOK_DEAL: &str = "book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), \
                             book(Z, Pz), Px + Py + Pz < 100.";

/// A chain `0 → 1 → … → n` as a `par` EDB.
pub fn chain(n: i64) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.insert_tuple("par", vec![Value::int(i), Value::int(i + 1)]);
    }
    db
}

/// A complete binary tree of the given depth as a `par` EDB (node ids are
/// heap-indexed integers).
pub fn binary_tree(depth: u32) -> Database {
    let mut db = Database::new();
    let n = (1i64 << depth) - 1;
    for i in 1..=n {
        if 2 * i <= n {
            db.insert_tuple("par", vec![Value::int(i), Value::int(2 * i)]);
        }
        if 2 * i < n {
            db.insert_tuple("par", vec![Value::int(i), Value::int(2 * i + 1)]);
        }
    }
    db
}

/// A seeded random `par` graph with `n` nodes and `e` edges, plus a `node`
/// relation listing all nodes (for the negation workloads).
pub fn random_graph(n: i64, e: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let mut db = Database::new();
    for i in 0..n {
        db.insert_tuple("node", vec![Value::int(i)]);
    }
    for _ in 0..e {
        let a = rng.range(0, n);
        let b = rng.range(0, n);
        db.insert_tuple("par", vec![Value::int(a), Value::int(b)]);
    }
    db
}

/// A forest of `roots` complete binary family trees of the given depth,
/// with `p` (parent) and `siblings` relations — the §6 workload. Returns
/// the database and the name of one childless leaf to query.
pub fn family_forest(roots: usize, depth: u32) -> (Database, String) {
    let mut db = Database::new();
    let mut id = 0usize;
    let mut a_leaf = String::new();
    for r in 0..roots {
        let mut level = vec![format!("r{r}")];
        for _ in 0..depth {
            let mut next = Vec::new();
            for node in &level {
                let (a, b) = (format!("n{id}"), format!("n{}", id + 1));
                id += 2;
                db.insert_tuple("p", vec![Value::atom(node), Value::atom(&a)]);
                db.insert_tuple("p", vec![Value::atom(node), Value::atom(&b)]);
                db.insert_tuple("siblings", vec![Value::atom(&a), Value::atom(&b)]);
                db.insert_tuple("siblings", vec![Value::atom(&b), Value::atom(&a)]);
                next.push(a);
                next.push(b);
            }
            level = next;
        }
        a_leaf = level[0].clone();
    }
    (db, a_leaf)
}

/// A part hierarchy for the bill-of-materials program: a tree of aggregate
/// parts of the given depth and branching factor, leaf `i` priced `i % 97 + 1`.
/// `partition` enumerates all 2^b splits of a b-part set only where just
/// the whole set is bound (the magic rule that seeds the parts, and the
/// full plan of the `tc` rule); with a part bound it is a check. So the
/// branching factor still multiplies the work per set — the paper's example
/// uses 2.
pub fn bom(depth: u32, branching: i64) -> Database {
    let mut db = Database::new();
    let mut next_id = 2i64;
    let mut frontier = vec![(1i64, 0u32)];
    while let Some((part, d)) = frontier.pop() {
        if d == depth {
            db.insert_tuple("q", vec![Value::int(part), Value::int(part % 97 + 1)]);
            continue;
        }
        for _ in 0..branching {
            let child = next_id;
            next_id += 1;
            db.insert_tuple("p", vec![Value::int(part), Value::int(child)]);
            frontier.push((child, d + 1));
        }
    }
    db
}

/// `n` books with seeded pseudo-random prices in 10..=60.
pub fn books(n: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let mut db = Database::new();
    for i in 0..n {
        db.insert_tuple(
            "book",
            vec![Value::atom(&format!("b{i}")), Value::int(rng.range(10, 61))],
        );
    }
    db
}

/// A synthetic layered program for the stratifier benchmark: `layers`
/// strata of `width` predicates each, every predicate depending on two
/// predicates of the stratum below (one negated, forcing strictness).
pub fn layered_program(layers: usize, width: usize) -> String {
    let mut out = String::new();
    for w in 0..width {
        out.push_str(&format!("p0_{w}(X) <- e(X).\n"));
    }
    for l in 1..layers {
        for w in 0..width {
            let below = l - 1;
            let other = (w + 1) % width;
            out.push_str(&format!(
                "p{l}_{w}(X) <- p{below}_{w}(X), ~p{below}_{other}(X).\n"
            ));
        }
    }
    out
}

/// Evaluate `src` over `db`, returning the model.
pub fn eval(src: &str, db: &Database) -> Database {
    let program = ldl1::parser::parse_program(src).expect("benchmark program parses");
    eval_program(&program, db)
}

/// Evaluate an already-built program (e.g. the output of a source
/// transformation, whose generated names deliberately do not re-parse).
pub fn eval_program(program: &ldl1::Program, db: &Database) -> Database {
    ldl1::Evaluator::new()
        .evaluate(program, db)
        .expect("benchmark program evaluates")
}

/// Answer `query` by full bottom-up evaluation, then matching.
pub fn plain_query(src: &str, db: &Database, query: &str) -> Vec<ldl1::QueryAnswer> {
    let program = ldl1::parser::parse_program(src).expect("benchmark program parses");
    let ev = ldl1::Evaluator::new();
    let m = ev
        .evaluate(&program, db)
        .expect("benchmark program evaluates");
    ev.query(&m, &ldl1::parser::parse_atom(query).expect("query parses"))
}

/// Answer `query` through the §6 magic-set pipeline.
pub fn magic_query(src: &str, db: &Database, query: &str) -> Vec<ldl1::QueryAnswer> {
    let program = ldl1::parser::parse_program(src).expect("benchmark program parses");
    ldl1::MagicEvaluator::new()
        .query(
            &program,
            db,
            &ldl1::parser::parse_atom(query).expect("query parses"),
        )
        .expect("magic evaluation succeeds")
}

/// A system that has loaded `src` and `db` and evaluated nothing: its first
/// `query` picks its own arm, as a user's cold session does.
pub fn cold_system(src: &str, db: &Database) -> ldl1::System {
    let mut sys = ldl1::System::new();
    sys.load(src).expect("benchmark program loads");
    let mut batch = sys.mutate();
    for f in db.to_fact_set() {
        batch.push(ldl1::Mutation::Assert(f));
    }
    batch.commit().expect("benchmark facts commit");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl1::System;

    #[test]
    fn generators_produce_valid_workloads() {
        assert_eq!(chain(10).num_facts(), 10);
        assert_eq!(binary_tree(3).num_facts(), 6);
        let (db, leaf) = family_forest(2, 3);
        assert!(db.num_facts() > 0);
        assert!(leaf.starts_with('n'));
        assert!(bom(2, 2).num_facts() >= 6);
        assert_eq!(books(5, 1).num_facts(), 5);
        let g = random_graph(10, 20, 42);
        assert_eq!(
            g.num_facts(),
            10 + g.relation("par".into()).map_or(0, |r| r.len())
        );
    }

    #[test]
    fn programs_run_on_generated_workloads() {
        // Each (program, workload) pair used by the benches actually
        // evaluates.
        let mut sys = System::new();
        sys.load(ANCESTOR).unwrap();
        for f in chain(20).to_fact_set() {
            sys.insert(&f.pred().to_string(), f.args().to_vec())
                .unwrap();
        }
        assert_eq!(sys.query("anc(0, Y)").unwrap().len(), 20);

        let mut sys = System::new();
        sys.load(YOUNG).unwrap();
        let (db, leaf) = family_forest(1, 3);
        for f in db.to_fact_set() {
            sys.insert(&f.pred().to_string(), f.args().to_vec())
                .unwrap();
        }
        let ans = sys.query(&format!("young({leaf}, S)")).unwrap();
        assert_eq!(ans.len(), 1);

        let mut sys = System::new();
        sys.load(BOM).unwrap();
        for f in bom(2, 2).to_fact_set() {
            sys.insert(&f.pred().to_string(), f.args().to_vec())
                .unwrap();
        }
        assert!(!sys.query("result(1, C)").unwrap().is_empty());
    }

    #[test]
    fn layered_program_stratifies() {
        let src = layered_program(5, 3);
        let p = ldl1::parser::parse_program(&src).unwrap();
        let s = ldl1::Stratification::canonical(&p).unwrap();
        assert_eq!(s.num_layers(), 5);
    }
}
