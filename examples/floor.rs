//! Same-process floors: the engine against a hand-written loop on the same
//! data, run interleaved, so their ratio does not move with the host's
//! speed. Each shape asserts that the two answers are equal.
//!
//! Shapes:
//!
//! * `atoms` — §2.2 grouping of atoms: `g(X, <Y>) <- r(X, Y).` over
//!   atom-valued `X` and `Y`, against a `BTreeMap<String, BTreeSet<String>>`
//!   filled from the same pairs. Every set the engine builds is sorted by
//!   name, so this shape times the name reads of the set order.
//! * `point` — a `snapshot_reads` read: `Reader::latest().query("anc(k,
//!   Y)")` for every chain root `k` of a forest of `--size` chains (default
//!   1 000) of 10 edges under the ancestor program, against a probe of the
//!   `anc[0]` index of the writer's copy of that model (the same facts and
//!   indexes) through the `Relation` API, `int_of` on each row and a sort.
//!   It times what a read costs beyond its index probe: the parse, the
//!   access path and the answers.
//!
//! Run with: `cargo run --release --example floor -- --shape atoms|point
//! [--size N] [--rounds N]`. It prints the median of each side (ms per
//! query for `atoms`, µs per query for `point`) and the engine ÷ floor
//! ratio.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ldl1::value::intern;
use ldl1::{Database, Reader, System, Value};
use ldl_testkit::Rng;

/// `size` pairs `r(x_i, y_j)`: about 100 per group, drawn from a pool of
/// `size / 4` names, so a group holds repeats and every set sorts names
/// that are not in interning order.
fn atom_pairs(size: usize) -> Vec<(String, String)> {
    let mut rng = Rng::new(20);
    let (groups, pool) = ((size / 100).max(1), (size / 4).max(2));
    (0..size)
        .map(|_| {
            let x = format!("x{}", rng.index(groups));
            (x, format!("y{}", rng.index(pool)))
        })
        .collect()
}

/// The engine's answer to `g(X, S)` on a fresh `System` holding `pairs`,
/// and the milliseconds the query took (the facts are inserted first,
/// outside the timer).
fn engine_atoms(pairs: &[(String, String)]) -> (BTreeMap<String, BTreeSet<String>>, f64) {
    let mut sys = System::new();
    sys.load("g(X, <Y>) <- r(X, Y).").expect("the rule loads");
    for (x, y) in pairs {
        sys.insert("r", vec![Value::atom(x), Value::atom(y)])
            .expect("the fact inserts");
    }
    let start = Instant::now();
    let answers = sys.query("g(X, S)").expect("the query answers");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let name = |v: &Value| match v {
        Value::Atom(a) => a.as_str().to_owned(),
        other => panic!("not an atom: {other}"),
    };
    let groups = answers
        .iter()
        .map(|a| match &a.bindings[1].1 {
            Value::Set(s) => (name(&a.bindings[0].1), s.iter().map(name).collect()),
            other => panic!("not a set: {other}"),
        })
        .collect();
    (groups, ms)
}

/// The same grouping by hand, and its milliseconds.
fn floor_atoms(pairs: &[(String, String)]) -> (BTreeMap<String, BTreeSet<String>>, f64) {
    let start = Instant::now();
    let mut groups: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (x, y) in pairs {
        groups.entry(x.clone()).or_default().insert(y.clone());
    }
    (groups, start.elapsed().as_secs_f64() * 1e3)
}

/// The ancestor program over `chains` chains of `POINT_CHAIN` edges, chain
/// `c` rooted at node `c * 100`, with a `Reader` and the model it reads:
/// as `snapshot_reads` has it, after commits — a retraction and its
/// re-assertion — whose maintenance probed `anc` by its first column and
/// left that index behind.
fn point_system(chains: i64) -> (System, Reader) {
    let mut sys = System::new();
    sys.load("anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).")
        .expect("the rules load");
    let mut batch = sys.mutate();
    for c in 0..chains {
        for k in 0..POINT_CHAIN {
            batch.assert(
                "par",
                vec![Value::int(c * 100 + k), Value::int(c * 100 + k + 1)],
            );
        }
    }
    batch.commit().expect("the forest commits");
    let reader = sys.reader().expect("the model evaluates");
    let last = vec![Value::int(POINT_CHAIN - 1), Value::int(POINT_CHAIN)];
    let mut retraction = sys.mutate();
    retraction.retract("par", last.clone());
    retraction.commit().expect("the retraction commits");
    sys.insert("par", last).expect("the edge commits again");
    let how = reader
        .latest()
        .explain_query("anc(0, Y)")
        .expect("the query parses");
    assert!(
        how.contains(": probe anc[0]"),
        "the snapshot is not indexed: {how}"
    );
    (sys, reader)
}

/// Edges per chain of the `point` forest, as in `snapshot_reads`.
const POINT_CHAIN: i64 = 10;

/// One point query per root through `Reader::latest().query`, the `Y`s of
/// each, and the µs per query. The query texts are written before the timer
/// starts, as a client would have them; each answer is read into its `Y`s
/// and dropped before the next query, as a client would.
fn engine_point(reader: &Reader, queries: &[String]) -> (Vec<Vec<i64>>, f64) {
    let start = Instant::now();
    let ys = queries
        .iter()
        .map(|q| {
            let answers = reader.latest().query(q).expect("the query answers");
            answers
                .iter()
                .map(|a| match a.get_index(0) {
                    Some(Value::Int(y)) => *y,
                    other => panic!("not an integer: {other:?}"),
                })
                .collect()
        })
        .collect();
    (
        ys,
        start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64,
    )
}

/// The same queries by hand: probe `anc`'s `[0]` index for the root, read
/// each row's second column with `int_of`, sort.
fn floor_point(model: &Database, roots: &[i64]) -> (Vec<Vec<i64>>, f64) {
    let start = Instant::now();
    let anc = model.relation("anc".into()).expect("the model has anc");
    let by_first = anc.index(&[0]).expect("anc is indexed on [0]");
    let ys = roots
        .iter()
        .map(|&root| {
            let mut ys: Vec<i64> = by_first
                .probe(&[intern::mk_int(root)])
                .iter()
                .map(|&pos| intern::int_of(anc.get(pos)[1]).expect("an integer node"))
                .collect();
            ys.sort_unstable();
            ys
        })
        .collect();
    (ys, start.elapsed().as_secs_f64() * 1e6 / roots.len() as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Run `engine` and `floor` `rounds` times, alternating which goes first
/// so neither always runs warm, assert they answer alike, and return the
/// median time of each.
fn interleave<T: PartialEq + std::fmt::Debug>(
    rounds: usize,
    mut engine: impl FnMut() -> (T, f64),
    mut floor: impl FnMut() -> (T, f64),
) -> (f64, f64) {
    let (mut engine_t, mut floor_t) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let ((a, e), (b, f)) = if round % 2 == 0 {
            let e = engine();
            (e, floor())
        } else {
            let f = floor();
            (engine(), f)
        };
        assert_eq!(a, b, "the engine and the floor disagree");
        engine_t.push(e);
        floor_t.push(f);
    }
    (median(engine_t), median(floor_t))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut shape, mut size, mut rounds): (Option<String>, Option<usize>, usize) =
        (None, None, 15);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--shape" => shape = Some(value()),
            "--size" => {
                size = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--size takes a count")),
                )
            }
            "--rounds" => {
                rounds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--rounds takes a count"))
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if rounds == 0 {
        usage("--rounds must be at least 1");
    }
    match shape.as_deref() {
        Some("atoms") => {
            let size = size.unwrap_or(20_000);
            let pairs = atom_pairs(size);
            let (e, f) = interleave(rounds, || engine_atoms(&pairs), || floor_atoms(&pairs));
            println!(
                "shape atoms: {size} facts, {rounds} rounds: engine {e:.3} ms, floor {f:.3} ms, \
                 engine/floor {:.2}",
                e / f
            );
        }
        Some("point") => {
            let chains = size.unwrap_or(1_000);
            let (mut sys, reader) = point_system(chains as i64);
            let roots: Vec<i64> = (0..chains as i64).map(|c| c * 100).collect();
            let queries: Vec<String> = roots.iter().map(|r| format!("anc({r}, Y)")).collect();
            let model = sys.model().expect("the model is cached");
            let (e, f) = interleave(
                rounds,
                || engine_point(&reader, &queries),
                || floor_point(model, &roots),
            );
            println!(
                "shape point: {chains} chains, {rounds} rounds of {chains} queries: \
                 engine {e:.3} µs, floor {f:.3} µs per query, engine/floor {:.2}",
                e / f
            );
        }
        Some(other) => usage(&format!("unknown shape {other}")),
        None => usage("--shape is required"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("floor: {msg}\nusage: floor --shape atoms|point [--size N] [--rounds N]");
    std::process::exit(2);
}
