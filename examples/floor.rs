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
//!
//! Run with: `cargo run --release --example floor -- --shape atoms
//! [--size FACTS] [--rounds N]`. It prints the median ms of each side and
//! the engine ÷ floor ratio.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ldl1::{System, Value};
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

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut shape, mut size, mut rounds): (Option<String>, usize, usize) = (None, 20_000, 15);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--shape" => shape = Some(value()),
            "--size" => {
                size = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--size takes a count"))
            }
            "--rounds" => {
                rounds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--rounds takes a count"))
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    match shape.as_deref() {
        Some("atoms") => {}
        Some(other) => usage(&format!("unknown shape {other}")),
        None => usage("--shape is required"),
    }
    if rounds == 0 {
        usage("--rounds must be at least 1");
    }

    let pairs = atom_pairs(size);
    let (mut engine_ms, mut floor_ms) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        // Alternate which side runs first, so neither always runs warm.
        let ((engine, e), (floor, f)) = if round % 2 == 0 {
            let e = engine_atoms(&pairs);
            (e, floor_atoms(&pairs))
        } else {
            let f = floor_atoms(&pairs);
            (engine_atoms(&pairs), f)
        };
        assert_eq!(engine, floor, "the engine and the floor disagree");
        engine_ms.push(e);
        floor_ms.push(f);
    }
    let (e, f) = (median(engine_ms), median(floor_ms));
    println!(
        "shape atoms: {size} facts, {rounds} rounds: engine {e:.3} ms, floor {f:.3} ms, \
         engine/floor {:.2}",
        e / f
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("floor: {msg}\nusage: floor --shape atoms [--size FACTS] [--rounds N]");
    std::process::exit(2);
}
