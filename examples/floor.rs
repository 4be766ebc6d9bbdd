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
//!   plan lookup, the executor and the answers.
//! * `open` — a `cold_recovery` op: `System::open → load → query("anc(0,
//!   Y)")` on a data directory of `--size` chains (default 2 000) of 10
//!   edges, checkpointed, and a log tail of `--size / 4` commits that each
//!   extend a chain and add a `tag` atom; against `fs::read` of both files
//!   and a breadth-first search from `0` over the example's own copy of the
//!   edges (grouped by source before the timer starts). It times what a
//!   restart costs beyond reading its bytes, and prints where the open's
//!   time went (`RecoveryInfo::times`, the median of each part) and the
//!   median load and query after it (a cold query runs §6 magic sets).
//! * `far` — a `tc_chain` op: `System::new → load → query("far(X, Y)")`
//!   on §1's ancestor program over a chain of `--size` edges (default
//!   160) with stride 10, plus `far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X >
//!   far_min` with `far_min` = 25·size/4 (1 000 at 160 edges, as
//!   `tc_chain`; 250 at 40, as its smoke size); against the far pass alone,
//!   by hand, over the `anc` relation of the same model: each row's probe
//!   of `anc`'s `[0]` index, `get` and `int_of` on each posting, and for
//!   each pair that passes a `WordSet` insert of its packed ids — the
//!   engine's marked pass drops a repeat the same way — and a push of the
//!   pairs it keeps; then `insert_slice` of the kept pairs into a fresh
//!   relation. It times what the engine's op costs beyond the far join
//!   itself, and prints the median split of the hand pass into its join
//!   and its merge, the merge's share of the engine's op, and the share of
//!   the join's pairs dropped in the pass as repeats.
//!
//! Run with: `cargo run --release --example floor -- --shape
//! atoms|point|open|far [--size N] [--rounds N]`. It prints the median of
//! each side (ms per query for `atoms` and per op for `open` and `far`, µs
//! per query for `point`) and the engine ÷ floor ratio.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ldl1::storage::{Relation, WordSet};
use ldl1::value::{intern, ValueId};
use ldl1::wal::{SNAPSHOT_FILE, WAL_FILE};
use ldl1::{Database, EvalOptions, OpenTimes, Reader, StoreOptions, SyncPolicy, System, Value};
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
    sys.load(ANCESTOR).expect("the rules load");
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

const ANCESTOR: &str = "anc(X, Y) <- par(X, Y). anc(X, Y) <- par(X, Z), anc(Z, Y).";

/// Node `k` of chain `c` in the `open` forest, as in `cold_recovery`: far
/// enough apart that most nodes are integers past the interner's
/// immediate range.
fn open_node(c: i64, k: i64) -> i64 {
    c * 1_000_000 + k
}

/// A `cold_recovery`-shaped data directory under the system's temporary
/// directory, and the `par` edges it holds.
fn open_dir(chains: i64) -> (PathBuf, Vec<(i64, i64)>) {
    let dir = std::env::temp_dir().join(format!("ldl1-floor-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        sync: SyncPolicy::Never,
    };
    let mut sys = System::open_with(&dir, EvalOptions::default(), opts).expect("the dir opens");
    let mut edges: Vec<(i64, i64)> = (0..chains)
        .flat_map(|c| (0..POINT_CHAIN).map(move |k| (open_node(c, k), open_node(c, k + 1))))
        .collect();
    let mut batch = sys.mutate();
    for &(a, b) in &edges {
        batch.assert("par", vec![Value::int(a), Value::int(b)]);
    }
    batch.commit().expect("the forest commits");
    sys.checkpoint().expect("the forest checkpoints");
    // The tail: each commit extends a random chain by one edge and tags it.
    let mut rng = Rng::new(1987);
    let mut ends: Vec<i64> = (0..chains).map(|c| open_node(c, POINT_CHAIN)).collect();
    for i in 0..chains / 4 {
        let c = rng.index(chains as usize);
        let edge = (ends[c], ends[c] + 1);
        ends[c] += 1;
        let mut batch = sys.mutate();
        batch.assert("par", vec![Value::int(edge.0), Value::int(edge.1)]);
        let tag = format!("k{}", rng.range(0, 1 << 40));
        batch.assert("tag", vec![Value::atom(&tag), Value::int(i)]);
        batch.commit().expect("the tail commits");
        edges.push(edge);
    }
    sys.sync().expect("the tail syncs");
    (dir, edges)
}

/// One op: open `dir`, load the rules, answer `anc(0, Y)`; the `Y`s, the
/// open's split, the ms the load and the query took, and the ms the op
/// took.
fn engine_open(dir: &Path) -> (Vec<i64>, OpenTimes, [f64; 2], f64) {
    let start = Instant::now();
    let mut sys = System::open(dir).expect("the dir opens");
    let loading = Instant::now();
    sys.load(ANCESTOR).expect("the rules load");
    let asking = Instant::now();
    let answers = sys.query("anc(0, Y)").expect("the query answers");
    let after_open = [
        (asking - loading).as_secs_f64() * 1e3,
        asking.elapsed().as_secs_f64() * 1e3,
    ];
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let ys = answers
        .iter()
        .map(|a| match a.get_index(0) {
            Some(Value::Int(y)) => *y,
            other => panic!("not an integer: {other:?}"),
        })
        .collect();
    let times = sys.recovery_info().expect("a durable system").times;
    (ys, times, after_open, ms)
}

/// Read both files, then the nodes reachable from `0` by breadth-first
/// search over `next`, the example's own edges by source, sorted; and the
/// ms it took.
fn floor_open(dir: &Path, next: &HashMap<i64, Vec<i64>>) -> (Vec<i64>, f64) {
    let start = Instant::now();
    let bytes = [SNAPSHOT_FILE, WAL_FILE]
        .iter()
        .map(|f| std::fs::read(dir.join(f)).expect("the file reads").len())
        .sum::<usize>();
    assert!(bytes > 0);
    let (mut seen, mut frontier) = (BTreeSet::new(), vec![0]);
    while let Some(x) = frontier.pop() {
        for &y in next.get(&x).into_iter().flatten() {
            if seen.insert(y) {
                frontier.push(y);
            }
        }
    }
    (
        seen.into_iter().collect(),
        start.elapsed().as_secs_f64() * 1e3,
    )
}

/// The `far` shape's program and facts: a chain `0 → 10 → 20 → …` of
/// `edges` edges, and its `far_min`.
fn far_source(edges: i64) -> (String, i64) {
    let far_min = edges * 25 / 4;
    let mut src = format!("{ANCESTOR}\nfar(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > {far_min}.\n");
    for i in 0..edges {
        src.push_str(&format!("par({}, {}).\n", i * 10, (i + 1) * 10));
    }
    (src, far_min)
}

/// One cold op: a fresh `System`, the load, and `far(X, Y)`; the sorted
/// pairs and the ms the op took.
fn engine_far(src: &str) -> (Vec<(i64, i64)>, f64) {
    let start = Instant::now();
    let mut sys = System::new();
    sys.load(src).expect("the program loads");
    let answers = sys.query("far(X, Y)").expect("the query answers");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let int = |v: &Value| match v {
        Value::Int(n) => *n,
        other => panic!("not an integer: {other}"),
    };
    let mut pairs: Vec<(i64, i64)> = answers
        .iter()
        .map(|a| (int(&a.bindings[0].1), int(&a.bindings[1].1)))
        .collect();
    pairs.sort_unstable();
    (pairs, ms)
}

/// What one hand far pass returns: the sorted pairs, the ms of its join
/// and of its merge, and how many pairs the join emitted and how many of
/// them it dropped as repeats.
type FarPass = (Vec<(i64, i64)>, f64, f64, usize, usize);

/// The far pass by hand over `anc` (which has its `[0]` index), dropping
/// a pair it already found before the merge as the engine's marked pass
/// does.
fn floor_far(anc: &Relation, far_min: i64) -> FarPass {
    let start = Instant::now();
    let by_first = anc.index(&[0]).expect("anc is indexed on [0]");
    let mut found: Vec<[ValueId; 2]> = Vec::new();
    let mut kept = WordSet::default();
    let mut emitted = 0;
    for pos in 0..anc.len() as u32 {
        let row = anc.get(pos);
        let (x, z) = (row[0], row[1]);
        let xi = intern::int_of(x).expect("an integer node");
        for &p in by_first.probe(&[z]) {
            let y = anc.get(p)[1];
            if intern::int_of(y).expect("an integer node") - xi > far_min {
                emitted += 1;
                if kept.insert(WordSet::key(&[x, y])) {
                    found.push([x, y]);
                }
            }
        }
    }
    let joined = Instant::now();
    let mut far = Relation::new(2);
    for pair in &found {
        far.insert_slice(pair);
    }
    let done = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let int = |id| intern::int_of(id).expect("an integer node");
    let mut pairs: Vec<(i64, i64)> = far.iter().map(|r| (int(r[0]), int(r[1]))).collect();
    pairs.sort_unstable();
    let dropped = emitted - found.len();
    (
        pairs,
        ms(joined - start),
        ms(done - joined),
        emitted,
        dropped,
    )
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
        Some("open") => {
            let chains = size.unwrap_or(2_000);
            let (dir, edges) = open_dir(chains as i64);
            let mut next: HashMap<i64, Vec<i64>> = HashMap::new();
            for (a, b) in edges {
                next.entry(a).or_default().push(b);
            }
            let (mut splits, mut after_open) = (Vec::new(), Vec::new());
            let (e, f) = interleave(
                rounds,
                || {
                    let (ys, times, load_query, ms) = engine_open(&dir);
                    splits.push(times);
                    after_open.push(load_query);
                    (ys, ms)
                },
                || floor_open(&dir, &next),
            );
            std::fs::remove_dir_all(&dir).expect("the dir is removed");
            let part = |f: fn(&OpenTimes) -> Duration| {
                median(splits.iter().map(|t| f(t).as_secs_f64() * 1e3).collect())
            };
            println!(
                "shape open: {chains} chains, {} tail commits, {rounds} rounds: \
                 engine {e:.3} ms, floor {f:.3} ms per op, engine/floor {:.2}\n  \
                 open (medians, ms): total {:.3}, read {:.3}, crc {:.3}, nodes {:.3}, \
                 rows {:.3}, log scan {:.3}, replay {:.3}",
                chains / 4,
                e / f,
                part(|t| t.total),
                part(|t| t.read),
                part(|t| t.crc),
                part(|t| t.nodes),
                part(|t| t.rows),
                part(|t| t.scan),
                part(|t| t.replay),
            );
            let step = |i: usize| median(after_open.iter().map(|t: &[f64; 2]| t[i]).collect());
            println!(
                "  after the open (medians, ms): load {:.3}, query {:.3}",
                step(0),
                step(1)
            );
        }
        Some("far") => {
            let edges = size.unwrap_or(160) as i64;
            let (src, far_min) = far_source(edges);
            let mut sys = System::new();
            sys.load(&src).expect("the program loads");
            let model = sys.model().expect("the model evaluates");
            let anc = model.relation("anc".into()).expect("the model has anc");
            let (mut joins, mut merges, mut repeats) = (Vec::new(), Vec::new(), (0, 0));
            let (e, f) = interleave(
                rounds,
                || engine_far(&src),
                || {
                    let (pairs, join, merge, emitted, dropped) = floor_far(anc, far_min);
                    joins.push(join);
                    merges.push(merge);
                    repeats = (emitted, dropped);
                    (pairs, join + merge)
                },
            );
            let merge = median(merges);
            let (emitted, dropped) = repeats;
            println!(
                "shape far: {edges} edges, far_min {far_min}, {rounds} rounds: \
                 engine {e:.3} ms, floor {f:.3} ms per op, engine/floor {:.2}\n  \
                 floor (medians, ms): join {:.3}, merge {merge:.3} \
                 ({:.1} % of the engine's op); \
                 {dropped} of {emitted} pairs dropped in the pass ({:.1} %)",
                e / f,
                median(joins),
                merge / e * 100.0,
                dropped as f64 / emitted.max(1) as f64 * 100.0,
            );
        }
        Some(other) => usage(&format!("unknown shape {other}")),
        None => usage("--shape is required"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("floor: {msg}\nusage: floor --shape atoms|point|open|far [--size N] [--rounds N]");
    std::process::exit(2);
}
