//! Seeded input generators and the programs under test.
//!
//! The programs are the paper's §1/§6 programs as spelled in
//! `crates/bench/src/lib.rs`, and the generators follow that crate's
//! shapes, but both are copied in and frozen here: the benchmark must not
//! move when the old micro-bench crate is edited or deleted.
//!
//! Everything the engine sees is derived from the seed: graph edges, leaf
//! prices, the order of stream operations, and the order of the EDB facts
//! in the source text.

use std::fmt::Write as _;

/// The §1 ancestor program.
pub const ANCESTOR: &str = "anc(X, Y) <- par(X, Y).\n\
                            anc(X, Y) <- par(X, Z), anc(Z, Y).\n";

/// The §1 exclusive-ancestor program (stratified negation, §3).
pub const EXCL_ANCESTOR: &str = "anc(X, Y) <- par(X, Y).\n\
                                 anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
                                 excl(X, Y, Z) <- anc(X, Y), node(Z), ~anc(X, Z).\n";

/// The §1 bill-of-materials program (grouping, set patterns, `partition`).
pub const BOM: &str = "part(P, <S>) <- p(P, S).\n\
                       tc({X}, C) <- q(X, C).\n\
                       tc({X}, C) <- part(X, S), tc(S, C).\n\
                       tc(S, C) <- partition(S, S1, S2), S1 /= {}, S2 /= {}, \
                                   tc(S1, C1), tc(S2, C2), +(C1, C2, C).\n\
                       result(X, C) <- tc({X}, C).\n";

/// The tc_chain kernel: closure over a strided chain, then a
/// compose-and-filter layer keeping the pairs more than `far_min` apart.
pub fn tc_far(far_min: i64) -> String {
    format!(
        "anc(X, Y) <- par(X, Y).\n\
         anc(X, Y) <- par(X, Z), anc(Z, Y).\n\
         far(X, Y) <- anc(X, Z), anc(Z, Y), Y - X > {far_min}.\n"
    )
}

/// xorshift64* — the same generator `ldl-testkit` uses, frozen.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        state ^= state >> 30;
        Rng { state }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    pub fn index(&mut self, n: usize) -> usize {
        self.range(0, n as i64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index(i + 1));
        }
    }
}

/// Input sizes. `CANONICAL` is what every quoted number is measured at;
/// `SMOKE` is the toy configuration the `smoke` subcommand and the tests
/// run. Run length changes the number of rounds, never these.
///
/// The canonical inputs are sized so that one op takes 15–60 ms: on a
/// shared host only ops that short fall between the neighbours' bursts
/// often enough for a run's fastest twentieth to repeat from run to run
/// (with the 0.6–2 s ops of the first draft of this benchmark, two runs of
/// the same code differed by 25–30 %).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub chain_edges: i64,
    pub chain_stride: i64,
    pub far_min: i64,
    pub excl_graph: (i64, usize),
    pub giant_graph: (i64, usize),
    /// What the graph workloads' programs must derive (each ±`VOLUME_BAND`);
    /// `None` takes the first graph drawn. For `excl_ancestor`: `anc` facts,
    /// all facts, and rows of the answer at node 0 — the join work, the
    /// insert work and the query work of a cold op. For `giant_tc_par2`:
    /// `anc` facts.
    pub excl_volume: Option<(u64, u64, u64)>,
    pub giant_volume: Option<u64>,
    pub bom: (u32, i64),
    /// Chains × edges per chain of the stream workloads' forest.
    pub forest: (i64, i64),
    /// Ops of one round's stream: `mutation_stream`, `snapshot_reads`.
    pub stream_ops: (usize, usize),
    /// Chains × edges per chain snapshotted into the recovery directory.
    pub recovery_forest: (i64, i64),
    /// Records in the recovery directory's synced log tail.
    pub recovery_tail: usize,
    /// Timed ops per round of the workloads whose op is a cold start or a
    /// magic query (a stream's round is its whole stream).
    pub round_ops: usize,
}

pub const CANONICAL: Sizes = Sizes {
    chain_edges: 160,
    chain_stride: 10,
    far_min: 1000,
    excl_graph: (80, 160),
    giant_graph: (500, 1000),
    excl_volume: Some((4_350, 70_000, 975)),
    giant_volume: Some(157_000),
    bom: (6, 2),
    forest: (1000, 10),
    stream_ops: (1200, 300),
    recovery_forest: (2000, 10),
    recovery_tail: 500,
    round_ops: 8,
};

pub const SMOKE: Sizes = Sizes {
    chain_edges: 40,
    chain_stride: 10,
    far_min: 250,
    excl_graph: (30, 60),
    giant_graph: (30, 60),
    excl_volume: None,
    giant_volume: None,
    bom: (3, 2),
    forest: (20, 10),
    stream_ops: (200, 200),
    recovery_forest: (50, 10),
    recovery_tail: 50,
    round_ops: 1,
};

/// Render `par` edges (and optional `node` facts) after `rules`, the facts
/// in seeded order.
fn render(rules: &str, nodes: i64, edges: &[(i64, i64)], rng: &mut Rng) -> String {
    let mut lines: Vec<String> = (0..nodes).map(|i| format!("node({i}).")).collect();
    lines.extend(edges.iter().map(|(a, b)| format!("par({a}, {b}).")));
    rng.shuffle(&mut lines);
    let mut src = String::with_capacity(rules.len() + lines.len() * 16);
    src.push_str(rules);
    for l in &lines {
        src.push_str(l);
        src.push('\n');
    }
    src
}

/// A chain `0 → stride → 2·stride → …` of `n` edges. The stride keeps the
/// `far` layer's arithmetic outside the interner's small-integer cache.
pub fn strided_chain(rules: &str, n: i64, stride: i64, seed: u64) -> String {
    let edges: Vec<(i64, i64)> = (0..n).map(|i| (i * stride, (i + 1) * stride)).collect();
    render(rules, 0, &edges, &mut Rng::new(seed))
}

/// Half-width of the accepted closure-volume band, as a share.
pub const VOLUME_BAND: f64 = 0.015;

/// `e` uniform edges over `n` nodes (repeats and self-loops allowed, as in
/// the old bench's generator).
pub fn graph_edges(n: i64, e: usize, rng: &mut Rng) -> Vec<(i64, i64)> {
    (0..e).map(|_| (rng.range(0, n), rng.range(0, n))).collect()
}

/// A seeded random digraph as source text: `n` `node` facts and `e` `par`
/// edges. Returns the text and the edge list for the oracle.
pub fn random_graph(rules: &str, n: i64, e: usize, seed: u64) -> (String, Vec<(i64, i64)>) {
    let mut rng = Rng::new(seed);
    let edges = graph_edges(n, e, &mut rng);
    let src = render(rules, n, &edges, &mut rng);
    (src, edges)
}

/// The first seed, in the sequence `seed` generates, whose random graph
/// `accept`s. The closure of a sparse random digraph varies by ±20 % from
/// graph to graph; the graph workloads accept only graphs whose closure
/// volume is within a narrow band, so the seed changes the graph but not
/// the amount of work.
pub fn graph_seed(n: i64, e: usize, seed: u64, accept: impl Fn(&[(i64, i64)]) -> bool) -> u64 {
    let mut seeds = Rng::new(seed);
    for _ in 0..100_000 {
        let s = seeds.next_u64();
        if accept(&graph_edges(n, e, &mut Rng::new(s))) {
            return s;
        }
    }
    panic!("no acceptable {n}-node {e}-edge graph in 100000 draws from seed {seed}");
}

/// The §1 part hierarchy: a tree of aggregate parts under part 1, leaves
/// priced by the seed in 1..=97. Returns the source text and the leaf
/// price sum (the oracle for `result(1, C)`).
pub fn bom(depth: u32, branching: i64, seed: u64) -> (String, i64) {
    let mut rng = Rng::new(seed);
    let mut lines = Vec::new();
    let mut total = 0;
    let mut next_id = 2i64;
    let mut frontier = vec![(1i64, 0u32)];
    while let Some((part, d)) = frontier.pop() {
        if d == depth {
            let price = rng.range(1, 98);
            total += price;
            lines.push(format!("q({part}, {price})."));
            continue;
        }
        for _ in 0..branching {
            lines.push(format!("p({part}, {next_id})."));
            frontier.push((next_id, d + 1));
            next_id += 1;
        }
    }
    rng.shuffle(&mut lines);
    let mut src = String::from(BOM);
    for l in &lines {
        let _ = writeln!(src, "{l}");
    }
    (src, total)
}

/// Node ids of forest chain `c` start here; the gap leaves room for every
/// node a stream can add.
pub const CHAIN_SPAN: i64 = 1_000_000;

/// The initial forest of the stream and recovery workloads: `chains`
/// disjoint chains of `len` edges, chain `c` rooted at `c * CHAIN_SPAN`.
pub fn forest_edges(chains: i64, len: i64) -> Vec<(i64, i64)> {
    (0..chains)
        .flat_map(|c| (0..len).map(move |k| (c * CHAIN_SPAN + k, c * CHAIN_SPAN + k + 1)))
        .collect()
}

/// [`forest_edges`] as source text under the ancestor rules.
pub fn forest(chains: i64, len: i64, seed: u64) -> String {
    render(ANCESTOR, 0, &forest_edges(chains, len), &mut Rng::new(seed))
}

/// One operation of a mutation stream, already resolved against the
/// mirror so it can never retract an unknown fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamOp {
    Assert(i64, i64),
    Retract(i64, i64),
    Update {
        old: (i64, i64),
        new: (i64, i64),
    },
    /// `anc(root, Y)`; the expected `Y`s, sorted.
    Query {
        root: i64,
        expect: Vec<i64>,
    },
}

/// The per-chain edge mirror: the engine-independent record of what the
/// forest holds. Each chain is the path of nodes still reachable from its
/// root; edges cut off by a mid-chain retraction stay in `orphans` (they
/// remain EDB facts, unreachable from any root).
#[derive(Clone, Debug)]
pub struct ForestMirror {
    chains: Vec<Vec<i64>>,
    next_id: Vec<i64>,
    orphans: Vec<(i64, i64)>,
}

impl ForestMirror {
    pub fn new(chains: i64, len: i64) -> ForestMirror {
        ForestMirror {
            chains: (0..chains)
                .map(|c| (0..=len).map(|k| c * CHAIN_SPAN + k).collect())
                .collect(),
            next_id: (0..chains).map(|c| c * CHAIN_SPAN + len + 1).collect(),
            orphans: Vec::new(),
        }
    }

    fn fresh(&mut self, c: usize) -> i64 {
        let id = self.next_id[c];
        self.next_id[c] += 1;
        id
    }

    /// Extend chain `c` by one fresh node.
    pub fn extend(&mut self, c: usize) -> StreamOp {
        let tail = *self.chains[c].last().expect("a chain keeps its root");
        let new = self.fresh(c);
        self.chains[c].push(new);
        StreamOp::Assert(tail, new)
    }

    /// Cut chain `c` at edge `at`, orphaning everything past it. `None`
    /// when the chain has no edge left.
    pub fn cut(&mut self, c: usize, rng: &mut Rng) -> Option<StreamOp> {
        let edges = self.chains[c].len() - 1;
        if edges == 0 {
            return None;
        }
        let at = rng.index(edges);
        let cut = (self.chains[c][at], self.chains[c][at + 1]);
        let tail = self.chains[c].split_off(at + 1);
        self.orphans.extend(tail.windows(2).map(|w| (w[0], w[1])));
        Some(StreamOp::Retract(cut.0, cut.1))
    }

    /// Re-point chain `c`'s last edge at a fresh node.
    pub fn repoint(&mut self, c: usize) -> Option<StreamOp> {
        let n = self.chains[c].len();
        if n < 2 {
            return None;
        }
        let old = (self.chains[c][n - 2], self.chains[c][n - 1]);
        let new = self.fresh(c);
        self.chains[c][n - 1] = new;
        Some(StreamOp::Update {
            old,
            new: (old.0, new),
        })
    }

    pub fn query(&self, c: usize) -> StreamOp {
        StreamOp::Query {
            root: self.chains[c][0],
            expect: self.reachable(c),
        }
    }

    /// Every node `anc(root_c, Y)` must list, sorted.
    pub fn reachable(&self, c: usize) -> Vec<i64> {
        let mut ys = self.chains[c][1..].to_vec();
        ys.sort_unstable();
        ys
    }

    /// Every `par` edge the EDB must hold, sorted.
    pub fn edges(&self) -> Vec<(i64, i64)> {
        let mut out = self.orphans.clone();
        for chain in &self.chains {
            out.extend(chain.windows(2).map(|w| (w[0], w[1])));
        }
        out.sort_unstable();
        out
    }
}

/// The mutation stream's mix: 60 % one-fact assert, 20 % retract, 10 %
/// update, 10 % query, the chain chosen by the seed. An op a chain cannot
/// take (nothing left to retract) becomes an assert.
pub fn mutation_stream(mirror: &mut ForestMirror, ops: usize, seed: u64) -> Vec<StreamOp> {
    let mut rng = Rng::new(seed ^ 0x5EED_0F0B);
    let chains = mirror.chains.len();
    (0..ops)
        .map(|_| {
            let c = rng.index(chains);
            let op = match rng.index(10) {
                0..=5 => None,
                6 | 7 => mirror.cut(c, &mut rng),
                8 => mirror.repoint(c),
                _ => Some(mirror.query(c)),
            };
            op.unwrap_or_else(|| mirror.extend(c))
        })
        .collect()
}

/// The snapshot-read stream: one commit (alternating assert and retract)
/// then two reads of the committed chain, repeated.
pub fn snapshot_stream(mirror: &mut ForestMirror, ops: usize, seed: u64) -> Vec<StreamOp> {
    let mut rng = Rng::new(seed ^ 0x5EED_0F0B);
    let chains = mirror.chains.len();
    let mut out = Vec::with_capacity(ops);
    let mut commit = 0usize;
    while out.len() < ops {
        let c = rng.index(chains);
        let cut = if commit % 2 == 1 {
            mirror.cut(c, &mut rng)
        } else {
            None
        };
        out.push(cut.unwrap_or_else(|| mirror.extend(c)));
        commit += 1;
        for _ in 0..2 {
            if out.len() < ops {
                out.push(mirror.query(c));
            }
        }
    }
    out
}

/// One record of the recovery directory's log tail: a `par` edge
/// extending a seeded chain and an atom-keyed `tag` fact.
pub struct TailRecord {
    pub par: (i64, i64),
    pub tag: (String, i64),
}

pub fn recovery_tail(mirror: &mut ForestMirror, records: usize, seed: u64) -> Vec<TailRecord> {
    let mut rng = Rng::new(seed ^ 0x7A11);
    let chains = mirror.chains.len();
    (0..records)
        .map(|i| {
            let StreamOp::Assert(a, b) = mirror.extend(rng.index(chains)) else {
                unreachable!("extend always asserts")
            };
            TailRecord {
                par: (a, b),
                tag: (format!("k{}", rng.range(0, 1 << 40)), i as i64),
            }
        })
        .collect()
}
