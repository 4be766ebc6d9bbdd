//! The three cold-start workloads: `tc_chain`, `excl_ancestor` and
//! `giant_tc_par2`. One op is what a user pays from nothing to a complete
//! answer: `System::new → load(rules + facts text) → query`.

use std::collections::BTreeSet;
use std::time::Instant;

use ldl1::ast::wf::Dialect;
use ldl1::{EvalOptions, Evaluator, Program, QueryAnswer, System};

use crate::gen::{self, Sizes, VOLUME_BAND};
use crate::metrics::{median, END_TO_END, PER_LAYER};
use crate::oracle::{self, Row};
use crate::pipeline::{self, Evaluated, Loaded};
use crate::trace::Tracer;
use crate::workload::{ms, Config, Outcome, Reps, Samples, Tally, Workload};

/// A cold workload's input and expected answer.
pub struct Cold {
    pub src: String,
    pub options: EvalOptions,
    pub query: &'static str,
    pub expected: BTreeSet<Row>,
}

/// Facts `EXCL_ANCESTOR` derives over a graph: `anc` plus `excl`.
pub fn excl_volume(n: i64, edges: &[(i64, i64)]) -> u64 {
    oracle::closure_sizes(n, edges)
        .iter()
        .map(|r| r * (1 + n as u64 - r))
        .sum()
}

/// Facts `ANCESTOR` derives over a graph.
pub fn anc_volume(n: i64, edges: &[(i64, i64)]) -> u64 {
    oracle::closure_sizes(n, edges).iter().sum()
}

fn in_band(volume: u64, target: u64) -> bool {
    (volume as f64 - target as f64).abs() <= target as f64 * VOLUME_BAND
}

/// Which input to render: the workload, its sizes, and the seed its
/// generator runs from (for the graphs, the accepted draw).
pub struct Plan {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
}

impl Plan {
    /// Resolve the seed. For the graph workloads this draws graphs until
    /// one has the canonical closure volume and a non-trivial answer at
    /// node 0; it is harness work, kept out of `setup_s`.
    pub fn find(workload: Workload, sizes: Sizes, seed: u64) -> Plan {
        let seed = match workload {
            Workload::ExclAncestor => {
                let (n, e) = sizes.excl_graph;
                gen::graph_seed(n, e, seed, |edges| {
                    let from0 = oracle::reachable(n, edges, 0).len() as i64;
                    let answers = (from0 * (n - from0)) as u64;
                    answers > 0
                        && sizes.excl_volume.is_none_or(|(anc, all, rows)| {
                            in_band(anc_volume(n, edges), anc)
                                && in_band(excl_volume(n, edges), all)
                                && in_band(answers, rows)
                        })
                })
            }
            Workload::GiantTcPar2 => {
                let (n, e) = sizes.giant_graph;
                gen::graph_seed(n, e, seed, |edges| {
                    !oracle::reachable(n, edges, 0).is_empty()
                        && sizes
                            .giant_volume
                            .is_none_or(|anc| in_band(anc_volume(n, edges), anc))
                })
            }
            _ => seed,
        };
        Plan {
            workload,
            sizes,
            seed,
        }
    }

    /// Generate the source text and the oracle's answer.
    pub fn render(&self) -> Cold {
        let s = &self.sizes;
        match self.workload {
            Workload::TcChain => Cold {
                src: gen::strided_chain(
                    &gen::tc_far(s.far_min),
                    s.chain_edges,
                    s.chain_stride,
                    self.seed,
                ),
                options: EvalOptions::default(),
                query: "far(X, Y)",
                expected: oracle::far_pairs(s.chain_edges, s.chain_stride, s.far_min),
            },
            Workload::ExclAncestor => {
                let (n, e) = s.excl_graph;
                let (src, edges) = gen::random_graph(gen::EXCL_ANCESTOR, n, e, self.seed);
                Cold {
                    src,
                    options: EvalOptions::default(),
                    query: "excl(0, Y, Z)",
                    expected: oracle::excl_from(n, &edges, 0),
                }
            }
            Workload::GiantTcPar2 => {
                let (n, e) = s.giant_graph;
                let (src, edges) = gen::random_graph(gen::ANCESTOR, n, e, self.seed);
                Cold {
                    src,
                    options: EvalOptions {
                        parallelism: 2,
                        ..EvalOptions::default()
                    },
                    query: "anc(0, Y)",
                    expected: oracle::anc_from(n, &edges, 0),
                }
            }
            other => unreachable!("{} is not a cold workload", other.name()),
        }
    }
}

/// One facade op's timings and (when it returned one) its answer.
pub struct FacadeRun {
    pub load_ms: f64,
    pub total_ms: f64,
    pub answers: Option<Vec<QueryAnswer>>,
}

/// The op, through the public `System` API. Timing stops when the answer
/// is in hand; checking it and dropping the system are not the user's wait.
pub fn facade_op(c: &Cold, tally: &mut Tally) -> FacadeRun {
    let t0 = Instant::now();
    let mut sys = System::with_options(c.options.clone());
    let loaded = sys.load(&c.src);
    let load_ms = ms(t0.elapsed());
    let answers = loaded.and_then(|()| sys.query(c.query));
    let total_ms = ms(t0.elapsed());
    let answers = match answers {
        Ok(a) => {
            tally.op(Ok(oracle::same(&a, &c.expected)));
            Some(a)
        }
        Err(e) => {
            tally.op(Err(e.to_string()));
            None
        }
    };
    FacadeRun {
        load_ms,
        total_ms,
        answers,
    }
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    let plan = Plan::find(cfg.workload, cfg.sizes(), cfg.seed);
    if trace {
        traced(cfg, &plan.render())
    } else {
        untraced(cfg, &plan)
    }
}

fn untraced(cfg: &Config, plan: &Plan) -> Outcome {
    let mut out = Outcome::new(END_TO_END);
    let mut s = Samples::default();
    let mut rounds = Reps::new(cfg, 1.0, 2);
    while rounds.again() {
        let cold = s.setup(|| {
            let cold = plan.render();
            facade_op(&cold, &mut out.tally);
            cold
        });
        let ops: Vec<f64> = (0..cfg.sizes().round_ops)
            .map(|_| {
                s.tick();
                facade_op(&cold, &mut out.tally).total_ms
            })
            .collect();
        s.blocks(&ops, 1);
        s.answers_ms.extend(ops);
    }
    s.report(&mut out, "cold ops");
    out
}

/// `Evaluator::evaluate_with_stats` as the facade configures it, timed.
fn timed_eval(program: &Program, l: &Loaded, options: &EvalOptions, reps: usize) -> f64 {
    let ev = Evaluator::with_options(EvalOptions {
        dialect: Dialect::Ldl15,
        ..options.clone()
    });
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let model = ev.evaluate(program, &l.edb);
            let dt = ms(t0.elapsed());
            drop(std::hint::black_box(model));
            dt
        })
        .collect();
    median(&times)
}

fn traced(cfg: &Config, cold: &Cold) -> Outcome {
    let mut out = Outcome::new(PER_LAYER);
    let mut t = Tracer::new(cfg.workload.name());
    let first = facade_op(cold, &mut out.tally);
    out.table.set("ldl1.first_run_ms", first.total_ms);

    let (mut facade, mut loads) = (Vec::new(), Vec::new());
    let mut last: Option<(Loaded, Evaluated, usize)> = None;
    // The parallel workload keeps time for its sequential and sliced controls.
    let share = if cold.options.parallelism > 1 {
        0.5
    } else {
        0.9
    };
    let mut reps = Reps::new(cfg, share, 2);
    while reps.again() {
        last = None;
        let f = facade_op(cold, &mut out.tally);
        facade.push(f.total_ms);
        loads.push(f.load_ms);
        t.next_rep();
        let staged = t.span("op", |t| {
            let l = pipeline::load(t, &cold.src, None)?;
            let e = pipeline::evaluate(t, &l, &cold.options)?;
            let a = pipeline::query(t, &e.model, &cold.options, cold.query)?;
            Ok::<_, String>((l, e, a))
        });
        // The layer-by-layer path must reproduce the facade bit for bit.
        out.tally.op(staged.map(|(l, e, a)| {
            let same = Some(&a) == f.answers.as_ref() && oracle::same(&a, &cold.expected);
            last = Some((l, e, a.len()));
            same
        }));
    }
    let Some((loaded, evald, answers)) = last else {
        return out;
    };

    pipeline::fill_times(&mut out.table, &t);
    pipeline::fill_load(&mut out.table, &loaded);
    pipeline::fill_eval(&mut out.table, &evald);
    let controls = if cfg.smoke { 1 } else { 2 };
    if let Ok(base) = pipeline::without_top_layer(&loaded) {
        let base_ms = timed_eval(&base, &loaded, &cold.options, controls);
        out.table.set("eval.base_strata_ms", base_ms);
        out.table.set(
            "eval.top_stratum_ms",
            out.table.get("eval.evaluate_ms") - base_ms,
        );
    }
    if cold.options.parallelism > 1 {
        let seq = EvalOptions {
            parallelism: 1,
            ..cold.options.clone()
        };
        let sliced = EvalOptions {
            partitioned: false,
            ..cold.options.clone()
        };
        let seq_ms = timed_eval(&loaded.compiled, &loaded, &seq, controls);
        out.table.set("eval.seq_ms", seq_ms);
        out.table.set(
            "eval.sliced_ms",
            timed_eval(&loaded.compiled, &loaded, &sliced, controls),
        );
        out.table.set(
            "eval.par_speedup",
            seq_ms / out.table.get("eval.evaluate_ms"),
        );
    }
    let t0 = Instant::now();
    let copy = evald.model.clone();
    out.table.set("storage.model_clone_ms", ms(t0.elapsed()));
    drop(copy);
    let queried = ldl1::parser::parse_atom(cold.query)
        .ok()
        .and_then(|a| evald.model.relation(a.pred))
        .map_or(0, |r| r.live_len());
    out.table.set(
        "eval.rows_per_answer",
        queried as f64 / answers.max(1) as f64,
    );

    out.table.set("ldl1.load_ms", median(&loads));
    let note = pipeline::fill_facade(&mut out.table, &t, &facade);
    out.notes.push(note);
    out.tracer = Some(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Config;

    fn smoke(workload: Workload) -> Config {
        Config::smoke(workload, 7)
    }

    #[test]
    fn a_corrupted_expected_answer_fails_the_run() {
        let cfg = smoke(Workload::TcChain);
        let mut cold = Plan::find(cfg.workload, cfg.sizes(), cfg.seed).render();
        let mut tally = Tally::default();
        facade_op(&cold, &mut tally);
        assert_eq!((tally.attempted, tally.failed()), (1, 0));

        let row = cold.expected.iter().next().expect("non-empty").clone();
        cold.expected.remove(&row);
        cold.expected.insert(vec![row[0], row[1] + 1]);
        let mut out = Outcome::new(END_TO_END);
        facade_op(&cold, &mut out.tally);
        assert_eq!(out.tally.wrong, 1);
        assert!(!out.correct(), "a wrong answer must fail the run");
    }

    #[test]
    fn volume_oracle_counts_what_the_engine_derives() {
        let (n, e) = gen::SMOKE.excl_graph;
        let (src, edges) = gen::random_graph(gen::EXCL_ANCESTOR, n, e, 11);
        let mut sys = System::new();
        sys.load(&src).unwrap();
        sys.query("excl(0, Y, Z)").unwrap();
        assert_eq!(sys.last_stats().facts_derived, excl_volume(n, &edges));
    }

    #[test]
    fn every_cold_workload_runs_traced_and_untraced_at_smoke_size() {
        for w in [
            Workload::TcChain,
            Workload::ExclAncestor,
            Workload::GiantTcPar2,
        ] {
            for trace in [false, true] {
                let out = run(&smoke(w), trace);
                assert!(out.correct(), "{} trace={trace}", w.name());
            }
        }
    }
}
