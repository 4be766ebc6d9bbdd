//! `bom_magic`: the paper's §1 bill-of-materials program answered through
//! the §6 magic-set pipeline. Set-up loads the program and the part
//! hierarchy; one op is `System::query_magic("result(1, C)")`.

use std::time::Instant;

use ldl1::ast::wf::{check_program, Dialect};
use ldl1::{EvalOptions, Evaluator, MagicEvaluator, QueryAnswer, Stratification, System};

use crate::gen;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle;
use crate::pipeline;
use crate::trace::Tracer;
use crate::workload::{ms, Config, Outcome, Reps, Samples, Tally};

const QUERY: &str = "result(1, C)";

/// One timed `query_magic`, checked against the leaf price sum.
fn facade_op(sys: &System, total: i64, tally: &mut Tally) -> (f64, Option<Vec<QueryAnswer>>) {
    let t0 = Instant::now();
    let answers = sys.query_magic(QUERY);
    let dt = ms(t0.elapsed());
    match answers {
        Ok(a) => {
            tally.op(Ok(oracle::rows(&a) == Some(vec![vec![total]])));
            (dt, Some(a))
        }
        Err(e) => {
            tally.op(Err(e.to_string()));
            (dt, None)
        }
    }
}

/// Generate the hierarchy and load it into a fresh system.
fn set_up(cfg: &Config) -> Result<(System, String, i64), String> {
    let (depth, branching) = cfg.sizes().bom;
    let (src, total) = gen::bom(depth, branching, cfg.seed);
    let mut sys = System::new();
    sys.load(&src).map_err(|e| e.to_string())?;
    Ok((sys, src, total))
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        Outcome::or_setup_failure(traced(cfg), PER_LAYER)
    } else {
        Outcome::or_setup_failure(untraced(cfg), END_TO_END)
    }
}

fn untraced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(END_TO_END);
    let mut s = Samples::default();
    let mut rounds = Reps::new(cfg, 1.0, 2);
    while rounds.again() {
        let (sys, total) = s.setup(|| {
            let (sys, _, total) = set_up(cfg)?;
            facade_op(&sys, total, &mut out.tally);
            Ok::<_, String>((sys, total))
        })?;
        let ops: Vec<f64> = (0..cfg.sizes().round_ops)
            .map(|_| {
                s.tick();
                facade_op(&sys, total, &mut out.tally).0
            })
            .collect();
        s.blocks(&ops, 1);
        s.answers_ms.extend(ops);
    }
    s.report(&mut out, "query_magic ops");
    Ok(out)
}

/// `MagicEvaluator::query`, one layer at a time, on the facade's own
/// compiled program and EDB.
fn traced_op(t: &mut Tracer, sys: &System) -> Result<(Vec<QueryAnswer>, usize, usize), String> {
    let atom = t
        .span("parser.parse_atom", |_| ldl1::parser::parse_atom(QUERY))
        .map_err(|e| e.to_string())?;
    let options = EvalOptions {
        dialect: Dialect::Ldl15,
        ..EvalOptions::default()
    };
    t.span("ast.wf_check", |_| {
        check_program(sys.program(), Dialect::Ldl1)
    })
    .map_err(|e| format!("{e:?}"))?;
    t.span("stratify.canonical", |_| {
        Stratification::canonical(sys.program())
    })
    .map_err(|e| e.to_string())?;
    let mp = t
        .span("magic.compile", |_| {
            MagicEvaluator::compile(sys.program(), &atom)
        })
        .map_err(|e| e.to_string())?;
    let ev = MagicEvaluator::with_options(options.clone());
    let db = t
        .span("magic.evaluate", |_| {
            ev.evaluate(&mp, sys.program(), sys.edb())
        })
        .map_err(|e| e.to_string())?;
    let plain = Evaluator::with_options(EvalOptions {
        check_wf: false,
        ..options
    });
    let answers = t.span("eval.query", |_| plain.query(&db, &mp.query));
    let derived = db.num_facts() - sys.edb().num_facts();
    Ok((answers, mp.program.rules.len(), derived))
}

fn traced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::new(PER_LAYER);
    let mut t = Tracer::new(cfg.workload.name());
    let t0 = Instant::now();
    let (sys, src, total) = set_up(cfg)?;
    out.table.set("ldl1.load_ms", ms(t0.elapsed()));
    // The load is set-up here, but its layers are measured all the same.
    let loaded = t.span("load", |t| pipeline::load(t, &src, None))?;
    let (first_ms, _) = facade_op(&sys, total, &mut out.tally);
    out.table.set("ldl1.first_run_ms", first_ms);

    let mut facade = Vec::new();
    let mut counts = (0, 0);
    let mut reps = Reps::new(cfg, 0.8, 2);
    while reps.again() {
        let (dt, expected) = facade_op(&sys, total, &mut out.tally);
        facade.push(dt);
        t.next_rep();
        let staged = t.span("op", |t| traced_op(t, &sys));
        out.tally.op(staged.map(|(answers, rules, derived)| {
            counts = (rules, derived);
            Some(&answers) == expected.as_ref()
        }));
    }

    pipeline::fill_times(&mut out.table, &t);
    pipeline::fill_load(&mut out.table, &loaded);
    out.table.set("magic.rules_out", counts.0 as f64);
    out.table.set("magic.facts_derived", counts.1 as f64);
    out.table
        .set("value.interner_values", ldl1::value::intern::len() as f64);
    let note = pipeline::fill_facade(&mut out.table, &t, &facade);
    out.notes.push(note);
    out.tracer = Some(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn bom_runs_traced_and_untraced_at_smoke_size() {
        for trace in [false, true] {
            let cfg = Config::smoke(Workload::BomMagic, 3);
            let out = run(&cfg, trace);
            assert!(out.correct(), "trace={trace}");
            if trace {
                assert!(out.table.get("magic.rules_out") > 0.0);
                assert!(out.table.get("eval.evaluate_ms") == 0.0);
            }
        }
    }
}
