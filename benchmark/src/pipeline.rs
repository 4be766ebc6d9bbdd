//! The facade's `load → query` path, one layer at a time.
//!
//! The traced run calls each layer's public functions in the order and
//! with the inputs `System::load` / `System::query` would, each under a
//! span, so wall time can be attributed without a timer inside the
//! engine. The answer must equal the facade's; callers check that.

use ldl1::ast::wf::{check_program, Dialect};
use ldl1::storage::intern_ids;
use ldl1::transform::{body_angle, head_terms};
use ldl1::value::ValueId;
use ldl1::{
    Database, EvalOptions, EvalStats, Evaluator, Fact, GroupingSemantics, Program, QueryAnswer,
    Stratification, Symbol,
};

use crate::metrics::{median, Table};
use crate::trace::Tracer;

/// What `System::load` leaves behind: the compiled rules and the EDB.
pub struct Loaded {
    pub compiled: Program,
    pub edb: Database,
    pub src_bytes: usize,
}

/// An evaluated model with the counters of its evaluation.
pub struct Evaluated {
    pub model: Database,
    pub stats: EvalStats,
    pub layers: usize,
}

/// `System::load` on a fresh system (or, with `edb`, on a recovered one).
pub fn load(t: &mut Tracer, src: &str, edb: Option<Database>) -> Result<Loaded, String> {
    let parsed = t
        .span("parser.parse", |_| ldl1::parser::parse_program(src))
        .map_err(|e| e.to_string())?;
    let (facts, rules) = t.span("ldl1.split_facts", |_| {
        let mut facts = Vec::new();
        let mut rules = Vec::new();
        for rule in parsed.rules {
            let ground: Option<Vec<_>> = if rule.is_fact() {
                rule.head.args.iter().map(|a| a.to_value()).collect()
            } else {
                None
            };
            match ground {
                Some(args) => facts.push(Fact::new(rule.head.pred, args)),
                None => rules.push(rule),
            }
        }
        (facts, Program::from_rules(rules))
    });
    let compiled = t
        .span("transform.compile", |_| {
            let p = body_angle::eliminate_body_groups(&rules)?;
            head_terms::eliminate_complex_heads(&p, GroupingSemantics::PerGroup)
        })
        .map_err(|e| e.to_string())?;
    let interned: Vec<(Symbol, Vec<ValueId>)> = t.span("value.intern_edb", |_| {
        facts
            .iter()
            .map(|f| (f.pred(), intern_ids(f.args())))
            .collect()
    });
    let mut edb = edb.unwrap_or_default();
    t.span("storage.edb_insert", |_| {
        for (pred, ids) in &interned {
            edb.insert_id_slice(*pred, ids);
        }
    });
    Ok(Loaded {
        compiled,
        edb,
        src_bytes: src.len(),
    })
}

/// `System::model`: layering, well-formedness, the fixpoint, and the
/// sensitivity classification incremental maintenance would use.
pub fn evaluate(t: &mut Tracer, l: &Loaded, options: &EvalOptions) -> Result<Evaluated, String> {
    let strat = t
        .span("stratify.canonical", |_| {
            Stratification::canonical(&l.compiled)
        })
        .map_err(|e| e.to_string())?;
    t.span("ast.wf_check", |_| {
        check_program(&l.compiled, Dialect::Ldl15)
    })
    .map_err(|e| format!("{e:?}"))?;
    let ev = Evaluator::with_options(EvalOptions {
        dialect: Dialect::Ldl15,
        // checked under its own span just above
        check_wf: false,
        ..options.clone()
    });
    let (model, stats) = t
        .span("eval.evaluate", |_| {
            ev.evaluate_with_stats(&l.compiled, &l.edb, &strat)
        })
        .map_err(|e| e.to_string())?;
    let sens = t.span("stratify.sensitivity", |_| strat.sensitivity(&l.compiled));
    std::hint::black_box(sens);
    Ok(Evaluated {
        model,
        stats,
        layers: strat.num_layers(),
    })
}

/// `System::query` against an evaluated model.
pub fn query(
    t: &mut Tracer,
    model: &Database,
    options: &EvalOptions,
    q: &str,
) -> Result<Vec<QueryAnswer>, String> {
    let atom = t
        .span("parser.parse_atom", |_| ldl1::parser::parse_atom(q))
        .map_err(|e| e.to_string())?;
    Ok(t.span("eval.query", |_| {
        Evaluator::with_options(options.clone()).query(model, &atom)
    }))
}

/// `l.compiled` without the rules of its top layer — the control that
/// splits `eval.evaluate_ms` into base strata and top stratum.
pub fn without_top_layer(l: &Loaded) -> Result<Program, String> {
    let strat = Stratification::canonical(&l.compiled).map_err(|e| e.to_string())?;
    let top = strat.num_layers().saturating_sub(1);
    Ok(Program::from_rules(
        l.compiled
            .rules
            .iter()
            .filter(|r| strat.layer(r.head.pred) != top)
            .cloned()
            .collect(),
    ))
}

/// The counts of a load: source size, compiled rules, EDB facts. Call
/// after [`fill_times`], which `parser.mb_per_s` is derived from.
pub fn fill_load(table: &mut Table, l: &Loaded) {
    let parse_s = table.get("parser.parse_ms") / 1e3;
    table.set("parser.src_bytes", l.src_bytes as f64);
    table.set(
        "parser.mb_per_s",
        l.src_bytes as f64 / 1e6 / parse_s.max(1e-9),
    );
    table.set("transform.rules_out", l.compiled.rules.len() as f64);
    table.set("storage.edb_facts", l.edb.num_facts() as f64);
}

/// The counters of a full evaluation. Call after [`fill_times`], which
/// the per-attempt and per-fact costs are derived from.
pub fn fill_eval(table: &mut Table, e: &Evaluated) {
    let s = &e.stats;
    let eval_ns = table.get("eval.evaluate_ms") * 1e6;
    for (name, value) in [
        ("stratify.layers", e.layers as u64),
        ("value.interner_values", s.interner_values),
        ("storage.model_facts", e.model.num_facts() as u64),
        ("storage.arena_bytes", s.arena_bytes),
        ("storage.arena_pages", s.arena_pages),
        ("storage.dedup_inserts", s.dedup_inserts),
        ("storage.index_probes", s.index_probes),
        ("eval.attempts", s.attempts),
        ("eval.facts_derived", s.facts_derived),
        ("eval.rules_fired", s.rules_fired),
        ("eval.rounds", s.rounds),
        ("eval.exist_cuts", s.exist_cuts),
        ("eval.plan_cache_hits", s.plan_cache_hits),
        ("eval.plan_cache_misses", s.plan_cache_misses),
        ("eval.plan_replans", s.plan_replans),
        ("eval.lowerings", s.lowerings),
        ("eval.compiled_rounds", s.compiled_rounds),
        ("eval.parallel_tasks", s.parallel_tasks),
        ("eval.partitioned_passes", s.partitioned_passes),
        ("eval.shard_probes", s.shard_probes),
        ("eval.partition_prefiltered", s.partition_prefiltered),
    ] {
        table.set(name, value as f64);
    }
    let (attempts, facts) = (s.attempts.max(1) as f64, s.facts_derived.max(1) as f64);
    table.set("eval.useful_ratio", s.facts_derived as f64 / attempts);
    table.set("eval.ns_per_attempt", eval_ns / attempts);
    table.set("eval.ns_per_fact", eval_ns / facts);
}

/// Set every `<span>_ms` metric the table has from the tracer's medians.
pub fn fill_times(table: &mut Table, t: &Tracer) {
    for (span, median_ms) in t.median_ms() {
        let metric = format!("{span}_ms");
        if table.has(&metric) {
            table.set(&metric, median_ms);
        }
    }
}

/// Hold the traced ops against the untraced facade ops they alternated
/// with (`facade_ms[i]` ran just before traced op `i`, under the same host
/// load): what the facade costs beyond its layers, what tracing costs, and
/// a note with the three medians. Pairwise, because the host's speed drifts
/// by more than either quantity between one pair and the next.
pub fn fill_facade(table: &mut Table, t: &Tracer, facade_ms: &[f64]) -> String {
    let ops = t.ops_and_layers_ms();
    let pairs = || facade_ms.iter().zip(&ops);
    let own: Vec<f64> = pairs().map(|(f, (_, layers))| f - layers).collect();
    let over: Vec<f64> = pairs().map(|(f, (op, _))| (op / f - 1.0) * 100.0).collect();
    table.set("ldl1.facade_self_ms", median(&own));
    table.set("trace.overhead_pct", median(&over));
    table.set("trace.spans", t.span_count() as f64);
    let layers: Vec<f64> = ops.iter().map(|(_, layers)| *layers).collect();
    let traced: Vec<f64> = ops.iter().map(|(op, _)| *op).collect();
    format!(
        "untraced answer_ms {:.3} (median of {}), layer self times sum {:.3} ms, traced op {:.3} ms",
        median(facade_ms),
        facade_ms.len(),
        median(&layers),
        median(&traced)
    )
}
