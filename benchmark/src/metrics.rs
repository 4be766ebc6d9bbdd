//! Metric names, units and directions, and the small statistics the
//! harness reports them with. `BENCHMARK.json` at the repo root repeats
//! these tables; `tests/smoke.rs` fails when the two disagree.

/// One metric the harness can report.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics every workload reports (untraced run). These are
/// the gated ones: each has a regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("answer_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// End-to-end metrics only some workloads have. The untraced run prints
/// them; the result line carries them in the traced run, under the
/// per-layer names `ldl1.commit_p50_us`, `ldl1.commit_p99_us`,
/// `ldl1.recovery_ms` and `wal.disk_bytes_per_fact`, because the result
/// line must hold the same metrics for every workload.
pub const WORKLOAD_SPECIFIC: &[MetricDef] = &[
    // What the gated timings were made from: the host's speed over the
    // run (see `host.rs`) and the timings before they were scaled by it.
    higher("host_speed", "ratio"),
    lower("answer_raw_ms", "ms"),
    lower("answer_p50_raw_ms", "ms"),
    higher("ops_per_s_raw", "1/s"),
    lower("setup_raw_s", "s"),
    lower("commit_p50_us", "us"),
    lower("commit_p99_us", "us"),
    lower("recovery_ms", "ms"),
    lower("disk_bytes_per_fact", "B"),
];

/// Per-layer metrics (traced run). `0` on a workload that never enters
/// the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // parser
    lower("parser.parse_ms", "ms"),
    lower("parser.src_bytes", "B"),
    higher("parser.mb_per_s", "MB/s"),
    // ast / transform / stratify
    lower("ast.wf_check_ms", "ms"),
    lower("transform.compile_ms", "ms"),
    lower("transform.rules_out", "count"),
    lower("stratify.canonical_ms", "ms"),
    lower("stratify.sensitivity_ms", "ms"),
    lower("stratify.layers", "count"),
    // value
    lower("value.intern_edb_ms", "ms"),
    lower("value.interner_values", "count"),
    // storage
    lower("storage.edb_insert_ms", "ms"),
    lower("storage.edb_facts", "count"),
    lower("storage.model_facts", "count"),
    lower("storage.model_clone_ms", "ms"),
    lower("storage.arena_bytes", "B"),
    lower("storage.arena_pages", "count"),
    lower("storage.dedup_inserts", "count"),
    lower("storage.index_probes", "count"),
    // eval: full evaluation
    lower("eval.evaluate_ms", "ms"),
    lower("eval.base_strata_ms", "ms"),
    lower("eval.top_stratum_ms", "ms"),
    lower("eval.attempts", "count"),
    lower("eval.facts_derived", "count"),
    lower("eval.rules_fired", "count"),
    lower("eval.rounds", "count"),
    higher("eval.exist_cuts", "count"),
    higher("eval.plan_cache_hits", "count"),
    lower("eval.plan_cache_misses", "count"),
    lower("eval.plan_replans", "count"),
    lower("eval.lowerings", "count"),
    lower("eval.compiled_rounds", "count"),
    higher("eval.useful_ratio", "ratio"),
    lower("eval.ns_per_attempt", "ns"),
    lower("eval.ns_per_fact", "ns"),
    // eval: parallel
    lower("eval.parallel_tasks", "count"),
    lower("eval.partitioned_passes", "count"),
    lower("eval.shard_probes", "count"),
    higher("eval.partition_prefiltered", "count"),
    lower("eval.seq_ms", "ms"),
    lower("eval.sliced_ms", "ms"),
    higher("eval.par_speedup", "ratio"),
    // eval: query and maintenance
    lower("eval.query_ms", "ms"),
    lower("eval.rows_per_answer", "ratio"),
    lower("eval.maintain_assert_us", "us"),
    lower("eval.maintain_retract_us", "us"),
    lower("eval.maintain_update_us", "us"),
    lower("eval.strata_delta", "count"),
    lower("eval.strata_counting", "count"),
    lower("eval.strata_dred", "count"),
    lower("eval.strata_replayed", "count"),
    higher("eval.strata_skipped", "count"),
    lower("eval.facts_retracted", "count"),
    // magic
    lower("magic.compile_ms", "ms"),
    lower("magic.rules_out", "count"),
    lower("magic.evaluate_ms", "ms"),
    lower("magic.facts_derived", "count"),
    // wal
    lower("wal.encode_us", "us"),
    lower("wal.bytes_per_commit", "B"),
    lower("wal.append_nosync_us", "us"),
    lower("wal.append_fsync_us", "us"),
    lower("wal.fsync_us", "us"),
    lower("wal.fsyncs", "count"),
    lower("wal.records", "count"),
    lower("wal.log_bytes", "B"),
    lower("wal.checkpoint_ms", "ms"),
    lower("wal.snapshot_bytes", "B"),
    lower("wal.open_ms", "ms"),
    lower("wal.open_snapshot_ms", "ms"),
    lower("wal.open_replay_ms", "ms"),
    lower("wal.replayed_records", "count"),
    lower("wal.replay_us_per_record", "us"),
    lower("wal.disk_bytes_per_fact", "B"),
    // ldl1 (the System facade)
    lower("ldl1.load_ms", "ms"),
    lower("ldl1.first_run_ms", "ms"),
    lower("ldl1.facade_self_ms", "ms"),
    lower("ldl1.commit_mem_us", "us"),
    lower("ldl1.commit_nosync_us", "us"),
    lower("ldl1.commit_fsync_us", "us"),
    lower("ldl1.publish_us", "us"),
    lower("ldl1.reader_latest_us", "us"),
    lower("ldl1.commit_p50_us", "us"),
    lower("ldl1.commit_p99_us", "us"),
    lower("ldl1.commit_max_ms", "ms"),
    lower("ldl1.query_p99_us", "us"),
    lower("ldl1.checkpoint_stall_ms", "ms"),
    lower("ldl1.recovery_ms", "ms"),
    // harness
    lower("trace.spans", "count"),
    lower("trace.overhead_pct", "%"),
];

/// A set of metric values over one of the tables above: every name of the
/// table is present (0 until set), and setting an unknown name is a bug.
#[derive(Clone, Debug)]
pub struct Table {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Table {
    pub fn new(defs: &'static [MetricDef]) -> Table {
        Table {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = value;
    }

    pub fn has(&self, name: &str) -> bool {
        self.defs.iter().any(|d| d.name == name)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The share of a run's samples read as the host's quiet moments.
///
/// The machine this runs on is a few cores of a shared host whose speed
/// moves by up to 2× in phases of several seconds, so the median of a
/// run's op times differs by 20–30 % between two runs of the same code and
/// says more about the neighbours than about the engine. The fastest ops
/// of a run are the ones the neighbours left alone: the 5th percentile of
/// many short ops repeats within 5–6 % from run to run. Every gated
/// timing is therefore this low quantile ([`quiet_time`]), and every
/// gated rate the matching high quantile ([`quiet_rate`]), of samples
/// spread over the whole run.
pub const QUIET: f64 = 0.05;

/// A duration on the quiet host: the [`QUIET`] quantile of its samples.
pub fn quiet_time(xs: &[f64]) -> f64 {
    quantile(xs, QUIET)
}

/// A rate on the quiet host: the `1 − QUIET` quantile of its samples.
pub fn quiet_rate(xs: &[f64]) -> f64 {
    quantile(xs, 1.0 - QUIET)
}

/// Interquartile range as a share of the median — the spread the
/// acceptance rule is written in. Quartiles follow Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), as the driver does.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 1.0), 10.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} repeated", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
