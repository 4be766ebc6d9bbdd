//! Evaluation observability counters.

use std::fmt;
use std::ops::AddAssign;

/// Counters collected by one evaluation or incremental update.
///
/// These are the observability hook for the serving roadmap: they expose
/// *how much work* an operation did (rule passes, new facts, strata touched)
/// independently of wall-clock noise, so regressions in the incremental
/// planner show up deterministically in tests and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rule-pass executions: the tasks of every round, simple and grouping
    /// heads alike.
    pub rules_fired: u64,
    /// Derivation attempts: body solutions enumerated across all rule
    /// passes (including ones whose head fell outside `U` or deduplicated
    /// away). This is the unit the fuel budget
    /// ([`Budget::fuel`](crate::Budget)) meters.
    pub attempts: u64,
    /// Facts newly inserted into the database (duplicates excluded).
    pub facts_derived: u64,
    /// Derived tuples rejected by the duplicate filter at merge time — the
    /// re-derivations that semi-naive evaluation exists to minimize, and the
    /// dominant hash-and-compare cost that value interning collapses to a
    /// few `u32`s per tuple.
    pub dedup_inserts: u64,
    /// Hash-index probes performed by rule passes (each probe is one lookup
    /// of an interned key tuple; a full scan counts zero).
    pub index_probes: u64,
    /// Indexes built over stored rows for a rule pass to probe.
    pub index_builds: u64,
    /// The live rows of each of those indexes when it was built.
    pub index_rows: u64,
    /// Distinct values in the process-global interner's arena when the
    /// operation finished. An integer in `−2^30 ..= 2^30 − 1` is its own id
    /// and takes no slot, so it is not counted. A *gauge*, not a counter:
    /// the interner is append-only and shared, so this only ever grows
    /// across operations and is combined by `max`, not `+`, in
    /// [`AddAssign`].
    pub interner_values: u64,
    /// The four `strata_*` counters below count the *entries* an
    /// incremental update's sweep visits, one arm each: an entry is one
    /// strongly connected component, or one layer's grouping rules
    /// (`ldl_stratify::Stratification::entries`). This one counts entries
    /// replayed: re-evaluated from their heads' EDB rows, then diffed into
    /// the model.
    pub strata_replayed: u64,
    /// Entries updated by delta-restricted propagation.
    pub strata_delta: u64,
    // Always zero; declared only because `benchmark/src/stream.rs` names it.
    #[doc(hidden)]
    pub strata_counting: u64,
    /// Entries whose deletions ran the DRed overdelete/rederive pass.
    pub strata_dred: u64,
    /// Facts removed from the model database by differential maintenance
    /// (tombstoned EDB facts, derived facts that lost their last
    /// derivation net of rederivations, and rows a replay no longer
    /// derives).
    pub facts_retracted: u64,
    /// Entries skipped because no changed predicate reaches them.
    pub strata_skipped: u64,
    /// Publications to `ldl1::Reader`s that *replayed* the commit's change
    /// log onto the snapshot being replaced (the O(change) arm; `0` for a
    /// system without a reader, like the three counters below).
    pub publish_replays: u64,
    /// Changes those replays applied: rows appended, tombstoned or revived,
    /// plus every row of a relation the commit created.
    pub publish_changes: u64,
    /// Publications that *cloned* the model instead.
    pub publish_clones: u64,
    /// The clones taken because a reader still held the snapshot being
    /// replaced; the others published a model that was not a logged
    /// descendant of it (rebuilt after a rule load or an aborted commit).
    pub publish_clones_held: u64,
    /// Evaluation rounds executed (one round = a batch of rule passes — all
    /// eligible passes of a stratum, or one magic guarded rule — applied
    /// against one immutable database snapshot).
    pub rounds: u64,
    // Never written; declared only because `benchmark/src/pipeline.rs` names it.
    #[doc(hidden)]
    pub parallel_tasks: u64,
    /// Plan-table lookups that found their plan already built (same rule,
    /// same delta role) — by this operation or an earlier one on the same
    /// compiled program ([`crate::compiled`]).
    pub plan_cache_hits: u64,
    /// Plan-table lookups that compiled a plan: the first run of a pass on
    /// its compiled program, so these count per load, not per operation.
    pub plan_cache_misses: u64,
    // Never written; declared only because `benchmark/src/pipeline.rs` names it.
    #[doc(hidden)]
    pub plan_replans: u64,
    /// Existential short-circuits: body-tail existence checks (steps past a
    /// plan's `exist_from` point, which bind no head or grouping variable)
    /// that found a witness and stopped instead of enumerating all matches.
    pub exist_cuts: u64,
    /// Rule plans lowered to RAM-style register programs. A plan is lowered
    /// once, on its first execution, and kept in its program's plan table,
    /// so this counts per load: it grows with neither rounds nor repeated
    /// operations.
    pub lowerings: u64,
    /// Rounds executed through the lowered register programs — every
    /// round, so always equal to `rounds`.
    pub compiled_rounds: u64,
    // Never written; declared only because `benchmark/src/pipeline.rs` names it.
    #[doc(hidden)]
    pub partitioned_passes: u64,
    // Never written; declared only because `benchmark/src/pipeline.rs` names it.
    #[doc(hidden)]
    pub shard_probes: u64,
    // Never written; declared only because `benchmark/src/pipeline.rs` names it.
    #[doc(hidden)]
    pub partition_prefiltered: u64,
    /// Bytes of flat tuple-arena page memory reserved across the model
    /// database's relations when the operation finished. A gauge like
    /// `interner_values` (combined by `max`): it measures where the stored
    /// tuples sit, not work performed.
    pub arena_bytes: u64,
    /// Arena pages allocated across the model database's relations when the
    /// operation finished (each page holds a fixed power-of-two number of
    /// rows of its relation's arity). A gauge, combined by `max`.
    pub arena_pages: u64,
    /// Committed mutation batches appended to the write-ahead log by the
    /// operation. Always `0` when the system has no data directory
    /// attached.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log (record framing included).
    pub wal_bytes: u64,
}

impl EvalStats {
    /// A zeroed counter set.
    pub fn new() -> EvalStats {
        EvalStats::default()
    }

    /// Record the tuple-arena gauges from `db`'s relations (summed over
    /// relations, `max`-combined across operations like every gauge).
    pub fn record_arena(&mut self, db: &ldl_storage::Database) {
        let (mut bytes, mut pages) = (0u64, 0u64);
        for p in db.predicates() {
            if let Some(r) = db.relation(p) {
                bytes += r.arena_bytes() as u64;
                pages += r.arena_pages() as u64;
            }
        }
        self.arena_bytes = self.arena_bytes.max(bytes);
        self.arena_pages = self.arena_pages.max(pages);
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, rhs: EvalStats) {
        self.rules_fired += rhs.rules_fired;
        self.attempts += rhs.attempts;
        self.facts_derived += rhs.facts_derived;
        self.dedup_inserts += rhs.dedup_inserts;
        self.index_probes += rhs.index_probes;
        self.index_builds += rhs.index_builds;
        self.index_rows += rhs.index_rows;
        self.interner_values = self.interner_values.max(rhs.interner_values);
        self.strata_replayed += rhs.strata_replayed;
        self.strata_delta += rhs.strata_delta;
        self.strata_counting += rhs.strata_counting;
        self.strata_dred += rhs.strata_dred;
        self.facts_retracted += rhs.facts_retracted;
        self.strata_skipped += rhs.strata_skipped;
        self.publish_replays += rhs.publish_replays;
        self.publish_changes += rhs.publish_changes;
        self.publish_clones += rhs.publish_clones;
        self.publish_clones_held += rhs.publish_clones_held;
        self.rounds += rhs.rounds;
        self.plan_cache_hits += rhs.plan_cache_hits;
        self.plan_cache_misses += rhs.plan_cache_misses;
        self.exist_cuts += rhs.exist_cuts;
        self.lowerings += rhs.lowerings;
        self.compiled_rounds += rhs.compiled_rounds;
        self.arena_bytes = self.arena_bytes.max(rhs.arena_bytes);
        self.arena_pages = self.arena_pages.max(rhs.arena_pages);
        self.wal_records += rhs.wal_records;
        self.wal_bytes += rhs.wal_bytes;
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rules fired: {}, attempts: {}, facts derived: {}, facts retracted: {}, dedup inserts: {}, index probes: {}, index builds: {} ({} rows), interned values: {}, entries replayed: {}, delta-updated: {}, dred: {}, skipped: {}, rounds: {}, plan cache hits: {}, misses: {}, exist cuts: {}, lowerings: {}, compiled rounds: {}, arena bytes: {}, arena pages: {}, wal records: {}, wal bytes: {}, published by replay: {} ({} changes), by clone: {} ({} snapshot still held, {} new model)",
            self.rules_fired,
            self.attempts,
            self.facts_derived,
            self.facts_retracted,
            self.dedup_inserts,
            self.index_probes,
            self.index_builds,
            self.index_rows,
            self.interner_values,
            self.strata_replayed,
            self.strata_delta,
            self.strata_dred,
            self.strata_skipped,
            self.rounds,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.exist_cuts,
            self.lowerings,
            self.compiled_rounds,
            self.arena_bytes,
            self.arena_pages,
            self.wal_records,
            self.wal_bytes,
            self.publish_replays,
            self.publish_changes,
            self.publish_clones,
            self.publish_clones_held,
            self.publish_clones - self.publish_clones_held
        )
    }
}
