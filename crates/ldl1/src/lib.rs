#![warn(missing_docs)]

//! # ldl1 — a deductive database engine for LDL1
//!
//! A from-scratch reproduction of *Sets and Negation in a Logic Database
//! Language (LDL1)* (Beeri, Naqvi, Ramakrishnan, Shmueli, Tsur; PODS 1987):
//! Datalog with function symbols, **finite sets as first-class values**
//! (enumeration `{a, b}` and grouping `<X>`), **stratified negation**,
//! bottom-up minimal-model evaluation, the LDL1.5 surface extensions, and
//! **magic-set** query compilation.
//!
//! ```
//! use ldl1::System;
//!
//! let mut sys = System::new();
//! sys.load(
//!     "ancestor(X, Y) <- parent(X, Y).
//!      ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
//!      kids(P, <K>)   <- parent(P, K).",
//! ).unwrap();
//! sys.fact("parent(abe, bob).").unwrap();
//! sys.fact("parent(bob, cal).").unwrap();
//!
//! let answers = sys.query("ancestor(abe, X)").unwrap();
//! assert_eq!(answers.len(), 2);
//!
//! let kids = sys.query("kids(abe, S)").unwrap();
//! assert_eq!(kids[0].bindings[0].1.to_string(), "{bob}");
//! ```
//!
//! The crates underneath (re-exported here) map to the paper:
//!
//! | crate | paper section |
//! |---|---|
//! | [`value`] | §2.2 — the LDL1 universe `U`, domination order §2.4 |
//! | [`ast`], [`parser`] | §2.1 — syntax |
//! | [`stratify`] | §3.1 — admissibility and layering |
//! | [`eval`] | §3.2 — layered bottom-up minimal-model computation |
//! | [`transform`] | §3.3 negation→grouping, §4 LDL1.5, §5 LPS |
//! | [`magic`] | §6 — sips, adornment, generalized magic sets |

use std::fmt;
use std::path::Path;
use std::sync::Arc;

mod durable;

pub use durable::{Reader, Snapshot};

pub use ldl_ast as ast;
pub use ldl_eval as eval;
pub use ldl_magic as magic;
pub use ldl_parser as parser;
pub use ldl_storage as storage;
pub use ldl_stratify as stratify;
pub use ldl_transform as transform;
pub use ldl_value as value;
pub use ldl_wal as wal;

pub use ldl_ast::program::Program;
pub use ldl_eval::{
    check_model, reference_model, Budget, CancelToken, EvalOptions, EvalStats, Evaluator,
    QueryAnswer, ResourceKind,
};
pub use ldl_magic::MagicEvaluator;
pub use ldl_storage::Database;
pub use ldl_stratify::Stratification;
pub use ldl_transform::head_terms::GroupingSemantics;
pub use ldl_value::{Fact, FactSet, SetValue, Symbol, Value};
pub use ldl_wal::{CheckpointInfo, OpenTimes, RecoveryInfo, StoreOptions, SyncPolicy, Truncation};

/// Any error the system can raise.
///
/// Marked `#[non_exhaustive]`: future versions may add variants, so match
/// with a `_` arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Lexing/parsing failed.
    Parse(ldl_parser::ParseError),
    /// An LDL1.5 → LDL1 rewrite failed.
    Transform(ldl_transform::TransformError),
    /// Well-formedness, admissibility, or evaluation failed.
    Eval(ldl_eval::EvalError),
    /// A fact to assert contains variables (or other non-value terms); only
    /// ground facts can enter the EDB.
    NotGround {
        /// The offending fact, as written.
        text: String,
    },
    /// A mutation batch failed validation before anything was applied.
    Mutation(MutationError),
    /// The durability layer failed an I/O operation (append, sync,
    /// snapshot install). The in-memory system is intact; the write-ahead
    /// log refuses further appends until a successful
    /// [`System::checkpoint`] re-establishes agreement with memory.
    Durability(ldl_wal::WalError),
    /// A data directory's *non-recoverable* region is damaged: a bad
    /// magic number or version, or a snapshot failing its checksum. (A
    /// torn or corrupt log *tail* is not an error — recovery truncates it
    /// and reports it in [`RecoveryInfo::truncation`].)
    Corrupt {
        /// Byte offset of the damage within the offending file.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
    /// A durability operation ([`System::checkpoint`]) was requested on a
    /// system with no data directory attached — use [`System::open`] or
    /// [`System::persist`] first.
    NoDataDir,
}

/// A mutation batch rejected during validation — raised by
/// [`MutationBatch::commit`] *before* any change is applied, so the system
/// is untouched.
///
/// Marked `#[non_exhaustive]`: future versions may add variants, so match
/// with a `_` arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MutationError {
    /// A retraction (or the old side of an update) names a fact that is not
    /// in the extensional database at that point of the batch. Retracting a
    /// *derived* fact's stored twin is fine; retracting a fact that was
    /// never stored is a bug in the caller, not a no-op.
    RetractUnknownFact {
        /// The missing fact.
        fact: Fact,
    },
    /// An assertion's argument count differs from the arity its predicate
    /// already has — in the stored relation, in the cached model, or in an
    /// earlier assertion of the same batch. A predicate has one arity.
    ArityMismatch {
        /// The offending fact.
        fact: Fact,
        /// The arity the predicate already has.
        expected: usize,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::RetractUnknownFact { fact } => {
                write!(f, "cannot retract {fact}: not in the extensional database")
            }
            MutationError::ArityMismatch { fact, expected } => write!(
                f,
                "cannot assert {fact}: predicate {} has arity {expected}",
                fact.pred()
            ),
        }
    }
}

impl std::error::Error for MutationError {}

impl From<MutationError> for Error {
    fn from(e: MutationError) -> Error {
        Error::Mutation(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Transform(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
            Error::NotGround { text } => write!(f, "fact is not ground: {text}"),
            Error::Mutation(e) => write!(f, "{e}"),
            Error::Durability(e) => write!(f, "{e}"),
            Error::Corrupt { offset, detail } => {
                write!(f, "corrupt durable state at byte {offset}: {detail}")
            }
            Error::NoDataDir => write!(f, "no data directory attached to this system"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Transform(e) => Some(e),
            Error::Eval(e) => Some(e),
            Error::NotGround { .. } => None,
            Error::Mutation(e) => Some(e),
            Error::Durability(e) => Some(e),
            Error::Corrupt { .. } => None,
            Error::NoDataDir => None,
        }
    }
}

impl From<ldl_wal::WalError> for Error {
    fn from(e: ldl_wal::WalError) -> Error {
        match e {
            ldl_wal::WalError::Corrupt { offset, detail } => Error::Corrupt { offset, detail },
            other => Error::Durability(other),
        }
    }
}

impl From<ldl_parser::ParseError> for Error {
    fn from(e: ldl_parser::ParseError) -> Error {
        Error::Parse(e)
    }
}

impl From<ldl_transform::TransformError> for Error {
    fn from(e: ldl_transform::TransformError) -> Error {
        Error::Transform(e)
    }
}

impl From<ldl_eval::EvalError> for Error {
    fn from(e: ldl_eval::EvalError) -> Error {
        Error::Eval(e)
    }
}

/// A deductive database session: rules + facts + cached model.
///
/// Programs may use the full LDL1.5 surface. On load, complex heads are
/// macro-expanded to core LDL1 (§4.2); a body `<t>` stays and is matched
/// natively (§4.1). Facts can be asserted, retracted, and updated —
/// one at a time with [`System::fact`] / [`System::retract`] /
/// [`System::update`], or transactionally with [`System::mutate`]. The
/// model is computed when something needs all of it: [`System::model`], a
/// [`Reader`], a query with nothing bound, or the second bound query (the
/// first one runs §6 magic sets instead — see [`System::query`]). Once a
/// model has been computed it is *maintained*: a committed batch is swept
/// once up the schedule cold evaluation runs, one component at a time —
/// retractions run delete-rederive (DRed) maintenance, assertions seed the
/// semi-naive machinery as the initial delta, and a component neither
/// applies to is replayed alone (see [`eval::retract`]) — instead of
/// recomputing from scratch. Loading new
/// rules or changing the grouping semantics invalidates the cache.
///
/// The program is compiled once per load ([`eval::compiled`]): its
/// layering, its plans, DRed's programs and the §6 rewrite of each query
/// form are built the first time an operation needs them and kept until
/// new rules, or another grouping semantics, replace the program.
#[derive(Debug)]
pub struct System {
    source: Program,
    compiled: Arc<Compiled>,
    edb: Database,
    options: EvalOptions,
    grouping_semantics: GroupingSemantics,
    /// The model, once computed; it was computed under `compiled`, and is
    /// dropped whenever that is replaced.
    cache: Option<Database>,
    /// A bound query ran the §6 pipeline since the cache was last dropped,
    /// so the next query builds and caches the model (rent-or-buy).
    magic_answered: bool,
    last_stats: EvalStats,
    durable: Option<ldl_wal::Store>,
    recovery: Option<RecoveryInfo>,
    readers: Option<Arc<durable::ReaderShared>>,
}

impl Clone for System {
    /// A clone is an **in-memory fork**: it copies the rules, EDB, cached
    /// model, and options, but *not* the data directory (two writers on
    /// one log would corrupt it), the recovery report, or the reader
    /// publication channel. Call [`System::persist`] on the clone to give
    /// it its own directory.
    fn clone(&self) -> System {
        System {
            source: self.source.clone(),
            compiled: self.compiled.clone(),
            edb: self.edb.clone(),
            options: self.options.clone(),
            grouping_semantics: self.grouping_semantics,
            cache: self.cache.clone(),
            magic_answered: self.magic_answered,
            last_stats: self.last_stats,
            durable: None,
            recovery: None,
            readers: None,
        }
    }
}

/// One admitted program, compiled once and shared by everything that runs
/// it: evaluation, maintenance and `explain` read its layering, plan table
/// and DRed programs, and the magic arm its rewrites, one per query form.
#[derive(Debug)]
struct Compiled {
    eval: eval::Compiled,
    magic: magic::MagicTable,
}

impl Default for System {
    fn default() -> System {
        System::new()
    }
}

impl System {
    /// A fresh system with default options.
    pub fn new() -> System {
        System {
            source: Program::new(),
            compiled: Arc::new(Compiled {
                eval: eval::Compiled::new(Program::new()).expect("no rules, no cycle"),
                magic: magic::MagicTable::default(),
            }),
            edb: Database::new(),
            options: EvalOptions::default(),
            grouping_semantics: GroupingSemantics::PerGroup,
            cache: None,
            magic_answered: false,
            last_stats: EvalStats::new(),
            durable: None,
            recovery: None,
            readers: None,
        }
    }

    /// Open (creating if needed) a durable system backed by the data
    /// directory `dir`: recover the extensional database from the latest
    /// snapshot plus the write-ahead log's tail, then keep every committed
    /// mutation batch logged. Rules are **not** persisted — load them
    /// after opening, as on any fresh system; the recovered EDB then
    /// drives evaluation exactly as if the facts had just been asserted.
    ///
    /// A torn or corrupt log tail (a crash mid-commit) is truncated and
    /// reported in [`System::recovery_info`], never an error; damage to
    /// the non-recoverable region (snapshot checksum, file magic) is
    /// [`Error::Corrupt`].
    pub fn open(dir: impl AsRef<Path>) -> Result<System, Error> {
        System::open_with(dir, EvalOptions::default(), StoreOptions::default())
    }

    /// [`System::open`] with explicit evaluation and durability options
    /// (e.g. a group-commit [`SyncPolicy`]).
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: EvalOptions,
        store: StoreOptions,
    ) -> Result<System, Error> {
        let (store, edb, info) = ldl_wal::Store::open(dir, store)?;
        Ok(System {
            edb,
            options,
            durable: Some(store),
            recovery: Some(info),
            ..System::new()
        })
    }

    /// Attach this in-memory system to a data directory and checkpoint
    /// the current EDB into it, making the directory's durable state
    /// equal to this system's facts (any previous contents of `dir` are
    /// superseded by the new snapshot). Subsequent commits are logged.
    pub fn persist(&mut self, dir: impl AsRef<Path>) -> Result<CheckpointInfo, Error> {
        let (store, _, _) = ldl_wal::Store::open(dir, StoreOptions::default())?;
        self.durable = Some(store);
        self.recovery = None;
        self.checkpoint()
    }

    /// Snapshot the current EDB, install it atomically, and restart the
    /// write-ahead log from it (bounding recovery time). Returns where
    /// the snapshot went, its size, and the sequence number it covers.
    /// Fails with [`Error::NoDataDir`] when no data directory is
    /// attached.
    pub fn checkpoint(&mut self) -> Result<CheckpointInfo, Error> {
        let store = self.durable.as_mut().ok_or(Error::NoDataDir)?;
        Ok(store.checkpoint(&self.edb)?)
    }

    /// What recovery found when this system was [`System::open`]ed:
    /// snapshot sequence, batches replayed, and any truncated log tail.
    /// `None` for in-memory systems and after [`System::persist`].
    pub fn recovery_info(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// The attached data directory, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|s| s.dir())
    }

    /// Force any unsynced log records to stable storage (a no-op without
    /// a data directory). Only needed under a group-commit or no-sync
    /// [`SyncPolicy`].
    pub fn sync(&mut self) -> Result<(), Error> {
        if let Some(store) = &mut self.durable {
            store.sync()?;
        }
        Ok(())
    }

    /// Direct access to the underlying durable store, if attached. This
    /// is a hook for fault-injection tests (swapping the log's byte sink
    /// via [`wal::Store::set_wal_file`]) and diagnostics; normal use goes
    /// through [`System::checkpoint`] and [`System::sync`].
    pub fn wal_store_mut(&mut self) -> Option<&mut ldl_wal::Store> {
        self.durable.as_mut()
    }

    /// A concurrent read handle: clone it into any number of threads,
    /// each calling [`Reader::latest`] for an immutable [`Snapshot`] of
    /// the most recently committed model while this thread keeps
    /// committing mutations. Forces an initial model computation — readers
    /// read whole models, so from here on [`System::query`] reads the
    /// cached one too and never runs magic sets — and copies it once; from
    /// then on every successful commit publishes the freshly maintained
    /// model at a cost proportional to what the commit changed — the
    /// writer's copy and the published one leapfrog, and the model is
    /// cloned again only while a reader still holds the snapshot
    /// being replaced, or after the model was rebuilt (see
    /// [`EvalStats::publish_replays`] / [`EvalStats::publish_clones`]).
    /// Nothing is paid until a reader exists. See [`Reader`] for the one
    /// commit that does not publish, the one following an aborted one.
    pub fn reader(&mut self) -> Result<Reader, Error> {
        self.model()?;
        let shared = match &self.readers {
            Some(s) => Arc::clone(s),
            None => {
                let cache = self.cache.as_mut().expect("model just computed");
                let shared = Arc::new(durable::ReaderShared::new(cache));
                self.readers = Some(Arc::clone(&shared));
                shared
            }
        };
        Ok(durable::Reader::new(shared))
    }

    /// A one-off immutable [`Snapshot`] of the current model — like
    /// [`Reader::latest`] but without activating continuous publication
    /// (so later commits pay nothing for it).
    pub fn snapshot(&mut self) -> Result<Snapshot, Error> {
        self.model()?;
        let cache = self.cache.as_ref().expect("model just computed");
        let epoch = self.readers.as_ref().map_or(0, |s| s.current_epoch());
        Ok(Snapshot::one_off(cache.clone(), epoch))
    }

    /// Append a committed batch to the write-ahead log, if one is
    /// attached. Called *after* the in-memory commit succeeded, so an
    /// aborted batch leaves zero trace in the log; on an append failure
    /// the store poisons itself (see [`Error::Durability`]).
    fn log_commit(&mut self, del: &[Fact], ins: &[Fact]) -> Result<(), Error> {
        if del.is_empty() && ins.is_empty() {
            return Ok(());
        }
        let Some(store) = &mut self.durable else {
            return Ok(());
        };
        let info = store.append(del, ins)?;
        self.last_stats.wal_records += 1;
        self.last_stats.wal_bytes += info.bytes;
        Ok(())
    }

    /// Publish the cached model to concurrent readers, if both exist,
    /// counting the arm taken in [`System::last_stats`].
    fn publish(&mut self) {
        let (Some(shared), Some(cache)) = (&self.readers, &mut self.cache) else {
            return;
        };
        shared.publish(cache, &mut self.last_stats);
    }

    /// Override evaluation options.
    pub fn with_options(options: EvalOptions) -> System {
        System {
            options,
            ..System::new()
        }
    }

    /// Set the resource budget every subsequent evaluation runs under:
    /// fuel (derivation attempts), a wall-clock deadline, derived-fact and
    /// interner-size caps, and/or a [`CancelToken`]. Aborted operations are
    /// transactional — see [`eval::Budget`] — so the budget can be raised
    /// and the call retried; an aborted *commit* drops the cached model.
    pub fn set_budget(&mut self, budget: Budget) {
        self.options.budget = budget;
    }

    /// The currently configured budget.
    pub fn budget(&self) -> &Budget {
        &self.options.budget
    }

    /// The cancel token evaluations run under — share it with another
    /// thread (or a signal handler) and call [`CancelToken::cancel`] to
    /// interrupt an evaluation in progress. The evaluation finishes the
    /// round in flight and stops at its boundary, like a deadline: the
    /// interrupted call fails with [`eval::EvalError::ResourceExhausted`]
    /// and leaves the system in its pre-call state; [`CancelToken::reset`]
    /// re-arms for the next call.
    pub fn interrupt_handle(&self) -> CancelToken {
        self.options.budget.cancel.clone()
    }

    /// Choose the §4.2 grouping semantics — (ii) `PerGroup` (default) or
    /// (ii)′ `WithContext`. Recompiles the loaded rules; an error leaves
    /// the previous compilation (and semantics choice) in place.
    pub fn set_grouping_semantics(&mut self, s: GroupingSemantics) -> Result<(), Error> {
        self.compiled = self.admit(s)?;
        self.grouping_semantics = s;
        self.drop_model();
        self.republish()
    }

    /// Forget the cached model. The next bound query may run the §6
    /// pipeline again: rent-or-buy starts over.
    fn drop_model(&mut self) {
        self.cache = None;
        self.magic_answered = false;
    }

    /// After a change of rules dropped the cached model: with a [`Reader`]
    /// attached, recompute it now — [`System::model`] publishes — so the
    /// commits that follow are maintained and published instead of landing
    /// in the EDB only, unseen by readers until the writer next queries. An
    /// evaluation error surfaces here as that query would have reported it;
    /// the rules stay loaded.
    fn republish(&mut self) -> Result<(), Error> {
        if self.readers.is_some() {
            self.model()?;
        }
        Ok(())
    }

    /// Compile `source` under `semantics` — the one compilation of the
    /// program: layered, and checked for what [`System::model`] would raise
    /// before evaluating a single rule — inadmissibility (§3.1) and
    /// ill-formedness — so that a program no model can be computed for is
    /// never installed.
    fn admit(&self, semantics: GroupingSemantics) -> Result<Arc<Compiled>, Error> {
        let program = compile_ldl15(&self.source, semantics)?;
        let eval = eval::Compiled::new(program)?;
        let opts = self.eval_options();
        if opts.check_wf {
            ast::wf::check_program(eval.program(), opts.dialect)
                .map_err(ldl_eval::EvalError::from)?;
        }
        let magic = magic::MagicTable::default();
        Ok(Arc::new(Compiled { eval, magic }))
    }

    /// Load rules (and inline facts) written in LDL1 / LDL1.5 concrete
    /// syntax. Ground facts go to the EDB; rules are compiled: complex heads
    /// to core LDL1, a body `<t>` kept.
    ///
    /// A `src` whose rules are rejected — a parse or transform error, or
    /// rules that would make the loaded program inadmissible or ill-formed
    /// — changes nothing: the rules loaded before, the cached model and the
    /// published snapshot stay as they were, and its inline facts are not
    /// committed.
    ///
    /// New rules invalidate the cached model (with a [`Reader`] attached it
    /// is recomputed and published before `load` returns); a facts-only
    /// `src` is committed as one [`System::mutate`] batch of assertions,
    /// maintaining the model incrementally.
    pub fn load(&mut self, src: &str) -> Result<(), Error> {
        let parsed = ldl_parser::parse_program(src)?;
        let mut facts = Vec::new();
        let mut rules = Vec::new();
        for rule in parsed.rules {
            if rule.is_fact() {
                if let Some(args) = rule
                    .head
                    .args
                    .iter()
                    .map(|t| t.to_value())
                    .collect::<Option<Vec<_>>>()
                {
                    facts.push(Fact::new(rule.head.pred, args));
                    continue;
                }
            }
            rules.push(rule);
        }
        let new_rules = !rules.is_empty();
        if new_rules {
            // A rejected rule must not stay in `source`, where it would
            // fail every later load: take the candidate rules back out.
            let loaded = self.source.rules.len();
            self.source.rules.extend(rules);
            match self.admit(self.grouping_semantics) {
                Ok(compiled) => self.compiled = compiled,
                Err(e) => {
                    self.source.rules.truncate(loaded);
                    return Err(e);
                }
            }
            self.drop_model();
        }
        let mut b = self.mutate();
        for f in facts {
            b.push(Mutation::Assert(f));
        }
        b.commit()?;
        if new_rules {
            self.republish()?;
        }
        Ok(())
    }

    /// Add one fact, e.g. `sys.fact("parent(abe, bob).")`. A convenience
    /// for a mutation batch of one: if a model is cached, it is maintained
    /// incrementally.
    pub fn fact(&mut self, src: &str) -> Result<(), Error> {
        let mut b = self.mutate();
        b.assert_fact(src)?;
        b.commit()
    }

    /// Remove one stored fact, e.g. `sys.retract("parent(abe, bob).")`.
    /// A convenience for a mutation batch of one; fails with
    /// [`MutationError::RetractUnknownFact`] if the fact is not stored.
    pub fn retract(&mut self, src: &str) -> Result<(), Error> {
        let mut b = self.mutate();
        b.retract_fact(src)?;
        b.commit()
    }

    /// Replace one stored fact with another, e.g.
    /// `sys.update("salary(joe, 10).", "salary(joe, 20).")` — a retraction
    /// and an assertion committed as one transaction.
    pub fn update(&mut self, old: &str, new: &str) -> Result<(), Error> {
        let mut b = self.mutate();
        b.update_fact(old, new)?;
        b.commit()
    }

    /// Add one fact from parts — [`System::fact`] without the parsing. A
    /// convenience for a mutation batch of one.
    pub fn insert(&mut self, pred: &str, args: Vec<Value>) -> Result<(), Error> {
        let mut b = self.mutate();
        b.assert(pred, args);
        b.commit()
    }

    /// Start a mutation transaction: assertions, retractions, and updates
    /// staged on the returned [`MutationBatch`] become visible all at once
    /// when it commits, and the cached model (if any) is brought from the
    /// old state to the new state in a single differential-maintenance
    /// step — delta propagation or delete-rederive per component, replaying
    /// only the components where a change touches negation or grouping or
    /// a deletion meets rule heads delete-rederive cannot maintain.
    pub fn mutate(&mut self) -> MutationBatch<'_> {
        MutationBatch {
            sys: self,
            staged: Vec::new(),
        }
    }

    /// Work counters from the most recent evaluation — full, incremental,
    /// or the magic-set evaluation of a bound [`System::query`]. After an
    /// incremental commit, `strata_skipped` / `strata_delta` /
    /// `strata_dred` / `strata_replayed` count the schedule entries (a
    /// component, or a layer's grouping rules) each arm maintained.
    pub fn last_stats(&self) -> EvalStats {
        self.last_stats
    }

    /// Apply a committed mutation batch — the one commit path: `del` and
    /// `ins` are the net, validated, disjoint deletion and insertion sets.
    ///
    /// With a cached model the batch goes through
    /// [`eval::apply_mutations`]: delete-rederive (or replay) per schedule
    /// entry for the deletions, delta propagation for the insertions.
    /// On any error — typically a tripped budget — the EDB is rewound to its
    /// rows, positions and liveness and the half-updated model is dropped;
    /// re-submitting the batch under a sufficient budget then produces the
    /// same state as an uninterrupted commit.
    fn commit_mutations(&mut self, del: Vec<Fact>, ins: Vec<Fact>) -> Result<(), Error> {
        if del.is_empty() && ins.is_empty() {
            return Ok(()); // netted to nothing: no evaluation, no log record
        }
        let opts = self.eval_options();
        // Interned once, for the EDB and the model alike.
        let rows = ldl_storage::IdRows::intern;
        let (del_rows, ins_rows) = (rows(&del), rows(&ins));
        let Some(cache) = &mut self.cache else {
            self.edb.apply(&del_rows, &ins_rows).expect("validated");
            return self.log_commit(&del, &ins);
        };
        let mut stats = EvalStats::new();
        let res = eval::apply_mutations(
            &self.compiled.eval,
            &mut self.edb,
            cache,
            &del_rows,
            &ins_rows,
            &opts,
            &mut stats,
        );
        stats.interner_values = ldl_value::intern::len() as u64;
        self.last_stats = stats;
        if let Err(e) = res {
            // `apply_mutations` already restored the EDB; the model may be
            // half-updated, so drop it — the next query recomputes (and
            // re-raises any non-budget error) from scratch. The restored
            // EDB means the aborted batch must leave zero trace in the
            // write-ahead log, which it does: logging happens below, only
            // after success.
            self.drop_model();
            return Err(e.into());
        }
        // The in-memory commit stands even if the append fails (the store
        // poisons itself), so readers must still see the new model.
        let logged = self.log_commit(&del, &ins);
        self.publish();
        logged
    }

    /// The compiled program: core LDL1 heads, and bodies that may keep a
    /// `<t>` pattern (§4.1).
    pub fn program(&self) -> &Program {
        self.compiled.eval.program()
    }

    /// The extensional database.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// Compute (or fetch the cached) standard model — Theorem 1's `Mₙ`.
    pub fn model(&mut self) -> Result<&Database, Error> {
        if self.cache.is_none() {
            let ev = Evaluator::with_options(self.eval_options());
            let (db, stats) = ev.evaluate_compiled(&self.compiled.eval, &self.edb)?;
            self.last_stats = stats;
            self.cache = Some(db);
            self.publish();
        }
        Ok(self.cache.as_ref().expect("just computed"))
    }

    /// The compiled program keeps its body `<t>` patterns, in relation and
    /// built-in literals alike, and the evaluator matches them natively
    /// (§4.1) — so it is checked as LDL1.5.
    fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            dialect: ast::wf::Dialect::Ldl15,
            ..self.options.clone()
        }
    }

    /// Answer a query against the standard model, by one of three arms —
    /// the caller does not choose:
    ///
    /// * **a model is cached** (or a [`Reader`] is attached): read it,
    ///   through an index when the query binds the columns of one the model
    ///   already has and by a filtered scan otherwise (see
    ///   [`eval::engine::query`]; a query never builds an index);
    /// * **no model, and the query binds an argument of a predicate rules
    ///   define**: run the §6 magic-set pipeline over the EDB, which derives
    ///   only what the bound arguments reach (Theorems 3/4: same answers).
    ///   No model is cached, and [`System::last_stats`] reports the magic
    ///   evaluation. This arm runs at most once per uncached state — the
    ///   next query builds the model, as below, so a session that keeps
    ///   asking pays for one model rather than one cone per question
    ///   (rent-or-buy). A query whose rules have no executable sip for its
    ///   binding pattern takes the arm below instead;
    /// * **otherwise**: evaluate the whole model bottom-up, cache it, and
    ///   read it. From then on it is maintained across commits.
    ///
    /// [`System::explain_query`] says which arm a query takes.
    pub fn query(&mut self, query: &str) -> Result<Vec<QueryAnswer>, Error> {
        let atom = ldl_parser::parse_atom(query)?;
        if let Some(form) = self.magic_arm(&atom) {
            let (answers, stats) = form.answer(&atom, &self.edb, &self.eval_options())?;
            self.last_stats = stats;
            self.magic_answered = true;
            return Ok(answers);
        }
        Ok(eval::engine::query(self.model()?, &atom))
    }

    /// The magic-set form [`System::query`] runs for `atom`, or `None`
    /// when it reads a model instead: one is cached or a reader needs one,
    /// a magic query already ran on this uncached state, `atom` is not a
    /// rule-defined predicate at its arity, nothing is bound, or a rule has
    /// no executable sip for the binding pattern.
    fn magic_arm(&self, atom: &ast::literal::Atom) -> Option<Arc<magic::MagicForm>> {
        if self.cache.is_some() || self.readers.is_some() || self.magic_answered {
            return None;
        }
        let defined = self
            .program()
            .rules_for(atom.pred)
            .any(|r| r.head.arity() == atom.arity());
        if !defined || magic::adorn::query_adornment(atom).bound_count() == 0 {
            return None;
        }
        // Only a grouped position was bound: the adornment frees it (§6).
        let compiled = &self.compiled;
        let form = compiled.magic.form(&compiled.eval, atom).ok()?;
        (form.adornment().bound_count() > 0).then_some(form)
    }

    /// One line saying which arm [`System::query`] would take for this
    /// query, without running it when that is the magic arm —
    /// `anc(0, Y): magic anc'bf: seed m'anc'bf(0), 5 rules`, ending `, 1
    /// subsumed` when the rewrite dropped a rule another one subsumes — and
    /// otherwise how it reads the model: index probe or scan, and over how
    /// many rows (see [`eval::engine::explain_query`]). The model arms force
    /// evaluation first, like the query.
    pub fn explain_query(&mut self, query: &str) -> Result<String, Error> {
        let atom = ldl_parser::parse_atom(query)?;
        if let Some(form) = self.magic_arm(&atom) {
            let mut line = format!(
                "{atom}: magic {}: seed {}, {} rules",
                form.query_atom(&atom).pred,
                form.seed(&atom),
                form.program().len()
            );
            if form.subsumed() > 0 {
                line += &format!(", {} subsumed", form.subsumed());
            }
            return Ok(line);
        }
        Ok(eval::engine::explain_query(self.model()?, &atom))
    }

    /// Answer a query through the §6 magic-set pipeline (sips → adornment →
    /// generalized magic rewriting → constrained evaluation) whatever is
    /// cached — the forced spelling of [`System::query`]'s magic arm. It
    /// always produces the same answers (Theorems 3/4), and fails with
    /// [`eval::EvalError::Adornment`] where no executable sip exists. It
    /// caches the rewritten program per adornment, never a model: the first
    /// query of a form — predicate, binding pattern and repeated variables
    /// — rewrites and plans it, and each later one builds only its seed.
    pub fn query_magic(&self, query: &str) -> Result<Vec<QueryAnswer>, Error> {
        let atom = ldl_parser::parse_atom(query)?;
        let form = self.compiled.magic.form(&self.compiled.eval, &atom)?;
        Ok(form.answer(&atom, &self.edb, &self.eval_options())?.0)
    }

    /// All facts of one predicate in the model, sorted.
    pub fn facts(&mut self, pred: &str) -> Result<Vec<Fact>, Error> {
        Ok(eval::engine::facts(self.model()?, pred))
    }

    /// The model as an interpretation (for model checking / domination
    /// comparisons).
    pub fn model_facts(&mut self) -> Result<FactSet, Error> {
        Ok(self.model()?.to_fact_set())
    }

    /// Explain the join plans of the loaded rules (or of the rules defining
    /// `pred` only): the step order the planner picks, index columns, and
    /// existential tails. Plans read no data, so nothing is evaluated.
    pub fn explain(&self, pred: Option<&str>) -> String {
        eval::explain(self.compiled.eval.plans(), pred)
    }
}

/// One staged change to the extensional database.
///
/// The unit of the [`MutationBatch`] API: a batch is an ordered list of
/// mutations, validated and *netted* (a retraction cancelling an earlier
/// assertion, and vice versa) before anything is applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Store a fact. A no-op if the fact is already stored.
    Assert(Fact),
    /// Remove a stored fact. Fails validation with
    /// [`MutationError::RetractUnknownFact`] if the fact is not stored at
    /// this point of the batch.
    Retract(Fact),
    /// Retract `old` and assert `new` as one step. The two need not share
    /// a predicate.
    Update {
        /// The stored fact to remove.
        old: Fact,
        /// The fact replacing it.
        new: Fact,
    },
}

/// A transaction of assertions, retractions, and updates against a
/// [`System`].
///
/// Mutations staged on the batch are invisible — to queries and to the
/// EDB — until [`MutationBatch::commit`]. Commit first *validates* the
/// whole batch against a virtual EDB state (every retraction must hit a
/// stored fact; [`MutationError`] aborts before anything is applied), nets
/// it down to one set of deletions and one set of insertions, and applies
/// both atomically: the cached model goes from the old state to the new
/// state in one differential-maintenance step, never exposing a
/// half-updated intermediate. A batch aborted by a resource budget restores
/// the EDB's rows, positions and liveness, so a retried commit reproduces the exact state an
/// uninterrupted one would have. Dropping a batch without committing
/// discards it.
///
/// ```
/// use ldl1::System;
///
/// let mut sys = System::new();
/// sys.load("tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).").unwrap();
/// sys.fact("e(1, 2).").unwrap();
/// sys.fact("e(2, 3).").unwrap();
/// assert_eq!(sys.query("tc(1, X)").unwrap().len(), 2);
///
/// let mut m = sys.mutate();
/// m.retract_fact("e(2, 3).").unwrap();
/// m.assert_fact("e(2, 4).").unwrap();
/// m.commit().unwrap();
/// assert_eq!(sys.query("tc(1, 4)").unwrap().len(), 1);
/// assert_eq!(sys.query("tc(1, 3)").unwrap().len(), 0);
/// ```
#[derive(Debug)]
pub struct MutationBatch<'a> {
    sys: &'a mut System,
    staged: Vec<Mutation>,
}

impl MutationBatch<'_> {
    /// Stage an assertion from parts.
    pub fn assert(&mut self, pred: &str, args: Vec<Value>) -> &mut Self {
        self.push(Mutation::Assert(Fact::new(pred, args)))
    }

    /// Stage a retraction from parts.
    pub fn retract(&mut self, pred: &str, args: Vec<Value>) -> &mut Self {
        self.push(Mutation::Retract(Fact::new(pred, args)))
    }

    /// Stage an update from parts: retract `pred(old_args…)`, assert
    /// `pred(new_args…)`.
    pub fn update(&mut self, pred: &str, old_args: Vec<Value>, new_args: Vec<Value>) -> &mut Self {
        self.push(Mutation::Update {
            old: Fact::new(pred, old_args),
            new: Fact::new(pred, new_args),
        })
    }

    /// Stage an assertion written in concrete syntax, e.g.
    /// `m.assert_fact("parent(abe, bob).")`. Fails with
    /// [`Error::NotGround`] if the fact contains variables.
    pub fn assert_fact(&mut self, src: &str) -> Result<&mut Self, Error> {
        let f = parse_ground_fact(src)?;
        Ok(self.push(Mutation::Assert(f)))
    }

    /// Stage a retraction written in concrete syntax.
    pub fn retract_fact(&mut self, src: &str) -> Result<&mut Self, Error> {
        let f = parse_ground_fact(src)?;
        Ok(self.push(Mutation::Retract(f)))
    }

    /// Stage an update written in concrete syntax: retract `old`, assert
    /// `new`.
    pub fn update_fact(&mut self, old: &str, new: &str) -> Result<&mut Self, Error> {
        let old = parse_ground_fact(old)?;
        let new = parse_ground_fact(new)?;
        Ok(self.push(Mutation::Update { old, new }))
    }

    /// Stage a pre-built [`Mutation`].
    pub fn push(&mut self, m: Mutation) -> &mut Self {
        self.staged.push(m);
        self
    }

    /// Number of staged mutations (duplicates included — they net out on
    /// commit).
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Validate, net, and apply the staged mutations.
    ///
    /// Validation walks the batch in order against a virtual EDB state: a
    /// fact is *present* if it is stored and not yet retracted by the
    /// batch, or asserted earlier in the batch. A retraction of an absent
    /// fact fails the whole commit with
    /// [`MutationError::RetractUnknownFact`], an assertion whose arity
    /// disagrees with its predicate's with
    /// [`MutationError::ArityMismatch`], applying nothing. (A predicate
    /// whose facts were all retracted by *earlier* commits, and that no
    /// rule mentions, has no arity and takes its next assertion's.) The
    /// surviving net deletions and insertions then commit atomically; see
    /// [`MutationBatch`] for the transactional guarantees.
    pub fn commit(self) -> Result<(), Error> {
        let MutationBatch { sys, staged } = self;
        let mut del: Vec<Fact> = Vec::new();
        let mut ins: Vec<Fact> = Vec::new();
        let mut del_set: ldl_value::fxhash::FastSet<Fact> = Default::default();
        let mut ins_set: ldl_value::fxhash::FastSet<Fact> = Default::default();
        // Each asserted predicate's one arity: the stored relation's (EDB,
        // else the cached model's), else its first assertion's.
        let mut arities: ldl_value::fxhash::FastMap<Symbol, usize> = Default::default();
        // Predicates whose stored relation held no live fact before this
        // batch and that no rule mentions: they have no arity left to
        // disagree with, so an assertion at another one replaces the
        // all-tombstoned relation (`Database::apply` replaces the EDB's).
        let mut vacated: Vec<Symbol> = Vec::new();
        let mentioned = |p: Symbol| {
            let rules = &sys.program().rules;
            rules
                .iter()
                .any(|r| r.head.pred == p || r.body.iter().any(|l| l.atom.pred == p))
        };
        let mut cancelled = false;
        for m in staged {
            let (retract, assert) = match m {
                Mutation::Assert(f) => (None, Some(f)),
                Mutation::Retract(f) => (Some(f), None),
                Mutation::Update { old, new } => (Some(old), Some(new)),
            };
            // A fact is present in the virtual state iff it is stored and
            // not netted out, or asserted earlier in this batch.
            if let Some(f) = retract {
                if ins_set.remove(&f) {
                    // cancels an assertion staged earlier in this batch
                    cancelled = true;
                } else if sys.edb.contains(&f) && !del_set.contains(&f) {
                    del_set.insert(f.clone());
                    del.push(f);
                } else {
                    return Err(MutationError::RetractUnknownFact { fact: f }.into());
                }
            }
            if let Some(f) = assert {
                let expected = *arities.entry(f.pred()).or_insert_with(|| {
                    let stored = sys
                        .edb
                        .relation(f.pred())
                        .or_else(|| sys.cache.as_ref()?.relation(f.pred()));
                    match stored {
                        Some(r)
                            if r.arity() != f.arity() && r.is_empty() && !mentioned(f.pred()) =>
                        {
                            vacated.push(f.pred());
                            f.arity()
                        }
                        Some(r) => r.arity(),
                        None => f.arity(),
                    }
                });
                if expected != f.arity() {
                    return Err(MutationError::ArityMismatch { fact: f, expected }.into());
                }
                if del_set.remove(&f) {
                    // cancels a retraction staged earlier in this batch
                    cancelled = true;
                } else if !sys.edb.contains(&f) && ins_set.insert(f.clone()) {
                    ins.push(f);
                }
                // else: already stored, or already staged — a no-op
            }
        }
        // A cancelled staging leaves a stale entry behind, and
        // retract-assert-retract cycles can stage the same fact twice; keep
        // each net change once, at its first staging position.
        if cancelled {
            let mut seen: ldl_value::fxhash::FastSet<Fact> = Default::default();
            del.retain(|f| del_set.contains(f) && seen.insert(f.clone()));
            seen.clear();
            ins.retain(|f| ins_set.contains(f) && seen.insert(f.clone()));
        }
        if let Some(cache) = &mut sys.cache {
            for p in vacated {
                cache.remove_relation(p);
            }
        }
        sys.commit_mutations(del, ins)
    }
}

fn parse_ground_fact(src: &str) -> Result<Fact, Error> {
    let atom = ldl_parser::parse_atom(src)?;
    let args: Option<Vec<Value>> = atom.args.iter().map(|t| t.to_value()).collect();
    let Some(args) = args else {
        return Err(Error::NotGround {
            text: src.trim().to_string(),
        });
    };
    Ok(Fact::new(atom.pred, args))
}

/// LDL1.5 to the program `System` runs: §4.2's complex heads are expanded.
/// A body `<t>` (§4.1) stays; the evaluator matches it natively.
fn compile_ldl15(source: &Program, semantics: GroupingSemantics) -> Result<Program, Error> {
    let p = ldl_transform::head_terms::eliminate_complex_heads(source, semantics)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut sys = System::new();
        sys.load(
            "ancestor(X, Y) <- parent(X, Y).\n\
             ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n\
             parent(abe, bob). parent(bob, cal).",
        )
        .unwrap();
        let a = sys.query("ancestor(abe, X)").unwrap();
        assert_eq!(a.len(), 2);
        let b = sys.query_magic("ancestor(abe, X)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ldl15_heads_compile_on_load() {
        let mut sys = System::new();
        sys.load("out(T, <S>, <D>) <- r(T, S, C, D).").unwrap();
        sys.fact("r(t1, s1, c1, d1).").unwrap();
        sys.fact("r(t1, s2, c1, d2).").unwrap();
        let ans = sys.query("out(t1, S, D)").unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].bindings[0].1.to_string(), "{s1, s2}");
        assert_eq!(ans[0].bindings[1].1.to_string(), "{d1, d2}");
    }

    #[test]
    fn incremental_facts_maintain_model() {
        let mut sys = System::new();
        sys.load("r(X) <- e(X).").unwrap();
        sys.fact("e(1).").unwrap();
        assert_eq!(sys.query("r(X)").unwrap().len(), 1);
        // The model is now cached; this fact flows through the
        // incremental path rather than invalidating it.
        sys.fact("e(2).").unwrap();
        assert_eq!(sys.last_stats().strata_delta, 1);
        assert_eq!(sys.query("r(X)").unwrap().len(), 2);
    }

    #[test]
    fn batch_commit_is_one_step() {
        let mut sys = System::new();
        sys.load(
            "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
             e(1, 2).",
        )
        .unwrap();
        assert_eq!(sys.query("tc(1, X)").unwrap().len(), 1);
        sys.model().unwrap();

        let mut b = sys.mutate();
        b.assert_fact("e(2, 3).").unwrap();
        b.assert_fact("e(3, 4).").unwrap();
        b.assert_fact("e(1, 2).").unwrap(); // duplicate: no-op
        assert_eq!(b.len(), 3);
        b.commit().unwrap();

        let stats = sys.last_stats();
        assert_eq!(stats.strata_delta, 1);
        assert_eq!(stats.strata_replayed, 0);
        assert_eq!(sys.query("tc(1, X)").unwrap().len(), 3);

        // Incremental result == full recompute.
        let mut fresh = System::new();
        fresh
            .load(
                "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                 e(1, 2). e(2, 3). e(3, 4).",
            )
            .unwrap();
        assert_eq!(sys.model_facts().unwrap(), fresh.model_facts().unwrap());
    }

    #[test]
    fn commit_replays_negation_strata() {
        let mut sys = System::new();
        sys.load(
            "lonely(X) <- node(X), ~e(X, X).\n\
             node(a). node(b). e(b, b).",
        )
        .unwrap();
        assert_eq!(sys.query("lonely(X)").unwrap().len(), 1);
        // `e` feeds a negated literal: the commit must retract lonely(a).
        sys.fact("e(a, a).").unwrap();
        assert!(sys.last_stats().strata_replayed > 0);
        assert_eq!(sys.query("lonely(X)").unwrap().len(), 0);
    }

    #[test]
    fn commit_replaces_grouped_sets() {
        let mut sys = System::new();
        sys.load("kids(P, <K>) <- parent(P, K). parent(abe, bob).")
            .unwrap();
        assert_eq!(
            sys.query("kids(abe, S)").unwrap()[0].bindings[0]
                .1
                .to_string(),
            "{bob}"
        );
        sys.fact("parent(abe, cal).").unwrap();
        let kids = sys.query("kids(abe, S)").unwrap();
        assert_eq!(kids.len(), 1, "old smaller set must be gone");
        assert_eq!(kids[0].bindings[0].1.to_string(), "{bob, cal}");
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut sys = System::new();
        sys.load("r(X) <- e(X). e(1).").unwrap();
        sys.query("r(X)").unwrap();
        let before = sys.last_stats();
        sys.fact("e(1).").unwrap();
        // Nothing changed, so no evaluation ran at all.
        assert_eq!(sys.last_stats(), before);
        assert_eq!(sys.query("r(X)").unwrap().len(), 1);
    }

    #[test]
    fn retraction_maintains_model_differentially() {
        let mut sys = System::new();
        sys.load(
            "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
             e(1, 2). e(2, 3). e(1, 3).",
        )
        .unwrap();
        assert_eq!(sys.query("tc(X, Y)").unwrap().len(), 3);
        sys.retract("e(2, 3).").unwrap();
        let stats = sys.last_stats();
        assert_eq!(stats.strata_dred, 1, "{stats}");
        assert_eq!(stats.strata_replayed, 0, "{stats}");
        // tc(1,3) survives via the direct edge; tc(2,3) is gone.
        assert_eq!(sys.query("tc(1, 3)").unwrap().len(), 1);
        assert_eq!(sys.query("tc(2, 3)").unwrap().len(), 0);

        let mut fresh = System::new();
        fresh
            .load(
                "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
                 e(1, 2). e(1, 3).",
            )
            .unwrap();
        assert_eq!(sys.model_facts().unwrap(), fresh.model_facts().unwrap());
    }

    #[test]
    fn update_is_one_transaction() {
        let mut sys = System::new();
        sys.load("total(D, <S>) <- salary(D, _, S).").unwrap();
        sys.fact("salary(sales, joe, 10).").unwrap();
        sys.fact("salary(sales, sue, 20).").unwrap();
        assert_eq!(
            sys.query("total(sales, S)").unwrap()[0].bindings[0]
                .1
                .to_string(),
            "{10, 20}"
        );
        sys.update("salary(sales, joe, 10).", "salary(sales, joe, 15).")
            .unwrap();
        assert_eq!(
            sys.query("total(sales, S)").unwrap()[0].bindings[0]
                .1
                .to_string(),
            "{15, 20}"
        );
        assert!(!sys.edb().contains(&Fact::new(
            "salary",
            vec![Value::atom("sales"), Value::atom("joe"), Value::int(10)]
        )));
    }

    #[test]
    fn reloading_a_stored_fact_adds_no_support() {
        // p(1) is stored and derived, so its tuple carries two supports.
        // Loading the stored fact again is a no-op — it must not register a
        // third one, or p(1) outlives the retraction of both real supports.
        let mut sys = System::new();
        sys.load("p(X) <- e(X). p(1). e(1).").unwrap();
        assert_eq!(sys.query("p(X)").unwrap().len(), 1);
        sys.load("p(1).").unwrap();
        sys.retract("p(1).").unwrap();
        assert_eq!(sys.query("p(X)").unwrap().len(), 1, "still derived");
        sys.retract("e(1).").unwrap();
        assert_eq!(sys.query("p(X)").unwrap().len(), 0);
    }

    #[test]
    fn retract_unknown_fact_fails_whole_batch() {
        let mut sys = System::new();
        sys.load("r(X) <- e(X). e(1).").unwrap();
        sys.query("r(X)").unwrap();
        let mut m = sys.mutate();
        m.assert_fact("e(2).").unwrap();
        m.retract_fact("e(99).").unwrap();
        let err = m.commit().unwrap_err();
        assert!(matches!(
            err,
            Error::Mutation(MutationError::RetractUnknownFact { .. })
        ));
        // Nothing was applied — not even the valid assertion.
        assert_eq!(sys.query("r(X)").unwrap().len(), 1);
    }

    #[test]
    fn mutations_net_out_before_commit() {
        let mut sys = System::new();
        sys.load("r(X) <- e(X). e(1).").unwrap();
        sys.query("r(X)").unwrap();
        let before = sys.last_stats();
        let mut m = sys.mutate();
        m.assert("e", vec![Value::int(2)]);
        m.retract("e", vec![Value::int(2)]); // cancels the assert
        m.retract("e", vec![Value::int(1)]);
        m.assert("e", vec![Value::int(1)]); // cancels the retract
        m.commit().unwrap();
        // The batch netted to nothing: no evaluation ran at all.
        assert_eq!(sys.last_stats(), before);
        assert_eq!(sys.query("r(X)").unwrap().len(), 1);
    }

    #[test]
    fn retraction_without_model_edits_edb_only() {
        let mut sys = System::new();
        sys.load("r(X) <- e(X). e(1). e(2).").unwrap();
        // No model computed yet: the retraction edits the EDB directly.
        sys.retract("e(2).").unwrap();
        assert_eq!(sys.query("r(X)").unwrap().len(), 1);
    }

    #[test]
    fn explain_reports_plans() {
        let mut sys = System::new();
        sys.load(
            "tc(X, Y) <- e(X, Y). tc(X, Y) <- e(X, Z), tc(Z, Y).\n\
             e(1, 2). e(2, 3).",
        )
        .unwrap();
        let text = sys.explain(None);
        assert!(text.contains("scan e"), "{text}");
        let filtered = sys.explain(Some("nosuch"));
        assert!(filtered.contains("no rules define nosuch"), "{filtered}");
    }

    #[test]
    fn errors_surface() {
        let mut sys = System::new();
        assert!(matches!(sys.load("p(X) <-"), Err(Error::Parse(_))));
        assert!(matches!(sys.fact("p(X)."), Err(Error::NotGround { .. })));
        // An inadmissible program is refused at load, facts and all, and
        // the system keeps answering.
        let err = sys
            .load("even(s(X)) <- num(X), ~even(X). num(z). even(z).")
            .unwrap_err();
        assert!(matches!(err, Error::Eval(_)));
        assert_eq!(sys.edb().num_facts(), 0);
        assert!(sys.query("even(X)").unwrap().is_empty());
        // source() forwards to the wrapped error.
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&Error::NotGround {
            text: "p(X).".into()
        })
        .is_none());
    }

    #[test]
    fn alternative_grouping_semantics() {
        // (ii) vs (ii)′ differ on *nested* groupings: the inner set is
        // scoped per Y alone under (ii), per X and Y under (ii)′.
        let src = "out(T, <h(S, <D>)>) <- r(T, S, D).";
        let mut sys = System::new();
        sys.load(src).unwrap();
        sys.fact("r(t1, s1, d1).").unwrap();
        sys.fact("r(t2, s1, d2).").unwrap();
        // Under (ii), s1's day set is {d1, d2} — across all T.
        let per_group = sys.query("out(t1, G)").unwrap();
        assert_eq!(per_group[0].bindings[0].1.to_string(), "{h(s1, {d1, d2})}");
        sys.set_grouping_semantics(GroupingSemantics::WithContext)
            .unwrap();
        let scoped = sys.query("out(t1, G)").unwrap();
        assert_eq!(scoped[0].bindings[0].1.to_string(), "{h(s1, {d1})}");
    }
}
