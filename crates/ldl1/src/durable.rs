//! Durability and concurrent-read support for [`System`](crate::System):
//! the glue between the engine and the [`ldl_wal`] store, plus
//! epoch-published immutable model snapshots.
//!
//! # Snapshot reads
//!
//! A [`Reader`] is a cheap, `Clone + Send + Sync` handle that any number
//! of threads can hold while one thread owns the `&mut System` and
//! commits mutations. Each successful commit *publishes* the freshly
//! maintained model: an immutable [`Snapshot`] (an `Arc` of the model
//! database) swapped into a shared slot under a mutex, with a
//! monotonically increasing epoch. Readers grab the current `Arc` and
//! query it lock-free from then on — they never see a half-applied batch,
//! because publication happens only after a commit has fully succeeded,
//! and the published database is never mutated again (maintenance works
//! on the writer's own copy).
//!
//! # Publishing is O(change): two copies leapfrog
//!
//! Once a [`Reader`] exists there are two copies of the model — the
//! published one in the slot and the writer's working one, equal between
//! commits — and a commit does not make a third. Maintenance changes the
//! working copy, which keeps a change log while it does
//! ([`Database::open_log`]: a length watermark per relation and the
//! positions tombstoned or revived, nothing per insert). Publication
//! *moves* the working copy into the slot and takes the snapshot it
//! replaces back out; if no reader still holds that one
//! (`Arc::try_unwrap`), the commit's log is replayed onto it
//! ([`Database::catch_up`]: the new rows are read from the copy just
//! published) and it is the working copy of the next commit. The cost is
//! the commit's own change — tens of tuples on `snapshot_reads` against a
//! 65 000-fact model — and nothing is allocated or freed per model
//! (DESIGN §3k has the ordering argument and the numbers).
//!
//! One clone is left, chosen by what `System::publish` can see, never by an
//! option: a reader still holds the retired snapshot (it stays frozen and is
//! freed by whoever drops it last), or the working copy is not a logged
//! descendant of the published one — the first publication, or a model
//! rebuilt after a rule load, [`System::set_grouping_semantics`](
//! crate::System::set_grouping_semantics) or an aborted commit. The log
//! carries the epoch it was opened against and does not survive a
//! `Database::clone`, so a log is never replayed onto a foreign base.
//! [`EvalStats`](crate::EvalStats)`::publish_replays` / `publish_clones`
//! say which arm a commit took. Before the first [`System::reader`](
//! crate::System::reader) call nothing is published and no log is open.
//!
//! Every snapshot owns its rows and its hash indexes — the ones the writer's
//! rule evaluation and commit maintenance built for their own joins — so a
//! [`Snapshot::query`] that binds the columns of one is an index probe,
//! not a scan of the predicate (`anc(root, Y)` on `snapshot_reads`: 10 of
//! 55 000 rows; DESIGN §3j). The posting lists are the snapshot's own: the
//! writer's later retractions do not reach them. A snapshot is immutable
//! and shared, so a query never builds an index on one;
//! [`Snapshot::explain_query`] says which way a query reads it.

use std::sync::{Arc, Mutex};

use ldl_eval::{engine, EvalStats, QueryAnswer};
use ldl_storage::Database;
use ldl_value::Fact;

use crate::Error;

/// One published, immutable model: what a [`Snapshot`] dereferences to.
#[derive(Debug)]
pub(crate) struct PublishedModel {
    pub(crate) model: Database,
    pub(crate) epoch: u64,
}

/// The slot a writer publishes into and readers read from. The epoch
/// lives *inside* the published model — there is no separate counter to
/// drift ahead of the slot, so [`Reader::epoch`] never reports a
/// publication that [`Reader::latest`] cannot yet return.
#[derive(Debug)]
pub(crate) struct ReaderShared {
    slot: Mutex<Arc<PublishedModel>>,
}

impl ReaderShared {
    /// Open the channel on a copy of `working` — the first publication,
    /// epoch 1 — and start `working`'s change log against it.
    pub(crate) fn new(working: &mut Database) -> ReaderShared {
        let model = working.clone();
        working.open_log(1);
        ReaderShared {
            slot: Mutex::new(Arc::new(PublishedModel { model, epoch: 1 })),
        }
    }

    /// Publish the writer's `working` model under the next epoch, leaving
    /// in its place an equal copy — the working model of the next commit,
    /// its change log open against the new epoch — and count in `stats`
    /// how that copy was come by (module docs): the retired snapshot caught
    /// up by `working`'s log, or a clone.
    ///
    /// Readers holding the old `Arc` keep their consistent view; new
    /// [`Reader::latest`] calls see the new one. The slot mutex is held for
    /// the epoch stamp and the pointer swap alone: the new `Arc` is
    /// allocated before locking, and the replaced one is caught up, or
    /// released — possibly the last reference to a whole model — after
    /// unlocking, so `latest()`/`epoch()` on other threads never wait for
    /// either.
    pub(crate) fn publish(&self, working: &mut Database, stats: &mut EvalStats) {
        let base = working.log_base();
        let model = std::mem::take(working);
        let mut new = Arc::new(PublishedModel { model, epoch: 0 });
        let mut slot = self.slot.lock().expect("reader slot poisoned");
        Arc::get_mut(&mut new).expect("not shared yet").epoch = slot.epoch + 1;
        let old = std::mem::replace(&mut *slot, Arc::clone(&new));
        drop(slot);

        // Replay only a log opened against the very snapshot that came out
        // of the slot, and only onto a snapshot nobody else can still read.
        let logged = base == Some(old.epoch);
        match Arc::try_unwrap(old).ok().filter(|_| logged) {
            Some(retired) => {
                *working = retired.model;
                stats.publish_replays += 1;
                stats.publish_changes += working.catch_up(&new.model) as u64;
                #[cfg(debug_assertions)]
                if let Err(diff) = working.same_state(&new.model) {
                    panic!("replayed publication differs from the published model: {diff}");
                }
            }
            None => {
                *working = new.model.clone();
                stats.publish_clones += 1;
                stats.publish_clones_held += u64::from(logged);
            }
        }
        working.open_log(new.epoch);
    }

    /// The current publication epoch — the epoch of the slot's model.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.slot.lock().expect("reader slot poisoned").epoch
    }
}

/// An immutable, consistent view of the model at one publication epoch.
///
/// Obtained from [`Reader::latest`] or [`System::snapshot`](
/// crate::System::snapshot). Queries run against the captured model and
/// are unaffected by any commit that happens afterwards.
#[derive(Clone, Debug)]
pub struct Snapshot {
    inner: Arc<PublishedModel>,
}

impl Snapshot {
    /// A snapshot outside any publication channel (from
    /// [`System::snapshot`](crate::System::snapshot)).
    pub(crate) fn one_off(model: Database, epoch: u64) -> Snapshot {
        Snapshot {
            inner: Arc::new(PublishedModel { model, epoch }),
        }
    }

    /// The publication epoch this snapshot was taken at. Strictly
    /// increasing across publications of one system.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Answer a query against this snapshot's model — the same semantics
    /// as [`System::query`](crate::System::query), minus any evaluation
    /// (the model was computed before publication), from the plan of the
    /// query's shape, kept per process, not per snapshot. A snapshot has
    /// the indexes the writer's copy had, so a query binding their columns
    /// is an index probe here too; nothing is ever built for one.
    pub fn query(&self, query: &str) -> Result<Vec<QueryAnswer>, Error> {
        let atom = ldl_parser::parse_atom(query)?;
        Ok(engine::query(&self.inner.model, &atom))
    }

    /// One line saying how [`Snapshot::query`] reads this snapshot for the
    /// query — see [`engine::explain_query`].
    pub fn explain_query(&self, query: &str) -> Result<String, Error> {
        let atom = ldl_parser::parse_atom(query)?;
        Ok(engine::explain_query(&self.inner.model, &atom))
    }

    /// All facts of one predicate in this snapshot's model, sorted.
    pub fn facts(&self, pred: &str) -> Vec<Fact> {
        engine::facts(&self.inner.model, pred)
    }

    /// Total facts in the snapshot's model.
    pub fn num_facts(&self) -> usize {
        self.inner.model.num_facts()
    }
}

/// A concurrent read handle: clone it into as many threads as you like;
/// each [`Reader::latest`] call returns the most recently published
/// [`Snapshot`].
///
/// Every successful commit publishes, and so does a rule load. The one gap:
/// a commit that *aborts* (typically on a tripped budget) drops the writer's
/// half-maintained model, so until the writer next evaluates — any
/// [`System::query`](crate::System::query),
/// [`System::model`](crate::System::model) or rule load — later commits
/// change the EDB only and `latest()` keeps returning the last snapshot
/// published before the abort. It is stale, never torn.
#[derive(Clone, Debug)]
pub struct Reader {
    shared: Arc<ReaderShared>,
}

impl Reader {
    pub(crate) fn new(shared: Arc<ReaderShared>) -> Reader {
        Reader { shared }
    }

    /// The most recently published snapshot.
    pub fn latest(&self) -> Snapshot {
        Snapshot {
            inner: self
                .shared
                .slot
                .lock()
                .expect("reader slot poisoned")
                .clone(),
        }
    }

    /// The current publication epoch, without cloning a snapshot. Read
    /// from the publication slot itself, so it never runs ahead of what
    /// [`Reader::latest`] returns: `epoch() == N` guarantees a subsequent
    /// `latest()` yields epoch `N` or later.
    pub fn epoch(&self) -> u64 {
        self.shared.current_epoch()
    }
}
