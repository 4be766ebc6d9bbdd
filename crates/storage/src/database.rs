//! Databases: named relations.

use ldl_value::fxhash::FastMap;
use ldl_value::{intern, Fact, FactSet, Symbol, Value, ValueId};

use crate::relation::Relation;

/// A database: a collection of facts (§6: "A database D is a collection of
/// facts"), organized as one [`Relation`] per predicate symbol.
///
/// A `&Database` is a valid *shared snapshot*: every read path is `&self`,
/// so a published model behind an `Arc` can be read from any number of
/// snapshot-reader threads and all of them see the identical state — the
/// compiler rules out any mutation while those borrows live. The
/// `Send + Sync` assertion below turns an accidental introduction of
/// interior mutability (`Cell`, `RefCell`, `Rc`) anywhere in the storage
/// types into a compile error rather than a data race.
///
/// # Change log
///
/// [`Database::open_log`] makes the database record what is done to it from
/// then on, cheaply enough to leave on: rows appended are a length
/// watermark per relation, tombstones and revivals a list of positions, and
/// a relation that arrives, leaves or is replaced is noticed by its
/// absence from the log. [`Database::catch_up`] reads the log forwards to
/// bring a second copy, equal to this one when the log was opened, to this
/// one's state in time proportional to the change (how a left-right pair of
/// model copies publishes a commit); [`Database::rewind`] reads it backwards.
/// The log is part of no state ([`Database::same_state`] ignores it) and
/// does not survive a clone.
#[derive(Debug, Default)]
pub struct Database {
    relations: FastMap<Symbol, Relation>,
    /// `None` when no change log is open.
    log: Option<DbLog>,
}

#[derive(Debug)]
struct DbLog {
    /// The caller's stamp for the state the log started from.
    base: u64,
    /// Relations [`Database::apply`] replaced at another arity, in order.
    replaced: Vec<(Symbol, Relation)>,
}

impl Clone for Database {
    /// A deep copy of the facts and indexes, with no change log
    /// open: a log is the history of one copy from one base state.
    fn clone(&self) -> Database {
        Database {
            relations: self.relations.clone(),
            log: None,
        }
    }
}

// Shared-snapshot contract: a `&Database` must be usable from many threads
// at once (see `Reader`/`Snapshot` in `ldl1`).
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Database>()
};

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Insert one fact; creates the relation on first use. Returns `true`
    /// iff the fact was new. This is the structural entry point: arguments
    /// are interned here, once, and the engine runs on the resulting ids.
    pub fn insert(&mut self, fact: Fact) -> bool {
        let ids: Vec<ValueId> = fact.args().iter().map(intern::id_of).collect();
        self.insert_id_slice(fact.pred(), &ids)
    }

    /// Insert an interned tuple borrowed from a derivation buffer — the
    /// merge-phase hot path. A rejected duplicate allocates nothing (see
    /// [`Relation::insert_slice`]). Returns `true` iff the tuple was new.
    pub fn insert_id_slice(&mut self, pred: Symbol, tuple: &[ValueId]) -> bool {
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Relation::new(tuple.len()));
        rel.insert_slice(tuple)
    }

    /// Insert a fact given as predicate + values.
    pub fn insert_tuple(&mut self, pred: impl Into<Symbol>, args: Vec<Value>) -> bool {
        self.insert(Fact::new(pred, args))
    }

    /// The relation for `pred`, if any facts exist.
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Mutable access, creating an empty relation of the given arity if
    /// absent.
    pub fn relation_mut(&mut self, pred: Symbol, arity: usize) -> &mut Relation {
        self.relations
            .entry(pred)
            .or_insert_with(|| Relation::new(arity))
    }

    /// Does the database contain this fact?
    pub fn contains(&self, fact: &Fact) -> bool {
        let ids: Vec<ValueId> = fact.args().iter().map(intern::id_of).collect();
        self.relations
            .get(&fact.pred())
            .is_some_and(|r| r.contains(&ids))
    }

    /// All predicate symbols with at least one relation (possibly empty).
    pub fn predicates(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.relations.keys().copied()
    }

    /// Total number of (live) facts.
    pub fn num_facts(&self) -> usize {
        self.relations.values().map(Relation::live_len).sum()
    }

    /// Tombstone one fact (see [`Relation::remove_slice`]). Returns the
    /// tombstoned insertion position, or `None` when the fact is not
    /// (live) in the database.
    pub fn remove(&mut self, fact: &Fact) -> Option<u32> {
        let ids: Vec<ValueId> = fact.args().iter().map(intern::id_of).collect();
        self.remove_ids(fact.pred(), &ids)
    }

    /// Tombstone one already-interned tuple. Returns the tombstoned
    /// position, or `None` when absent.
    pub fn remove_ids(&mut self, pred: Symbol, tuple: &[ValueId]) -> Option<u32> {
        self.relations.get_mut(&pred)?.remove_slice(tuple)
    }

    /// Apply one net mutation batch — the one way a batch reaches an EDB:
    /// tombstone the retractions, then append the assertions. A predicate
    /// earlier batches emptied has no arity left (the caller has checked
    /// that no rule fixes one): an assertion at another arity replaces its
    /// all-tombstoned relation. A batch asserting a predicate at two
    /// arities, or at one its live relation lacks, changes nothing.
    pub fn apply(&mut self, del: &IdRows, ins: &IdRows) -> Result<(), String> {
        // Each asserted predicate's one arity: its live relation's, else
        // its first assertion's.
        let mut arities: FastMap<Symbol, usize> = FastMap::default();
        for (pred, ids) in ins.iter() {
            let live = self.relations.get(&pred).filter(|r| !r.is_empty());
            let arity = *arities
                .entry(pred)
                .or_insert_with(|| live.map_or(ids.len(), Relation::arity));
            if ids.len() != arity {
                return Err(format!(
                    "{pred} asserted at arity {}, but it has arity {arity}",
                    ids.len()
                ));
            }
        }
        for (pred, ids) in del.iter() {
            self.remove_ids(pred, ids);
        }
        for (pred, ids) in ins.iter() {
            let vacated = self.relations.get_mut(&pred);
            if let Some(rel) = vacated.filter(|r| r.is_empty() && r.arity() != ids.len()) {
                let old = std::mem::replace(rel, Relation::new(ids.len()));
                if let Some(log) = &mut self.log {
                    log.replaced.push((pred, old));
                }
            }
            self.insert_id_slice(pred, ids);
        }
        Ok(())
    }

    /// All facts of one predicate (ids resolved back to structural values —
    /// the public-API boundary).
    pub fn facts_of(&self, pred: Symbol) -> Vec<Fact> {
        self.relations
            .get(&pred)
            .into_iter()
            .flat_map(|r| r.iter().map(move |t| resolve_fact(pred, t)))
            .collect()
    }

    /// Snapshot the whole database as a [`FactSet`] (an interpretation, for
    /// model checking).
    pub fn to_fact_set(&self) -> FactSet {
        let mut out = FactSet::default();
        for (&p, r) in &self.relations {
            for t in r.iter() {
                out.insert(resolve_fact(p, t));
            }
        }
        out
    }

    /// Render every fact as LDL1 fact syntax, sorted, one per line — a text
    /// dump that `ldl1::System::load` (or the CLI `:load`) reads back.
    pub fn dump(&self) -> String {
        let mut lines: Vec<String> = self.to_fact_set().iter().map(|f| format!("{f}.")).collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Build a database from an interpretation.
    pub fn from_fact_set(facts: &FactSet) -> Database {
        let mut db = Database::new();
        for f in facts {
            db.insert(f.clone());
        }
        db
    }

    /// Remove one relation wholesale (used when an IDB predicate is rebuilt
    /// from scratch during incremental maintenance).
    pub fn remove_relation(&mut self, pred: Symbol) -> Option<Relation> {
        let mut rel = self.relations.remove(&pred)?;
        rel.drop_log();
        Some(rel)
    }

    /// Install `rel` as the relation for `pred`, replacing any existing one.
    /// Under an open change log the relation counts as new, wherever it
    /// came from.
    pub fn set_relation(&mut self, pred: Symbol, mut rel: Relation) {
        rel.drop_log();
        self.relations.insert(pred, rel);
    }

    /// Start recording changes, from the present state, which the caller
    /// names `base` (any stamp it can later recognise the matching second
    /// copy by). Restarts a log already open.
    pub fn open_log(&mut self, base: u64) {
        self.log = Some(DbLog {
            base,
            replaced: Vec::new(),
        });
        for rel in self.relations.values_mut() {
            rel.open_log();
        }
    }

    /// Stop recording changes; the state stays as it is.
    pub fn close_log(&mut self) {
        self.log = None;
        for rel in self.relations.values_mut() {
            rel.drop_log();
        }
    }

    /// The stamp the open change log was started with, if one is open.
    pub fn log_base(&self) -> Option<u64> {
        self.log.as_ref().map(|log| log.base)
    }

    /// Return to the rows, positions and liveness of when the change log
    /// opened, and close it.
    /// Undoes what `apply`, inserts, removals and revivals did, not other
    /// replacements, removals or truncations. Panics when no log is open.
    pub fn rewind(&mut self) {
        let log = self.log.take().expect("rewind without an open change log");
        // The first relation replaced under a name is the one that was there
        // when the log opened; relations created since have no log.
        self.relations.extend(log.replaced.into_iter().rev());
        self.relations.retain(|_, rel| rel.rewind());
    }

    /// Bring this database to `new`'s state by replaying `new`'s change
    /// log, given that the two were in the same state when that log was
    /// opened — the caller's side of the bargain, which is what
    /// [`Database::log_base`] is for. Returns the number of changes applied
    /// (rows appended, tombstoned or revived; every row of a relation that
    /// had to be copied whole). No log is open on `self` afterwards.
    ///
    /// A relation logged since the base state is caught up in place; one
    /// that was created, replaced or truncated since has no log and is
    /// copied; one that is gone is dropped. With no log open
    /// on `new` that makes this a plain, correct, full copy.
    pub fn catch_up(&mut self, new: &Database) -> usize {
        self.log = None;
        let mut changes = 0;
        for (&pred, rel) in &new.relations {
            // A relation `self` lacks starts empty: `rel`, created since the
            // base state, has no log, and is copied.
            changes += self.relation_mut(pred, rel.arity()).catch_up(rel);
        }
        self.relations
            .retain(|pred, _| new.relations.contains_key(pred));
        changes
    }

    /// `Ok` when both databases hold the same relations in the same
    /// observable state ([`Relation::same_state`]), else the first
    /// difference found. Linear in the database: what the tests of
    /// [`Database::catch_up`] and the debug-build check on every replayed
    /// publication compare with.
    pub fn same_state(&self, other: &Database) -> Result<(), String> {
        let names = |db: &Database| {
            let mut names: Vec<String> = db.predicates().map(|p| p.to_string()).collect();
            names.sort_unstable();
            names
        };
        let (mine, theirs) = (names(self), names(other));
        if mine != theirs {
            return Err(format!("relations: {mine:?} vs {theirs:?}"));
        }
        self.relations.iter().try_for_each(|(pred, rel)| {
            rel.same_state(&other.relations[pred])
                .map_err(|e| format!("{pred}: {e}"))
        })
    }
}

/// Intern structural values into a flat id vector, for
/// [`Database::insert_id_slice`].
pub fn intern_ids(vals: &[Value]) -> Vec<ValueId> {
    vals.iter().map(intern::id_of).collect()
}

/// A batch's interned facts, flat — each fact's predicate and arity, and
/// every argument id in one buffer: the form a batch takes into
/// [`Database::apply`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdRows {
    heads: Vec<(Symbol, u32)>,
    ids: Vec<ValueId>,
}

impl IdRows {
    /// Intern structural facts.
    pub fn intern(facts: &[Fact]) -> IdRows {
        IdRows {
            heads: facts.iter().map(|f| (f.pred(), f.arity() as u32)).collect(),
            ids: facts
                .iter()
                .flat_map(Fact::args)
                .map(intern::id_of)
                .collect(),
        }
    }

    /// Append the fact `pred(ids…)`.
    pub fn push(&mut self, pred: Symbol, ids: &[ValueId]) {
        self.heads.push((pred, ids.len() as u32));
        self.ids.extend_from_slice(ids);
    }

    /// The facts in order, each as its predicate and argument ids.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &[ValueId])> + '_ {
        let mut rest = self.ids.as_slice();
        self.heads.iter().map(move |&(pred, arity)| {
            let (row, tail) = rest.split_at(arity as usize);
            rest = tail;
            (pred, row)
        })
    }
}

/// Resolve an interned tuple of `pred` back into a structural [`Fact`].
pub fn resolve_fact(pred: Symbol, tuple: &[ValueId]) -> Fact {
    Fact::new(pred, tuple.iter().map(|&i| intern::resolve(i)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut db = Database::new();
        assert!(db.insert_tuple("parent", vec![Value::atom("a"), Value::atom("b")]));
        assert!(!db.insert_tuple("parent", vec![Value::atom("a"), Value::atom("b")]));
        assert!(db.contains(&Fact::new(
            "parent",
            vec![Value::atom("a"), Value::atom("b")]
        )));
        assert!(!db.contains(&Fact::new(
            "parent",
            vec![Value::atom("b"), Value::atom("a")]
        )));
        assert_eq!(db.num_facts(), 1);
    }

    #[test]
    fn fact_set_round_trip() {
        let mut db = Database::new();
        db.insert_tuple("q", vec![Value::int(1)]);
        db.insert_tuple("w", vec![Value::set(vec![Value::int(1)]), Value::int(7)]);
        let fs = db.to_fact_set();
        assert_eq!(fs.len(), 2);
        let db2 = Database::from_fact_set(&fs);
        assert_eq!(db2.to_fact_set(), fs);
    }

    #[test]
    fn facts_of_lists_one_predicate() {
        let mut db = Database::new();
        db.insert_tuple("p", vec![Value::int(1)]);
        db.insert_tuple("p", vec![Value::int(2)]);
        db.insert_tuple("q", vec![Value::int(3)]);
        let ps = db.facts_of(Symbol::intern("p"));
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|f| f.pred() == Symbol::intern("p")));
    }

    #[test]
    fn dump_is_sorted_fact_syntax() {
        let mut db = Database::new();
        db.insert_tuple("q", vec![Value::int(2)]);
        db.insert_tuple("q", vec![Value::int(1)]);
        db.insert_tuple("w", vec![Value::set(vec![Value::int(1)])]);
        assert_eq!(db.dump(), "q(1).\nq(2).\nw({1}).\n");
        assert_eq!(Database::new().dump(), "");
    }

    /// Interned `pred(i…)` facts.
    fn rows(facts: &[(&str, &[i64])]) -> IdRows {
        let mut rows = IdRows::default();
        for (pred, args) in facts {
            let args: Vec<Value> = args.iter().map(|&i| Value::int(i)).collect();
            rows.push(Symbol::intern(pred), &intern_ids(&args));
        }
        rows
    }

    #[test]
    fn rewind_returns_to_where_the_log_opened() {
        let (p, e) = (Symbol::intern("p"), Symbol::intern("e"));
        let mut db = Database::new();
        let none = rows(&[]);
        let batch = rows(&[("p", &[1]), ("q", &[1, 2]), ("e", &[5])]);
        db.apply(&none, &batch).unwrap();
        db.apply(&rows(&[("e", &[5])]), &none).unwrap();
        db.open_log(7);

        // `e` has no live fact left: an assertion at another arity replaces
        // it. `p(1)` is retracted and re-asserted at a new position.
        let batch = rows(&[("p", &[2]), ("fresh", &[9]), ("e", &[5, 6])]);
        db.apply(&rows(&[("p", &[1])]), &batch).unwrap();
        db.apply(&rows(&[("p", &[2])]), &rows(&[("p", &[1])]))
            .unwrap();
        assert_eq!(db.relation(e).unwrap().arity(), 2);
        assert_eq!(
            db.relation(p)
                .unwrap()
                .position_of(&intern_ids(&[Value::int(1)])),
            Some(2)
        );
        assert_eq!(db.num_facts(), 4);

        db.rewind();
        assert_eq!(db.log_base(), None);
        assert_eq!(db.num_facts(), 2);
        assert!(db.relation(Symbol::intern("fresh")).is_none());
        let (rp, re) = (db.relation(p).unwrap(), db.relation(e).unwrap());
        assert_eq!((rp.len(), rp.is_live(0)), (1, true));
        assert_eq!((re.arity(), re.len(), re.is_live(0)), (1, 1, false));
        // Rolled-back facts are inserted again at the positions they had.
        assert!(db.insert_tuple("p", vec![Value::int(2)]));
        assert_eq!(db.relation(p).unwrap().len(), 2);
    }

    #[test]
    fn a_batch_at_a_conflicting_arity_changes_nothing() {
        let mut db = Database::new();
        let none = rows(&[]);
        db.apply(&none, &rows(&[("p", &[1, 2]), ("e", &[5])]))
            .unwrap();
        db.apply(&rows(&[("e", &[5])]), &none).unwrap();
        let before = db.dump();
        // Against a live relation's arity, even when the batch empties it;
        // a new predicate at two arities; a vacated one at two.
        for (del, ins) in [
            (rows(&[("p", &[1, 2])]), rows(&[("p", &[3])])),
            (none.clone(), rows(&[("q", &[1]), ("q", &[1, 2])])),
            (none.clone(), rows(&[("e", &[1]), ("e", &[1, 2])])),
        ] {
            let err = db.apply(&del, &ins).unwrap_err();
            assert!(err.contains("asserted at arity"), "{err}");
            assert_eq!(db.dump(), before);
        }
        assert!(db.relation(Symbol::intern("q")).is_none());
        assert_eq!(db.relation(Symbol::intern("e")).unwrap().arity(), 1);
    }

    #[test]
    fn remove_and_revive_round_trip() {
        let mut db = Database::new();
        db.insert_tuple("p", vec![Value::int(1)]);
        db.insert_tuple("p", vec![Value::int(2)]);
        let pos = db.remove(&Fact::new("p", vec![Value::int(1)])).unwrap();
        assert!(!db.contains(&Fact::new("p", vec![Value::int(1)])));
        assert_eq!(db.num_facts(), 1);
        assert!(db.remove(&Fact::new("p", vec![Value::int(9)])).is_none());
        assert!(db.remove(&Fact::new("q", vec![Value::int(1)])).is_none());
        db.relation_mut(Symbol::intern("p"), 1).revive(pos);
        assert!(db.contains(&Fact::new("p", vec![Value::int(1)])));
        assert_eq!(db.num_facts(), 2);
        // to_fact_set / dump see only live facts.
        db.remove(&Fact::new("p", vec![Value::int(2)]));
        assert_eq!(db.dump(), "p(1).\n");
    }

    #[test]
    fn set_and_remove_relation() {
        let mut db = Database::new();
        db.insert_tuple("p", vec![Value::int(1)]);
        let taken = db.remove_relation(Symbol::intern("p")).unwrap();
        assert_eq!(taken.len(), 1);
        assert!(db.relation(Symbol::intern("p")).is_none());
        db.set_relation(Symbol::intern("p"), taken);
        assert!(db.contains(&Fact::new("p", vec![Value::int(1)])));
    }

    #[test]
    fn relation_mut_creates() {
        let mut db = Database::new();
        let r = db.relation_mut(Symbol::intern("fresh"), 3);
        assert_eq!(r.arity(), 3);
        assert!(db.relation(Symbol::intern("fresh")).is_some());
        assert!(db.relation(Symbol::intern("missing")).is_none());
    }
}
