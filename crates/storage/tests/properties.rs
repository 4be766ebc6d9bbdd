//! Storage-level property tests: random insert / tombstone / revive /
//! index / truncate sequences checked against a naive
//! `Vec<Vec<ValueId>>` model — clones frozen along the way included — plus
//! a posting-arena sweep over one hub key and an arena-paging regression
//! sweep; and, a level up, random histories of a logged `Database` checked
//! against the deep clone its change log stands in for — read forwards
//! (`catch_up`) and backwards (`rewind`).
//!
//! The model is the obvious thing a relation pretends to be: an
//! insertion-ordered list of rows with a live flag. Every storage invariant
//! the evaluator relies on is phrased against it — physical `len`, live
//! iteration order, eager posting removal, ascending probe results, and
//! truncate's interaction with tombstones.

use ldl_storage::{intern_ids, Database, IdRows, Relation};
use ldl_testkit::{cases, Rng};
use ldl_value::{intern, Fact, Symbol, Value, ValueId};

/// The naive reference: rows in insertion order with liveness.
#[derive(Clone, Default)]
struct Model {
    rows: Vec<Vec<ValueId>>,
    live: Vec<bool>,
}

impl Model {
    fn live_pos_of(&self, t: &[ValueId]) -> Option<usize> {
        (0..self.rows.len()).find(|&p| self.live[p] && self.rows[p] == t)
    }

    fn insert(&mut self, t: &[ValueId]) -> bool {
        if self.live_pos_of(t).is_some() {
            return false;
        }
        self.rows.push(t.to_vec());
        self.live.push(true);
        true
    }

    fn remove(&mut self, t: &[ValueId]) -> Option<usize> {
        let p = self.live_pos_of(t)?;
        self.live[p] = false;
        Some(p)
    }

    fn truncate(&mut self, n: usize) {
        if n < self.rows.len() {
            self.rows.truncate(n);
            self.live.truncate(n);
        }
    }

    /// Dead positions safe to revive: their content is not live elsewhere
    /// (the only way the engine's rollback ever calls revive).
    fn revivable(&self) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&p| !self.live[p] && self.live_pos_of(&self.rows[p]).is_none())
            .collect()
    }
}

fn check_agreement(r: &Relation, m: &Model, indexes: &[Vec<usize>]) {
    assert_eq!(r.len(), m.rows.len(), "physical len");
    let live_count = m.live.iter().filter(|&&l| l).count();
    assert_eq!(r.live_len(), live_count, "live len");
    assert_eq!(r.is_empty(), live_count == 0);

    // Row access, liveness, and membership per position.
    for (p, row) in m.rows.iter().enumerate() {
        assert_eq!(r.get(p as u32), row.as_slice(), "row data at {p}");
        assert_eq!(r.is_live(p as u32), m.live[p], "liveness at {p}");
        if m.live[p] {
            assert_eq!(r.position_of(row), Some(p as u32));
            assert!(r.contains(row));
        }
    }
    // Tuples with no live occurrence are absent from the dedup filter.
    for (p, row) in m.rows.iter().enumerate() {
        if !m.live[p] && m.live_pos_of(row).is_none() {
            assert!(!r.contains(row), "tombstoned tuple at {p} still visible");
        }
    }

    // Live iteration order is insertion order.
    let got: Vec<&[ValueId]> = r.iter().collect();
    let want: Vec<&[ValueId]> = m
        .rows
        .iter()
        .enumerate()
        .filter(|&(p, _)| m.live[p])
        .map(|(_, row)| row.as_slice())
        .collect();
    assert_eq!(got, want, "iteration order");

    // Every index answers every key with the ascending live positions.
    for cols in indexes {
        let mut keys: Vec<Vec<ValueId>> = Vec::new();
        for row in &m.rows {
            let key: Vec<ValueId> = cols.iter().map(|&c| row[c]).collect();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        for key in &keys {
            let want: Vec<u32> = m
                .rows
                .iter()
                .enumerate()
                .filter(|&(p, row)| m.live[p] && cols.iter().zip(key).all(|(&c, &k)| row[c] == k))
                .map(|(p, _)| p as u32)
                .collect();
            assert_eq!(
                r.probe(cols, key),
                want.as_slice(),
                "probe {cols:?}/{key:?}"
            );
        }
        // And misses miss.
        let miss: Vec<ValueId> = cols.iter().map(|_| intern::mk_int(-777)).collect();
        assert!(r.probe(cols, &miss).is_empty());
    }
}

#[test]
fn random_op_sequences_match_naive_model() {
    cases(40, |rng: &mut Rng| {
        let arity = rng.range(1, 5) as usize;
        let pool = rng.range(2, 5); // small value pool → frequent duplicates
        let mut r = Relation::new(arity);
        let mut m = Model::default();
        let mut indexes: Vec<Vec<usize>> = Vec::new();
        // A clone shares nothing with its source: each frozen relation must
        // still agree with the model frozen beside it after every later
        // mutation of `r` — a snapshot at epoch N is the deep copy at N.
        let mut frozen: Vec<(Relation, Model, Vec<Vec<usize>>)> = Vec::new();
        let tuple = |rng: &mut Rng| -> Vec<ValueId> {
            (0..arity)
                .map(|_| intern::mk_int(rng.range(0, pool)))
                .collect()
        };

        let ops = rng.range(30, 120);
        for op in 0..ops {
            match rng.range(0, 100) {
                // Insert (the common op — the others need population).
                0..=54 => {
                    let t = tuple(rng);
                    assert_eq!(r.insert_slice(&t), m.insert(&t), "insert {t:?}");
                }
                55..=69 => {
                    let t = tuple(rng);
                    let got = r.remove_slice(&t);
                    let want = m.remove(&t).map(|p| p as u32);
                    assert_eq!(got, want, "remove {t:?}");
                }
                70..=79 => {
                    let candidates = m.revivable();
                    if let Some(&p) = candidates.first() {
                        r.revive(p as u32);
                        m.live[p] = true;
                    }
                }
                80..=93 => {
                    let mut cols: Vec<usize> = (0..arity).filter(|_| rng.chance(1, 2)).collect();
                    if cols.is_empty() {
                        cols.push(rng.range(0, arity as i64) as usize);
                    }
                    r.ensure_index(&cols);
                    cols.sort_unstable();
                    cols.dedup();
                    if !indexes.contains(&cols) {
                        indexes.push(cols);
                    }
                }
                _ => {
                    let n = rng.range(0, m.rows.len() as i64 + 1) as usize;
                    r.truncate(n);
                    m.truncate(n);
                }
            }
            if op % 13 == 0 {
                check_agreement(&r, &m, &indexes);
            }
            if op == ops / 2 || rng.chance(1, 25) {
                frozen.push((r.clone(), m.clone(), indexes.clone()));
            }
        }
        check_agreement(&r, &m, &indexes);
        for (r, m, indexes) in &frozen {
            check_agreement(r, m, indexes);
        }
    });
}

/// One hub key grown to 5 000 postings — through every extent relocation
/// from the inline singleton to 8 192 slots — interleaved with small keys
/// whose lists take over the extents it leaves, then random removal,
/// revival and truncation across the same size classes. Every key's probe
/// is compared with the naive model after each step.
#[test]
fn hub_key_postings_stay_exact_across_relocation_and_reuse() {
    const HUB: i64 = 0;
    const KEYS: i64 = 1 + 40;
    let mut rng = Rng::new(0x1D1_1987);
    let mut r = Relation::new(2);
    let mut m = Model::default();
    r.ensure_index(&[0]);
    let check = |r: &Relation, m: &Model| {
        for key in (0..KEYS).map(intern::mk_int) {
            let want: Vec<u32> = (0..m.rows.len())
                .filter(|&p| m.live[p] && m.rows[p][0] == key)
                .map(|p| p as u32)
                .collect();
            assert_eq!(r.probe(&[0], &[key]), want, "key {key:?}");
        }
    };
    // Every tuple is `(key, serial)`, hence new: the model appends without
    // its linear duplicate search.
    let mut serial = 0i64;
    let mut insert = |r: &mut Relation, m: &mut Model, key: i64| {
        let t = vec![intern::mk_int(key), intern::mk_int(serial)];
        serial += 1;
        assert!(r.insert_slice(&t));
        m.rows.push(t);
        m.live.push(true);
    };

    let mut hub = 0u32;
    while hub < 5000 {
        // Mostly the hub; a small key every few inserts, so the hub's
        // relocations and the small lists' growth share the free lists.
        let key = if rng.chance(3, 4) {
            hub += 1;
            HUB
        } else {
            rng.range(1, KEYS)
        };
        insert(&mut r, &mut m, key);
        if hub.is_power_of_two() || m.rows.len() % 500 == 0 {
            check(&r, &m);
        }
    }
    check(&r, &m);

    for _ in 0..400 {
        match rng.range(0, 10) {
            0..=5 => {
                for _ in 0..rng.range(1, 60) {
                    let p = rng.index(m.rows.len());
                    let was_live = std::mem::replace(&mut m.live[p], false);
                    let want = was_live.then_some(p as u32);
                    assert_eq!(r.remove_slice(&m.rows[p]), want);
                }
            }
            6..=8 => {
                let dead = (0..m.rows.len()).filter(|&p| !m.live[p]);
                for p in dead.take(rng.range(1, 40) as usize).collect::<Vec<_>>() {
                    r.revive(p as u32);
                    m.live[p] = true;
                }
            }
            _ => {
                // Cut a tail off, then grow the hub back over it.
                let cut = m.rows.len() - rng.index(m.rows.len() / 8);
                r.truncate(cut);
                m.truncate(cut);
                for _ in 0..rng.range(0, 300) {
                    insert(&mut r, &mut m, HUB);
                }
            }
        }
        check(&r, &m);
    }
    assert_eq!(r.live_len(), m.live.iter().filter(|&&l| l).count());
}

/// Pages hold `prev_pow2(max(1, 4096 / arity))` rows; this sweep crosses
/// several page boundaries at every arity 1..8 and checks that row
/// addressing, the dedup filter, index probes, and truncation all stay
/// exact across them.
#[test]
fn arena_paging_is_exact_across_page_boundaries_at_arities_1_to_8() {
    for arity in 1usize..=8 {
        let target = (4096 / arity).max(1);
        let per_page = 1usize << (usize::BITS - 1 - target.leading_zeros());
        let n = 2 * per_page + per_page / 3 + 5; // lands mid-third-page
        let mut r = Relation::new(arity);
        r.ensure_index(&[arity - 1]);
        let row = |i: usize| -> Vec<ValueId> {
            (0..arity)
                .map(|c| intern::mk_int((i * arity + c) as i64))
                .collect()
        };
        for i in 0..n {
            assert!(r.insert_slice(&row(i)), "arity {arity}: insert {i}");
        }
        assert_eq!(r.len(), n);
        assert_eq!(r.arena_pages(), 3, "arity {arity}: page count");
        // Rows on both sides of each boundary read back exactly.
        for &p in &[
            0,
            per_page - 1,
            per_page,
            2 * per_page - 1,
            2 * per_page,
            n - 1,
        ] {
            assert_eq!(r.get(p as u32), row(p).as_slice(), "arity {arity}: row {p}");
            assert_eq!(r.position_of(&row(p)), Some(p as u32));
            assert_eq!(r.probe(&[arity - 1], &[row(p)[arity - 1]]), &[p as u32]);
        }
        // Duplicates across a page boundary are still rejected.
        assert!(!r.insert_slice(&row(0)));
        assert!(!r.insert_slice(&row(per_page)));
        // Truncate to one row past the first boundary, then regrow.
        r.truncate(per_page + 1);
        assert_eq!(r.arena_pages(), 2, "arity {arity}: post-truncate pages");
        assert!(r.contains(&row(per_page)));
        assert!(!r.contains(&row(per_page + 1)));
        assert!(r.insert_slice(&row(per_page + 1)));
        assert_eq!(r.get((per_page + 1) as u32), row(per_page + 1).as_slice());
        assert!(r.arena_bytes() >= 2 * per_page * arity * std::mem::size_of::<ValueId>());
    }
}

// ---- The change log: retired copy + log ≡ deep clone ----

/// The predicates the logged histories run over (two share an arity, so one
/// can be installed as the other) and a scratch name that comes and goes.
const PREDS: [(&str, usize); 4] = [("p", 2), ("q", 1), ("r", 3), ("s", 2)];
const SCRATCH: &str = "del$p";

/// Everything a reader or the planner can observe of a database, compared
/// through the public API alone: facts, insertion positions, liveness, the
/// duplicate filter, index column sets, every probe (ascending, live,
/// matching), and the arena footprint.
fn assert_same_observable(a: &Database, b: &Database) {
    let names = |db: &Database| {
        let mut names: Vec<String> = db.predicates().map(|p| p.to_string()).collect();
        names.sort();
        names
    };
    assert_eq!(names(a), names(b), "relations");
    for pred in a.predicates() {
        let (ra, rb) = (a.relation(pred).unwrap(), b.relation(pred).unwrap());
        assert_eq!(ra.arity(), rb.arity(), "{pred}: arity");
        assert_eq!(ra.len(), rb.len(), "{pred}: physical len");
        assert_eq!(ra.live_len(), rb.live_len(), "{pred}: live len");
        for pos in 0..ra.len() as u32 {
            assert_eq!(ra.get(pos), rb.get(pos), "{pred}: row {pos}");
            assert_eq!(ra.is_live(pos), rb.is_live(pos), "{pred}: liveness {pos}");
            assert_eq!(
                ra.position_of(ra.get(pos)),
                rb.position_of(rb.get(pos)),
                "{pred}: position_of row {pos}"
            );
        }
        assert_eq!(ra.index_columns(), rb.index_columns(), "{pred}: indexes");
        for cols in ra.index_columns() {
            for pos in 0..ra.len() as u32 {
                let key: Vec<ValueId> = cols.iter().map(|&c| ra.get(pos)[c]).collect();
                let hits = ra.probe(&cols, &key);
                assert_eq!(hits, rb.probe(&cols, &key), "{pred}: probe {cols:?}");
                assert!(hits.windows(2).all(|w| w[0] < w[1]), "{pred}: ascending");
                let matches = |&p: &u32| cols.iter().zip(&key).all(|(&c, &k)| ra.get(p)[c] == k);
                assert!(hits.iter().all(|p| ra.is_live(*p) && matches(p)));
                assert_eq!(hits.contains(&pos), ra.is_live(pos), "{pred}: {pos} listed");
            }
        }
        assert_eq!(ra.arena_bytes(), rb.arena_bytes(), "{pred}: arena bytes");
        assert_eq!(ra.arena_pages(), rb.arena_pages(), "{pred}: arena pages");
    }
}

/// Revive the first dead position of `pred` whose tuple is not live
/// elsewhere (the only kind `catch_up` and `rewind` revive).
fn revive_one(db: &mut Database, pred: Symbol) {
    let Some(rel) = db.relation(pred) else { return };
    let (arity, dead) = (rel.arity(), |&p: &u32| {
        !rel.is_live(p) && !rel.contains(rel.get(p))
    });
    if let Some(pos) = (0..rel.len() as u32).find(dead) {
        db.relation_mut(pred, arity).revive(pos);
    }
}

/// One random storage operation of the kinds commit maintenance performs —
/// and a few it does not, which the log must survive all the same.
fn random_op(rng: &mut Rng, db: &mut Database) {
    let (name, arity) = PREDS[rng.index(PREDS.len())];
    let pred = Symbol::intern(name);
    let tuple = |rng: &mut Rng| -> Vec<ValueId> {
        (0..arity)
            .map(|_| intern::mk_int(rng.range(0, 4)))
            .collect()
    };
    match rng.range(0, 100) {
        0..=44 => {
            db.insert_id_slice(pred, &tuple(rng));
        }
        45..=64 => {
            db.remove_ids(pred, &tuple(rng));
        }
        65..=74 => {
            // Revive a dead position whose tuple is not live elsewhere (the
            // only way rollback calls it).
            revive_one(db, pred);
        }
        75..=84 => {
            let cols: Vec<usize> = (0..arity).filter(|_| rng.chance(1, 2)).collect();
            db.relation_mut(pred, arity).ensure_index(&cols);
        }
        85..=88 => {
            let rel = db.relation_mut(pred, arity);
            let n = rng.range(0, rel.len() as i64 + 1) as usize;
            rel.truncate(n);
        }
        89..=91 => {
            // A replayed stratum: the relation is rebuilt and installed.
            let mut rel = Relation::new(arity);
            for _ in 0..rng.range(0, 6) {
                rel.insert_slice(&tuple(rng));
            }
            db.set_relation(pred, rel);
        }
        92..=93 => {
            // Installed from another relation of the same arity, and the
            // same relation object taken out and put back.
            let p = Symbol::intern("p");
            if let Some(rel) = db.relation(p).filter(|r| r.arity() == arity) {
                db.set_relation(pred, rel.clone());
            }
            if let Some(rel) = db.remove_relation(p) {
                db.set_relation(p, rel);
            }
        }
        94..=96 => {
            db.remove_relation(pred);
        }
        _ => {
            // DRed's scratch relations: created and removed inside one log.
            let scratch = Symbol::intern(SCRATCH);
            db.set_relation(scratch, Relation::new(arity));
            db.relation_mut(scratch, arity).insert_slice(&tuple(rng));
            db.remove_relation(scratch);
        }
    }
}

/// The leapfrog as `ldl1` runs it, over random histories: the working copy
/// is changed under an open log and becomes the published one; the copy it
/// replaces is caught up from the log and must then be indistinguishable
/// from a deep clone of the published copy — and becomes the working copy of
/// the next round, so both copies descend from catch-ups.
#[test]
fn retired_copy_plus_log_equals_deep_clone() {
    cases(60, |rng: &mut Rng| {
        let mut working = Database::new();
        for _ in 0..rng.range(0, 60) {
            random_op(rng, &mut working);
        }
        let mut published = working.clone();
        assert_eq!(published.log_base(), None, "a clone carries no log");
        for epoch in 1..rng.range(3, 9) as u64 {
            working.open_log(epoch);
            let ops = rng.range(0, 40);
            for _ in 0..ops {
                random_op(rng, &mut working);
            }
            assert_eq!(working.log_base(), Some(epoch));
            let mut retired = std::mem::replace(&mut published, working);
            let deep = published.clone();

            let changes = retired.catch_up(&published);
            assert_same_observable(&retired, &deep);
            retired.same_state(&deep).unwrap();
            assert_eq!(retired.log_base(), None);
            if ops == 0 {
                assert_eq!(changes, 0, "nothing happened, nothing replayed");
            }
            working = retired;
        }
    });
}

/// Without a log on the source, `catch_up` is a full copy — whatever the two
/// databases were before.
#[test]
fn catch_up_without_a_log_copies() {
    cases(20, |rng: &mut Rng| {
        let (mut a, mut b) = (Database::new(), Database::new());
        for _ in 0..rng.range(0, 50) {
            random_op(rng, &mut a);
            random_op(rng, &mut b);
        }
        a.catch_up(&b);
        assert_same_observable(&a, &b.clone());
    });
}

/// The comparison the debug-build publish check rests on tells states
/// apart: a fact, a tombstone, an index.
#[test]
fn same_state_tells_states_apart() {
    let p = Symbol::intern("p");
    let row = |x: i64| [intern::mk_int(x), intern::mk_int(x + 1)];
    let mut a = Database::new();
    for x in 0..40 {
        a.insert_id_slice(p, &row(x));
    }
    let differs = |change: &dyn Fn(&mut Database)| {
        let mut b = a.clone();
        assert_eq!(a.same_state(&b), Ok(()));
        change(&mut b);
        a.same_state(&b).unwrap_err()
    };
    let e = differs(&|b| {
        b.insert_id_slice(p, &row(99));
    });
    assert!(e.starts_with("p: len"), "{e}");
    let e = differs(&|b| {
        b.remove_ids(p, &row(3));
    });
    assert!(e.starts_with("p: live_len"), "{e}");
    let e = differs(&|b| b.relation_mut(p, 2).ensure_index(&[1]));
    assert!(e.starts_with("p: indexes"), "{e}");
    let e = differs(&|b| {
        b.insert_id_slice(Symbol::intern("q"), &row(0));
    });
    assert!(e.starts_with("relations"), "{e}");
}

// ---- The change log read backwards: rewind ≡ the clone taken at open_log ----

/// `got` holds `want`'s relations with the same rows, positions, liveness,
/// `position_of` answers and posting lists. An index `got` gained
/// since is compared with the same index built on a copy of `want`.
fn assert_same_rows(got: &Database, want: &Database) {
    let names = |db: &Database| {
        let mut names: Vec<String> = db.predicates().map(|p| p.to_string()).collect();
        names.sort();
        names
    };
    assert_eq!(names(got), names(want), "relations");
    for pred in want.predicates() {
        let (rg, mut rw) = (
            got.relation(pred).unwrap(),
            want.relation(pred).unwrap().clone(),
        );
        let shape = |r: &Relation| (r.arity(), r.len(), r.live_len());
        assert_eq!(shape(rg), shape(&rw), "{pred}: arity, len, live len");
        for pos in 0..rw.len() as u32 {
            assert_eq!(rg.get(pos), rw.get(pos), "{pred}: row {pos}");
            assert_eq!(rg.is_live(pos), rw.is_live(pos), "{pred}: liveness {pos}");
            let row = rw.get(pos);
            assert_eq!(
                rg.position_of(row),
                rw.position_of(row),
                "{pred}: position_of {pos}"
            );
        }
        let had = rw.index_columns();
        for cols in rg.index_columns() {
            rw.ensure_index(&cols);
            for pos in 0..rw.len() as u32 {
                let key: Vec<ValueId> = cols.iter().map(|&c| rw.get(pos)[c]).collect();
                assert_eq!(
                    rg.probe(&cols, &key),
                    rw.probe(&cols, &key),
                    "{pred}: probe {cols:?}"
                );
            }
        }
        assert!(
            had.iter().all(|cols| rg.has_index(cols)),
            "{pred}: lost an index"
        );
    }
}

/// The predicates a logged history changes: three that may predate the log
/// and one that never does.
const LOGGED: [(&str, usize); 4] = [("p", 2), ("q", 1), ("r", 3), ("fresh", 2)];

/// One change of the kinds a batch makes to an EDB under its log — mostly
/// through `Database::apply` — and the storage calls beside it that a
/// rewind must undo as well.
fn logged_op(rng: &mut Rng, db: &mut Database) {
    let (name, arity) = LOGGED[rng.index(LOGGED.len())];
    let pred = Symbol::intern(name);
    let arity = db.relation(pred).map_or(arity, Relation::arity);
    let args = |rng: &mut Rng, arity: usize| -> Vec<Value> {
        (0..arity).map(|_| Value::int(rng.range(0, 4))).collect()
    };
    match rng.range(0, 100) {
        0..=39 => {
            // A net batch: some live facts out, some facts in — a tuple
            // retracted by an earlier batch comes back at a new position.
            let del: Vec<Fact> = db
                .facts_of(pred)
                .into_iter()
                .filter(|_| rng.chance(1, 3))
                .collect();
            let ins: Vec<Fact> = (0..rng.range(0, 4))
                .map(|_| Fact::new(pred, args(rng, arity)))
                .filter(|f| !del.contains(f))
                .collect();
            db.apply(&IdRows::intern(&del), &IdRows::intern(&ins))
                .unwrap();
        }
        40..=54 => {
            db.insert_id_slice(pred, &intern_ids(&args(rng, arity)));
        }
        55..=69 => {
            // A removal, often followed by a revival — of an older dead copy
            // of the same tuple, at times: undoing those two oldest first
            // would have the tuple live twice.
            let gone = db.remove_ids(pred, &intern_ids(&args(rng, arity)));
            if gone.is_some() && rng.chance(1, 2) {
                revive_one(db, pred);
            }
        }
        70..=79 => revive_one(db, pred),
        80..=89 => {
            let cols: Vec<usize> = (0..arity).filter(|_| rng.chance(1, 2)).collect();
            db.relation_mut(pred, arity).ensure_index(&cols);
        }
        _ => {
            // Empty the predicate in one batch; the next re-asserts it at
            // another arity, replacing the all-tombstoned relation.
            let none = IdRows::default();
            db.apply(&IdRows::intern(&db.facts_of(pred)), &none)
                .unwrap();
            let other = arity % 3 + 1;
            let mut ins = IdRows::default();
            ins.push(pred, &intern_ids(&args(rng, other)));
            db.apply(&none, &ins).unwrap();
        }
    }
}

/// Whatever a logged history did — batches, re-assertions, revivals, new
/// indexes, new relations, relations replaced at another arity — `rewind`
/// lands on the rows, positions, liveness and posting lists of the deep
/// clone taken when the log opened, closes the log, and goes on from there
/// as that clone would.
#[test]
fn rewind_equals_the_clone_taken_at_open_log() {
    cases(60, |rng: &mut Rng| {
        let mut db = Database::new();
        for _ in 0..rng.range(0, 60) {
            random_op(rng, &mut db);
        }
        for round in 0..rng.range(1, 4) as u64 {
            let mut base = db.clone();
            db.open_log(round);
            for _ in 0..rng.range(0, 40) {
                logged_op(rng, &mut db);
            }
            db.rewind();
            assert_eq!(db.log_base(), None);
            assert_same_rows(&db, &base);

            let ops = rng.range(0, 10);
            let mut twin = rng.clone();
            for _ in 0..ops {
                logged_op(rng, &mut db);
                logged_op(&mut twin, &mut base);
            }
            assert_same_rows(&db, &base);
        }
    });
}
