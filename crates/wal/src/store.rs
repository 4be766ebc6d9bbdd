//! The durable store: a data directory holding the write-ahead log and
//! the latest snapshot, with recovery on open.
//!
//! # Recovery
//!
//! [`Store::open`] rebuilds the database in three steps:
//!
//! 1. Load `snapshot.bin` if present (checksummed, installed by atomic
//!    rename — it is either wholly valid or [`WalError::Corrupt`]).
//! 2. Scan `wal.log`, keeping the longest valid record prefix. A torn or
//!    corrupt tail is *physically truncated* and reported as a
//!    [`Truncation`] — never an error — because a crash mid-append is
//!    expected, and the committed prefix is still intact.
//! 3. Replay every record with a sequence number above the snapshot's
//!    onto the snapshot image.
//!
//! # Checkpoint
//!
//! [`Store::checkpoint`] writes a new snapshot covering everything logged
//! so far, installs it by atomic rename, then starts a fresh log whose
//! `base_seq` is the snapshot's sequence. A crash between the two steps
//! leaves a snapshot that is *ahead* of the log's base — recovery replays
//! only records past the snapshot, and if the old log's surviving tail
//! ends *below* the snapshot's sequence (its last records were unsynced
//! and torn), the log is recreated fresh so later appends continue the
//! sequence without a gap.
//!
//! # Failure poisoning
//!
//! The store appends a batch only *after* the in-memory commit succeeded,
//! so if the append itself fails the log is missing a batch the process
//! already applied. The store then refuses further appends ("poisoned")
//! until a successful [`Store::checkpoint`] re-establishes a log that
//! agrees with memory.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ldl_storage::Database;
use ldl_value::Fact;

use crate::codec::{decode_batch, encode_batch};
use crate::log::{self, WAL_FILE, WAL_HEADER_LEN};
use crate::snapshot::{self, SNAPSHOT_FILE};
use crate::{SyncPolicy, WalError, WalFile};

/// Configuration for a [`Store`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreOptions {
    /// When appended records are forced to stable storage.
    pub sync: SyncPolicy,
}

/// A torn or corrupt log tail that recovery dropped.
#[derive(Clone, Debug)]
pub struct Truncation {
    /// Byte offset within `wal.log` where the invalid suffix began.
    pub offset: u64,
    /// How many bytes were dropped.
    pub dropped_bytes: u64,
    /// Why the suffix was invalid.
    pub reason: String,
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} invalid log byte(s) at offset {}: {}",
            self.dropped_bytes, self.offset, self.reason
        )
    }
}

/// What [`Store::open`] found and did.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    /// Sequence number covered by the loaded snapshot, if one existed.
    pub snapshot_seq: Option<u64>,
    /// Committed batches replayed from the log on top of the snapshot.
    pub replayed: u64,
    /// Last committed sequence number after recovery.
    pub last_seq: u64,
    /// The torn/corrupt tail that was truncated, if any.
    pub truncation: Option<Truncation>,
    /// Valid log length in bytes after recovery (header-only when the
    /// log was recreated fresh).
    pub wal_bytes: u64,
    /// Where the open's time went.
    pub times: OpenTimes,
}

/// [`Store::open`]'s wall time, split by step. The parts never sum past
/// `total`, which also covers creating the directory and repairing or
/// recreating the log.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenTimes {
    /// Reading the snapshot and log files.
    pub read: Duration,
    /// Checking the snapshot's CRC.
    pub crc: Duration,
    /// Interning the snapshot's node table.
    pub nodes: Duration,
    /// Inserting the snapshot's rows.
    pub rows: Duration,
    /// Scanning the log: framing and every record's CRC.
    pub scan: Duration,
    /// Replaying the log records past the snapshot: interning each
    /// record's node table and applying its rows.
    pub replay: Duration,
    /// The whole open.
    pub total: Duration,
}

impl fmt::Display for OpenTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "open {:.3} ms: read {:.3}, crc {:.3}, nodes {:.3}, rows {:.3}, \
             log scan {:.3}, replay {:.3}",
            ms(self.total),
            ms(self.read),
            ms(self.crc),
            ms(self.nodes),
            ms(self.rows),
            ms(self.scan),
            ms(self.replay)
        )
    }
}

/// Result of appending one committed batch to the log.
#[derive(Clone, Copy, Debug)]
pub struct AppendInfo {
    /// The batch's sequence number.
    pub seq: u64,
    /// Bytes appended (record header + payload).
    pub bytes: u64,
    /// Whether this append was forced to stable storage before returning.
    pub synced: bool,
}

/// Result of a successful [`Store::checkpoint`].
#[derive(Clone, Debug)]
pub struct CheckpointInfo {
    /// Where the snapshot was installed.
    pub path: PathBuf,
    /// Size of the snapshot in bytes.
    pub bytes: u64,
    /// The log sequence number the snapshot covers.
    pub seq: u64,
}

/// An open durable data directory. See the module docs for the recovery
/// and checkpoint protocols.
pub struct Store {
    dir: PathBuf,
    options: StoreOptions,
    file: Box<dyn WalFile>,
    last_seq: u64,
    wal_len: u64,
    unsynced: u32,
    broken: Option<String>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .field("last_seq", &self.last_seq)
            .field("wal_len", &self.wal_len)
            .field("unsynced", &self.unsynced)
            .field("broken", &self.broken)
            .finish_non_exhaustive()
    }
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Durable rename needs the directory entry flushed too. Some
    // filesystems refuse to sync a directory handle; that is not fatal.
    match File::open(dir) {
        Ok(d) => match d.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.raw_os_error() == Some(22) => Ok(()), // EINVAL
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

/// Write `bytes` to `dir/name` atomically: temp file, fsync, rename,
/// directory fsync.
fn install(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, WalError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    let mut f = File::create(&tmp)?;
    io::Write::write_all(&mut f, bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    fsync_dir(dir)?;
    Ok(path)
}

impl Store {
    /// Open (creating if needed) the data directory `dir` and recover the
    /// database it holds. Returns the store, the recovered database, and
    /// a report of what recovery found.
    pub fn open(
        dir: impl AsRef<Path>,
        options: StoreOptions,
    ) -> Result<(Store, Database, RecoveryInfo), WalError> {
        let start = Instant::now();
        let mut times = OpenTimes::default();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        // 1. Snapshot (all-or-nothing).
        let t = Instant::now();
        let snap = fs::read(dir.join(SNAPSHOT_FILE));
        times.read += t.elapsed();
        let (mut db, snap_seq, snapshot_seq) = match snap {
            Ok(bytes) => {
                let (db, seq) = snapshot::decode(&bytes, &mut times)?;
                (db, seq, Some(seq))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (Database::new(), 0, None),
            Err(e) => return Err(e.into()),
        };

        // 2. Log scan.
        let wal_path = dir.join(WAL_FILE);
        let t = Instant::now();
        let bytes = match fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        times.read += t.elapsed();
        let t = Instant::now();
        let scan = log::scan(&bytes)?;
        times.scan = t.elapsed();
        let mut truncation = scan.truncated;
        let fresh = scan.valid_len == 0;
        if !fresh && scan.base_seq > snap_seq {
            // The log continues from a snapshot that is not the one on
            // disk — records before base_seq are unrecoverable.
            return Err(WalError::Corrupt {
                offset: 8,
                detail: format!(
                    "log begins at sequence {} but the installed snapshot covers {}",
                    scan.base_seq, snap_seq
                ),
            });
        }

        // 3. Replay records past the snapshot. A record that passed its
        // CRC but does not decode, or whose rows do not apply, is treated
        // like any other corrupt tail.
        let mut valid_len = scan.valid_len;
        let mut last_seq = snap_seq;
        let mut log_tail_seq = scan.base_seq;
        let mut replayed = 0u64;
        let mut offset = WAL_HEADER_LEN;
        let t = Instant::now();
        for (seq, payload) in &scan.records {
            let rec_len = 16 + payload.len() as u64;
            if *seq > snap_seq {
                match decode_batch(payload).and_then(|(del, ins)| db.apply(&del, &ins)) {
                    Ok(()) => {
                        last_seq = *seq;
                        replayed += 1;
                    }
                    Err(reason) => {
                        truncation = Some(Truncation {
                            offset,
                            dropped_bytes: bytes.len() as u64 - offset,
                            reason: format!("bad batch at sequence {seq}: {reason}"),
                        });
                        valid_len = offset;
                        break;
                    }
                }
            }
            log_tail_seq = *seq;
            offset += rec_len;
        }
        times.replay = t.elapsed();

        // 4. Make the on-disk log agree with what we recovered, and open
        // the append handle. The kept log must end exactly at `last_seq`:
        // a crash in checkpoint() between snapshot install and log
        // recreation can leave a *stale* log whose last surviving record
        // sits below the snapshot's sequence (its tail was unsynced and
        // torn). Appending seq `last_seq + 1` after that record would
        // open a sequence gap the next scan() truncates at — silently
        // dropping committed batches — so such a log is recreated fresh,
        // based at `last_seq`, exactly like an empty one.
        let stale = log_tail_seq < last_seq;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        let wal_len = if fresh || stale {
            // Start over, continuing from the recovered sequence (for an
            // empty or torn-header log that is the snapshot's sequence;
            // every record a stale log held is covered by the snapshot).
            file.set_len(0)?;
            let header = log::encode_header(last_seq);
            io::Write::write_all(&mut file, &header)?;
            file.sync_data()?;
            WAL_HEADER_LEN
        } else {
            if valid_len < bytes.len() as u64 {
                file.set_len(valid_len)?;
                file.sync_data()?;
            }
            valid_len
        };

        let info = RecoveryInfo {
            snapshot_seq,
            replayed,
            last_seq,
            truncation,
            wal_bytes: wal_len,
            times: OpenTimes {
                total: start.elapsed(),
                ..times
            },
        };
        let store = Store {
            dir,
            options,
            file: Box::new(file),
            last_seq,
            wal_len,
            unsynced: 0,
            broken: None,
        };
        Ok((store, db, info))
    }

    /// The data directory this store owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the store was opened with.
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// Last committed sequence number.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Current logical length of the log file in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// If a log write failed, why further appends are refused.
    pub fn broken(&self) -> Option<&str> {
        self.broken.as_deref()
    }

    /// Replace the log's byte sink. Used by fault-injection tests to
    /// interpose crashes and corruption; clears any poisoning. Appends go
    /// to the new sink; the snapshot path is unaffected.
    pub fn set_wal_file(&mut self, file: Box<dyn WalFile>) {
        self.file = file;
        self.broken = None;
        self.unsynced = 0;
    }

    /// Append one committed batch — net `del`etions then `ins`ertions —
    /// to the log, syncing per the store's [`SyncPolicy`].
    pub fn append(&mut self, del: &[Fact], ins: &[Fact]) -> Result<AppendInfo, WalError> {
        if let Some(why) = &self.broken {
            return Err(WalError::Io(io::Error::other(format!(
                "log is poisoned by an earlier write failure ({why}); checkpoint to recover"
            ))));
        }
        let payload = encode_batch(del, ins);
        // An oversized payload would be acknowledged here and then
        // rejected by recovery's scan as a corrupt length field — refuse
        // it up front. Nothing was written, so the store is not poisoned.
        log::check_payload_len(payload.len())?;
        let seq = self.last_seq + 1;
        let record = log::encode_record(seq, &payload);
        if let Err(e) = self.file.write_all(&record) {
            self.broken = Some(e.to_string());
            return Err(e.into());
        }
        let synced = match self.options.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                self.unsynced >= n.max(1)
            }
            SyncPolicy::Never => false,
        };
        if synced {
            if let Err(e) = self.file.sync_data() {
                self.broken = Some(e.to_string());
                return Err(e.into());
            }
            self.unsynced = 0;
        }
        self.last_seq = seq;
        self.wal_len += record.len() as u64;
        Ok(AppendInfo {
            seq,
            bytes: record.len() as u64,
            synced,
        })
    }

    /// Force any unsynced appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if let Err(e) = self.file.sync_data() {
            self.broken = Some(e.to_string());
            return Err(e.into());
        }
        self.unsynced = 0;
        Ok(())
    }

    /// Snapshot `db` (which must be the state after the last appended
    /// batch), install it atomically, and start a fresh log from it. On
    /// success the store is no longer poisoned and the log is one header
    /// long.
    pub fn checkpoint(&mut self, db: &Database) -> Result<CheckpointInfo, WalError> {
        let seq = self.last_seq;
        let bytes = snapshot::encode(db, seq);
        let path = install(&self.dir, SNAPSHOT_FILE, &bytes)?;
        // The snapshot now covers every logged record; replace the log
        // with a fresh one based at `seq`. A crash before this rename
        // leaves the old log behind the new snapshot — recovery replays
        // nothing from it.
        install(&self.dir, WAL_FILE, &log::encode_header(seq))?;
        // The old append handle points at the unlinked file; reopen.
        self.file = Box::new(
            OpenOptions::new()
                .append(true)
                .open(self.dir.join(WAL_FILE))?,
        );
        self.wal_len = WAL_HEADER_LEN;
        self.unsynced = 0;
        self.broken = None;
        Ok(CheckpointInfo {
            path,
            bytes: bytes.len() as u64,
            seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_value::Value;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ldl-wal-test-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fact(p: &str, i: i64) -> Fact {
        Fact::new(p, vec![Value::int(i)])
    }

    #[test]
    fn append_then_reopen_replays() {
        let dir = temp_dir("replay");
        let (mut store, mut db, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(info.last_seq, 0);
        assert!(info.snapshot_seq.is_none());
        for i in 0..10 {
            db.insert(fact("p", i));
            let a = store.append(&[], &[fact("p", i)]).unwrap();
            assert_eq!(a.seq, i as u64 + 1);
            assert!(a.synced);
        }
        db.remove(&fact("p", 3));
        store.append(&[fact("p", 3)], &[]).unwrap();
        let expect = db.dump();
        drop(store);

        let (store2, db2, info2) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(info2.replayed, 11);
        assert_eq!(info2.last_seq, 11);
        assert!(info2.truncation.is_none());
        assert_eq!(store2.last_seq(), 11);
        assert_eq!(db2.dump(), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_times_split_the_whole_open() {
        let dir = temp_dir("times");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..200 {
            db.insert(fact("p", i));
        }
        store.checkpoint(&db).unwrap();
        for i in 200..210 {
            store.append(&[], &[fact("p", i)]).unwrap();
        }
        drop(store);

        let (_, db2, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!((db2.num_facts(), info.replayed), (210, 10));
        let t = info.times;
        let parts = t.read + t.crc + t.nodes + t.rows + t.scan + t.replay;
        assert!(parts <= t.total, "{t:?}");
        assert!(t.nodes > Duration::ZERO && t.rows > Duration::ZERO, "{t:?}");
        assert!(t.replay > Duration::ZERO, "{t:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_syncs_every_n() {
        let dir = temp_dir("group");
        let opts = StoreOptions {
            sync: SyncPolicy::EveryN(3),
        };
        let (mut store, _db, _) = Store::open(&dir, opts).unwrap();
        let synced: Vec<bool> = (0..7)
            .map(|i| store.append(&[], &[fact("p", i)]).unwrap().synced)
            .collect();
        assert_eq!(synced, vec![false, false, true, false, false, true, false]);
        store.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_installs_snapshot_and_restarts_log() {
        let dir = temp_dir("ckpt");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..5 {
            db.insert(fact("q", i));
            store.append(&[], &[fact("q", i)]).unwrap();
        }
        let before_ckpt = store.wal_len();
        assert!(before_ckpt > WAL_HEADER_LEN);
        let info = store.checkpoint(&db).unwrap();
        assert_eq!(info.seq, 5);
        assert!(info.bytes > 0);
        assert!(info.path.ends_with(SNAPSHOT_FILE));
        assert_eq!(store.wal_len(), WAL_HEADER_LEN);

        // Appends continue from the checkpoint's sequence.
        db.insert(fact("q", 100));
        let a = store.append(&[], &[fact("q", 100)]).unwrap();
        assert_eq!(a.seq, 6);
        drop(store);

        let (_s, db2, info2) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(info2.snapshot_seq, Some(5));
        assert_eq!(info2.replayed, 1);
        assert_eq!(info2.last_seq, 6);
        assert_eq!(db2.dump(), db.dump());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..4 {
            db.insert(fact("r", i));
            store.append(&[], &[fact("r", i)]).unwrap();
        }
        let good_len = store.wal_len();
        drop(store);
        // Simulate a crash mid-append: garbage on the end of the log.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        io::Write::write_all(&mut f, &[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);

        let (store2, db2, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        let t = info.truncation.expect("tail must be reported");
        assert_eq!(t.offset, good_len);
        assert_eq!(t.dropped_bytes, 3);
        assert_eq!(db2.dump(), db.dump());
        assert_eq!(store2.wal_len(), good_len);
        // The file itself was repaired.
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), good_len);
        drop(store2);
        // Reopening again is clean.
        let (_s, _d, info2) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(info2.truncation.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Append each batch to a fresh store, reopen, and return the reopened
    /// database and report, with the log offset each record began at.
    fn reopen_after(
        tag: &str,
        batches: &[(Vec<Fact>, Vec<Fact>)],
    ) -> (Database, RecoveryInfo, Vec<u64>) {
        let dir = temp_dir(tag);
        let (mut store, _, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        let mut starts = Vec::new();
        for (del, ins) in batches {
            starts.push(store.wal_len());
            store.append(del, ins).unwrap();
        }
        drop(store);
        let (store, db, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(
            fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            store.wal_len()
        );
        drop(store);
        let (_, again, info2) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(info2.truncation.is_none(), "{:?}", info2.truncation);
        assert_eq!(again.dump(), db.dump());
        let _ = fs::remove_dir_all(&dir);
        (db, info, starts)
    }

    #[test]
    fn record_at_another_arity_truncates() {
        let p12 = Fact::new("p", vec![Value::int(1), Value::int(2)]);
        let (db, info, starts) = reopen_after(
            "arity",
            &[
                (vec![], vec![p12.clone()]),
                (vec![], vec![fact("p", 3)]),
                (vec![], vec![fact("q", 4)]),
            ],
        );
        let t = info.truncation.expect("the conflicting record is dropped");
        assert_eq!(t.offset, starts[1]);
        assert!(t.reason.contains("bad batch at sequence 2"), "{}", t.reason);
        assert!(t.reason.contains("p asserted at arity 1"), "{}", t.reason);
        assert_eq!((info.replayed, info.last_seq), (1, 1));
        assert_eq!(db.dump(), "p(1, 2).\n");

        // A relation the log emptied takes its next assertion's arity.
        let (db, info, _) = reopen_after(
            "vacated",
            &[
                (vec![], vec![p12.clone()]),
                (vec![p12], vec![]),
                (vec![], vec![fact("p", 3)]),
            ],
        );
        assert!(info.truncation.is_none(), "{:?}", info.truncation);
        assert_eq!(db.dump(), "p(3).\n");
    }

    #[test]
    fn record_at_two_arities_truncates() {
        let q12 = Fact::new("q", vec![Value::int(1), Value::int(2)]);
        let (db, info, starts) = reopen_after(
            "two-arities",
            &[
                (vec![], vec![fact("p", 1)]),
                (vec![], vec![fact("q", 1), q12]),
            ],
        );
        let t = info.truncation.expect("the conflicting record is dropped");
        assert_eq!(t.offset, starts[1]);
        assert!(t.reason.contains("q asserted at arity 2"), "{}", t.reason);
        assert_eq!(info.replayed, 1);
        assert_eq!(db.dump(), "p(1).\n");
    }

    #[test]
    fn version_one_log_is_refused_and_left_alone() {
        let dir = temp_dir("v1");
        let (mut store, _, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.append(&[], &[fact("p", 1)]).unwrap();
        drop(store);
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&wal_path, &bytes).unwrap();

        match Store::open(&dir, StoreOptions::default()) {
            Err(WalError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "unsupported log version 1 (expected 2)")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(
            fs::read(&wal_path).unwrap(),
            bytes,
            "not read as a torn tail"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_ahead_of_log_recovers() {
        // A crash between snapshot install and log recreation leaves the
        // *old* log (base 0, records 1..=n) with a snapshot covering n.
        let dir = temp_dir("ahead");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..3 {
            db.insert(fact("s", i));
            store.append(&[], &[fact("s", i)]).unwrap();
        }
        // Install the snapshot "by hand" without recreating the log.
        let bytes = snapshot::encode(&db, 3);
        install(&dir, SNAPSHOT_FILE, &bytes).unwrap();
        drop(store);

        let (store2, db2, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(info.snapshot_seq, Some(3));
        assert_eq!(
            info.replayed, 0,
            "records at or below the snapshot are skipped"
        );
        assert_eq!(info.last_seq, 3);
        assert_eq!(db2.dump(), db.dump());
        drop(store2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_log_behind_snapshot_is_recreated() {
        // A crash in checkpoint() between snapshot install and log
        // recreation, where the old log's own tail was unsynced and torn:
        // the snapshot covers sequence 3 but the surviving log ends at
        // record 2. Appending to that log would write sequence 4 after
        // record 2 — a gap the next scan() would truncate at, silently
        // dropping the committed batch.
        let dir = temp_dir("stale");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..3 {
            db.insert(fact("v", i));
            store.append(&[], &[fact("v", i)]).unwrap();
        }
        let bytes = snapshot::encode(&db, 3);
        install(&dir, SNAPSHOT_FILE, &bytes).unwrap();
        drop(store);
        // Tear off the log's last record, as a lost unsynced tail would.
        let wal_path = dir.join(WAL_FILE);
        let wal_bytes = fs::read(&wal_path).unwrap();
        let scan = log::scan(&wal_bytes).unwrap();
        let keep = WAL_HEADER_LEN
            + scan.records[..2]
                .iter()
                .map(|(_, p)| 16 + p.len() as u64)
                .sum::<u64>();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(keep).unwrap();
        drop(f);

        let (mut store2, mut db2, info) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(info.snapshot_seq, Some(3));
        assert_eq!(info.last_seq, 3);
        assert_eq!(info.replayed, 0);
        assert_eq!(
            info.wal_bytes, WAL_HEADER_LEN,
            "the stale log must be recreated fresh"
        );
        assert_eq!(db2.dump(), db.dump());

        // The next append continues the sequence; a further recovery must
        // keep it — before the fix it was silently dropped as a gap.
        db2.insert(fact("v", 100));
        let a = store2.append(&[], &[fact("v", 100)]).unwrap();
        assert_eq!(a.seq, 4);
        drop(store2);
        let (_s3, db3, info3) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert!(info3.truncation.is_none(), "{:?}", info3.truncation);
        assert_eq!(info3.last_seq, 4);
        assert_eq!(db3.dump(), db2.dump());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_from_missing_snapshot_is_corrupt() {
        let dir = temp_dir("orphan");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        db.insert(fact("t", 1));
        store.append(&[], &[fact("t", 1)]).unwrap();
        store.checkpoint(&db).unwrap();
        db.insert(fact("t", 2));
        store.append(&[], &[fact("t", 2)]).unwrap();
        drop(store);
        // Lose the snapshot: the log's base_seq now points at history
        // that no longer exists anywhere.
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        match Store::open(&dir, StoreOptions::default()) {
            Err(WalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("snapshot"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_poisons_until_checkpoint() {
        struct FailingFile;
        impl WalFile for FailingFile {
            fn write_all(&mut self, _buf: &[u8]) -> io::Result<()> {
                Err(io::Error::other("injected write failure"))
            }
            fn sync_data(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let dir = temp_dir("poison");
        let (mut store, mut db, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        store.set_wal_file(Box::new(FailingFile));
        db.insert(fact("u", 1));
        assert!(store.append(&[], &[fact("u", 1)]).is_err());
        assert!(store.broken().is_some());
        // Still poisoned even though the next write would "succeed".
        let err = store.append(&[], &[fact("u", 2)]).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        // Checkpoint heals: it rewrites durable state from `db`.
        store.checkpoint(&db).unwrap();
        assert!(store.broken().is_none());
        db.insert(fact("u", 3));
        store.append(&[], &[fact("u", 3)]).unwrap();
        drop(store);
        let (_s, db2, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(db2.dump(), db.dump());
        let _ = fs::remove_dir_all(&dir);
    }
}
