#![warn(missing_docs)]

//! Durability layer for the LDL1 engine: a write-ahead log plus periodic
//! snapshots of the extensional database, with crash recovery.
//!
//! The in-memory engine is already transactional — mutation batches commit
//! atomically and aborted batches are rewound without a trace — but every
//! model dies with the process. This crate makes the *extensional*
//! database durable, treating the committed mutation batch (the engine's
//! atomic unit of change, after U-Datalog) as the logged unit:
//!
//! * [`Store`] owns a data directory holding an append-only log
//!   (`wal.log`) of committed batches as length-prefixed,
//!   CRC32-checksummed, monotonically sequenced records, plus the latest
//!   snapshot (`snapshot.bin`) of the whole database, installed by atomic
//!   rename.
//! * Values are serialized **structurally** (constants and names, never
//!   raw [`ldl_value::ValueId`]s or [`ldl_value::Symbol`] ids), so
//!   recovery is independent of the interning order of the writing
//!   process — the ids a recovering process assigns may differ; the
//!   values cannot.
//! * [`Store::open`] recovers: load the latest valid snapshot, replay the
//!   log's tail, and *truncate* a torn or corrupt trailing record
//!   (reporting it in [`RecoveryInfo`]) instead of failing — a crash mid
//!   write loses at most the batch that was being committed.
//! * `fsync` policy is configurable per store ([`SyncPolicy`]):
//!   every-commit durability, batched group commit, or none.
//!
//! All file writes go through the [`WalFile`] trait so tests can inject
//! I/O faults — killed writes, flipped bits, dropped syncs — and prove
//! recovery against them (see `ldl-testkit`'s `fault` module).

mod codec;
mod crc;
mod log;
mod snapshot;
mod store;

pub use codec::{decode_batch, encode_batch};
pub use crc::crc32;
pub use log::{WAL_FILE, WAL_HEADER_LEN};
pub use snapshot::SNAPSHOT_FILE;
pub use store::{
    AppendInfo, CheckpointInfo, OpenTimes, RecoveryInfo, Store, StoreOptions, Truncation,
};

use std::fmt;
use std::io;

/// When the log forces written records to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: a batch whose commit returned
    /// is durable. The default.
    #[default]
    Always,
    /// Group commit: `fsync` once every `n` appended records (and on
    /// checkpoint). A crash loses at most the records since the last sync.
    EveryN(u32),
    /// Never `fsync`; leave flushing to the OS. A crash may lose any
    /// suffix of the log, but recovery still sees a valid prefix.
    Never,
}

/// Any error the durability layer can raise.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A file's *non-recoverable* region is damaged: a bad magic number or
    /// version, a snapshot failing its checksum, or a log whose records
    /// disagree with the installed snapshot. (A torn or corrupt *tail* of
    /// the log is not an error — recovery truncates it and reports a
    /// [`Truncation`].)
    Corrupt {
        /// Byte offset of the damage within the offending file.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
    /// A batch's encoded payload exceeds what the record framing can
    /// carry: recovery's scan treats any length over the cap as a corrupt
    /// length field, so such a record would be acknowledged and then
    /// silently truncated on the next open. The batch was **not**
    /// appended and the store is not poisoned — split the batch and
    /// retry.
    BatchTooLarge {
        /// Encoded payload size in bytes.
        bytes: u64,
        /// The largest payload one record can carry.
        max: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "durability I/O error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "corrupt durable state at byte {offset}: {detail}")
            }
            WalError::BatchTooLarge { bytes, max } => write!(
                f,
                "batch encodes to {bytes} bytes, over the {max}-byte record \
                 cap; split the batch (nothing was appended)"
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } | WalError::BatchTooLarge { .. } => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// The byte sink the log appends through.
///
/// Production code uses a [`std::fs::File`]; tests swap in a fault
/// injector (`ldl_testkit::fault::IoFault`) that kills writes at a chosen
/// byte, flips bits, or drops unsynced data, to prove recovery handles
/// every way a real disk can lose a tail.
pub trait WalFile: Send {
    /// Append `buf` in its entirety (or fail).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Force previously written bytes to stable storage.
    fn sync_data(&mut self) -> io::Result<()>;
}

impl WalFile for std::fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }
}
