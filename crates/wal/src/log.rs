//! The write-ahead log file: header and record framing.
//!
//! ```text
//! header (24 bytes):  "LDL1WAL\0"  version:u32  reserved:u32  base_seq:u64
//! record (16 + len):  len:u32  crc:u32  seq:u64  payload[len]
//! ```
//!
//! `crc` is CRC-32 over `seq ++ payload`, so a record whose length field,
//! sequence number, or payload was torn by a crash fails verification.
//! Sequence numbers are consecutive starting at `base_seq + 1` — the
//! sequence the installed snapshot covers — which catches a log spliced
//! from the wrong generation.
//!
//! [`scan`] walks the record stream and classifies the first invalid
//! record: everything before it is the recoverable prefix, everything from
//! it on is a torn tail to truncate. A *torn* tail (too few bytes) and a
//! *corrupt* tail (checksum or sequence mismatch) are both truncated —
//! after a crash mid-write they are indistinguishable.

use crate::codec::{put_u32, put_u64, Cursor};
use crate::crc::Crc32;
use crate::store::Truncation;
use crate::WalError;

/// The log's file name within a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Size of the log header in bytes.
pub const WAL_HEADER_LEN: u64 = 24;

pub(crate) const WAL_MAGIC: &[u8; 8] = b"LDL1WAL\0";
pub(crate) const WAL_VERSION: u32 = 2;
/// A record longer than this is a corrupt length field, not a real batch.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 30;

/// Reject a payload the record framing cannot carry *before* it is
/// written: [`scan`] treats any length over [`MAX_RECORD_LEN`] as a
/// corrupt length field, so an oversized record would be acknowledged and
/// then truncated (with everything after it) on the next recovery — and
/// past `u32::MAX` the length field itself would silently wrap.
pub(crate) fn check_payload_len(len: usize) -> Result<(), WalError> {
    if len as u64 > MAX_RECORD_LEN as u64 {
        return Err(WalError::BatchTooLarge {
            bytes: len as u64,
            max: MAX_RECORD_LEN as u64,
        });
    }
    Ok(())
}

/// Serialize the log header for a log that continues from `base_seq`.
pub(crate) fn encode_header(base_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN as usize);
    out.extend_from_slice(WAL_MAGIC);
    put_u32(&mut out, WAL_VERSION);
    put_u32(&mut out, 0); // reserved
    put_u64(&mut out, base_seq);
    out
}

/// Serialize one record. The payload must already have passed
/// [`check_payload_len`].
pub(crate) fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(check_payload_len(payload.len()).is_ok());
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes()).update(payload);
    let mut out = Vec::with_capacity(16 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc.finish());
    put_u64(&mut out, seq);
    out.extend_from_slice(payload);
    out
}

/// The result of scanning a log file's bytes.
pub(crate) struct Scan<'a> {
    /// `base_seq` from the header.
    pub base_seq: u64,
    /// Valid records, in order: `(seq, payload)`, the payload borrowed from
    /// the scanned bytes.
    pub records: Vec<(u64, &'a [u8])>,
    /// Byte length of the valid prefix (header + whole valid records).
    pub valid_len: u64,
    /// The torn/corrupt tail, if any bytes past `valid_len` existed.
    pub truncated: Option<Truncation>,
}

/// Scan a log file's bytes into its valid record prefix.
///
/// Returns `Err(Corrupt)` only for damage that cannot be a crash artifact:
/// a bad magic number or an unknown version. Everything after a valid
/// header degrades gracefully into a truncation report.
pub(crate) fn scan(bytes: &[u8]) -> Result<Scan<'_>, WalError> {
    if bytes.len() < WAL_HEADER_LEN as usize {
        // A header can only be short if the crash hit the very first
        // write to a fresh log — there cannot be any committed data.
        return Ok(Scan {
            base_seq: 0,
            records: Vec::new(),
            valid_len: 0,
            truncated: (!bytes.is_empty()).then(|| Truncation {
                offset: 0,
                dropped_bytes: bytes.len() as u64,
                reason: "torn log header".into(),
            }),
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            detail: "bad log magic (not an LDL1 write-ahead log)".into(),
        });
    }
    let mut c = Cursor::new(&bytes[8..WAL_HEADER_LEN as usize]);
    let version = c.u32("log version").expect("header length checked");
    let _reserved = c.u32("reserved").expect("header length checked");
    let base_seq = c.u64("base sequence").expect("header length checked");
    if version != WAL_VERSION {
        return Err(WalError::Corrupt {
            offset: 8,
            detail: format!("unsupported log version {version} (expected {WAL_VERSION})"),
        });
    }

    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN as usize;
    let mut next_seq = base_seq + 1;
    let truncated = loop {
        if offset == bytes.len() {
            break None;
        }
        let tail = &bytes[offset..];
        let invalid = |reason: String| Truncation {
            offset: offset as u64,
            dropped_bytes: tail.len() as u64,
            reason,
        };
        if tail.len() < 16 {
            break Some(invalid(format!(
                "torn record header ({} bytes)",
                tail.len()
            )));
        }
        let mut h = Cursor::new(tail);
        let len = h.u32("record length").expect("checked") as usize;
        let crc = h.u32("record crc").expect("checked");
        let seq = h.u64("record seq").expect("checked");
        if len as u64 > MAX_RECORD_LEN as u64 {
            break Some(invalid(format!("absurd record length {len}")));
        }
        if tail.len() - 16 < len {
            break Some(invalid(format!(
                "torn record payload (need {len} bytes, have {})",
                tail.len() - 16
            )));
        }
        let payload = &tail[16..16 + len];
        let mut check = Crc32::new();
        check.update(&seq.to_le_bytes()).update(payload);
        if check.finish() != crc {
            break Some(invalid("record checksum mismatch".into()));
        }
        if seq != next_seq {
            break Some(invalid(format!(
                "sequence gap: record {seq} where {next_seq} expected"
            )));
        }
        records.push((seq, payload));
        next_seq += 1;
        offset += 16 + len;
    };
    Ok(Scan {
        base_seq,
        records,
        valid_len: offset as u64,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(base: u64, payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = encode_header(base);
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(base + 1 + i as u64, p));
        }
        bytes
    }

    #[test]
    fn scan_round_trips_records() {
        let bytes = log_with(7, &[b"alpha", b"", b"gamma"]);
        let s = scan(&bytes).unwrap();
        assert_eq!(s.base_seq, 7);
        assert_eq!(s.valid_len, bytes.len() as u64);
        assert!(s.truncated.is_none());
        let seqs: Vec<u64> = s.records.iter().map(|(q, _)| *q).collect();
        assert_eq!(seqs, vec![8, 9, 10]);
        assert_eq!(s.records[0].1, b"alpha");
        assert_eq!(s.records[2].1, b"gamma");
    }

    #[test]
    fn every_cut_point_keeps_the_full_record_prefix() {
        let bytes = log_with(0, &[b"one", b"two", b"three"]);
        let rec_ends: Vec<usize> = {
            let mut ends = vec![WAL_HEADER_LEN as usize];
            for p in [b"one".as_slice(), b"two", b"three"] {
                ends.push(ends.last().unwrap() + 16 + p.len());
            }
            ends
        };
        for cut in WAL_HEADER_LEN as usize..=bytes.len() {
            let s = scan(&bytes[..cut]).unwrap();
            // The valid prefix is the largest record boundary ≤ cut.
            let expect_records = rec_ends.iter().filter(|&&e| e <= cut).count() - 1;
            assert_eq!(s.records.len(), expect_records, "cut at {cut}");
            assert_eq!(s.valid_len, rec_ends[expect_records] as u64);
            assert_eq!(s.truncated.is_some(), cut != rec_ends[expect_records]);
        }
    }

    #[test]
    fn bit_flips_truncate_at_the_flipped_record() {
        let clean = log_with(0, &[b"payload-one", b"payload-two"]);
        let first_end = WAL_HEADER_LEN as usize + 16 + "payload-one".len();
        for byte in WAL_HEADER_LEN as usize..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                let s = scan(&bad).unwrap();
                let t = s.truncated.expect("flip must be detected");
                if byte < first_end {
                    assert_eq!(s.records.len(), 0, "flip at {byte}:{bit}");
                    assert_eq!(t.offset, WAL_HEADER_LEN);
                } else {
                    assert_eq!(s.records.len(), 1, "flip at {byte}:{bit}");
                    assert_eq!(t.offset, first_end as u64);
                }
            }
        }
    }

    #[test]
    fn header_damage_is_corrupt_or_fresh() {
        // Bad magic: unrecoverable (this is not our file).
        let mut bytes = log_with(0, &[b"x"]);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            scan(&bytes),
            Err(WalError::Corrupt { offset: 0, .. })
        ));
        // Unknown version: unrecoverable.
        let mut bytes = log_with(0, &[b"x"]);
        bytes[8] = 99;
        assert!(matches!(scan(&bytes), Err(WalError::Corrupt { .. })));
        // Short header: a crash during the very first write — fresh log.
        let header = encode_header(0);
        let s = scan(&header[..10]).unwrap();
        assert_eq!(s.valid_len, 0);
        assert!(s.truncated.is_some());
        // Empty file: fresh log, nothing torn.
        let s = scan(&[]).unwrap();
        assert_eq!(s.valid_len, 0);
        assert!(s.truncated.is_none());
    }

    #[test]
    fn payload_length_cap_matches_what_scan_accepts() {
        // Everything append admits, scan replays; the first rejected
        // length is exactly the first length scan calls absurd.
        assert!(check_payload_len(0).is_ok());
        assert!(check_payload_len(MAX_RECORD_LEN as usize).is_ok());
        match check_payload_len(MAX_RECORD_LEN as usize + 1) {
            Err(WalError::BatchTooLarge { bytes, max }) => {
                assert_eq!(bytes, MAX_RECORD_LEN as u64 + 1);
                assert_eq!(max, MAX_RECORD_LEN as u64);
            }
            other => panic!("expected BatchTooLarge, got {other:?}"),
        }
        // Past u32::MAX the length field would wrap; still rejected.
        assert!(check_payload_len((1usize << 32) + 5).is_err());
    }

    #[test]
    fn sequence_gap_truncates() {
        let mut bytes = encode_header(5);
        bytes.extend_from_slice(&encode_record(6, b"ok"));
        bytes.extend_from_slice(&encode_record(9, b"gap"));
        let s = scan(&bytes).unwrap();
        assert_eq!(s.records.len(), 1);
        let t = s.truncated.unwrap();
        assert!(t.reason.contains("sequence gap"), "{}", t.reason);
    }
}
