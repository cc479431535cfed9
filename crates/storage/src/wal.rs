//! The append-only binary WAL: format, record framing, and the prefix
//! scan that recovery is built on.
//!
//! # On-disk layout
//!
//! ```text
//! "UPWAL001"                                     8-byte magic, written once
//! ┌──────────────┬──────────────┬──────────────┐
//! │ len: u32 LE  │ crc: u32 LE  │ payload      │  repeated per record
//! └──────────────┴──────────────┴──────────────┘
//! payload = seq: u64 LE, then the binary UpdateLog (codec module)
//! ```
//!
//! `crc` is the CRC-32 of the payload; `seq` is the record's position in
//! the engine's all-time append sequence, which makes replay **idempotent**
//! across checkpoints: a snapshot taken at sequence `s` skips any WAL
//! record with `seq < s` (the crash-between-snapshot-and-WAL-reset window
//! leaves exactly such records behind), and a duplicated record is skipped
//! the same way.
//!
//! # The scan contract
//!
//! [`scan`] walks records from the front and stops at the **first**
//! anomaly: a header that doesn't fit, a length past end-of-file, a CRC
//! mismatch, a payload that doesn't decode. Everything before the anomaly
//! is the *valid prefix* — exactly the appends whose fsync barrier
//! completed — and everything from it on is a torn tail to truncate. This
//! is why a mid-record crash (or a bit flip anywhere in a record) costs at
//! most the suffix of un-synced appends, never a panic and never silently
//! corrupt state. A file whose 8-byte magic itself is damaged is *not* a
//! torn tail (the magic is written and synced before any record): that is
//! [`BadMagic`], surfaced as a hard
//! [`RecoveryError`](crate::RecoveryError) — except the boot-crash case of
//! a file shorter than the magic that prefix-matches it, which is treated
//! as a torn creation and truncated to empty.

// Panic-free zone: the scan is total over arbitrary disk bytes.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::string_slice,
    )
)]

use crate::codec::{put_u32, put_u64, put_update_log, take_update_log, Reader};
use crate::crc::crc32;
use std::fmt;
use uprov_engine::UpdateLog;

/// The WAL file magic, written (and synced) when the first record is.
pub const WAL_MAGIC: [u8; 8] = *b"UPWAL001";

/// One decoded WAL record: an update-log delta plus its position in the
/// engine's all-time append sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// All-time append sequence number (0-based).
    pub seq: u64,
    /// The appended delta.
    pub delta: UpdateLog,
}

/// Encodes one record (header + checksummed payload). The caller appends
/// the result to the WAL blob — after the magic, which
/// [`DurableEngine`](crate::DurableEngine) writes on first use.
pub fn encode_record(seq: u64, delta: &UpdateLog) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, seq);
    put_update_log(&mut payload, delta);
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// A non-empty WAL whose magic is not [`WAL_MAGIC`]: the file is not a
/// torn tail but something else entirely (wrong file, media corruption of
/// the synced header), so recovery refuses it loudly instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadMagic;

impl fmt::Display for BadMagic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WAL header magic mismatch (not a UPWAL001 file)")
    }
}

impl std::error::Error for BadMagic {}

/// Why a [`scan`] stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly at a record boundary — nothing torn.
    Clean,
    /// Fewer than 8 header bytes remained at `offset` (a crash mid-header,
    /// or mid-magic for a file shorter than the magic).
    TornHeader {
        /// Offset of the torn record (or 0 for a torn magic).
        offset: u64,
    },
    /// The header's length field points past end-of-file: the payload
    /// append never completed.
    TornPayload {
        /// Offset of the torn record.
        offset: u64,
    },
    /// The payload is fully present but its CRC-32 does not match — a torn
    /// overwrite or a flipped bit.
    ChecksumMismatch {
        /// Offset of the corrupt record.
        offset: u64,
    },
    /// The CRC matched but the payload does not spell a record — only
    /// reachable via CRC collision on garbage, handled anyway.
    Undecodable {
        /// Offset of the undecodable record.
        offset: u64,
    },
}

impl WalTail {
    /// True if the scan ended at a record boundary with nothing to drop.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }
}

/// The result of scanning a WAL image: the valid record prefix, how many
/// bytes of it are good, and why the scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic included). Recovery
    /// truncates the blob to this length when the tail is not clean.
    pub valid_len: u64,
    /// Why the scan stopped.
    pub tail: WalTail,
}

/// Scans a WAL image, returning its valid record prefix (see the module
/// docs for the exact stop-and-truncate contract). Total: arbitrary bytes
/// produce either a [`WalScan`] or [`BadMagic`], never a panic.
pub fn scan(bytes: &[u8]) -> Result<WalScan, BadMagic> {
    if bytes.is_empty() {
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            tail: WalTail::Clean,
        });
    }
    if bytes.len() < WAL_MAGIC.len() {
        // Crash while writing the magic itself: a prefix of the magic is a
        // torn creation (truncate to empty); anything else is not ours.
        return if WAL_MAGIC.starts_with(bytes) {
            Ok(WalScan {
                records: Vec::new(),
                valid_len: 0,
                tail: WalTail::TornHeader { offset: 0 },
            })
        } else {
            Err(BadMagic)
        };
    }
    if !bytes.starts_with(&WAL_MAGIC) {
        return Err(BadMagic);
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        if pos == bytes.len() {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Clean,
            });
        }
        // A torn tail is a *value*, not an error: the valid prefix scanned
        // so far is the whole point.
        macro_rules! finish {
            ($tail:expr) => {
                return Ok(WalScan {
                    records,
                    valid_len: pos as u64,
                    tail: $tail,
                })
            };
        }
        let (Some(len), Some(stored_crc)) = (read_u32_at(bytes, pos), read_u32_at(bytes, pos + 4))
        else {
            finish!(WalTail::TornHeader { offset: pos as u64 });
        };
        let len = len as usize;
        let Some(payload) = (pos + 8)
            .checked_add(len)
            .and_then(|end| bytes.get(pos + 8..end))
        else {
            finish!(WalTail::TornPayload { offset: pos as u64 });
        };
        if crc32(payload) != stored_crc {
            finish!(WalTail::ChecksumMismatch { offset: pos as u64 });
        }
        let mut r = Reader::new(payload);
        let decoded = r
            .take_u64("record sequence")
            .and_then(|seq| take_update_log(&mut r).map(|delta| WalRecord { seq, delta }));
        match decoded {
            Ok(rec) if r.is_at_end() => records.push(rec),
            _ => finish!(WalTail::Undecodable { offset: pos as u64 }),
        }
        pos += 8 + len;
    }
}

/// Reads the little-endian `u32` at `pos`, or `None` when fewer than four
/// bytes remain — the total form of the record-header reads in [`scan`].
fn read_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal_with(deltas: &[&str]) -> (Vec<u8>, Vec<UpdateLog>) {
        let logs: Vec<UpdateLog> = deltas.iter().map(|s| s.parse().expect("valid")).collect();
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, log) in logs.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(i as u64, log));
        }
        (bytes, logs)
    }

    #[test]
    fn scan_round_trips_a_clean_wal() {
        let (bytes, logs) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\nmodify a <- b\ncommit\n",
        ]);
        let scan = scan(&bytes).expect("good magic");
        assert!(scan.tail.is_clean());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].seq, 0);
        assert_eq!(scan.records[1].seq, 1);
        assert_eq!(scan.records[1].delta, logs[1]);
    }

    #[test]
    fn empty_and_magic_only_are_clean() {
        let scan0 = scan(&[]).expect("empty is fine");
        assert!(scan0.tail.is_clean() && scan0.records.is_empty());
        let scan1 = scan(&WAL_MAGIC).expect("magic only");
        assert!(scan1.tail.is_clean() && scan1.records.is_empty());
        assert_eq!(scan1.valid_len, 8);
    }

    #[test]
    fn every_truncation_point_yields_the_record_prefix() {
        let (bytes, _) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\ndelete b\ncommit\n",
            "begin t3\ninsert c\ncommit\n",
        ]);
        let full = scan(&bytes).expect("clean");
        // Record boundaries: offsets where a prefix ends cleanly.
        let mut boundaries = vec![8u64];
        for rec in &full.records {
            let enc = encode_record(rec.seq, &rec.delta);
            boundaries.push(boundaries.last().unwrap() + enc.len() as u64);
        }
        for cut in 0..bytes.len() {
            let scan = scan(&bytes[..cut]).expect("any prefix of a valid WAL scans");
            // Cuts inside the magic have no boundary at or below them.
            let expect_records = boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .count()
                .saturating_sub(1);
            assert_eq!(scan.records.len(), expect_records, "cut at {cut}");
            assert_eq!(
                scan.records,
                full.records[..expect_records],
                "cut at {cut}: surviving prefix must match"
            );
            let at_boundary = boundaries.contains(&(cut as u64)) || cut == 0;
            assert_eq!(scan.tail.is_clean(), at_boundary, "cut at {cut}");
            assert!(scan.valid_len <= cut as u64);
        }
    }

    #[test]
    fn bit_flips_stop_the_scan_at_the_corrupt_record() {
        let (bytes, _) = wal_with(&[
            "base a\nbegin t1\ninsert b\ncommit\n",
            "begin t2\ndelete b\ncommit\n",
        ]);
        let rec0_len =
            encode_record(0, &"base a\nbegin t1\ninsert b\ncommit\n".parse().unwrap()).len() as u64;
        // Flip one bit in every byte of the second record's region.
        for at in (8 + rec0_len as usize)..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            let scan = scan(&bad).expect("magic intact");
            assert_eq!(scan.records.len(), 1, "flip at {at}: first record survives");
            assert!(!scan.tail.is_clean(), "flip at {at} must be detected");
            assert!(scan.valid_len <= 8 + rec0_len, "flip at {at}");
        }
    }

    #[test]
    fn bad_magic_is_a_hard_error_and_short_magic_prefix_is_torn() {
        assert_eq!(scan(b"NOTAWAL!"), Err(BadMagic));
        assert_eq!(scan(b"garbage that is long enough").err(), Some(BadMagic));
        assert_eq!(scan(b"XY").err(), Some(BadMagic));
        // A strict prefix of the magic = crash during creation.
        let scan_torn = scan(&WAL_MAGIC[..5]).expect("torn creation");
        assert_eq!(scan_torn.tail, WalTail::TornHeader { offset: 0 });
        assert_eq!(scan_torn.valid_len, 0);
    }
}
