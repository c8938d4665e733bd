//! Write-ahead journal for durable ε-budget accounting.
//!
//! The serving runtime's privacy guarantee must be an invariant of the
//! *deployment*, not of one process lifetime — a crash must never act as
//! a budget refill. This module provides the on-disk format and replay
//! logic behind [`crate::SharedLedger::open`]: an append-only,
//! CRC-framed journal (`LRMJ`) recording a debit *intent* before any noise is
//! drawn and a *settle*/*abort* after, each append fsync'd before its
//! effect is allowed to escape the process.
//!
//! # Format
//!
//! ```text
//! header:  "LRMJ" · u32 LE version (1 = ε-only, 2 = adds (ε,δ) frames)
//! record:  u8 tag · payload · u32 LE CRC-32 (IEEE) over tag+payload
//!
//! tag 1  Grant     { total: f64 }            — resets accounting (δ-total 0)
//! tag 2  Intent    { id: u64, eps: f64 }     — debit reserved, pre-noise
//! tag 3  Settle    { id: u64 }               — noise released, debit final
//! tag 4  Abort     { id: u64 }               — debit refunded, no release
//! tag 5  Snapshot  { settled: f64, debits: u64 } — compaction summary
//! tag 6  Grant2    { total: f64, total_delta: f64 }
//! tag 7  Intent2   { id: u64, eps: f64, delta: f64 }
//! tag 8  Snapshot2 { settled: f64, settled_delta: f64, debits: u64 }
//! ```
//!
//! Version 2 (this release) adds the three `…2` frames carrying δ spend;
//! settle/abort are id-only and unchanged. The writer emits the compact
//! v1 tag whenever the δ component is exactly zero, so a pure ε-DP
//! ledger's journal is byte-identical to what the v1 writer produced,
//! and replay accepts both header versions — a pre-existing ε-only
//! journal resumes with δ-total 0 (conservative: it can never have δ
//! spend to refund).
//!
//! # Crash semantics
//!
//! Replay is deliberately asymmetric:
//!
//! * an **incomplete final frame** (torn write, or a CRC-corrupt frame
//!   at the exact end of the file — indistinguishable from a torn write
//!   of exactly frame length) is *dropped*, but only for the three
//!   **operation** tags (intent/settle/abort). Those are the only
//!   records ever live-appended, and every append is fsync'd before the
//!   operation it records takes effect, so a torn final op never
//!   released anything. Dropping a final *settle* or *abort* leaves its
//!   intent pending — which replay counts as **spent** — so the error
//!   is only ever in the conservative direction. A damaged final
//!   *grant* or *snapshot* is **fatal** instead: those frames are only
//!   ever written through an atomic temp-file + rename compaction
//!   (never a live append), and a snapshot summarizes history the
//!   compaction already destroyed — dropping it would silently refund
//!   everything it recorded. Likewise a bare header with no frames at
//!   all is fatal: compaction never leaves one behind, so it can only
//!   be truncation damage;
//! * **any damage before the final frame** (CRC mismatch, unknown tag,
//!   bad header) means the journal cannot be trusted at all; replay
//!   reports it corrupted and the ledger opens fully **exhausted**
//!   (spent = total). Budget is lost, privacy is not.
//!
//! Unsettled intents count as spent on replay: a kill between intent
//! and settle can at worst waste the reserved ε, never double-release.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"LRMJ";
/// Version written by this build; replay accepts every version in
/// `SUPPORTED_VERSIONS`.
const VERSION: u32 = 2;
const SUPPORTED_VERSIONS: [u32; 2] = [1, 2];
const HEADER_LEN: usize = 8;

const TAG_GRANT: u8 = 1;
const TAG_INTENT: u8 = 2;
const TAG_SETTLE: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_SNAPSHOT: u8 = 5;
const TAG_GRANT2: u8 = 6;
const TAG_INTENT2: u8 = 7;
const TAG_SNAPSHOT2: u8 = 8;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) — the same
/// checksum `zip`/`png` use; implemented inline because the offline
/// workspace vendors no checksum crate.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One journal record. δ components of exactly zero encode as the
/// compact v1 tags, so pure ε-DP journals stay byte-identical across the
/// version bump.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Record {
    /// Opens (or re-opens with a different total) the accounting epoch.
    Grant { total: f64, total_delta: f64 },
    /// Reserves `(eps, delta)` for debit `id` before any noise is drawn.
    Intent { id: u64, eps: f64, delta: f64 },
    /// Finalizes debit `id` — its noise has been (or is about to be,
    /// durably committed first) released.
    Settle { id: u64 },
    /// Refunds debit `id` — its noise was never released.
    Abort { id: u64 },
    /// Compaction summary: cumulative settled spend and debit count.
    Snapshot {
        settled: f64,
        settled_delta: f64,
        debits: u64,
    },
}

fn payload_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_GRANT => Some(8),
        TAG_INTENT => Some(16),
        TAG_SETTLE | TAG_ABORT => Some(8),
        TAG_SNAPSHOT => Some(16),
        TAG_GRANT2 => Some(16),
        TAG_INTENT2 => Some(24),
        TAG_SNAPSHOT2 => Some(24),
        _ => None,
    }
}

impl Record {
    /// Encodes the record as a CRC-framed byte string.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 24 + 4);
        match *self {
            Record::Grant { total, total_delta } => {
                if total_delta == 0.0 {
                    buf.push(TAG_GRANT);
                    buf.extend_from_slice(&total.to_bits().to_le_bytes());
                } else {
                    buf.push(TAG_GRANT2);
                    buf.extend_from_slice(&total.to_bits().to_le_bytes());
                    buf.extend_from_slice(&total_delta.to_bits().to_le_bytes());
                }
            }
            Record::Intent { id, eps, delta } => {
                if delta == 0.0 {
                    buf.push(TAG_INTENT);
                    buf.extend_from_slice(&id.to_le_bytes());
                    buf.extend_from_slice(&eps.to_bits().to_le_bytes());
                } else {
                    buf.push(TAG_INTENT2);
                    buf.extend_from_slice(&id.to_le_bytes());
                    buf.extend_from_slice(&eps.to_bits().to_le_bytes());
                    buf.extend_from_slice(&delta.to_bits().to_le_bytes());
                }
            }
            Record::Settle { id } => {
                buf.push(TAG_SETTLE);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Record::Abort { id } => {
                buf.push(TAG_ABORT);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            Record::Snapshot {
                settled,
                settled_delta,
                debits,
            } => {
                if settled_delta == 0.0 {
                    buf.push(TAG_SNAPSHOT);
                    buf.extend_from_slice(&settled.to_bits().to_le_bytes());
                    buf.extend_from_slice(&debits.to_le_bytes());
                } else {
                    buf.push(TAG_SNAPSHOT2);
                    buf.extend_from_slice(&settled.to_bits().to_le_bytes());
                    buf.extend_from_slice(&settled_delta.to_bits().to_le_bytes());
                    buf.extend_from_slice(&debits.to_le_bytes());
                }
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn read_f64(bytes: &[u8]) -> f64 {
    f64::from_bits(read_u64(bytes))
}

/// Accounting state reconstructed from a journal.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Replay {
    /// Total ε of the last `Grant`, if any record was recovered.
    pub total: Option<f64>,
    /// Total δ of the last `Grant` (0 for a v1 grant).
    pub total_delta: f64,
    /// Cumulative settled ε spend.
    pub settled: f64,
    /// Cumulative settled δ spend.
    pub settled_delta: f64,
    /// Number of settled debits.
    pub debits: u64,
    /// Intents never settled nor aborted, as `(ε, δ)` — counted as spent
    /// by the ledger that opens on top of this replay.
    pub pending: HashMap<u64, (f64, f64)>,
    /// First unused intent id.
    pub next_id: u64,
    /// Whether damage *before* the final frame was found; the opening
    /// ledger must treat the budget as fully exhausted.
    pub corrupted: bool,
    /// Complete, CRC-valid records applied.
    pub records: usize,
}

/// Replays raw journal bytes. Never fails: damage degrades to either a
/// dropped torn tail or `corrupted = true` (see module docs).
pub(crate) fn replay_bytes(bytes: &[u8]) -> Replay {
    let mut rep = Replay::default();
    if bytes.is_empty() {
        return rep;
    }
    if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
        rep.corrupted = true;
        return rep;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if !SUPPORTED_VERSIONS.contains(&version) {
        rep.corrupted = true;
        return rep;
    }
    if bytes.len() == HEADER_LEN {
        // Compaction writes header + grant + snapshot atomically; a bare
        // header can only be truncation damage, and whatever history it
        // beheaded is unrecoverable.
        rep.corrupted = true;
        return rep;
    }
    // Only live-appended operation frames may be legitimately torn;
    // grant/snapshot frames land via atomic rename, so damage there is
    // damage to already-durable state (see module docs).
    let droppable = |tag: u8| matches!(tag, TAG_INTENT | TAG_INTENT2 | TAG_SETTLE | TAG_ABORT);
    let mut off = HEADER_LEN;
    while off < bytes.len() {
        let tag = bytes[off];
        let Some(plen) = payload_len(tag) else {
            rep.corrupted = true;
            return rep;
        };
        let flen = 1 + plen + 4;
        if off + flen > bytes.len() {
            // Torn tail — drop the incomplete final op frame (safe: its
            // operation never took effect; see module docs).
            rep.corrupted = !droppable(tag);
            return rep;
        }
        let body = &bytes[off..off + 1 + plen];
        let stored = u32::from_le_bytes(
            bytes[off + 1 + plen..off + flen]
                .try_into()
                .expect("4 bytes"),
        );
        if stored != crc32(body) {
            if off + flen == bytes.len() && droppable(tag) {
                // Corrupt *final* op frame: indistinguishable from a
                // torn write of exactly frame length — drop it.
                return rep;
            }
            rep.corrupted = true;
            return rep;
        }
        let payload = &body[1..];
        match tag {
            TAG_GRANT => {
                rep.total = Some(read_f64(payload));
                rep.total_delta = 0.0;
                rep.settled = 0.0;
                rep.settled_delta = 0.0;
                rep.debits = 0;
                rep.pending.clear();
            }
            TAG_GRANT2 => {
                rep.total = Some(read_f64(payload));
                rep.total_delta = read_f64(&payload[8..]);
                rep.settled = 0.0;
                rep.settled_delta = 0.0;
                rep.debits = 0;
                rep.pending.clear();
            }
            TAG_INTENT => {
                let id = read_u64(payload);
                let eps = read_f64(&payload[8..]);
                rep.pending.insert(id, (eps, 0.0));
                rep.next_id = rep.next_id.max(id + 1);
            }
            TAG_INTENT2 => {
                let id = read_u64(payload);
                let eps = read_f64(&payload[8..]);
                let delta = read_f64(&payload[16..]);
                rep.pending.insert(id, (eps, delta));
                rep.next_id = rep.next_id.max(id + 1);
            }
            TAG_SETTLE => {
                if let Some((eps, delta)) = rep.pending.remove(&read_u64(payload)) {
                    rep.settled += eps;
                    rep.settled_delta += delta;
                    rep.debits += 1;
                }
            }
            TAG_ABORT => {
                rep.pending.remove(&read_u64(payload));
            }
            TAG_SNAPSHOT => {
                rep.settled = read_f64(payload);
                rep.settled_delta = 0.0;
                rep.debits = read_u64(&payload[8..]);
            }
            TAG_SNAPSHOT2 => {
                rep.settled = read_f64(payload);
                rep.settled_delta = read_f64(&payload[8..]);
                rep.debits = read_u64(&payload[16..]);
            }
            _ => unreachable!("payload_len filtered unknown tags"),
        }
        rep.records += 1;
        off += flen;
    }
    rep
}

/// An open, append-only journal file.
#[derive(Debug)]
pub(crate) struct LedgerJournal {
    file: File,
}

impl LedgerJournal {
    /// Reads and replays `path` (a missing file replays as empty).
    pub(crate) fn replay_file(path: &Path) -> io::Result<Replay> {
        match fs::read(path) {
            Ok(bytes) => Ok(replay_bytes(&bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Replay::default()),
            Err(e) => Err(e),
        }
    }

    /// Atomically rewrites `path` as a compacted journal (header, one
    /// `Grant`, one `Snapshot`) and reopens it for appending. The
    /// rewrite goes through a temp file + rename so a crash mid-compact
    /// leaves either the old or the new journal, never a hybrid.
    pub(crate) fn create_compacted(
        path: &Path,
        total: f64,
        total_delta: f64,
        settled: f64,
        settled_delta: f64,
        debits: u64,
    ) -> io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let tmp = path.with_extension("epsj.tmp");
        {
            let mut f = File::create(&tmp)?;
            let mut buf = Vec::with_capacity(64);
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&Record::Grant { total, total_delta }.encode());
            buf.extend_from_slice(
                &Record::Snapshot {
                    settled,
                    settled_delta,
                    debits,
                }
                .encode(),
            );
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Make the rename durable (best effort — some filesystems do
        // not support fsync on directories).
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self { file })
    }

    /// Appends one record and fsyncs it. The caller must not let the
    /// recorded operation take effect until this returns `Ok` — that
    /// ordering is what makes torn-tail dropping safe on replay.
    pub(crate) fn append(&mut self, record: &Record) -> io::Result<()> {
        let frame = record.encode();
        if lrm_testing::triggered("dp::journal::torn_append") {
            // Injected torn write: half a frame reaches the disk and the
            // append reports failure, exactly like a crash mid-write.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            return Err(io::Error::other("injected torn journal append"));
        }
        self.file.write_all(&frame)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_bytes_v(version: u32, records: &[Record]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&version.to_le_bytes());
        for r in records {
            buf.extend_from_slice(&r.encode());
        }
        buf
    }

    fn journal_bytes(records: &[Record]) -> Vec<u8> {
        journal_bytes_v(VERSION, records)
    }

    fn grant(total: f64) -> Record {
        Record::Grant {
            total,
            total_delta: 0.0,
        }
    }

    fn intent(id: u64, eps: f64) -> Record {
        Record::Intent {
            id,
            eps,
            delta: 0.0,
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_a_grant_intent_settle_sequence() {
        let bytes = journal_bytes(&[
            grant(2.0),
            intent(0, 0.5),
            Record::Settle { id: 0 },
            intent(1, 0.25),
        ]);
        let rep = replay_bytes(&bytes);
        assert!(!rep.corrupted);
        assert_eq!(rep.total, Some(2.0));
        assert_eq!(rep.settled, 0.5);
        assert_eq!(rep.debits, 1);
        assert_eq!(rep.pending.get(&1), Some(&(0.25, 0.0)));
        assert_eq!(rep.next_id, 2);
        assert_eq!(rep.records, 4);
    }

    #[test]
    fn abort_refunds_a_pending_intent() {
        let bytes = journal_bytes(&[grant(1.0), intent(0, 0.5), Record::Abort { id: 0 }]);
        let rep = replay_bytes(&bytes);
        assert!(rep.pending.is_empty());
        assert_eq!(rep.settled, 0.0);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut bytes = journal_bytes(&[grant(1.0), intent(0, 0.5), Record::Settle { id: 0 }]);
        // Tear the final settle: its intent must fall back to pending.
        bytes.truncate(bytes.len() - 3);
        let rep = replay_bytes(&bytes);
        assert!(!rep.corrupted);
        assert_eq!(rep.settled, 0.0);
        assert_eq!(rep.pending.get(&0), Some(&(0.5, 0.0)));
    }

    #[test]
    fn mid_file_bit_flip_is_fatal() {
        let mut bytes = journal_bytes(&[grant(1.0), intent(0, 0.5)]);
        // Flip a bit inside the Grant payload (not the final frame).
        bytes[HEADER_LEN + 3] ^= 0x10;
        let rep = replay_bytes(&bytes);
        assert!(rep.corrupted);
    }

    #[test]
    fn corrupt_final_frame_is_dropped_like_a_torn_write() {
        let mut bytes = journal_bytes(&[grant(1.0), intent(0, 0.5)]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // damage the final frame's CRC
        let rep = replay_bytes(&bytes);
        assert!(!rep.corrupted);
        assert_eq!(rep.total, Some(1.0));
        assert!(rep.pending.is_empty());
    }

    #[test]
    fn bad_header_or_unknown_tag_is_fatal() {
        let rep = replay_bytes(b"NOPE\x01\x00\x00\x00");
        assert!(rep.corrupted);

        let mut bytes = journal_bytes(&[grant(1.0)]);
        bytes.push(0xEE); // unknown tag with nothing after it
                          // An unknown tag cannot be framed, so it is fatal even at the tail.
        assert!(replay_bytes(&bytes).corrupted);
    }

    #[test]
    fn snapshot_resets_settled_spend() {
        let bytes = journal_bytes(&[
            grant(4.0),
            Record::Snapshot {
                settled: 1.5,
                settled_delta: 0.0,
                debits: 3,
            },
            intent(7, 0.5),
            Record::Settle { id: 7 },
        ]);
        let rep = replay_bytes(&bytes);
        assert_eq!(rep.settled, 2.0);
        assert_eq!(rep.debits, 4);
        assert_eq!(rep.next_id, 8);
    }

    #[test]
    fn torn_snapshot_or_grant_tail_is_fatal_not_dropped() {
        // A compacted journal is header · Grant · Snapshot; the snapshot
        // carries all historical spend, so tearing it must exhaust the
        // ledger rather than silently refund everything.
        let bytes = journal_bytes(&[
            grant(1.0),
            Record::Snapshot {
                settled: 0.75,
                settled_delta: 0.0,
                debits: 3,
            },
        ]);
        for cut in 1..=3 {
            let mut torn = bytes.clone();
            torn.truncate(bytes.len() - cut);
            assert!(
                replay_bytes(&torn).corrupted,
                "torn snapshot ({cut} bytes) must be fatal"
            );
        }
        // Same for a grant alone (torn mid-frame).
        let mut torn = journal_bytes(&[grant(1.0)]);
        torn.truncate(torn.len() - 2);
        assert!(replay_bytes(&torn).corrupted);
        // A CRC-damaged final snapshot is equally fatal.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(replay_bytes(&flipped).corrupted);
    }

    #[test]
    fn v2_frames_round_trip_delta_spend() {
        let bytes = journal_bytes(&[
            Record::Grant {
                total: 2.0,
                total_delta: 1e-5,
            },
            Record::Intent {
                id: 0,
                eps: 0.5,
                delta: 4e-6,
            },
            Record::Settle { id: 0 },
            Record::Intent {
                id: 1,
                eps: 0.25,
                delta: 2e-6,
            },
        ]);
        let rep = replay_bytes(&bytes);
        assert!(!rep.corrupted);
        assert_eq!(rep.total, Some(2.0));
        assert_eq!(rep.total_delta, 1e-5);
        assert_eq!(rep.settled, 0.5);
        assert_eq!(rep.settled_delta, 4e-6);
        assert_eq!(rep.pending.get(&1), Some(&(0.25, 2e-6)));
    }

    #[test]
    fn v2_snapshot_round_trips() {
        let bytes = journal_bytes(&[
            Record::Grant {
                total: 4.0,
                total_delta: 1e-4,
            },
            Record::Snapshot {
                settled: 1.5,
                settled_delta: 3e-5,
                debits: 3,
            },
            Record::Intent {
                id: 7,
                eps: 0.5,
                delta: 1e-5,
            },
            Record::Settle { id: 7 },
        ]);
        let rep = replay_bytes(&bytes);
        assert_eq!(rep.settled, 2.0);
        assert_eq!(rep.settled_delta, 4e-5);
        assert_eq!(rep.debits, 4);
    }

    #[test]
    fn zero_delta_encodes_as_compact_v1_tags() {
        // Byte-compatibility: a pure ε-DP ledger's journal must be
        // identical to what the v1 writer produced (modulo the header
        // version), so tag bytes stay in the v1 set.
        assert_eq!(grant(1.0).encode()[0], TAG_GRANT);
        assert_eq!(intent(0, 0.5).encode()[0], TAG_INTENT);
        assert_eq!(
            Record::Snapshot {
                settled: 1.0,
                settled_delta: 0.0,
                debits: 1
            }
            .encode()[0],
            TAG_SNAPSHOT
        );
        // And positive δ switches to the v2 tags.
        assert_eq!(
            Record::Grant {
                total: 1.0,
                total_delta: 1e-6
            }
            .encode()[0],
            TAG_GRANT2
        );
        assert_eq!(
            Record::Intent {
                id: 0,
                eps: 0.5,
                delta: 1e-6
            }
            .encode()[0],
            TAG_INTENT2
        );
        assert_eq!(
            Record::Snapshot {
                settled: 1.0,
                settled_delta: 1e-6,
                debits: 1
            }
            .encode()[0],
            TAG_SNAPSHOT2
        );
    }

    #[test]
    fn v1_header_still_replays() {
        // A journal written by the previous release: version 1, v1 tags
        // only. It must replay with δ columns at zero, not corrupt.
        let bytes = journal_bytes_v(1, &[grant(1.0), intent(0, 0.5), Record::Settle { id: 0 }]);
        let rep = replay_bytes(&bytes);
        assert!(!rep.corrupted);
        assert_eq!(rep.total, Some(1.0));
        assert_eq!(rep.total_delta, 0.0);
        assert_eq!(rep.settled, 0.5);
        assert_eq!(rep.settled_delta, 0.0);
    }

    #[test]
    fn future_version_is_fatal() {
        let bytes = journal_bytes_v(3, &[grant(1.0)]);
        assert!(replay_bytes(&bytes).corrupted);
    }

    #[test]
    fn torn_delta_intent_is_dropped_and_never_refunds_delta() {
        // The δ-frame crash-safety property the durable ledger relies on:
        // a torn Intent2 at the tail is dropped (it never took effect),
        // while a torn *Settle* after a δ intent leaves the intent
        // pending — δ stays reserved, never refunded.
        let mut torn_intent = journal_bytes(&[
            Record::Grant {
                total: 1.0,
                total_delta: 1e-5,
            },
            Record::Intent {
                id: 0,
                eps: 0.5,
                delta: 4e-6,
            },
        ]);
        torn_intent.truncate(torn_intent.len() - 5);
        let rep = replay_bytes(&torn_intent);
        assert!(!rep.corrupted);
        assert!(rep.pending.is_empty());

        let mut torn_settle = journal_bytes(&[
            Record::Grant {
                total: 1.0,
                total_delta: 1e-5,
            },
            Record::Intent {
                id: 0,
                eps: 0.5,
                delta: 4e-6,
            },
            Record::Settle { id: 0 },
        ]);
        torn_settle.truncate(torn_settle.len() - 3);
        let rep = replay_bytes(&torn_settle);
        assert!(!rep.corrupted);
        assert_eq!(rep.settled_delta, 0.0);
        assert_eq!(rep.pending.get(&0), Some(&(0.5, 4e-6)));
    }

    #[test]
    fn torn_grant2_or_snapshot2_is_fatal() {
        let bytes = journal_bytes(&[
            Record::Grant {
                total: 1.0,
                total_delta: 1e-5,
            },
            Record::Snapshot {
                settled: 0.75,
                settled_delta: 3e-6,
                debits: 3,
            },
        ]);
        for cut in 1..=5 {
            let mut torn = bytes.clone();
            torn.truncate(bytes.len() - cut);
            assert!(
                replay_bytes(&torn).corrupted,
                "torn Snapshot2 ({cut} bytes) must be fatal"
            );
        }
        let mut torn = journal_bytes(&[Record::Grant {
            total: 1.0,
            total_delta: 1e-5,
        }]);
        torn.truncate(torn.len() - 2);
        assert!(replay_bytes(&torn).corrupted);
    }

    #[test]
    fn bare_header_is_fatal() {
        // Compaction never leaves a header with no frames behind; only
        // truncation damage can.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        assert!(replay_bytes(&bytes).corrupted);
    }

    #[test]
    fn empty_and_missing_files_replay_as_fresh() {
        assert_eq!(replay_bytes(&[]), Replay::default());
        let rep =
            LedgerJournal::replay_file(Path::new("/nonexistent/lrm_journal_test.epsj")).unwrap();
        assert_eq!(rep, Replay::default());
    }
}
