//! Property tests for WAL corruption recovery (ISSUE 7 satellite).
//!
//! The durable ledger's contract is *conservative recovery*: whatever
//! happens to the journal file — torn final write, arbitrary
//! truncation, a bit flip anywhere — replay must never credit a tenant
//! with less spend than the ε whose noisy answers actually escaped the
//! process. These tests drive random intent/settle/abort histories
//! through [`SharedLedger::open`], mutilate the journal bytes, reopen, and
//! check the spend floor from ground truth tracked outside the ledger.
//!
//! Frame-size bookkeeping: a freshly opened journal is compacted to
//! `header(8) · Grant(13) · Snapshot(21)`; each op then appends
//! `Intent(21)` and, for settled/aborted ops, `Settle(13)`/`Abort(13)`.

use lrm_dp::{Epsilon, SharedLedger};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const HEADER: usize = 8;
const GRANT: usize = 13;
const SNAPSHOT: usize = 21;
const INTENT: usize = 21;
const SETTLE: usize = 13;
const ABORT: usize = 13;

/// A generous total so random histories never hit admission control.
const TOTAL: f64 = 1000.0;
const SLACK: f64 = 1e-9 * TOTAL;

#[derive(Debug, Clone, Copy, PartialEq)]
enum OpKind {
    /// begin + settle: the release escaped the process.
    Settled,
    /// begin + abort: refunded, nothing escaped.
    Aborted,
    /// begin only: crash before resolution.
    Pending,
}

struct Op {
    kind: OpKind,
    eps: f64,
    /// Byte offset one past this op's frames in the journal file.
    end: usize,
}

fn unique_path(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "lrm_journal_prop_{name}_{}_{}.epsj",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Applies `raw` ops to a fresh durable ledger at `path`, returning the
/// op log with byte offsets.
fn build_history(path: &PathBuf, raw: &[(u8, f64)]) -> Vec<Op> {
    let _ = std::fs::remove_file(path);
    let (ledger, _) = SharedLedger::open(path, Epsilon::new(TOTAL).unwrap()).unwrap();
    let mut offset = HEADER + GRANT + SNAPSHOT;
    let mut ops = Vec::with_capacity(raw.len());
    for &(k, eps) in raw {
        let kind = match k % 3 {
            0 => OpKind::Settled,
            1 => OpKind::Aborted,
            _ => OpKind::Pending,
        };
        let id = ledger.begin(Epsilon::new(eps).unwrap()).unwrap();
        offset += INTENT;
        match kind {
            OpKind::Settled => {
                ledger.settle(id);
                offset += SETTLE;
            }
            OpKind::Aborted => {
                ledger.abort(id);
                offset += ABORT;
            }
            OpKind::Pending => {}
        }
        ops.push(Op {
            kind,
            eps,
            end: offset,
        });
    }
    assert_eq!(
        std::fs::metadata(path).unwrap().len() as usize,
        offset,
        "frame-size bookkeeping drifted from the real journal layout"
    );
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No corruption: a reopen recovers settled spend exactly, plus
    /// every pending intent folded in as spent.
    #[test]
    fn clean_reopen_recovers_exact_conservative_spend(
        raw in proptest::collection::vec((0u8..3, 0.01f64..1.0), 1..12),
    ) {
        let path = unique_path("clean");
        let ops = build_history(&path, &raw);
        let settled: f64 = ops.iter().filter(|o| o.kind == OpKind::Settled).map(|o| o.eps).sum();
        let pending: f64 = ops.iter().filter(|o| o.kind == OpKind::Pending).map(|o| o.eps).sum();

        let (ledger, summary) = SharedLedger::open(&path, Epsilon::new(TOTAL).unwrap()).unwrap();
        prop_assert!(summary.resumed && !summary.corrupted);
        prop_assert!((ledger.spent() - (settled + pending)).abs() < SLACK,
            "spent {} vs settled {settled} + pending {pending}", ledger.spent());
        let _ = std::fs::remove_file(&path);
    }

    /// A torn final write (1..frame-length bytes lost) never refunds a
    /// released debit: recovered spend covers every settled op.
    #[test]
    fn torn_tail_never_refunds_released_eps(
        raw in proptest::collection::vec((0u8..3, 0.01f64..1.0), 1..12),
        tear in 0.0f64..1.0,
    ) {
        let path = unique_path("torn");
        let ops = build_history(&path, &raw);
        let released: f64 = ops.iter().filter(|o| o.kind == OpKind::Settled).map(|o| o.eps).sum();

        // Tear within the final frame only — the crash model (an append
        // is fsync'd before its operation takes effect).
        let last = ops.last().unwrap();
        let last_frame = if last.kind == OpKind::Pending { INTENT } else { SETTLE };
        let cut = 1 + (tear * (last_frame - 1) as f64) as usize; // 1..=frame-1 bytes
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(len - cut.min(last_frame - 1));
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, summary) = SharedLedger::open(&path, Epsilon::new(TOTAL).unwrap()).unwrap();
        prop_assert!(!summary.corrupted, "a torn tail is recoverable, not fatal");
        prop_assert!(ledger.spent() + SLACK >= released,
            "torn tail refunded released ε: spent {} < released {released}", ledger.spent());
        let _ = std::fs::remove_file(&path);
    }

    /// Arbitrary truncation (any number of frames lost): the recovered
    /// spend covers every (intent, settle) pair fully inside the
    /// surviving prefix, and never exceeds the total.
    #[test]
    fn truncation_resolves_conservatively(
        raw in proptest::collection::vec((0u8..3, 0.01f64..1.0), 1..12),
        frac in 0.0f64..1.0,
    ) {
        let path = unique_path("trunc");
        let ops = build_history(&path, &raw);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let keep = (frac * len as f64) as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();

        let durable_released: f64 = ops
            .iter()
            .filter(|o| o.kind == OpKind::Settled && o.end <= keep)
            .map(|o| o.eps)
            .sum();

        let (ledger, _) = SharedLedger::open(&path, Epsilon::new(TOTAL).unwrap()).unwrap();
        prop_assert!(ledger.spent() <= TOTAL);
        prop_assert!(ledger.spent() + SLACK >= durable_released,
            "truncation to {keep}/{len} refunded surviving releases: spent {} < {durable_released}",
            ledger.spent());
        let _ = std::fs::remove_file(&path);
    }

    /// Spend carried in a *compaction snapshot* (a reopen rewrites the
    /// journal as header · Grant · Snapshot) survives small tears: the
    /// snapshot is not a live append, so damage to it must exhaust the
    /// ledger, never refund the history it summarizes. This is the
    /// cross-restart case the chaos harness runs end to end.
    #[test]
    fn snapshot_damage_never_refunds_compacted_spend(
        raw in proptest::collection::vec((0u8..3, 0.01f64..1.0), 1..12),
        cut in 1usize..=3,
    ) {
        let path = unique_path("snap");
        let ops = build_history(&path, &raw);
        let released: f64 = ops.iter().filter(|o| o.kind == OpKind::Settled).map(|o| o.eps).sum();

        // Reopen: history is folded into the compacted snapshot.
        let (_ledger, summary) = SharedLedger::open(&path, Epsilon::new(TOTAL).unwrap()).unwrap();
        prop_assert!(summary.resumed && !summary.corrupted);
        prop_assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            HEADER + GRANT + SNAPSHOT
        );
        // Tear 1–3 bytes off the snapshot frame.
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(len - cut);
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, summary) = SharedLedger::open(&path, Epsilon::new(TOTAL).unwrap()).unwrap();
        prop_assert!(summary.corrupted, "a damaged snapshot must read as corruption");
        prop_assert!(ledger.spent() + SLACK >= released,
            "snapshot tear refunded released ε: spent {} < {released}", ledger.spent());
        prop_assert!(ledger.is_exhausted());
        let _ = std::fs::remove_file(&path);
    }

    /// A single bit flip anywhere in the file is always detected (CRC32
    /// catches all 1-bit errors) and resolves to a spend at or above
    /// everything released — by dropping only the final frame, or by
    /// exhausting the ledger outright.
    #[test]
    fn bit_flip_is_detected_and_conservative(
        raw in proptest::collection::vec((0u8..3, 0.01f64..1.0), 1..12),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let path = unique_path("flip");
        let ops = build_history(&path, &raw);
        let released: f64 = ops.iter().filter(|o| o.kind == OpKind::Settled).map(|o| o.eps).sum();

        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((pos_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, _) = SharedLedger::open(&path, Epsilon::new(TOTAL).unwrap()).unwrap();
        prop_assert!(ledger.spent() + SLACK >= released,
            "bit flip at byte {pos} bit {bit} refunded released ε: spent {} < {released}",
            ledger.spent());
        prop_assert!(ledger.spent() <= TOTAL);
        let _ = std::fs::remove_file(&path);
    }
}
