//! Crash-durable (ε, δ)-budget accounting: [`SharedLedger::open`].
//!
//! A ledger opened on a journal path runs the same two-phase debit
//! protocol as an in-memory one, with the write-ahead journal of
//! [`crate::journal`] under it:
//!
//! 1. [`begin`](SharedLedger::begin) *reserves* the budget and appends
//!    a fsync'd `Intent` record — only after this may noise be drawn;
//! 2. [`settle`](SharedLedger::settle) finalizes the debit once the
//!    noisy answer is (about to be) released;
//! 3. [`abort`](SharedLedger::abort) refunds a reservation whose
//!    noise was never released.
//!
//! Approximate-DP ledgers track a δ column next to ε through the whole
//! protocol — intents reserve both, settles spend both, aborts refund
//! both — using the v2 journal frames.
//!
//! # Conservative by construction
//!
//! Every failure resolves toward *more* spent budget, never less, in
//! **both** columns:
//!
//! * a journal replay counts unsettled intents as spent — a kill
//!   between intent and settle wastes the reserved (ε, δ) at worst;
//! * [`begin`](SharedLedger::begin) rolls its reservation back when the
//!   `Intent` append fails, and no noise may be drawn for it;
//! * [`settle`](SharedLedger::settle) debits locally even when its
//!   journal append fails (the on-disk intent already replays as
//!   spent, so local and durable views agree);
//! * [`abort`](SharedLedger::abort) refunds only when the `Abort`
//!   record is durably appended; if the append fails, the reservation
//!   is kept forever (budget lost, guarantee intact);
//! * a journal with damage before its final frame opens fully
//!   exhausted — ε *and* δ.

use crate::budget::Budget;
use crate::concurrent::SharedLedger;
use crate::journal::LedgerJournal;
use crate::ledger::BudgetError;
use std::fmt;
use std::io;
use std::path::Path;

/// The journaled ledger's former type name, kept as an alias because the
/// `perfbench` harness, which must build unchanged, names it.
pub type DurableLedger = SharedLedger;

/// What [`SharedLedger::open`] found on disk (all zero for an in-memory
/// ledger).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResumeSummary {
    /// Whether a prior journal with the same total was honored (false
    /// for a fresh ledger or a total change, which resets the grant).
    pub resumed: bool,
    /// Whether the journal had damage before its final frame; the
    /// ledger opened fully exhausted.
    pub corrupted: bool,
    /// Complete records replayed.
    pub replayed: usize,
    /// Settled ε spend after recovery (includes recovered intents).
    pub spent: f64,
    /// Settled δ spend after recovery (includes recovered intents).
    pub delta_spent: f64,
    /// ε from unsettled intents folded into the spend — reserved by a
    /// previous process but never released.
    pub recovered_pending: f64,
    /// δ from unsettled intents folded into the spend.
    pub recovered_pending_delta: f64,
}

/// Failure of a durable-ledger operation.
#[derive(Debug)]
pub enum DurableError {
    /// The debit was refused by budget accounting.
    Budget(BudgetError),
    /// The journal append failed; nothing was reserved and no noise
    /// may be drawn for this debit.
    Io(io::Error),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Budget(e) => write!(f, "{e}"),
            DurableError::Io(e) => write!(f, "budget journal append failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Budget(e) => Some(e),
            DurableError::Io(e) => Some(e),
        }
    }
}

impl From<BudgetError> for DurableError {
    fn from(e: BudgetError) -> Self {
        DurableError::Budget(e)
    }
}

impl SharedLedger {
    /// Opens (creating if absent) the journal at `path`, replays it,
    /// and compacts it.
    ///
    /// If the journal's recorded (ε, δ) total equals `total`,
    /// accounting resumes where the previous process stopped —
    /// unsettled intents are folded into the settled spend of both
    /// columns (conservative). A different total in *either* column is
    /// an explicit re-grant and resets the spend to zero. A corrupted
    /// journal opens the ledger fully exhausted. An ε-only (v1)
    /// journal resumes under a pure grant exactly as before; under an
    /// approximate-DP grant its δ-total of 0 differs from the new
    /// grant, so the grant resets — a v1 history can never be
    /// mistaken for δ spend.
    pub fn open(path: &Path, total: impl Into<Budget>) -> io::Result<(Self, ResumeSummary)> {
        let total = total.into();
        let rep = LedgerJournal::replay_file(path)?;
        let pending_sum: f64 = rep.pending.values().map(|(e, _)| e).sum();
        let pending_delta: f64 = rep.pending.values().map(|(_, d)| d).sum();
        let total_eps = total.eps().value();
        let total_delta = total.delta();
        let (resumed, settled, settled_delta, debits) = if rep.corrupted {
            (true, total_eps, total_delta, rep.debits)
        } else {
            match rep.total {
                Some(t) if t == total_eps && rep.total_delta == total_delta => (
                    true,
                    (rep.settled + pending_sum).min(total_eps),
                    (rep.settled_delta + pending_delta).min(total_delta),
                    rep.debits,
                ),
                _ => (false, 0.0, 0.0, 0),
            }
        };
        let journal = LedgerJournal::create_compacted(
            path,
            total_eps,
            total_delta,
            settled,
            settled_delta,
            debits,
        )?;
        let summary = ResumeSummary {
            resumed: resumed && rep.records > 0,
            corrupted: rep.corrupted,
            replayed: rep.records,
            spent: settled,
            delta_spent: settled_delta,
            recovered_pending: if resumed && !rep.corrupted {
                pending_sum
            } else {
                0.0
            },
            recovered_pending_delta: if resumed && !rep.corrupted {
                pending_delta
            } else {
                0.0
            },
        };
        Ok((
            Self::restored(
                total,
                settled,
                settled_delta,
                debits as usize,
                rep.next_id,
                Some(journal),
            ),
            summary,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Epsilon;
    use std::path::PathBuf;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn budget(e: f64, d: f64) -> Budget {
        Budget::new(eps(e), d).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lrm_durable_{name}_{}.epsj", std::process::id()))
    }

    #[test]
    fn in_memory_two_phase_debit() {
        let ledger = SharedLedger::new(eps(1.0));
        let id = ledger.begin(eps(0.4)).unwrap();
        // Reserved ε gates admission before it is settled.
        assert!(ledger.check(eps(0.7)).is_err());
        assert!(ledger.check(eps(0.6)).is_ok());
        let remaining = ledger.settle(id);
        assert!((remaining - 0.6).abs() < 1e-12);
        assert_eq!(ledger.debits(), 1);
    }

    #[test]
    fn abort_refunds_in_memory() {
        let ledger = SharedLedger::new(eps(1.0));
        let id = ledger.begin(eps(0.9)).unwrap();
        assert!(ledger.begin(eps(0.5)).is_err());
        ledger.abort(id);
        assert!(ledger.begin(eps(0.5)).is_ok());
    }

    #[test]
    fn settle_of_unknown_id_is_a_noop() {
        let ledger = SharedLedger::new(eps(1.0));
        let before = ledger.spent();
        ledger.settle(42);
        ledger.abort(42);
        assert_eq!(ledger.spent(), before);
        assert_eq!(ledger.debits(), 0);
    }

    #[test]
    fn durable_spend_survives_reopen() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, summary) = SharedLedger::open(&path, eps(2.0)).unwrap();
            assert!(!summary.resumed);
            ledger.debit(eps(0.5)).unwrap();
            ledger.debit(eps(0.25)).unwrap();
        }
        let (ledger, summary) = SharedLedger::open(&path, eps(2.0)).unwrap();
        assert!(summary.resumed);
        assert!(!summary.corrupted);
        assert!((summary.spent - 0.75).abs() < 1e-12);
        assert!((ledger.spent() - 0.75).abs() < 1e-12);
        assert_eq!(ledger.debits(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsettled_intent_counts_as_spent_after_reopen() {
        let path = tmp("pending");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = SharedLedger::open(&path, eps(1.0)).unwrap();
            let _id = ledger.begin(eps(0.5)).unwrap();
            // Process "dies" here: intent durably recorded, never settled.
        }
        let (ledger, summary) = SharedLedger::open(&path, eps(1.0)).unwrap();
        assert!((summary.recovered_pending - 0.5).abs() < 1e-12);
        assert!((ledger.spent() - 0.5).abs() < 1e-12);
        // The recovered spend gates new debits.
        assert!(ledger.begin(eps(0.75)).is_err());
        assert!(ledger.begin(eps(0.5)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn aborted_intent_is_refunded_after_reopen() {
        let path = tmp("abort");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = SharedLedger::open(&path, eps(1.0)).unwrap();
            let id = ledger.begin(eps(0.5)).unwrap();
            ledger.abort(id);
        }
        let (ledger, _) = SharedLedger::open(&path, eps(1.0)).unwrap();
        assert_eq!(ledger.spent(), 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn total_change_resets_the_grant() {
        let path = tmp("regrant");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = SharedLedger::open(&path, eps(1.0)).unwrap();
            ledger.debit(eps(0.8)).unwrap();
        }
        let (ledger, summary) = SharedLedger::open(&path, eps(3.0)).unwrap();
        assert!(!summary.resumed);
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.total(), 3.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_journal_opens_exhausted() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = SharedLedger::open(&path, eps(1.0)).unwrap();
            ledger.debit(eps(0.1)).unwrap();
            ledger.debit(eps(0.1)).unwrap();
        }
        // Flip a bit in the first record (not the final frame).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, summary) = SharedLedger::open(&path, eps(1.0)).unwrap();
        assert!(summary.corrupted);
        assert!(ledger.is_exhausted());
        assert!(ledger.begin(eps(0.05)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_spend_survives_reopen() {
        let path = tmp("delta_reopen");
        let _ = std::fs::remove_file(&path);
        let grant = budget(2.0, 1e-5);
        {
            let (ledger, summary) = SharedLedger::open(&path, grant).unwrap();
            assert!(!summary.resumed);
            ledger.debit(budget(0.5, 4e-6)).unwrap();
        }
        let (ledger, summary) = SharedLedger::open(&path, grant).unwrap();
        assert!(summary.resumed);
        assert!((summary.delta_spent - 4e-6).abs() < 1e-18);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-18);
        assert_eq!(ledger.delta_total(), 1e-5);
        // The recovered δ spend gates new δ debits.
        assert!(ledger.debit(budget(0.1, 7e-6)).is_err());
        assert!(ledger.debit(budget(0.1, 6e-6)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unsettled_delta_intent_counts_as_spent_after_reopen() {
        // The "torn tail never refunds δ" replay property end to end: a
        // process dies after the δ intent is durably recorded but before
        // settle; the δ must be charged on resume.
        let path = tmp("delta_pending");
        let _ = std::fs::remove_file(&path);
        let grant = budget(1.0, 1e-5);
        {
            let (ledger, _) = SharedLedger::open(&path, grant).unwrap();
            let _id = ledger.begin(budget(0.5, 4e-6)).unwrap();
            // Process "dies" here.
        }
        let (ledger, summary) = SharedLedger::open(&path, grant).unwrap();
        assert!((summary.recovered_pending_delta - 4e-6).abs() < 1e-18);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-18);
        assert!(ledger.begin(budget(0.1, 7e-6)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_grant_change_resets() {
        // Same ε total, different δ total: the grant must reset rather
        // than resume a ledger whose δ column means something else.
        let path = tmp("delta_regrant");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = SharedLedger::open(&path, budget(1.0, 1e-5)).unwrap();
            ledger.debit(budget(0.5, 4e-6)).unwrap();
        }
        let (ledger, summary) = SharedLedger::open(&path, budget(1.0, 1e-4)).unwrap();
        assert!(!summary.resumed);
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.delta_spent(), 0.0);
        assert_eq!(ledger.delta_total(), 1e-4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v1_journal_under_approx_grant_resets_not_resumes() {
        // A PR-7-era ε-only journal (δ-total 0) reopened under an
        // approximate-DP grant differs in the δ column, so it must
        // reset — v1 history can never masquerade as δ spend.
        let path = tmp("v1_under_approx");
        let _ = std::fs::remove_file(&path);
        {
            let (ledger, _) = SharedLedger::open(&path, eps(1.0)).unwrap();
            ledger.debit(eps(0.5)).unwrap();
        }
        let (ledger, summary) = SharedLedger::open(&path, budget(1.0, 1e-6)).unwrap();
        assert!(!summary.resumed);
        assert_eq!(ledger.spent(), 0.0);
        assert_eq!(ledger.delta_total(), 1e-6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_journal_exhausts_delta_too() {
        let path = tmp("delta_corrupt");
        let _ = std::fs::remove_file(&path);
        let grant = budget(1.0, 1e-5);
        {
            let (ledger, _) = SharedLedger::open(&path, grant).unwrap();
            ledger.debit(budget(0.1, 1e-6)).unwrap();
            ledger.debit(budget(0.1, 1e-6)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, summary) = SharedLedger::open(&path, grant).unwrap();
        assert!(summary.corrupted);
        assert!(ledger.is_exhausted());
        assert_eq!(ledger.delta_remaining(), 0.0);
        assert!(ledger.begin(budget(0.01, 1e-9)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn abort_refunds_delta() {
        let ledger = SharedLedger::new(budget(1.0, 1e-6));
        let id = ledger.begin(budget(0.5, 1e-6)).unwrap();
        assert!(ledger.check(budget(0.1, 1e-9)).is_err());
        ledger.abort(id);
        assert_eq!(ledger.pending(), 0);
        assert_eq!(ledger.delta_spent(), 0.0);
        assert!(ledger.check(budget(0.1, 1e-7)).is_ok());
    }
}
