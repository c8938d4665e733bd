//! A journaled ledger under a failed journal append.
//!
//! Arms the `dp::journal::torn_append` failpoint, which writes half a
//! frame to disk and reports the append as failed — a crash mid-write.
//! A failed `Intent` append must leave the ledger exactly as it was (both
//! spend columns and the pending map) and must never be charged on
//! reopen; a failed `Abort` append must keep its reservation, and the
//! reopened ledger must charge it.
//!
//! The failpoint registry is process-global, so these tests live in
//! their own binary and serialize on one mutex.

use lrm_dp::{Budget, DurableError, Epsilon, SharedLedger};
use lrm_testing::{arm, fired, reset, FailAction, FireRule};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

const TORN_APPEND: &str = "dp::journal::torn_append";

fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    guard
}

fn budget(e: f64, d: f64) -> Budget {
    Budget::new(Epsilon::new(e).unwrap(), d).unwrap()
}

fn journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lrm_torn_intent_{name}_{}.epsj",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "failpoints fire only with debug assertions"
)]
fn failed_intent_append_reserves_nothing_and_is_never_charged() {
    let _guard = serialized();
    let path = journal("intent");
    let grant = budget(1.0, 1e-5);
    {
        let (ledger, _) = SharedLedger::open(&path, grant).unwrap();
        ledger.debit(budget(0.25, 2e-6)).unwrap();
        let (spent, delta_spent) = (ledger.spent(), ledger.delta_spent());

        arm(TORN_APPEND, FailAction::Custom, FireRule::Once { at: 1 });
        let err = ledger.begin(budget(0.5, 4e-6)).unwrap_err();
        assert!(matches!(err, DurableError::Io(_)), "{err:?}");
        assert_eq!(fired(TORN_APPEND), 1);

        // Both columns rolled back (up to the rounding of one refund
        // subtraction), nothing pending, no debit counted.
        assert!((ledger.spent() - spent).abs() < 1e-15);
        assert!((ledger.delta_spent() - delta_spent).abs() < 1e-20);
        assert_eq!(ledger.pending(), 0);
        assert_eq!(ledger.debits(), 1);
        // The rolled-back budget is grantable again (checked, not
        // reserved: another append would land after the torn bytes).
        assert!(ledger.check(budget(0.75, 8e-6)).is_ok());
        // The process "dies" with half an intent frame at the tail.
    }
    let (ledger, summary) = SharedLedger::open(&path, grant).unwrap();
    assert!(summary.resumed && !summary.corrupted);
    assert_eq!(summary.recovered_pending, 0.0);
    assert_eq!(summary.recovered_pending_delta, 0.0);
    assert!((ledger.spent() - 0.25).abs() < 1e-12);
    assert!((ledger.delta_spent() - 2e-6).abs() < 1e-18);
    assert_eq!(ledger.debits(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "failpoints fire only with debug assertions"
)]
fn failed_abort_append_keeps_the_reservation() {
    let _guard = serialized();
    let path = journal("abort");
    let grant = budget(1.0, 1e-5);
    {
        let (ledger, _) = SharedLedger::open(&path, grant).unwrap();
        let id = ledger.begin(budget(0.5, 4e-6)).unwrap();

        arm(TORN_APPEND, FailAction::Custom, FireRule::Once { at: 1 });
        ledger.abort(id);
        assert_eq!(fired(TORN_APPEND), 1);

        // No durable abort, no refund: the reservation stays spent.
        assert_eq!(ledger.pending(), 0);
        assert!((ledger.spent() - 0.5).abs() < 1e-12);
        assert!((ledger.delta_spent() - 4e-6).abs() < 1e-18);
        assert!(ledger.check(budget(0.75, 0.0)).is_err());
    }
    // Replay drops the torn abort and charges the intent.
    let (ledger, summary) = SharedLedger::open(&path, grant).unwrap();
    assert!(!summary.corrupted);
    assert!((summary.recovered_pending - 0.5).abs() < 1e-12);
    assert!((ledger.spent() - 0.5).abs() < 1e-12);
    assert!((ledger.delta_spent() - 4e-6).abs() < 1e-18);
    let _ = std::fs::remove_file(&path);
}
