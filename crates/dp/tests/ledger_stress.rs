//! Concurrency audit for the budget ledger.
//!
//! The sequential [`BudgetLedger`] documents a lifetime over-spend bound of
//! one rounding slack (`total × 1e-9`); these tests prove the
//! [`SharedLedger`] layer preserves that bound when many threads debit one
//! tenant concurrently — including through the atomic (CAS) reserve path
//! and the two-phase reserve-then-settle protocol, in *both* the ε and δ
//! columns. The two contention tests run twice: on an in-memory ledger
//! and on a journaled one, whose settlement mutex also guards fsync'd
//! journal appends while the spend columns stay lock-free. There is no loom in this offline workspace, so the
//! tests shake interleavings the pedestrian way: many threads, many
//! iterations, mixed debit sizes, and yields between attempts — and they
//! assert on the *granted* amounts each thread actually observed, not on
//! the ledger's (clamped) internal counter, so a lost-update bug cannot
//! hide behind the clamp.

use lrm_dp::concurrent::SharedLedger;
use lrm_dp::{Budget, BudgetError, DurableError, Epsilon};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The ledger's documented lifetime over-spend bound.
const RELATIVE_SLACK: f64 = 1e-9;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// A fresh journal path for one test (removed before use).
fn scratch_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lrm_ledger_stress_{name}_{}.epsj",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// An in-memory ledger, or one journaled at `journal`.
fn open_ledger(total: Budget, journal: Option<&Path>) -> SharedLedger {
    match journal {
        None => SharedLedger::new(total),
        Some(path) => SharedLedger::open(path, total).unwrap().0,
    }
}

/// Hammers one shared ledger (journaled at `journal`, if given) from
/// `threads` threads, each attempting every debit in `sizes` repeatedly
/// (`rounds` passes), and returns the ε each thread was actually granted.
fn hammer(
    total: f64,
    threads: usize,
    rounds: usize,
    sizes: &[f64],
    journal: Option<&Path>,
) -> Vec<f64> {
    let ledger = open_ledger(eps(total).into(), journal);
    let started = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ledger = ledger.clone();
                let started = &started;
                s.spawn(move || {
                    // Barrier-ish start so the threads actually contend.
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < threads {
                        std::hint::spin_loop();
                    }
                    let mut granted = 0.0;
                    for round in 0..rounds {
                        for i in 0..sizes.len() {
                            // Stagger the order per thread so different
                            // sizes collide at the boundary.
                            let size = sizes[(i + t + round) % sizes.len()];
                            match ledger.debit(eps(size)) {
                                Ok(_) => granted += size,
                                Err(DurableError::Budget(BudgetError::Exhausted { .. })) => {}
                                Err(e) => panic!("pure ε debit failed oddly: {e:?}"),
                            }
                            if (i + t) % 3 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                    granted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_debits_never_exceed_one_slack() {
    let total = 1.0;
    let path = scratch_journal("debits");
    for journal in [None, Some(path.as_path())] {
        let granted = hammer(total, 16, 50, &[0.01, 0.003, 0.0007], journal);
        let granted_sum: f64 = granted.iter().sum();
        // The bound under test: everything actually granted, summed across
        // all threads, stays within the documented one-slack envelope.
        assert!(
            granted_sum <= total * (1.0 + RELATIVE_SLACK) + 1e-12,
            "over-spend ({journal:?}): granted {granted_sum} > total {total} + slack"
        );
        // The run must have actually driven the ledger to the boundary —
        // the leftover must be too small for even the smallest debit — or
        // the test proved nothing about contention at exhaustion.
        assert!(
            granted_sum >= total - 0.0007,
            "ledger never reached exhaustion ({journal:?}, granted {granted_sum}); the boundary was not exercised"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dust_debits_stay_blocked_under_contention() {
    // Exhaust, then have many threads fling sub-slack dust at the ledger:
    // not one grain may leak through (the sequential ledger's dust guard
    // must hold behind the shared lock too).
    let ledger = SharedLedger::new(eps(1.0));
    ledger.debit(eps(1.0)).unwrap();
    let leaked: usize = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                let ledger = ledger.clone();
                s.spawn(move || {
                    (0..1000)
                        .filter(|_| ledger.debit(eps(1e-12)).is_ok())
                        .count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert_eq!(leaked, 0, "{leaked} dust debits leaked through exhaustion");
    assert_eq!(ledger.debits(), 1);
}

#[test]
fn successful_debit_count_matches_ledger() {
    // The debit counter is part of the audit trail: it must agree with the
    // number of grants the callers observed.
    let ledger = SharedLedger::new(eps(1.0));
    let grants: usize = std::thread::scope(|s| {
        (0..12)
            .map(|_| {
                let ledger = ledger.clone();
                s.spawn(move || {
                    (0..100)
                        .filter(|_| ledger.debit(eps(0.004)).is_ok())
                        .count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert_eq!(ledger.debits(), grants);
    // 250 × 0.004 = 1.0 exactly fills the budget.
    assert_eq!(grants, 250);
    assert!(ledger.is_exhausted());
}

fn budget(e: f64, d: f64) -> Budget {
    Budget::new(eps(e), d).unwrap()
}

/// Hammers one (ε, δ) ledger (journaled at `journal`, if given) through
/// the two-phase atomic reserve path: every thread runs `begin` → settle (or abort every
/// `abort_every`-th successful reservation), and returns the (ε, δ) each
/// thread actually *settled* — aborted reservations grant nothing and
/// must refund both columns exactly.
fn hammer_budget(
    total: (f64, f64),
    threads: usize,
    rounds: usize,
    sizes: &[(f64, f64)],
    abort_every: usize,
    journal: Option<&Path>,
) -> (SharedLedger, Vec<(f64, f64)>) {
    let ledger = open_ledger(budget(total.0, total.1), journal);
    let started = AtomicUsize::new(0);
    let granted = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ledger = ledger.clone();
                let started = &started;
                s.spawn(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    while started.load(Ordering::SeqCst) < threads {
                        std::hint::spin_loop();
                    }
                    let (mut got_eps, mut got_delta) = (0.0, 0.0);
                    let mut reservations = 0usize;
                    for round in 0..rounds {
                        for i in 0..sizes.len() {
                            let (e, d) = sizes[(i + t + round) % sizes.len()];
                            match ledger.begin(budget(e, d)) {
                                Ok(id) => {
                                    reservations += 1;
                                    if reservations.is_multiple_of(abort_every) {
                                        ledger.abort(id);
                                    } else {
                                        ledger.settle(id);
                                        got_eps += e;
                                        got_delta += d;
                                    }
                                }
                                Err(DurableError::Budget(
                                    BudgetError::Exhausted { .. }
                                    | BudgetError::DeltaExhausted { .. },
                                )) => {}
                                Err(e) => panic!("reservation failed oddly: {e:?}"),
                            }
                            if (i + t) % 3 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                    (got_eps, got_delta)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (ledger, granted)
}

#[test]
fn atomic_reserve_bounds_both_columns_under_contention() {
    let (total_eps, total_delta) = (1.0, 1e-5);
    let sizes = [(0.01, 1.1e-7), (0.003, 2.9e-8), (0.0007, 8e-9)];
    let path = scratch_journal("reserve");
    for journal in [None, Some(path.as_path())] {
        let (ledger, granted) = hammer_budget((total_eps, total_delta), 16, 60, &sizes, 7, journal);
        let eps_sum: f64 = granted.iter().map(|g| g.0).sum();
        let delta_sum: f64 = granted.iter().map(|g| g.1).sum();
        assert!(
            eps_sum <= total_eps * (1.0 + RELATIVE_SLACK) + 1e-12,
            "ε over-spend ({journal:?}): settled {eps_sum} > total {total_eps} + slack"
        );
        assert!(
            delta_sum <= total_delta * (1.0 + RELATIVE_SLACK) + 1e-18,
            "δ over-spend ({journal:?}): settled {delta_sum} > total {total_delta} + slack"
        );
        // One of the columns must have been driven to its boundary — the
        // leftover too small for even the smallest request — or the race
        // at exhaustion was never exercised.
        assert!(
            ledger.remaining() < 0.0007 || ledger.delta_remaining() < 8e-9,
            "neither column reached its boundary ({journal:?}, ε {eps_sum}, δ {delta_sum})"
        );
        // Everything reserved was either settled or refunded: no intent
        // may stay pending once the threads are done.
        assert_eq!(ledger.pending(), 0);
        assert!(ledger.debits() > 0);
        if let Some(path) = journal {
            // The journal replays exactly what was settled: aborts were
            // durably refunded, settles durably spent.
            drop(ledger);
            let (reopened, summary) =
                SharedLedger::open(path, budget(total_eps, total_delta)).unwrap();
            assert!(summary.resumed && !summary.corrupted);
            assert_eq!(summary.recovered_pending, 0.0);
            assert!((reopened.spent() - eps_sum.min(total_eps)).abs() < 1e-9);
            assert!((reopened.delta_spent() - delta_sum.min(total_delta)).abs() < 1e-15);
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn aborted_reservations_refund_exactly() {
    // Reserve-then-abort in a tight contended loop must leave the ledger
    // exactly where it started: the refund subtracts the post-clamp
    // applied amounts, not the requested ones.
    let ledger = SharedLedger::new(budget(1.0, 1e-6));
    std::thread::scope(|s| {
        for _ in 0..8 {
            let ledger = ledger.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    if let Ok(id) = ledger.begin(budget(0.01, 3e-9)) {
                        ledger.abort(id);
                    }
                }
            });
        }
    });
    assert!(ledger.spent().abs() < 1e-12, "ε leaked: {}", ledger.spent());
    assert!(
        ledger.delta_spent().abs() < 1e-18,
        "δ leaked: {}",
        ledger.delta_spent()
    );
    assert_eq!(ledger.debits(), 0);
    assert_eq!(ledger.pending(), 0);
    // The refunded budget is fully grantable again.
    ledger.debit(budget(1.0, 1e-6)).unwrap();
}

#[test]
fn delta_dust_stays_blocked_under_contention() {
    // Exhaust the δ column, then fling sub-slack δ dust from many
    // threads: the δ dust guard must hold on the atomic path even while
    // the ε column still has room.
    let ledger = SharedLedger::new(budget(10.0, 1e-6));
    ledger.debit(budget(0.1, 1e-6)).unwrap();
    assert!(ledger.is_delta_exhausted());
    let leaked: usize = std::thread::scope(|s| {
        (0..8)
            .map(|_| {
                let ledger = ledger.clone();
                s.spawn(move || {
                    (0..1000)
                        .filter(|_| ledger.debit(budget(1e-4, 1e-18)).is_ok())
                        .count()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });
    assert_eq!(
        leaked, 0,
        "{leaked} δ dust debits leaked through exhaustion"
    );
    // A δ refusal must not have bled the ε column either.
    assert!((ledger.spent() - 0.1).abs() < 1e-12);
    assert_eq!(ledger.debits(), 1);
}

proptest! {
    /// Property form of the audit: for arbitrary totals and debit-size
    /// menus, the contended grant total stays within one slack of the
    /// advertised budget.
    #[test]
    fn over_spend_bound_holds_for_arbitrary_sizes(
        total in 0.05f64..4.0,
        sizes in proptest::collection::vec(1e-4f64..0.2, 1..4),
        threads in 2usize..9,
    ) {
        let scaled: Vec<f64> = sizes.iter().map(|s| s * total).collect();
        let rounds = 1 + (2.0 / (scaled.iter().sum::<f64>() * threads as f64)).ceil() as usize;
        let granted: f64 = hammer(total, threads, rounds.min(50), &scaled, None).iter().sum();
        prop_assert!(
            granted <= total * (1.0 + RELATIVE_SLACK) + 1e-12,
            "granted {} vs total {}", granted, total
        );
    }

    /// The same property through the two-phase atomic reserve path, over
    /// both columns at once, with a deterministic sprinkling of aborts:
    /// settled ε and settled δ each stay within one slack of their
    /// advertised totals, for arbitrary budget menus.
    #[test]
    fn atomic_reserve_bound_holds_for_arbitrary_budgets(
        total_eps in 0.05f64..4.0,
        total_delta in 1e-7f64..1e-4,
        sizes in proptest::collection::vec((1e-3f64..0.3, 1e-3f64..0.3), 1..4),
        threads in 2usize..7,
        abort_every in 3usize..12,
    ) {
        let scaled: Vec<(f64, f64)> = sizes
            .iter()
            .map(|(e, d)| (e * total_eps, d * total_delta))
            .collect();
        let per_round: f64 = scaled.iter().map(|s| s.0).sum::<f64>() * threads as f64;
        let rounds = 1 + (2.0 / per_round).ceil() as usize;
        let (ledger, granted) =
            hammer_budget((total_eps, total_delta), threads, rounds.min(40), &scaled, abort_every, None);
        let eps_sum: f64 = granted.iter().map(|g| g.0).sum();
        let delta_sum: f64 = granted.iter().map(|g| g.1).sum();
        prop_assert!(
            eps_sum <= total_eps * (1.0 + RELATIVE_SLACK) + 1e-12,
            "settled ε {} vs total {}", eps_sum, total_eps
        );
        prop_assert!(
            delta_sum <= total_delta * (1.0 + RELATIVE_SLACK) + 1e-15,
            "settled δ {} vs total {}", delta_sum, total_delta
        );
        prop_assert_eq!(ledger.pending(), 0);
    }
}
