//! The one concurrent (ε, δ)-budget ledger: [`SharedLedger`], optionally
//! backed by a write-ahead journal.
//!
//! A serving runtime debits one tenant's budget from many threads at
//! once. The sequential [`BudgetLedger`] guarantees that the cumulative
//! granted spend never exceeds the advertised total by more than one
//! rounding slack (`total × 1e-9`) over its lifetime; [`SharedLedger`]
//! preserves exactly that bound under contention — but instead of
//! serializing every check-and-debit behind one mutex, each spend column
//! (ε, and δ under approximate DP) lives in an `AtomicU64` holding f64
//! bits, and a reservation is one CAS loop that replicates the
//! sequential check-then-clamp *atomically*:
//!
//! 1. load the current spend, evaluate [`BudgetLedger::check`]'s exact
//!    predicate (exhaustion guard + one-slack headroom) against it;
//! 2. on pass, CAS the clamped new spend in; a lost race simply reloads
//!    and re-checks.
//!
//! Every successful CAS is therefore indistinguishable from a
//! `BudgetLedger::debit` executed at its linearization point, so any
//! concurrent history is equivalent to some sequential one — and
//! inherits the sequential ledger's over-spend bound and dust-debit
//! guard unchanged. Both-column (ε, δ) reservations take ε first and δ
//! second; a δ refusal rolls back exactly the ε amount that was applied
//! (post-clamp), so a refused approximate debit leaves both columns
//! untouched at quiescence and is only ever *conservative* (transiently
//! inflated) in between.
//!
//! Every debit runs the two-phase [`begin`](SharedLedger::begin) /
//! [`settle`](SharedLedger::settle) / [`abort`](SharedLedger::abort)
//! protocol. Only the small settlement bookkeeping (the pending-intent
//! map and, for a ledger opened with [`SharedLedger::open`], the journal)
//! takes a mutex, and a *refused* reservation never touches it —
//! admission-storm traffic against an exhausted tenant runs entirely
//! lock-free. Durability is chosen by the constructor:
//! [`SharedLedger::new`] keeps the ledger in memory,
//! [`SharedLedger::open`] journals every intent, settle and abort (see
//! [`crate::durable`] for the crash semantics).
//!
//! The type is a cheap `Arc` handle: clones share the same ledger, so a
//! scheduler thread can admission-[`check`](SharedLedger::check) while
//! workers reserve and settle after each successful release
//! (debit-after-success: a refused release never spends).

use crate::budget::Budget;
use crate::durable::DurableError;
use crate::journal::{LedgerJournal, Record};
use crate::ledger::{BudgetError, BudgetLedger, RELATIVE_SLACK};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A cloneable, thread-safe, optionally journaled [`BudgetLedger`] with a
/// lock-free reservation path.
///
/// ```
/// use lrm_dp::{concurrent::SharedLedger, Epsilon};
///
/// let ledger = SharedLedger::new(Epsilon::new(1.0).unwrap());
/// let half = Epsilon::new(0.5).unwrap();
/// let handle = ledger.clone(); // same ledger, another thread's handle
/// ledger.debit(half).unwrap();
/// handle.debit(half).unwrap();
/// assert!(ledger.is_exhausted());
/// assert!(handle.debit(half).is_err());
/// ```
#[derive(Clone)]
pub struct SharedLedger {
    inner: Arc<Inner>,
}

struct Inner {
    total: f64,
    delta_total: f64,
    /// f64 bits of the cumulative ε spend (reservations included).
    spent_bits: AtomicU64,
    /// f64 bits of the cumulative δ spend (reservations included).
    delta_spent_bits: AtomicU64,
    /// Successful (settled or single-phase) debits.
    debits: AtomicUsize,
    /// Settlement bookkeeping only — the spend columns above never hide
    /// behind this lock. A refused reservation never takes it.
    settle: Mutex<Settlement>,
}

struct Settlement {
    /// Intent id → the (ε, δ) actually applied to the columns at
    /// reservation (post-clamp), so an abort refunds exactly what was
    /// taken.
    pending: HashMap<u64, (f64, f64)>,
    next_id: u64,
    /// The write-ahead journal of a ledger opened with
    /// [`SharedLedger::open`]; `None` keeps the ledger in memory.
    journal: Option<LedgerJournal>,
}

/// One lock-free check-and-debit over a single spend column. Replicates
/// [`BudgetLedger::check`] + the debit clamp atomically: returns the
/// amount actually applied (post-clamp) on success, the remaining budget
/// observed at refusal otherwise.
fn column_reserve(bits: &AtomicU64, total: f64, amount: f64) -> Result<f64, f64> {
    let mut cur = bits.load(Ordering::Acquire);
    loop {
        let spent = f64::from_bits(cur);
        let remaining = (total - spent).max(0.0);
        // Exactly `BudgetLedger::check`: an exhausted column refuses
        // *every* debit (the dust guard), otherwise one slack of
        // headroom absorbs f64 rounding.
        if remaining <= total * RELATIVE_SLACK || amount > remaining + total * RELATIVE_SLACK {
            return Err(remaining);
        }
        let new_spent = (spent + amount).min(total);
        match bits.compare_exchange_weak(
            cur,
            new_spent.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Ok(new_spent - spent),
            Err(actual) => cur = actual,
        }
    }
}

/// Refunds an amount previously applied by [`column_reserve`]. Only ever
/// *reduces* spend, so it cannot weaken the over-spend bound; the floor
/// at zero guards the (unreachable in practice) case of refunding more
/// than the column holds.
fn column_rollback(bits: &AtomicU64, applied: f64) {
    if applied <= 0.0 {
        return;
    }
    let mut cur = bits.load(Ordering::Acquire);
    loop {
        let new_spent = (f64::from_bits(cur) - applied).max(0.0);
        match bits.compare_exchange_weak(
            cur,
            new_spent.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Side-effect-free evaluation of one column's admission predicate.
fn column_check(bits: &AtomicU64, total: f64, amount: f64) -> Result<(), f64> {
    let spent = f64::from_bits(bits.load(Ordering::Acquire));
    let remaining = (total - spent).max(0.0);
    if remaining <= total * RELATIVE_SLACK || amount > remaining + total * RELATIVE_SLACK {
        return Err(remaining);
    }
    Ok(())
}

impl SharedLedger {
    /// Opens an in-memory ledger enforcing an overall (ε, δ) guarantee.
    /// An [`Epsilon`](crate::Epsilon) total opens a pure ledger (δ-total
    /// 0: approximate-DP debits are refused).
    pub fn new(total: impl Into<Budget>) -> Self {
        Self::restored(total.into(), 0.0, 0.0, 0, 0, None)
    }

    /// A ledger resuming from a replayed journal: settled spend in both
    /// columns, settled debits, and the next intent id.
    pub(crate) fn restored(
        total: Budget,
        spent: f64,
        delta_spent: f64,
        debits: usize,
        next_id: u64,
        journal: Option<LedgerJournal>,
    ) -> Self {
        Self {
            inner: Arc::new(Inner {
                total: total.eps().value(),
                delta_total: total.delta(),
                spent_bits: AtomicU64::new(spent.to_bits()),
                delta_spent_bits: AtomicU64::new(delta_spent.to_bits()),
                debits: AtomicUsize::new(debits),
                settle: Mutex::new(Settlement {
                    pending: HashMap::new(),
                    next_id,
                    journal,
                }),
            }),
        }
    }

    /// Locks the settlement bookkeeping, recovering from poisoning: a
    /// panic in one worker must not turn every later budget operation
    /// into a second panic — the spend columns themselves are atomics
    /// and always valid.
    fn settlement(&self) -> std::sync::MutexGuard<'_, Settlement> {
        self.inner.settle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reserves both columns of `budget` atomically (ε first, δ second;
    /// a δ refusal rolls back the applied ε), returning the post-clamp
    /// amounts applied to each column.
    fn reserve(&self, budget: Budget) -> Result<(f64, f64), BudgetError> {
        let eps = budget.eps().value();
        let delta = budget.delta();
        // Fail fast on the δ column before churning ε: purely advisory
        // (the authoritative δ check is the CAS below), but it spares
        // the ε rollback in the common δ-exhausted refusal.
        if delta > 0.0 {
            if let Err(remaining) =
                column_check(&self.inner.delta_spent_bits, self.inner.delta_total, delta)
            {
                return Err(BudgetError::DeltaExhausted {
                    requested: delta,
                    remaining,
                });
            }
        }
        let applied_eps =
            column_reserve(&self.inner.spent_bits, self.inner.total, eps).map_err(|remaining| {
                BudgetError::Exhausted {
                    requested: eps,
                    remaining,
                }
            })?;
        if delta == 0.0 {
            return Ok((applied_eps, 0.0));
        }
        match column_reserve(&self.inner.delta_spent_bits, self.inner.delta_total, delta) {
            Ok(applied_delta) => Ok((applied_eps, applied_delta)),
            Err(remaining) => {
                column_rollback(&self.inner.spent_bits, applied_eps);
                Err(BudgetError::DeltaExhausted {
                    requested: delta,
                    remaining,
                })
            }
        }
    }

    /// Side-effect-free admission check over both (ε, δ) columns: could
    /// `budget` be reserved right now? A pure (δ = 0) budget never
    /// consults the δ column, so pure traffic still flows through a
    /// δ-exhausted ledger.
    ///
    /// Under contention this is advisory — another thread may spend the
    /// budget between a successful `check` and the later
    /// [`begin`](SharedLedger::begin) — which is precisely why the
    /// reservation re-validates atomically. Use `check` to fail fast at
    /// admission, never as a reservation.
    pub fn check(&self, budget: impl Into<Budget>) -> Result<(), BudgetError> {
        let budget = budget.into();
        let eps = budget.eps().value();
        column_check(&self.inner.spent_bits, self.inner.total, eps).map_err(|remaining| {
            BudgetError::Exhausted {
                requested: eps,
                remaining,
            }
        })?;
        let delta = budget.delta();
        if delta > 0.0 {
            column_check(&self.inner.delta_spent_bits, self.inner.delta_total, delta).map_err(
                |remaining| BudgetError::DeltaExhausted {
                    requested: delta,
                    remaining,
                },
            )?;
        }
        Ok(())
    }

    /// Single-phase debit: [`begin`](SharedLedger::begin) + immediate
    /// [`settle`](SharedLedger::settle), returning the remaining ε (the
    /// δ remainder is available via [`SharedLedger::delta_remaining`]).
    ///
    /// One CAS per column is the whole admission critical section, so
    /// the cumulative budget granted across all threads can never exceed
    /// the total by more than the documented one-slack bound.
    pub fn debit(&self, budget: impl Into<Budget>) -> Result<f64, DurableError> {
        let id = self.begin(budget)?;
        Ok(self.settle(id))
    }

    /// Phase one of a debit: reserves `budget` on both columns (counted
    /// as spent for every concurrent check), then records the pending
    /// intent — appending a fsync'd `Intent` record first on a journaled
    /// ledger. Only after this returns `Ok` may noise be drawn for the
    /// release it covers. On `Err` nothing is reserved: a refused
    /// reservation returns before ever taking the settlement mutex, and a
    /// failed journal append rolls both columns back.
    pub fn begin(&self, budget: impl Into<Budget>) -> Result<u64, DurableError> {
        let budget = budget.into();
        let (eps, delta) = self.reserve(budget)?;
        let mut settlement = self.settlement();
        let id = settlement.next_id;
        if let Some(journal) = &mut settlement.journal {
            // An append failure may still have torn bytes onto disk;
            // replay drops a torn tail, consistent with "no noise was
            // drawn for this debit".
            let intent = Record::Intent {
                id,
                eps: budget.eps().value(),
                delta: budget.delta(),
            };
            if let Err(e) = journal.append(&intent) {
                drop(settlement);
                column_rollback(&self.inner.spent_bits, eps);
                column_rollback(&self.inner.delta_spent_bits, delta);
                return Err(DurableError::Io(e));
            }
        }
        settlement.next_id += 1;
        settlement.pending.insert(id, (eps, delta));
        Ok(id)
    }

    /// [`SharedLedger::begin`] under its older name, kept because the
    /// `perfbench` harness, which must build unchanged, calls it.
    pub fn begin_budget(&self, budget: Budget) -> Result<u64, DurableError> {
        self.begin(budget)
    }

    /// Phase two, success path: finalizes intent `id` and returns the
    /// remaining ε. Must be called *before* the noisy answer escapes the
    /// process. Settling an unknown (or already-settled) id only reports
    /// the remainder, so a supervisor replaying work cannot
    /// double-debit. Never refuses — admission happened at
    /// [`begin`](SharedLedger::begin) — and tolerates a failed `Settle`
    /// append: the on-disk intent already replays as spent.
    pub fn settle(&self, id: u64) -> f64 {
        let mut settlement = self.settlement();
        if settlement.pending.remove(&id).is_some() {
            self.inner.debits.fetch_add(1, Ordering::Relaxed);
            if let Some(journal) = &mut settlement.journal {
                let _ = journal.append(&Record::Settle { id });
            }
        }
        drop(settlement);
        self.remaining()
    }

    /// Phase two, failure path: refunds intent `id`, whose noise was
    /// never released, returning exactly the post-clamp amounts its
    /// reservation applied. On a journaled ledger the refund happens
    /// only if the `Abort` record is durably appended; otherwise the
    /// reservation is kept forever (conservative — the on-disk intent
    /// would replay as spent). Aborting an unknown id is a no-op.
    pub fn abort(&self, id: u64) {
        let mut settlement = self.settlement();
        let Some((eps, delta)) = settlement.pending.remove(&id) else {
            return;
        };
        let refund = match &mut settlement.journal {
            Some(journal) => journal.append(&Record::Abort { id }).is_ok(),
            None => true,
        };
        drop(settlement);
        if refund {
            column_rollback(&self.inner.spent_bits, eps);
            column_rollback(&self.inner.delta_spent_bits, delta);
        }
    }

    /// Intents reserved but not yet settled or aborted.
    pub fn pending(&self) -> usize {
        self.settlement().pending.len()
    }

    /// A point-in-time copy of the ledger state (total, spent, debit
    /// count; live reservations count as spent) for reporting.
    pub fn snapshot(&self) -> BudgetLedger {
        BudgetLedger::restore(
            self.inner.total,
            self.spent(),
            self.inner.delta_total,
            self.delta_spent(),
            self.debits(),
        )
    }

    /// The fixed total ε this ledger enforces.
    pub fn total(&self) -> f64 {
        self.inner.total
    }

    /// Cumulative ε debited or reserved so far.
    pub fn spent(&self) -> f64 {
        f64::from_bits(self.inner.spent_bits.load(Ordering::Acquire))
    }

    /// Budget still available, never negative.
    pub fn remaining(&self) -> f64 {
        (self.inner.total - self.spent()).max(0.0)
    }

    /// Number of successful debits (settled releases).
    pub fn debits(&self) -> usize {
        self.inner.debits.load(Ordering::Relaxed)
    }

    /// Whether the remaining budget is (numerically) zero.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() <= self.inner.total * RELATIVE_SLACK
    }

    /// The fixed total δ this ledger enforces (0 for a pure ε-DP ledger).
    pub fn delta_total(&self) -> f64 {
        self.inner.delta_total
    }

    /// Cumulative δ debited or reserved so far.
    pub fn delta_spent(&self) -> f64 {
        f64::from_bits(self.inner.delta_spent_bits.load(Ordering::Acquire))
    }

    /// δ budget still available, never negative.
    pub fn delta_remaining(&self) -> f64 {
        (self.inner.delta_total - self.delta_spent()).max(0.0)
    }

    /// Whether the remaining δ budget is (numerically) zero. A pure ε-DP
    /// ledger (δ-total 0) reports `true`: it has no δ to spend.
    pub fn is_delta_exhausted(&self) -> bool {
        self.delta_remaining() <= self.inner.delta_total * RELATIVE_SLACK
    }
}

impl fmt::Debug for SharedLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedLedger")
            .field(&self.snapshot())
            .finish()
    }
}

impl fmt::Display for SharedLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Epsilon;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn budget(e: f64, d: f64) -> Budget {
        Budget::new(eps(e), d).unwrap()
    }

    #[test]
    fn clones_share_state() {
        let a = SharedLedger::new(eps(1.0));
        let b = a.clone();
        a.debit(eps(0.25)).unwrap();
        b.debit(eps(0.25)).unwrap();
        assert!((a.spent() - 0.5).abs() < 1e-15);
        assert_eq!(a.debits(), 2);
        assert_eq!(b.debits(), 2);
    }

    #[test]
    fn check_then_debit_round_trip() {
        let l = SharedLedger::new(eps(0.2));
        assert!(l.check(eps(0.2)).is_ok());
        assert!(l.check(eps(0.3)).is_err());
        l.debit(eps(0.2)).unwrap();
        assert!(l.is_exhausted());
        assert!(matches!(
            l.debit(eps(0.1)),
            Err(DurableError::Budget(BudgetError::Exhausted { .. }))
        ));
    }

    #[test]
    fn snapshot_is_a_copy() {
        let l = SharedLedger::new(eps(1.0));
        let before = l.snapshot();
        l.debit(eps(0.5)).unwrap();
        assert_eq!(before.spent(), 0.0);
        assert!((l.snapshot().spent() - 0.5).abs() < 1e-15);
        assert!((l.remaining() - 0.5).abs() < 1e-15);
        assert!((l.total() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn two_phase_reserve_settle_abort() {
        let l = SharedLedger::new(budget(1.0, 1e-5));
        let id = l.begin(budget(0.7, 4e-6)).unwrap();
        assert_eq!(l.pending(), 1);
        // The live reservation counts as spent for concurrent checks.
        assert!(l.check(eps(0.5)).is_err());
        assert!(l.check(budget(0.1, 7e-6)).is_err());
        l.abort(id);
        assert_eq!(l.pending(), 0);
        assert_eq!(l.debits(), 0);
        assert!(l.check(eps(0.5)).is_ok());
        assert!((l.spent()).abs() < 1e-15);
        assert!((l.delta_spent()).abs() < 1e-20);

        let id = l.begin(budget(0.7, 4e-6)).unwrap();
        let remaining = l.settle(id);
        assert!((remaining - 0.3).abs() < 1e-12);
        assert!((l.delta_remaining() - 6e-6).abs() < 1e-18);
        assert_eq!(l.debits(), 1);
        // Settling twice (or an unknown id) is a harmless report.
        assert!((l.settle(id) - 0.3).abs() < 1e-12);
        assert_eq!(l.debits(), 1);
        l.abort(9999);
        assert!((l.spent() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn delta_refusal_rolls_back_the_eps_column() {
        let l = SharedLedger::new(budget(1.0, 1e-6));
        // ε fits, δ does not: neither column may hold anything after.
        let err = l.debit(budget(0.1, 2e-6)).unwrap_err();
        assert!(matches!(
            err,
            DurableError::Budget(BudgetError::DeltaExhausted { .. })
        ));
        assert_eq!(l.spent(), 0.0);
        assert_eq!(l.delta_spent(), 0.0);
        assert_eq!(l.debits(), 0);
        // Pure traffic still flows after δ exhaustion.
        l.debit(budget(0.1, 1e-6)).unwrap();
        assert!(l.is_delta_exhausted());
        assert!(l.debit(budget(0.1, 1e-18)).is_err());
        l.debit(budget(0.2, 0.0)).unwrap();
        assert!((l.spent() - 0.3).abs() < 1e-15);
    }

    #[test]
    fn pure_ledger_refuses_any_delta() {
        let l = SharedLedger::new(eps(1.0));
        assert_eq!(l.delta_total(), 0.0);
        assert!(l.is_delta_exhausted());
        assert!(l.debit(budget(0.1, 1e-12)).is_err());
        l.debit(budget(0.1, 0.0)).unwrap();
        assert_eq!(l.debits(), 1);
    }

    #[test]
    fn survives_a_poisoned_settlement_lock() {
        let l = SharedLedger::new(eps(1.0));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.inner.settle.lock().unwrap();
            panic!("poison the settlement lock");
        })
        .join();
        // The ledger stays usable and consistent after the panic.
        let id = l.begin(budget(0.5, 0.0)).unwrap();
        l.settle(id);
        assert!((l.spent() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn display_and_debug_render() {
        let l = SharedLedger::new(eps(1.0));
        l.debit(eps(0.5)).unwrap();
        assert!(l.to_string().contains("1 release"));
        assert!(format!("{l:?}").contains("SharedLedger"));
    }
}
