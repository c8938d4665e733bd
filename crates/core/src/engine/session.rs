//! Budget-tracked answering sessions.

use crate::engine::CompiledMechanism;
use crate::error::CoreError;
use crate::mechanism::Mechanism;
use lrm_dp::{Budget, BudgetError, BudgetLedger, Epsilon};
use rand::RngCore;
use std::fmt;
use std::sync::Arc;

/// A serving session: one compiled strategy plus a [`BudgetLedger`]
/// enforcing sequential composition across releases.
///
/// Every [`answer`](Session::answer) debits its ε from the ledger *after*
/// the release succeeds; once the total is spent further answers fail with
/// [`EngineError::Budget`]\([`BudgetError::Exhausted`]\) instead of
/// silently over-spending. Approximate-DP sessions
/// ([`Session::open_budget`]) compose δ the same way: both components are
/// checked and debited per release. The strategy itself is shared
/// (cheaply, via `Arc`) with the engine cache — opening a session costs
/// nothing.
pub struct Session {
    mechanism: Arc<dyn Mechanism + Send + Sync>,
    label: &'static str,
    ledger: BudgetLedger,
}

impl Session {
    /// Opens a session over a compiled strategy with a total ε budget.
    pub fn open(compiled: &CompiledMechanism, total: Epsilon) -> Self {
        Self {
            mechanism: compiled.shared_mechanism(),
            label: compiled.meta().label,
            ledger: BudgetLedger::new(total),
        }
    }

    /// Opens a session with a total (ε, δ) budget — required for
    /// approximate-DP strategies, whose releases consume δ.
    pub fn open_budget(compiled: &CompiledMechanism, total: Budget) -> Self {
        Self {
            mechanism: compiled.shared_mechanism(),
            label: compiled.meta().label,
            ledger: BudgetLedger::new(total),
        }
    }

    /// One noisy release of the whole batch at `eps`, debited from the
    /// session budget.
    ///
    /// The debit happens only if the release succeeds; a refused debit
    /// leaves the ledger (and the data) untouched.
    pub fn answer(
        &mut self,
        x: &[f64],
        eps: Epsilon,
        rng: &mut dyn RngCore,
    ) -> Result<BatchAnswer, EngineError> {
        self.ledger.check(eps)?;
        let answers = self.mechanism.answer(x, eps, rng)?;
        let eps_remaining = self
            .ledger
            .debit(eps)
            .expect("debit cannot fail after check");
        Ok(BatchAnswer {
            answers,
            eps_spent: eps,
            eps_remaining,
            delta_spent: 0.0,
            delta_remaining: self.ledger.delta_remaining(),
            expected_avg_error: self.mechanism.expected_average_error(eps, Some(x)),
            mechanism: self.label,
        })
    }

    /// One noisy release of the whole batch at an (ε, δ) `budget`, with
    /// both components checked against and debited from the session
    /// ledger. This is the only release path a Gaussian strategy accepts.
    pub fn answer_budget(
        &mut self,
        x: &[f64],
        budget: Budget,
        rng: &mut dyn RngCore,
    ) -> Result<BatchAnswer, EngineError> {
        self.ledger.check(budget)?;
        let answers = self.mechanism.answer_budget(x, budget, rng)?;
        let eps_remaining = self
            .ledger
            .debit(budget)
            .expect("debit cannot fail after check");
        Ok(BatchAnswer {
            answers,
            eps_spent: budget.eps(),
            eps_remaining,
            delta_spent: budget.delta(),
            delta_remaining: self.ledger.delta_remaining(),
            expected_avg_error: self
                .mechanism
                .expected_average_error_budget(budget, Some(x)),
            mechanism: self.label,
        })
    }

    /// The ledger's remaining budget.
    pub fn remaining(&self) -> f64 {
        self.ledger.remaining()
    }

    /// Whether the budget is spent.
    pub fn is_exhausted(&self) -> bool {
        self.ledger.is_exhausted()
    }

    /// The underlying ledger (total, spent, debit count).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Label of the strategy answering this session.
    pub fn mechanism_label(&self) -> &'static str {
        self.label
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("mechanism", &self.label)
            .field("ledger", &self.ledger)
            .finish()
    }
}

/// One release from a [`Session`]: the noisy answers plus the accounting
/// that justified them.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswer {
    /// Noisy batch answers `ŷ`.
    pub answers: Vec<f64>,
    /// The ε this release consumed.
    pub eps_spent: Epsilon,
    /// Budget left in the session after the debit.
    pub eps_remaining: f64,
    /// The δ this release consumed (`0` for pure releases).
    pub delta_spent: f64,
    /// δ left in the session after the debit (`0` for pure sessions).
    pub delta_remaining: f64,
    /// Closed-form expected average squared error of this release.
    pub expected_avg_error: f64,
    /// Label of the strategy that answered.
    pub mechanism: &'static str,
}

/// Failure of an engine-level operation.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The session's privacy budget cannot cover the request.
    Budget(BudgetError),
    /// Compilation or answering failed.
    Core(CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Budget(e) => write!(f, "{e}"),
            EngineError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Budget(e) => Some(e),
            EngineError::Core(e) => Some(e),
        }
    }
}

impl From<BudgetError> for EngineError {
    fn from(e: BudgetError) -> Self {
        EngineError::Budget(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}
