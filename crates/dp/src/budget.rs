//! Privacy budget type.

use crate::error::DpError;
use std::fmt;

/// An ε-differential-privacy budget: strictly positive and finite.
///
/// The paper evaluates ε ∈ {1, 0.1, 0.01} and notes that the squared error
/// of every mechanism is quadratic in `1/ε` (Section 6), which the harness
/// verifies empirically.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a budget; rejects non-positive, NaN, or infinite values.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if value.is_finite() && value > 0.0 {
            Ok(Self(value))
        } else {
            Err(DpError::NonPositiveEpsilon(value))
        }
    }

    /// The raw ε value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Splits the budget into `k` equal parts (sequential composition):
    /// running `k` mechanisms each with `ε/k` satisfies ε-DP overall.
    ///
    /// The Hierarchical Mechanism uses this to give each tree level an
    /// equal share.
    pub fn split(&self, k: usize) -> Result<Self, DpError> {
        if k == 0 {
            return Err(DpError::EmptySplit);
        }
        Self::new(self.0 / k as f64)
    }

    /// Consumes a fraction of the budget (0 < fraction ≤ 1).
    pub fn fraction(&self, fraction: f64) -> Result<Self, DpError> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(DpError::FractionOutOfRange(fraction));
        }
        Self::new(self.0 * fraction)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// An (ε, δ)-differential-privacy budget: the approximate-DP counterpart
/// of [`Epsilon`].
///
/// `δ = 0` recovers pure ε-DP (the [`Budget::pure`] constructor); `δ > 0`
/// is the regime of the journal extension of the paper, where the
/// Gaussian mechanism calibrated against **L2** sensitivity replaces
/// Laplace-against-L1. δ is a probability of unbounded privacy loss and
/// must be well below `1/n` for a database of `n` users; the constructor
/// only enforces `0 ≤ δ < 1` and leaves the deployment policy to callers.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Budget {
    eps: Epsilon,
    delta: f64,
}

impl Budget {
    /// Creates an (ε, δ) budget; δ must be finite and in `[0, 1)`.
    pub fn new(eps: Epsilon, delta: f64) -> Result<Self, DpError> {
        if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
            return Err(DpError::DeltaOutOfRange(delta));
        }
        Ok(Self { eps, delta })
    }

    /// A pure ε-DP budget (`δ = 0`).
    pub fn pure(eps: Epsilon) -> Self {
        Self { eps, delta: 0.0 }
    }

    /// An approximate-DP budget; δ must be finite and in `(0, 1)`.
    pub fn approx(eps: Epsilon, delta: f64) -> Result<Self, DpError> {
        if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
            return Err(DpError::DeltaOutOfRange(delta));
        }
        Ok(Self { eps, delta })
    }

    /// The ε component.
    #[inline]
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The δ component (`0` for pure ε-DP).
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Whether this is a pure ε-DP budget (`δ = 0`).
    #[inline]
    pub fn is_pure(&self) -> bool {
        self.delta == 0.0
    }

    /// Replaces the ε component, keeping δ — how the server prices one
    /// member of a cross-ε batch at its own ε within a shared δ-class.
    pub fn with_eps(&self, eps: Epsilon) -> Self {
        Self {
            eps,
            delta: self.delta,
        }
    }
}

/// Every ledger entry point takes `impl Into<Budget>`: an [`Epsilon`]
/// is the pure budget `(ε, 0)`.
impl From<Epsilon> for Budget {
    fn from(eps: Epsilon) -> Self {
        Self::pure(eps)
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pure() {
            write!(f, "({}, δ=0)", self.eps)
        } else {
            write!(f, "({}, δ={:e})", self.eps, self.delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_budgets() {
        for &e in &[1.0, 0.1, 0.01, 1e-9, 100.0] {
            assert_eq!(Epsilon::new(e).unwrap().value(), e);
        }
    }

    #[test]
    fn rejects_invalid_budgets() {
        for &e in &[0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Epsilon::new(e).is_err(), "accepted {e}");
        }
    }

    #[test]
    fn split_composes() {
        let eps = Epsilon::new(1.0).unwrap();
        let part = eps.split(4).unwrap();
        assert!((part.value() - 0.25).abs() < 1e-15);
        assert!(eps.split(0).is_err());
    }

    #[test]
    fn fraction_bounds() {
        let eps = Epsilon::new(2.0).unwrap();
        assert!((eps.fraction(0.5).unwrap().value() - 1.0).abs() < 1e-15);
        assert!(eps.fraction(0.0).is_err());
        assert!(eps.fraction(1.5).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Epsilon::new(0.1).unwrap().to_string(), "ε=0.1");
    }

    #[test]
    fn budget_accepts_valid_deltas() {
        let eps = Epsilon::new(1.0).unwrap();
        for &d in &[0.0, 1e-12, 1e-6, 0.5, 0.999] {
            let b = Budget::new(eps, d).unwrap();
            assert_eq!(b.delta(), d);
            assert_eq!(b.eps().value(), 1.0);
        }
        assert!(Budget::pure(eps).is_pure());
        assert!(!Budget::approx(eps, 1e-6).unwrap().is_pure());
    }

    #[test]
    fn budget_rejects_invalid_deltas() {
        let eps = Epsilon::new(1.0).unwrap();
        for &d in &[-1e-9, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert!(Budget::new(eps, d).is_err(), "accepted δ={d}");
        }
        // approx additionally rejects δ = 0.
        assert!(Budget::approx(eps, 0.0).is_err());
    }

    #[test]
    fn with_eps_keeps_delta() {
        let b = Budget::approx(Epsilon::new(1.0).unwrap(), 1e-6).unwrap();
        let tighter = b.with_eps(Epsilon::new(0.25).unwrap());
        assert_eq!(tighter.eps().value(), 0.25);
        assert_eq!(tighter.delta(), 1e-6);
    }

    #[test]
    fn budget_display_mentions_delta() {
        let eps = Epsilon::new(0.5).unwrap();
        assert!(Budget::pure(eps).to_string().contains("δ=0"));
        let b = Budget::approx(eps, 1e-6).unwrap().to_string();
        assert!(b.contains("1e-6"), "{b}");
    }
}
