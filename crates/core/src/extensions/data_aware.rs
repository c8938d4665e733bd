//! Residual-compensated LRM — an implementation of the future-work
//! direction in the paper's Section 7.
//!
//! The relaxed decomposition (Formula 8) leaves a residual `R = W − BL`
//! with `‖R‖_F ≤ γ`. Plain LRM ignores `R·x`, paying the deterministic
//! structural error of Theorem 3 — a *bias*, which for large-count
//! databases can dominate. This extension answers the residual part too,
//! splitting the budget by sequential composition:
//!
//! ```text
//! ŷ = B·(L·x + Lap(Δ(B,L)/ε₁)^r)  +  R·(x + Lap(1/ε₂)^n),   ε₁+ε₂ = ε
//! ```
//!
//! Both summands are ε₁- and ε₂-DP views of the data, so the sum is ε-DP.
//! The result is **unbiased**, with expected squared error
//!
//! ```text
//! 2·Φ·Δ²/ε₁²  +  2·‖R‖²_F/ε₂²
//! ```
//!
//! minimized in closed form over the split: writing `a = 2ΦΔ²` and
//! `b = 2‖R‖²_F`, the optimum of `a/ε₁² + b/ε₂²` under `ε₁+ε₂ = ε` is
//! `ε₁ = ε·∛a/(∛a+∛b)`. When the residual is numerically zero the whole
//! budget goes to the LRM part and this mechanism *is* plain LRM.

use crate::decomposition::{DecompositionConfig, WorkloadDecomposition};
use crate::error::CoreError;
use crate::mechanism::Mechanism;
use lrm_dp::{Epsilon, Laplace, SensitivityNorm};
use lrm_linalg::ops;
use lrm_workload::Workload;
use rand::RngCore;

/// LRM with the decomposition residual answered from a noisy database
/// view, removing Theorem 3's structural bias at a small noise cost.
#[derive(Debug, Clone)]
pub struct CompensatedLowRankMechanism {
    decomposition: WorkloadDecomposition,
    /// Fraction of ε given to the low-rank part (`ε₁ = fraction·ε`).
    lrm_fraction: f64,
    m: usize,
    n: usize,
}

impl CompensatedLowRankMechanism {
    /// Compiles the decomposition and the optimal budget split.
    pub fn compile(workload: &Workload, config: &DecompositionConfig) -> Result<Self, CoreError> {
        let decomposition =
            WorkloadDecomposition::compute(workload, config, SensitivityNorm::L1, None)?;
        Ok(Self::from_decomposition(
            decomposition,
            workload.num_queries(),
            workload.domain_size(),
        ))
    }

    /// Wraps an existing decomposition.
    pub fn from_decomposition(decomposition: WorkloadDecomposition, m: usize, n: usize) -> Self {
        // Optimal ε split for a/ε₁² + b/ε₂².
        let a = 2.0 * decomposition.scale() * decomposition.sensitivity().powi(2);
        let b = 2.0 * decomposition.residual_matrix().squared_sum();
        let lrm_fraction = if b <= 0.0 || a <= 0.0 {
            1.0
        } else {
            let ca = a.cbrt();
            let cb = b.cbrt();
            (ca / (ca + cb)).clamp(0.05, 1.0)
        };
        Self {
            decomposition,
            lrm_fraction,
            m,
            n,
        }
    }

    /// The underlying decomposition.
    pub fn decomposition(&self) -> &WorkloadDecomposition {
        &self.decomposition
    }

    /// The fraction of ε spent on the low-rank part.
    pub fn lrm_fraction(&self) -> f64 {
        self.lrm_fraction
    }
}

impl Mechanism for CompensatedLowRankMechanism {
    fn name(&self) -> &'static str {
        "LRM+"
    }

    fn num_queries(&self) -> usize {
        self.m
    }

    fn domain_size(&self) -> usize {
        self.n
    }

    fn answer(
        &self,
        x: &[f64],
        eps: Epsilon,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, CoreError> {
        self.check_database(x)?;
        let b = self.decomposition.b();
        let l = self.decomposition.l();
        let residual = self.decomposition.residual_matrix();
        let delta = self.decomposition.sensitivity();

        let eps1 = eps.value() * self.lrm_fraction;
        let eps2 = eps.value() - eps1;

        // Low-rank part at ε₁.
        let mut lx = ops::mul_vec(l, x)?;
        if delta > 0.0 {
            let noise = Laplace::centered(delta / eps1)?;
            for v in lx.iter_mut() {
                *v += noise.sample(rng);
            }
        }
        let mut y = ops::mul_vec(b, &lx)?;

        // Residual part at ε₂ (skipped when the whole budget went to LRM).
        if self.lrm_fraction < 1.0 {
            let noise = Laplace::centered(1.0 / eps2)?;
            let noisy_x: Vec<f64> = x.iter().map(|&v| v + noise.sample(rng)).collect();
            let residual_answers = ops::mul_vec(residual, &noisy_x)?;
            for (yi, ri) in y.iter_mut().zip(residual_answers.iter()) {
                *yi += ri;
            }
        }
        Ok(y)
    }

    /// Unbiased: no structural term, only the two noise terms.
    fn expected_error(&self, eps: Epsilon, _x: Option<&[f64]>) -> f64 {
        let a = 2.0 * self.decomposition.scale() * self.decomposition.sensitivity().powi(2);
        let eps1 = eps.value() * self.lrm_fraction;
        let mut err = a / (eps1 * eps1);
        if self.lrm_fraction < 1.0 {
            let b = 2.0 * self.decomposition.residual_matrix().squared_sum();
            let eps2 = eps.value() - eps1;
            err += b / (eps2 * eps2);
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrm::LowRankMechanism;
    use lrm_dp::rng::derive_rng;
    use lrm_workload::generators::{WRange, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn optimal_split_formula() {
        // With a = b the optimal split is 50/50.
        let w = WRange
            .generate(10, 16, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let mech =
            CompensatedLowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        let f = mech.lrm_fraction();
        assert!((0.05..=1.0).contains(&f));
        // The residual after polish is tiny, so nearly all budget goes to
        // the low-rank part.
        assert!(f > 0.5, "fraction {f}");
    }

    #[test]
    fn unbiased_even_with_coarse_gamma() {
        // Force a visible residual with an undersized rank (r < rank(W)
        // cannot represent W exactly), then verify the compensated
        // mechanism has no bias.
        let w = WRange
            .generate(8, 12, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let cfg = DecompositionConfig {
            target_rank: crate::decomposition::TargetRank::Exact(3),
            max_outer_iters: 10,
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let mech = CompensatedLowRankMechanism::compile(&w, &cfg).unwrap();
        assert!(
            mech.decomposition().stats().residual > 1e-4,
            "test needs a non-trivial residual"
        );
        let x: Vec<f64> = (0..12).map(|i| 100.0 + i as f64).collect();
        let truth = w.answer(&x).unwrap();
        let e = eps(2.0);
        let trials = 4000;
        let mut mean = vec![0.0; truth.len()];
        for t in 0..trials {
            let y = mech.answer(&x, e, &mut derive_rng(5, t)).unwrap();
            for (m, v) in mean.iter_mut().zip(y.iter()) {
                *m += v / trials as f64;
            }
        }
        for (m, t) in mean.iter().zip(truth.iter()) {
            assert!((m - t).abs() < 1.5, "bias: mean {m} vs truth {t}");
        }
    }

    #[test]
    fn empirical_error_matches_closed_form() {
        let w = WRange
            .generate(6, 10, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let cfg = DecompositionConfig {
            target_rank: crate::decomposition::TargetRank::Exact(2),
            max_outer_iters: 10,
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let mech = CompensatedLowRankMechanism::compile(&w, &cfg).unwrap();
        let x: Vec<f64> = (0..10).map(|i| (i * 7 % 23) as f64).collect();
        let truth = w.answer(&x).unwrap();
        let e = eps(1.0);
        let trials = 4000;
        let mut sq = 0.0;
        for t in 0..trials {
            let y = mech.answer(&x, e, &mut derive_rng(6, t)).unwrap();
            sq += y
                .iter()
                .zip(truth.iter())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        let empirical = sq / trials as f64;
        let analytic = mech.expected_error(e, Some(&x));
        assert!(
            (empirical - analytic).abs() / analytic < 0.1,
            "{empirical} vs {analytic}"
        );
    }

    #[test]
    fn beats_plain_lrm_on_large_count_data() {
        // With a deliberately loose decomposition and large counts, the
        // structural bias dominates plain LRM; compensation wins.
        let w = WRange
            .generate(8, 12, &mut StdRng::seed_from_u64(4))
            .unwrap();
        let cfg = DecompositionConfig {
            target_rank: crate::decomposition::TargetRank::Exact(3),
            max_outer_iters: 10,
            polish_iters: 0,
            ..DecompositionConfig::default()
        };
        let plain = LowRankMechanism::compile(&w, &cfg).unwrap();
        let comp =
            CompensatedLowRankMechanism::from_decomposition(plain.decomposition().clone(), 8, 12);
        let x: Vec<f64> = (0..12).map(|i| 1e5 + (i * 13) as f64).collect();
        let e = eps(0.5);
        let plain_err = plain.expected_error(e, Some(&x));
        let comp_err = comp.expected_error(e, Some(&x));
        assert!(
            comp_err < plain_err,
            "compensated {comp_err} not below plain {plain_err}"
        );
    }

    #[test]
    fn equals_lrm_when_residual_zero() {
        // Default config drives the residual to ~0 → fraction 1, and the
        // two mechanisms report identical errors.
        let w = WRange
            .generate(6, 8, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let cfg = DecompositionConfig::default();
        let plain = LowRankMechanism::compile(&w, &cfg).unwrap();
        let comp =
            CompensatedLowRankMechanism::from_decomposition(plain.decomposition().clone(), 6, 8);
        let e = eps(1.0);
        let ratio = comp.expected_error(e, None) / plain.expected_error(e, None);
        assert!(
            (0.99..=1.35).contains(&ratio),
            "compensation overhead too large: ratio {ratio}"
        );
    }
}
