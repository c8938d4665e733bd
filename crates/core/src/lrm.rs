//! The Low-Rank Mechanism — Eq. 6 of the paper — in both its Laplace
//! (pure ε-DP, L1 sensitivity) and Gaussian ((ε, δ)-DP, L2 sensitivity)
//! calibrations.

use crate::decomposition::{DecompositionConfig, WorkloadDecomposition};
use crate::error::CoreError;
use crate::mechanism::Mechanism;
use lrm_dp::{Budget, Epsilon, Gaussian, Laplace, SensitivityNorm};
use lrm_linalg::ops;
use lrm_workload::Workload;
use rand::RngCore;

/// The Low-Rank Mechanism:
///
/// ```text
/// M_P(Q, D) = B · (L·x + Lap(Δ(B,L)/ε)^r)        (Eq. 6)
/// ```
///
/// where `W ≈ B·L` is the decomposition of Formula (7)/(8) found by
/// Algorithm 1. Privacy follows from the Laplace mechanism applied to the
/// intermediate queries `L·x`, whose L1 sensitivity is
/// `Δ(B, L) = max_j Σ_i |L_ij| ≤ 1` by the decomposition constraint; the
/// post-multiplication by `B` is data-independent post-processing.
///
/// The **approximate-DP variant** (`"LRM-G"`, from an L2-flavored
/// decomposition) swaps the Laplace draw for a Gaussian one calibrated by
/// the analytic mechanism against the per-column **L2** bound
/// `‖L_:j‖₂ ≤ 1`: `B·(L·x + N(0, σ²)^r)` with σ from
/// [`Gaussian::calibrated`]. It answers only through
/// [`Mechanism::answer_budget`] — no finite Gaussian noise achieves pure
/// ε-DP — and additionally supports
/// [`Mechanism::answer_with_topup`], the residual-noise primitive behind
/// the server's cross-ε batch coalescing.
#[derive(Debug, Clone)]
pub struct LowRankMechanism {
    decomposition: WorkloadDecomposition,
    m: usize,
    n: usize,
}

impl LowRankMechanism {
    /// Runs the workload decomposition and compiles the mechanism.
    pub fn compile(workload: &Workload, config: &DecompositionConfig) -> Result<Self, CoreError> {
        Self::compile_flavored(workload, config, SensitivityNorm::L1)
    }

    /// Runs the decomposition under the given sensitivity norm and
    /// compiles the matching mechanism: L1 → Laplace (`"LRM"`), L2 →
    /// Gaussian (`"LRM-G"`).
    pub fn compile_flavored(
        workload: &Workload,
        config: &DecompositionConfig,
        norm: SensitivityNorm,
    ) -> Result<Self, CoreError> {
        let decomposition = WorkloadDecomposition::compute(workload, config, norm, None)?;
        Ok(Self::from_decomposition(
            decomposition,
            workload.num_queries(),
            workload.domain_size(),
        ))
    }

    /// Wraps an existing decomposition (e.g. to reuse one decomposition
    /// across several ε values, as the experiments do — the decomposition
    /// "does not rely on ε", Section 6.1).
    pub fn from_decomposition(decomposition: WorkloadDecomposition, m: usize, n: usize) -> Self {
        Self {
            decomposition,
            m,
            n,
        }
    }

    /// The underlying decomposition.
    pub fn decomposition(&self) -> &WorkloadDecomposition {
        &self.decomposition
    }

    /// The intermediate strategy answers `L·x` — shared by every release
    /// path (plain, budgeted, topped-up).
    fn intermediate(&self, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.check_database(x)?;
        Ok(ops::mul_vec(self.decomposition.l(), x)?)
    }
}

impl Mechanism for LowRankMechanism {
    fn name(&self) -> &'static str {
        match self.decomposition.norm() {
            SensitivityNorm::L1 => "LRM",
            SensitivityNorm::L2 => "LRM-G",
        }
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
        if self.decomposition.norm() == SensitivityNorm::L2 {
            return Err(CoreError::InvalidArgument(
                "an L2-calibrated (Gaussian) strategy cannot release at a pure ε; \
                 supply an (ε, δ) budget via answer_budget"
                    .into(),
            ));
        }
        let mut lx = self.intermediate(x)?;
        let delta = self.decomposition.sensitivity();
        if delta > 0.0 {
            let noise = Laplace::centered(delta / eps.value())?;
            for v in lx.iter_mut() {
                *v += noise.sample(rng);
            }
        }
        // Recombine: ŷ = B·(Lx + η).
        Ok(ops::mul_vec(self.decomposition.b(), &lx)?)
    }

    fn answer_budget(
        &self,
        x: &[f64],
        budget: Budget,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, CoreError> {
        match self.decomposition.norm() {
            // δ buys a Laplace release nothing: pure ε-DP ⊆ (ε, δ)-DP.
            SensitivityNorm::L1 => self.answer(x, budget.eps(), rng),
            SensitivityNorm::L2 => {
                let mut lx = self.intermediate(x)?;
                let delta2 = self.decomposition.sensitivity();
                if delta2 > 0.0 {
                    let noise = Gaussian::calibrated(delta2, budget)?;
                    for v in lx.iter_mut() {
                        *v += noise.sample(rng);
                    }
                }
                Ok(ops::mul_vec(self.decomposition.b(), &lx)?)
            }
        }
    }

    fn answer_with_topup(
        &self,
        x: &[f64],
        base: Budget,
        target: Budget,
        base_rng: &mut dyn RngCore,
        topup_rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, CoreError> {
        if self.decomposition.norm() != SensitivityNorm::L2 {
            return Err(CoreError::InvalidArgument(
                "residual noise top-up requires a Gaussian (L2) strategy: \
                 Laplace noise is not closed under addition"
                    .into(),
            ));
        }
        let mut lx = self.intermediate(x)?;
        let delta2 = self.decomposition.sensitivity();
        if delta2 > 0.0 {
            let sigma_base = Gaussian::calibrated(delta2, base)?.sigma();
            let sigma_target = Gaussian::calibrated(delta2, target)?.sigma();
            if sigma_target < sigma_base * (1.0 - 1e-12) {
                return Err(CoreError::InvalidArgument(format!(
                    "top-up base must be the weakest member budget: \
                     σ(target) = {sigma_target} < σ(base) = {sigma_base}"
                )));
            }
            // The shared base draw first — every member of a coalesced
            // batch replays exactly this sequence from the same base_rng
            // stream — then the member-private top-up of the residual
            // variance, in a separate pass so the base sequence is
            // identical regardless of the member's own budget.
            let base_noise = Gaussian::centered(sigma_base)?;
            for v in lx.iter_mut() {
                *v += base_noise.sample(base_rng);
            }
            let topup_var = (sigma_target * sigma_target - sigma_base * sigma_base).max(0.0);
            if topup_var > 0.0 {
                let topup = Gaussian::centered(topup_var.sqrt())?;
                for v in lx.iter_mut() {
                    *v += topup.sample(topup_rng);
                }
            }
        }
        Ok(ops::mul_vec(self.decomposition.b(), &lx)?)
    }

    /// Lemma 1 noise error plus the Theorem 3 structural residual
    /// `‖(W − BL)·x‖²` when `x` is supplied. `+∞` for the Gaussian
    /// variant, which cannot release at a pure ε at all.
    fn expected_error(&self, eps: Epsilon, x: Option<&[f64]>) -> f64 {
        let noise = self.decomposition.expected_noise_error(eps.value());
        let structural = x
            .map(|x| {
                self.decomposition
                    .structural_error(x)
                    .expect("database checked by caller")
            })
            .unwrap_or(0.0);
        noise + structural
    }

    fn expected_error_budget(&self, budget: Budget, x: Option<&[f64]>) -> f64 {
        let noise = self.decomposition.expected_noise_error_budget(budget);
        let structural = x
            .map(|x| {
                self.decomposition
                    .structural_error(x)
                    .expect("database checked by caller")
            })
            .unwrap_or(0.0);
        noise + structural
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_dp::rng::derive_rng;
    use lrm_workload::generators::{WRange, WRelated, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn answers_have_right_shape_and_are_near_truth_for_large_eps() {
        let w = WRange
            .generate(12, 16, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let mech = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i * 13 % 97) as f64).collect();
        let truth = w.answer(&x).unwrap();
        // With a huge ε the noise is negligible; only the γ-residual and
        // Laplace noise at scale Δ/ε remain.
        let got = mech.answer(&x, eps(1e9), &mut derive_rng(0, 1)).unwrap();
        assert_eq!(got.len(), 12);
        for (g, t) in got.iter().zip(truth.iter()) {
            assert!((g - t).abs() < 1.0, "answer {g} vs truth {t}");
        }
    }

    #[test]
    fn empirical_error_matches_lemma1() {
        let gen = WRelated { base_queries: 4 };
        let w = gen.generate(16, 24, &mut StdRng::seed_from_u64(2)).unwrap();
        let mech = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        let x: Vec<f64> = (0..24).map(|i| ((i * 7) % 50) as f64).collect();
        let truth = w.answer(&x).unwrap();
        let e = eps(1.0);

        let trials = 3000;
        let mut total = 0.0;
        for t in 0..trials {
            let got = mech.answer(&x, e, &mut derive_rng(42, t)).unwrap();
            total += got
                .iter()
                .zip(truth.iter())
                .map(|(g, y)| (g - y) * (g - y))
                .sum::<f64>();
        }
        let empirical = total / trials as f64;
        let analytic = mech.expected_error(e, Some(&x));
        let rel = (empirical - analytic).abs() / analytic;
        assert!(
            rel < 0.1,
            "empirical {empirical} vs analytic {analytic} (rel {rel})"
        );
    }

    #[test]
    fn error_scales_inverse_quadratically_in_eps() {
        let w = WRange
            .generate(8, 12, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let mech = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        let e1 = mech.expected_error(eps(1.0), None);
        let e01 = mech.expected_error(eps(0.1), None);
        assert!((e01 / e1 - 100.0).abs() < 1e-6, "ratio {}", e01 / e1);
    }

    #[test]
    fn rejects_bad_database() {
        let w = WRange
            .generate(4, 8, &mut StdRng::seed_from_u64(4))
            .unwrap();
        let mech = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        let mut rng = derive_rng(0, 0);
        assert!(mech.answer(&[1.0; 7], eps(1.0), &mut rng).is_err());
        assert!(mech.answer(&[f64::NAN; 8], eps(1.0), &mut rng).is_err());
    }

    #[test]
    fn average_error_divides_by_m() {
        let w = WRange
            .generate(10, 12, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let mech = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        let e = eps(0.5);
        assert!(
            (mech.expected_average_error(e, None) * 10.0 - mech.expected_error(e, None)).abs()
                < 1e-12
        );
    }

    fn gaussian_mech(m: usize, n: usize, seed: u64) -> (Workload, LowRankMechanism) {
        let w = WRange
            .generate(m, n, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let mech = LowRankMechanism::compile_flavored(
            &w,
            &DecompositionConfig::default(),
            SensitivityNorm::L2,
        )
        .unwrap();
        (w, mech)
    }

    #[test]
    fn gaussian_variant_rejects_pure_release() {
        let (_, mech) = gaussian_mech(8, 12, 6);
        assert_eq!(mech.name(), "LRM-G");
        let x = [1.0; 12];
        let err = mech
            .answer(&x, eps(1.0), &mut derive_rng(0, 0))
            .unwrap_err();
        assert!(
            err.to_string().contains("answer_budget"),
            "unexpected error: {err}"
        );
        assert!(mech.expected_error(eps(1.0), None).is_infinite());
    }

    #[test]
    fn gaussian_empirical_error_matches_analytic_budget_formula() {
        let (w, mech) = gaussian_mech(12, 16, 7);
        let x: Vec<f64> = (0..16).map(|i| ((i * 11) % 40) as f64).collect();
        let truth = w.answer(&x).unwrap();
        let budget = Budget::approx(eps(1.0), 1e-6).unwrap();

        let trials = 3000;
        let mut total = 0.0;
        for t in 0..trials {
            let got = mech
                .answer_budget(&x, budget, &mut derive_rng(9, t))
                .unwrap();
            total += got
                .iter()
                .zip(truth.iter())
                .map(|(g, y)| (g - y) * (g - y))
                .sum::<f64>();
        }
        let empirical = total / trials as f64;
        let analytic = mech.expected_error_budget(budget, Some(&x));
        let rel = (empirical - analytic).abs() / analytic;
        assert!(
            rel < 0.1,
            "empirical {empirical} vs analytic {analytic} (rel {rel})"
        );
    }

    #[test]
    fn topup_matches_externally_reconstructed_release() {
        // The coalescing contract: a member release produced by
        // answer_with_topup must be bit-identical to re-running the same
        // computation with the same two streams. A *different* top-up
        // stream must change the release (the top-up really is drawn),
        // while the base lane alone reproduces the weakest member's
        // answer_budget release exactly when the budgets coincide.
        let (_, mech) = gaussian_mech(10, 14, 8);
        let x: Vec<f64> = (0..14).map(|i| (i % 5) as f64).collect();
        let base = Budget::approx(eps(2.0), 1e-6).unwrap();
        let tight = Budget::approx(eps(0.5), 1e-6).unwrap();

        let a = mech
            .answer_with_topup(
                &x,
                base,
                tight,
                &mut derive_rng(3, 0),
                &mut derive_rng(3, 1),
            )
            .unwrap();
        let b = mech
            .answer_with_topup(
                &x,
                base,
                tight,
                &mut derive_rng(3, 0),
                &mut derive_rng(3, 1),
            )
            .unwrap();
        assert_eq!(a, b, "same streams must reproduce bit-identically");

        let c = mech
            .answer_with_topup(
                &x,
                base,
                tight,
                &mut derive_rng(3, 0),
                &mut derive_rng(3, 2),
            )
            .unwrap();
        assert_ne!(a, c, "a different top-up stream must change the release");

        // target == base: zero residual variance, the top-up stream is
        // never touched, and the release equals the plain budgeted one on
        // the base stream.
        let d = mech
            .answer_with_topup(&x, base, base, &mut derive_rng(3, 0), &mut derive_rng(3, 7))
            .unwrap();
        let plain = mech.answer_budget(&x, base, &mut derive_rng(3, 0)).unwrap();
        assert_eq!(d, plain, "zero top-up must equal the plain base release");
    }

    #[test]
    fn topup_rejects_inverted_budgets_and_pure_strategies() {
        let (_, mech) = gaussian_mech(6, 10, 9);
        let x = [1.0; 10];
        let loose = Budget::approx(eps(4.0), 1e-6).unwrap();
        let tight = Budget::approx(eps(0.5), 1e-6).unwrap();
        // Base must be the weakest budget: asking to *remove* noise fails.
        assert!(mech
            .answer_with_topup(
                &x,
                tight,
                loose,
                &mut derive_rng(0, 0),
                &mut derive_rng(0, 1)
            )
            .is_err());

        let w = WRange
            .generate(6, 10, &mut StdRng::seed_from_u64(9))
            .unwrap();
        let laplace = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
        assert!(laplace
            .answer_with_topup(
                &x,
                loose,
                tight,
                &mut derive_rng(0, 0),
                &mut derive_rng(0, 1)
            )
            .is_err());
    }

    #[test]
    fn topup_variance_is_distributionally_calibrated() {
        // E‖ŷ − Wx‖² of a topped-up release must match the *target*
        // budget's analytic error — the member loses nothing to
        // coalescing.
        let (w, mech) = gaussian_mech(8, 12, 10);
        let x: Vec<f64> = (0..12).map(|i| ((i * 3) % 20) as f64).collect();
        let truth = w.answer(&x).unwrap();
        let base = Budget::approx(eps(2.0), 1e-5).unwrap();
        let tight = Budget::approx(eps(0.7), 1e-5).unwrap();

        let trials = 3000;
        let mut total = 0.0;
        for t in 0..trials {
            let got = mech
                .answer_with_topup(
                    &x,
                    base,
                    tight,
                    &mut derive_rng(21, 2 * t),
                    &mut derive_rng(21, 2 * t + 1),
                )
                .unwrap();
            total += got
                .iter()
                .zip(truth.iter())
                .map(|(g, y)| (g - y) * (g - y))
                .sum::<f64>();
        }
        let empirical = total / trials as f64;
        let analytic = mech.expected_error_budget(tight, Some(&x));
        let rel = (empirical - analytic).abs() / analytic;
        assert!(
            rel < 0.1,
            "empirical {empirical} vs analytic {analytic} (rel {rel})"
        );
    }
}
