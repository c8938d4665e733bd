//! Edge-case and failure-injection tests for the mechanism layer.

use lrm_core::baselines::{
    HierarchicalMechanism, MatrixMechanism, MatrixMechanismConfig, NoiseOnData, NoiseOnResults,
    WaveletMechanism,
};
use lrm_core::decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
use lrm_core::{LowRankMechanism, Mechanism};
use lrm_dp::rng::derive_rng;
use lrm_dp::{Epsilon, SensitivityNorm};
use lrm_linalg::Matrix;
use lrm_workload::Workload;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

#[test]
fn single_query_single_count() {
    let w = Workload::from_rows(&[&[2.5]]).unwrap();
    let x = [4.0];
    let e = eps(1.0);
    let mut rng = derive_rng(1, 1);
    for mech in [
        Box::new(NoiseOnData::compile(&w)) as Box<dyn Mechanism>,
        Box::new(NoiseOnResults::compile(&w)),
        Box::new(WaveletMechanism::compile(&w)),
        Box::new(HierarchicalMechanism::compile(&w)),
        Box::new(LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap()),
    ] {
        let y = mech.answer(&x, e, &mut rng).unwrap();
        assert_eq!(y.len(), 1, "{}", mech.name());
        assert!(y[0].is_finite());
        assert!(mech.expected_error(e, Some(&x)) > 0.0, "{}", mech.name());
    }
}

#[test]
fn zero_workload_answers_zero_noise() {
    // A zero workload has zero sensitivity everywhere: answers are exact.
    let w = Workload::new(Matrix::zeros(3, 4)).unwrap();
    let x = [1.0, 2.0, 3.0, 4.0];
    let e = eps(0.1);
    let lrm = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
    let y = lrm.answer(&x, e, &mut derive_rng(2, 2)).unwrap();
    assert_eq!(y, vec![0.0; 3]);
    assert_eq!(lrm.expected_error(e, Some(&x)), 0.0);

    let nor = NoiseOnResults::compile(&w);
    let y2 = nor.answer(&x, e, &mut derive_rng(2, 3)).unwrap();
    assert_eq!(y2, vec![0.0; 3]);
}

#[test]
fn rank_one_target_on_rank_one_workload() {
    // W is rank one; r = 1 must suffice for an (almost) exact fit.
    let w = Workload::new(Matrix::from_fn(6, 9, |i, j| {
        (i as f64 + 1.0) * 0.5 * ((j % 3) as f64 - 1.0)
    }))
    .unwrap();
    assert_eq!(w.rank(), 1);
    let cfg = DecompositionConfig {
        target_rank: TargetRank::Exact(1),
        ..DecompositionConfig::default()
    };
    let d = WorkloadDecomposition::compute(&w, &cfg, SensitivityNorm::L1, None).unwrap();
    assert!(
        d.stats().residual <= 0.011,
        "residual {}",
        d.stats().residual
    );
    assert!(d.sensitivity() <= 1.0 + 1e-9);
}

#[test]
fn oversized_rank_is_harmless() {
    // r far above min(m, n): wasteful but must stay correct & feasible.
    let w = Workload::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap();
    let cfg = DecompositionConfig {
        target_rank: TargetRank::Exact(9),
        ..DecompositionConfig::default()
    };
    let d = WorkloadDecomposition::compute(&w, &cfg, SensitivityNorm::L1, None).unwrap();
    assert_eq!(d.rank(), 9);
    assert!(d.sensitivity() <= 1.0 + 1e-9);
    assert!(d.stats().residual <= 0.011);
}

#[test]
fn extreme_epsilons() {
    let w = Workload::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]).unwrap();
    let x = [10.0, 20.0];
    let lrm = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
    // Very large ε → near-exact answers.
    let y = lrm.answer(&x, eps(1e12), &mut derive_rng(3, 1)).unwrap();
    assert!((y[0] - 30.0).abs() < 1e-3, "y0 = {}", y[0]);
    // Very small ε → still finite, just enormous noise.
    let y2 = lrm.answer(&x, eps(1e-9), &mut derive_rng(3, 2)).unwrap();
    assert!(y2.iter().all(|v| v.is_finite()));
}

#[test]
fn mm_on_identity_workload_is_near_naive() {
    // For W = I the optimal strategy *is* (scaled) identity; MM should
    // find something close and not be (much) worse than NOD.
    let w = Workload::new(Matrix::identity(6)).unwrap();
    let mm = MatrixMechanism::compile(&w, &MatrixMechanismConfig::default()).unwrap();
    let nod = NoiseOnData::compile(&w);
    let e = eps(1.0);
    let ratio = mm.expected_error(e, None) / nod.expected_error(e, None);
    assert!(
        (0.8..3.0).contains(&ratio),
        "MM/NOD ratio {ratio} out of the expected band"
    );
}

#[test]
fn wavelet_domain_of_one() {
    let w = Workload::from_rows(&[&[3.0]]).unwrap();
    let wm = WaveletMechanism::compile(&w);
    assert_eq!(wm.padded_domain(), 1);
    assert_eq!(wm.generalized_sensitivity(), 1.0);
    let y = wm.answer(&[7.0], eps(1.0), &mut derive_rng(4, 1)).unwrap();
    assert!(y[0].is_finite());
}

#[test]
fn hierarchical_non_power_of_two_padding() {
    // n = 11 pads to 16; answers must ignore the padding exactly.
    let w = Workload::from_rows(&[&[1.0; 11]]).unwrap();
    let hm = HierarchicalMechanism::compile(&w);
    assert_eq!(hm.padded_domain(), 16);
    let x: Vec<f64> = (0..11).map(|i| i as f64).collect();
    let truth: f64 = x.iter().sum();
    // With huge ε the consistency estimate must reproduce the exact sum.
    let y = hm.answer(&x, eps(1e12), &mut derive_rng(5, 1)).unwrap();
    assert!((y[0] - truth).abs() < 1e-3, "y = {} vs {}", y[0], truth);
}

#[test]
fn decomposition_rejects_pathological_configs() {
    let w = Workload::from_rows(&[&[1.0, 0.0]]).unwrap();
    for cfg in [
        DecompositionConfig {
            gamma: -1.0,
            ..DecompositionConfig::default()
        },
        DecompositionConfig {
            gamma: f64::INFINITY,
            ..DecompositionConfig::default()
        },
        DecompositionConfig {
            inner_alternations: 0,
            ..DecompositionConfig::default()
        },
    ] {
        assert!(WorkloadDecomposition::compute(&w, &cfg, SensitivityNorm::L1, None).is_err());
    }
}

#[test]
fn negative_and_fractional_counts_are_fine() {
    // The mechanism layer treats x as an arbitrary real vector (the paper
    // models records as real numbers, Section 3).
    let w = Workload::from_rows(&[&[0.5, -1.5, 2.0]]).unwrap();
    let x = [-3.25, 0.75, 1e-3];
    let truth = w.answer(&x).unwrap()[0];
    let lrm = LowRankMechanism::compile(&w, &DecompositionConfig::default()).unwrap();
    let y = lrm.answer(&x, eps(1e9), &mut derive_rng(6, 1)).unwrap();
    assert!((y[0] - truth).abs() < 1e-2);
}

#[test]
fn structural_error_zero_when_converged() {
    let w = Workload::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]]).unwrap();
    let d = WorkloadDecomposition::compute(
        &w,
        &DecompositionConfig::default(),
        SensitivityNorm::L1,
        None,
    )
    .unwrap();
    let x = [100.0, 200.0, 300.0];
    let s = d.structural_error(&x).unwrap();
    // Residual is polished to ~1e-3·‖W‖ scale; with counts ~100s the
    // structural term stays tiny relative to the noise term at ε = 1.
    assert!(
        s < 0.05 * d.expected_noise_error(1.0),
        "structural {s} vs noise {}",
        d.expected_noise_error(1.0)
    );
}
