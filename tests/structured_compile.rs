//! Acceptance test for the structure-aware operator refactor: a prefix
//! workload at n = 4096 compiles end-to-end through
//! `Engine::compile(MechanismKind::Lrm)` **without ever materializing the
//! dense `W`**, asserted via the operator-level densification counter.
//! The counter is per-thread and the compile runs on the test's thread,
//! so a before/after difference sees exactly this test's work.

use lrm::prelude::*;
use lrm::workload::generators::{WPrefix, WorkloadGenerator};
use lrm_linalg::operator::densification_count;
use lrm_opt::{AlmSchedule, NesterovConfig};

#[test]
fn prefix_workload_at_n_4096_compiles_without_densifying() {
    let mut rng = lrm::dp::rng::derive_rng(7, 0);
    let n = 4096;
    let m = 64;
    let w = WPrefix.generate(m, n, &mut rng).unwrap();
    assert_eq!(w.structure(), WorkloadStructure::Intervals);

    // Lean fixed-iteration budgets: the point is the end-to-end code path
    // (fingerprint → SVD → Algorithm 1 → cache admission), not solver
    // convergence, and the test must stay fast at `opt-level = 2`.
    let lean_config = || DecompositionConfig {
        target_rank: TargetRank::RatioOfRank(1.2),
        gamma: 0.0,
        schedule: AlmSchedule::default(),
        max_outer_iters: 4,
        inner_alternations: 2,
        inner_tol: 0.0,
        nesterov: NesterovConfig {
            max_iters: 8,
            tol_per_entry: 0.0,
            ..NesterovConfig::default()
        },
        polish_iters: 0,
    };

    let before = densification_count();
    let engine = Engine::builder().build();
    let compiled = engine
        .compile(
            &w,
            MechanismKind::Lrm,
            &CompileOptions::with_decomposition(lean_config()),
        )
        .expect("structured LRM compile succeeds");
    assert_eq!(
        densification_count() - before,
        0,
        "the structured compile pipeline must never densify W"
    );
    assert_eq!(compiled.meta().densifications, 0);

    // The compile is real: right shape, usable strategy, sane metadata.
    let meta = compiled.meta();
    assert_eq!(meta.kind, MechanismKind::Lrm);
    assert!(meta.strategy_rank.is_some());
    assert!(meta.expected_avg_error.is_finite() && meta.expected_avg_error > 0.0);
    assert_eq!(compiled.num_queries(), m);
    assert_eq!(compiled.domain_size(), n);

    // A second compile of the same workload is a pure cache hit — and the
    // row-streamed confirmation must not densify either.
    let hit = engine
        .compile(
            &w,
            MechanismKind::Lrm,
            &CompileOptions::with_decomposition(lean_config()),
        )
        .unwrap();
    assert_eq!(hit.meta().cache, CacheOutcome::MemoryHit);
    assert_eq!(
        densification_count() - before,
        0,
        "cache confirmation must stream rows, not densify"
    );

    // Answering goes through the decomposition factors (dense B, L — not
    // W), so it must not densify either; sanity-check accuracy at huge ε.
    let x: Vec<f64> = (0..n).map(|i| ((i * 13) % 97) as f64).collect();
    let truth = w.answer(&x).unwrap();
    let eps = Epsilon::new(1e9).unwrap();
    let got = compiled
        .answer(&x, eps, &mut lrm::dp::rng::derive_rng(1, 1))
        .unwrap();
    assert_eq!(got.len(), m);
    // With fixed lean budgets the strategy may carry a structural
    // residual; the answers must still be in the right ballpark (the
    // exact quality gate lives in the tier-1 decomposition tests).
    let truth_norm = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
    let err_norm = got
        .iter()
        .zip(truth.iter())
        .map(|(g, t)| (g - t) * (g - t))
        .sum::<f64>()
        .sqrt();
    assert!(
        err_norm <= 0.2 * truth_norm,
        "relative answer error {} too large",
        err_norm / truth_norm
    );
    assert_eq!(densification_count() - before, 0);
}
