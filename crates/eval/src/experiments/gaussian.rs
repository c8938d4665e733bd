//! Cross-ε coalescing under approximate DP: the δ-class scheduler
//! against an ε-keyed one on the same mixed-ε Gaussian trace
//! (`BENCH_8.json`).
//!
//! The pure serving bench ([`crate::experiments::serving`]) measures
//! coalescing against *per-query* serving; the question here is sharper:
//! given that you coalesce, what does the Gaussian mechanism's closure
//! under addition buy you? A Laplace scheduler must key batches on ε —
//! one noise scale per data pass — so a mixed-ε trace fragments its
//! windows. A Gaussian scheduler keys on the δ-class only: one base draw
//! calibrated at the batch's largest ε serves every member, and stricter
//! members add an independent variance top-up. Both runs here use the
//! same window, the same batch cap, the same (ε, δ)-ledgers, and the
//! same mixed-ε trace; the only difference is
//! [`coalesce_across_eps`](lrm_server::server::ServerBuilder::coalesce_across_eps).
//!
//! The acceptance gate: strictly higher throughput for cross-ε
//! coalescing, at least one cross-ε batch (the fragmented run must have
//! none), zero ε *or* δ over-spend anywhere, zero densifications.

use crate::experiments::serving::{run_serving_bench, ServingConfig, ServingReport};

/// Runs the mixed-ε comparison: the same Gaussian trace through the
/// cross-ε coalescing server and the ε-fragmented one. The report is a
/// [`ServingReport`] whose reference run is
/// [`ServingMode::Fragmented`](crate::experiments::serving::ServingMode::Fragmented).
pub fn run_gaussian_bench(cfg: &ServingConfig) -> ServingReport {
    assert!(
        cfg.is_gaussian(),
        "the gaussian bench needs noise_delta > 0"
    );
    assert!(
        cfg.eps_levels.len() > 1,
        "a single-ε trace cannot separate cross-ε coalescing from ε-keying"
    );
    run_serving_bench(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny() -> ServingConfig {
        ServingConfig {
            buckets: 64,
            cuts: 8,
            tenants: 2,
            clients: 2,
            requests_per_client: 8,
            burst: 8,
            spec_queries: 4,
            max_batch: 4,
            workers: 2,
            window: Duration::from_millis(20),
            tenant_budget: 1.6,
            noise_delta: 1e-6,
            tenant_delta: 1e-4,
            eps_levels: vec![0.1, 0.25],
            quiet: true,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn gaussian_bench_runs_and_holds_its_invariants() {
        let report = run_gaussian_bench(&tiny());

        // The cross-ε run actually mixed ε inside batches; the
        // fragmented run never did.
        assert!(report.coalesced.cross_eps_batches > 0);
        assert_eq!(report.baseline.cross_eps_batches, 0);
        // ε-keying can only fragment: never fewer batches.
        assert!(report.baseline.batches >= report.coalesced.batches);
        // Privacy invariants hold in both runs.
        assert!(!report.coalesced.overspend && !report.baseline.overspend);
        assert!(!report.coalesced.delta_overspend && !report.baseline.delta_overspend);
        assert_eq!(report.coalesced.densifications, 0);
        assert_eq!(report.baseline.densifications, 0);
        // Both runs released real answers with finite error.
        assert!(report.coalesced.answered > 0);
        assert!(report.baseline.answered > 0);
        assert!(report.coalesced.mean_squared_error.is_finite());
        assert!(report.coalesced.mean_squared_error > 0.0);

        let json = report.to_json("test");
        assert!(json.contains("\"cross_eps_batches\""));
        assert!(json.contains("\"delta_overspend\""));
        assert!(json.contains("\"mode\":\"coalescing\""));
        assert!(json.contains("\"mode\":\"eps-fragmented\""));
    }

    #[test]
    #[should_panic(expected = "noise_delta")]
    fn pure_configs_are_rejected() {
        let cfg = ServingConfig {
            noise_delta: 0.0,
            ..tiny()
        };
        run_gaussian_bench(&cfg);
    }
}
