//! End-to-end Gaussian-mode serving (ISSUE 8 tentpole).
//!
//! * A **cross-ε batch** slices bit-identically to a reconstruction run
//!   outside the server: the combined workload compiled under the same
//!   options, answered with the batch's base lane (`substream(index, 0)`)
//!   at the weakest member budget plus each member's top-up lane
//!   (`substream(index, k + 1)`).
//! * Each member's noise is calibrated to its **own** budget — verified
//!   distributionally over hundreds of coalesced batches.
//! * Flavor mismatches (pure ↔ approx) are refused synchronously with a
//!   typed error, δ-exhaustion refuses like ε-exhaustion, and the
//!   ε-fragmented mode (`coalesce_across_eps(false)`) restores the
//!   pure scheduler's ε-keyed batching for baseline comparisons.
//!
//! Determinism notes are the same as `coalescing.rs`: batches close on
//! the count cap or the shutdown flush, never a timer, and settlement
//! runs in submission order within a batch.

use lrm_core::engine::{CompileOptions, Engine, MechanismKind, NoiseFlavor};
use lrm_core::mechanism::Mechanism;
use lrm_dp::rng::{derive_rng, substream};
use lrm_dp::{Budget, Epsilon};
use lrm_linalg::operator::densification_count;
use lrm_server::{AdmissionError, QuerySpec, Server, ServerError};
use lrm_workload::{Attribute, Schema, Workload};
use std::time::Duration;

const SEED: u64 = 0x6a05_51a4;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn approx(e: f64, d: f64) -> Budget {
    Budget::approx(eps(e), d).unwrap()
}

fn schema() -> Schema {
    Schema::single(Attribute::new("v", 0.0, 32.0, 32).unwrap())
}

fn data() -> Vec<f64> {
    (0..32).map(|i| ((i * 13) % 97) as f64).collect()
}

/// A Gaussian server over the Laplace kind: under `ApproxDp` it compiles
/// to the Gaussian noise-on-data baseline ("GM"), whose strategy is the
/// workload itself — no iterative solver, so the outside-the-server
/// reconstruction is exactly reproducible.
fn gaussian_server(max_batch: usize) -> Server {
    Server::builder(schema(), data())
        .mechanism(MechanismKind::Laplace)
        .compile_options(CompileOptions::with_flavor(NoiseFlavor::ApproxDp))
        .max_batch(max_batch)
        .coalesce_window(Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap()
}

#[test]
fn cross_eps_slices_are_bit_identical_to_base_plus_topup_reconstruction() {
    let densify_before = densification_count();
    let server = gaussian_server(100);
    server.register_tenant_budget("a", approx(4.0, 1e-5));
    server.register_tenant_budget("b", approx(4.0, 1e-5));

    let spec_a = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 16.0), (8.0, 24.0)],
    };
    let spec_b = QuerySpec::Prefixes {
        attr: 0,
        thresholds: vec![4.0, 32.0],
    };
    // Different ε, same δ: a pure scheduler would fragment these; the
    // δ-class key coalesces them into one batch (index 0).
    let loose = approx(0.5, 1e-6);
    let strict = approx(0.25, 1e-6);

    let (tickets, report) = server.serve(|client| {
        let ta = client.submit_budget("a", &spec_a, loose).unwrap();
        let tb = client.submit_budget("b", &spec_b, strict).unwrap();
        vec![ta, tb]
    });
    let releases: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(report.metrics.batches, 1);
    assert_eq!(report.metrics.coalesced_batches, 1);
    assert_eq!(report.metrics.gaussian_batches, 1);
    assert_eq!(report.metrics.cross_eps_batches, 1);
    assert_eq!(report.metrics.laplace_batches, 0);
    assert!(releases.iter().all(|r| r.coalesced() && r.batch_size == 2));
    assert_eq!(releases[0].batch_index, 0);
    assert_eq!(releases[0].mechanism, "GM");

    // Reconstruct both slices outside the server: the concatenated
    // workload under the same options, the base lane at the *weakest*
    // member budget (largest ε ⇒ smallest base σ), member k's top-up
    // from lane k + 1.
    let combined = Workload::from_intervals(
        32,
        vec![(0, 15), (8, 23), (0, 3), (0, 31)], // spec_a rows, then spec_b rows
    )
    .unwrap();
    let engine = Engine::default();
    let compiled = engine
        .compile(
            &combined,
            MechanismKind::Laplace,
            &CompileOptions::with_flavor(NoiseFlavor::ApproxDp),
        )
        .unwrap();
    for (k, (release, member)) in releases.iter().zip([loose, strict]).enumerate() {
        let full = compiled
            .answer_with_topup(
                &data(),
                loose, // base = the batch's largest-ε member
                member,
                &mut derive_rng(SEED, substream(0, 0)),
                &mut derive_rng(SEED, substream(0, k as u64 + 1)),
            )
            .unwrap();
        let span = if k == 0 { 0..2 } else { 2..4 };
        assert_eq!(release.answers, full[span].to_vec());
    }

    // Per-member (ε, δ) accounting: each release paid its own budget.
    assert!((releases[0].eps_spent.value() - 0.5).abs() < 1e-15);
    assert!((releases[1].eps_spent.value() - 0.25).abs() < 1e-15);
    assert!((releases[0].eps_remaining - 3.5).abs() < 1e-12);
    assert!((releases[1].eps_remaining - 3.75).abs() < 1e-12);
    assert!((releases[0].delta_spent - 1e-6).abs() < 1e-18);
    assert!((releases[0].delta_remaining - (1e-5 - 1e-6)).abs() < 1e-15);
    assert!((releases[1].delta_remaining - (1e-5 - 1e-6)).abs() < 1e-15);
    // The stricter member carries the worse (larger) error bound.
    assert!(releases[1].expected_avg_error > releases[0].expected_avg_error);

    // The Gaussian pipeline stayed structured: the server's compiles and
    // this thread's spec preparation and reconstruction densified nothing.
    assert_eq!(report.metrics.densifications, 0);
    assert_eq!(densification_count() - densify_before, 0);
}

#[test]
fn each_member_of_a_cross_eps_batch_gets_its_own_calibration() {
    // Distributional check that the top-up construction really yields
    // each member's own N(0, σ²(ε_k, δ)) marginal: serve many coalesced
    // (ε = 0.5, ε = 0.25) pairs of `Total` queries and compare the
    // sample variance of each member's error against the closed-form
    // bound the release itself reports. Deterministic under the pinned
    // seed.
    const ROUNDS: usize = 300;
    let server = gaussian_server(2);
    server.register_tenant_budget("lo", approx(200.0, 1e-2));
    server.register_tenant_budget("hi", approx(200.0, 1e-2));
    let spec = QuerySpec::Total;
    let loose = approx(0.5, 1e-6);
    let strict = approx(0.25, 1e-6);
    let exact: f64 = data().iter().sum();

    let (pairs, report) = server.serve(|client| {
        let mut pairs = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            // Submit the pair, then wait both: max_batch = 2 closes each
            // pair as its own cross-ε batch before the next is submitted.
            let tl = client.submit_budget("lo", &spec, loose).unwrap();
            let ts = client.submit_budget("hi", &spec, strict).unwrap();
            pairs.push((tl.wait().unwrap(), ts.wait().unwrap()));
        }
        pairs
    });
    assert_eq!(report.metrics.batches as usize, ROUNDS);
    assert_eq!(report.metrics.cross_eps_batches as usize, ROUNDS);
    assert!(pairs
        .iter()
        .all(|(l, s)| l.batch_size == 2 && s.batch_size == 2));

    let check = |label: &str, errors: &[f64], expected_var: f64| {
        let n = errors.len() as f64;
        let mean = errors.iter().sum::<f64>() / n;
        let var = errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / (n - 1.0);
        assert!(
            (var / expected_var - 1.0).abs() < 0.25,
            "{label}: sample variance {var:.3} vs calibrated {expected_var:.3}"
        );
        // Unbiased: the mean error is small next to the noise scale.
        assert!(
            mean.abs() < 4.0 * (expected_var / n).sqrt(),
            "{label}: mean error {mean:.3} too far from zero"
        );
    };
    // `Total` is a single query, so the per-release average-error bound
    // *is* the variance of its one answer.
    let loose_errors: Vec<f64> = pairs.iter().map(|(l, _)| l.answers[0] - exact).collect();
    let strict_errors: Vec<f64> = pairs.iter().map(|(_, s)| s.answers[0] - exact).collect();
    check("loose member", &loose_errors, pairs[0].0.expected_avg_error);
    check(
        "strict member",
        &strict_errors,
        pairs[0].1.expected_avg_error,
    );
    // And the strict member really is noisier.
    assert!(pairs[0].1.expected_avg_error > pairs[0].0.expected_avg_error);
}

#[test]
fn noise_model_mismatches_are_refused_synchronously() {
    // Pure submission against a Gaussian server.
    let gauss = gaussian_server(2);
    gauss.register_tenant_budget("a", approx(1.0, 1e-5));
    let (err, report) = gauss.serve(|client| {
        client
            .submit("a", &QuerySpec::Total, eps(0.5))
            .err()
            .unwrap()
    });
    assert!(matches!(
        err,
        ServerError::NoiseModel {
            flavor: NoiseFlavor::ApproxDp,
            delta,
        } if delta == 0.0
    ));
    // Nothing was enqueued, answered, or debited.
    assert_eq!(report.metrics.submitted, 0);
    assert_eq!(report.tenants[0].spent, 0.0);

    // Approx submission against a pure server.
    let pure = Server::builder(schema(), data())
        .seed(SEED)
        .build()
        .unwrap();
    pure.register_tenant("a", eps(1.0));
    let (err, report) = pure.serve(|client| {
        client
            .submit_budget("a", &QuerySpec::Total, approx(0.5, 1e-6))
            .err()
            .unwrap()
    });
    assert!(matches!(
        err,
        ServerError::NoiseModel {
            flavor: NoiseFlavor::PureDp,
            delta,
        } if delta == 1e-6
    ));
    assert_eq!(report.metrics.submitted, 0);
}

#[test]
fn approx_flavor_requires_a_gaussian_calibrated_mechanism() {
    // Kinds without an L2 calibration are refused at build, not at the
    // first request.
    let err = Server::builder(schema(), data())
        .mechanism(MechanismKind::Wavelet)
        .compile_options(CompileOptions::with_flavor(NoiseFlavor::ApproxDp))
        .build()
        .err()
        .unwrap();
    assert!(matches!(err, ServerError::Core(_)));
}

#[test]
fn fragmented_mode_restores_eps_keyed_batching() {
    let trace = |server: &Server| {
        server.register_tenant_budget("a", approx(4.0, 1e-4));
        let spec = QuerySpec::Total;
        let (tickets, report) = server.serve(|client| {
            vec![
                client.submit_budget("a", &spec, approx(0.5, 1e-6)).unwrap(),
                client
                    .submit_budget("a", &spec, approx(0.25, 1e-6))
                    .unwrap(),
                client.submit_budget("a", &spec, approx(0.5, 1e-6)).unwrap(),
            ]
        });
        let releases: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        (releases, report)
    };

    // Default: one δ-class batch holds all three despite two distinct ε.
    // (Rank-close is off: three identical `Total` rows stop growing the
    // estimated rank immediately, and this test is about keying, not the
    // rank rule.)
    let coalescing = Server::builder(schema(), data())
        .mechanism(MechanismKind::Laplace)
        .compile_options(CompileOptions::with_flavor(NoiseFlavor::ApproxDp))
        .rank_close(false)
        .max_batch(4)
        .coalesce_window(Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap();
    let (releases, report) = trace(&coalescing);
    assert_eq!(report.metrics.batches, 1);
    assert_eq!(report.metrics.cross_eps_batches, 1);
    assert!(releases.iter().all(|r| r.batch_size == 3));

    // ε-fragmented baseline: the pure scheduler's keying, two batches.
    let fragmented = Server::builder(schema(), data())
        .mechanism(MechanismKind::Laplace)
        .compile_options(CompileOptions::with_flavor(NoiseFlavor::ApproxDp))
        .coalesce_across_eps(false)
        .rank_close(false)
        .max_batch(4)
        .coalesce_window(Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap();
    let (releases, report) = trace(&fragmented);
    assert_eq!(report.metrics.batches, 2);
    assert_eq!(report.metrics.cross_eps_batches, 0);
    assert_eq!(report.metrics.gaussian_batches, 2);
    assert_eq!(releases[0].batch_size, 2); // the two ε = 0.5
    assert_eq!(releases[1].batch_size, 1); // the lone ε = 0.25
}

#[test]
fn distinct_deltas_never_share_a_batch() {
    // Cross-ε coalescing is within a δ-class only: the base-plus-top-up
    // construction needs one shared δ.
    let server = gaussian_server(4);
    server.register_tenant_budget("a", approx(4.0, 1e-4));
    let spec = QuerySpec::Total;
    let (tickets, report) = server.serve(|client| {
        vec![
            client.submit_budget("a", &spec, approx(0.5, 1e-6)).unwrap(),
            client.submit_budget("a", &spec, approx(0.5, 1e-7)).unwrap(),
        ]
    });
    let releases: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(report.metrics.batches, 2);
    assert_eq!(report.metrics.cross_eps_batches, 0);
    assert!(releases.iter().all(|r| r.batch_size == 1));
}

#[test]
fn a_refused_member_of_a_cross_eps_batch_is_withheld() {
    // Both members pass the advisory admission check, the batch answers,
    // but only the first settlement debit fits the tenant's ε — the
    // second slice is withheld with the sequential ledger's typed error,
    // and no δ is charged for it.
    let server = gaussian_server(2);
    server.register_tenant_budget("tight", approx(0.5, 1e-4));
    let spec = QuerySpec::Total;

    let (tickets, report) = server.serve(|client| {
        vec![
            client
                .submit_budget("tight", &spec, approx(0.5, 1e-6))
                .unwrap(),
            client
                .submit_budget("tight", &spec, approx(0.25, 1e-6))
                .unwrap(),
        ]
    });
    let mut outcomes = tickets.into_iter().map(|t| t.wait());
    let first = outcomes.next().unwrap().unwrap();
    assert!((first.eps_remaining - 0.0).abs() < 1e-12);
    assert!((first.delta_spent - 1e-6).abs() < 1e-18);
    assert!(matches!(
        outcomes.next().unwrap(),
        Err(ServerError::Admission(AdmissionError::Budget(_)))
    ));
    assert_eq!(report.metrics.answered, 1);
    assert_eq!(report.metrics.rejected_settlement, 1);
    assert_eq!(report.metrics.cross_eps_batches, 1);
    assert_eq!(report.tenants[0].releases, 1);
    assert!((report.tenants[0].spent - 0.5).abs() < 1e-12);
    assert!((report.tenants[0].delta_spent - 1e-6).abs() < 1e-18);
}

#[test]
fn delta_exhaustion_refuses_even_with_ample_eps() {
    // δ is a first-class budget column: two releases fit the tenant's
    // 2e-6, the third is refused at admission although 99+ ε remains.
    let server = gaussian_server(1);
    server.register_tenant_budget("d", approx(100.0, 2e-6));
    let spec = QuerySpec::Total;
    let request = approx(0.5, 1e-6);

    let (outcomes, report) = server.serve(|client| {
        (0..3)
            .map(|_| client.submit_budget("d", &spec, request).unwrap().wait())
            .collect::<Vec<_>>()
    });
    assert!(outcomes[0].is_ok());
    assert!(outcomes[1].is_ok());
    assert!(matches!(
        &outcomes[2],
        Err(ServerError::Admission(AdmissionError::Budget(_)))
    ));
    assert_eq!(report.metrics.answered, 2);
    assert_eq!(report.metrics.rejected_admission, 1);
    assert!((report.tenants[0].delta_spent - 2e-6).abs() < 1e-18);
    assert!((report.tenants[0].spent - 1.0).abs() < 1e-12);
}

#[test]
fn gaussian_noise_streams_never_repeat_across_batches() {
    // Same workload, same budget, different batch index ⇒ different
    // substream lanes ⇒ different noise.
    let server = gaussian_server(1);
    server.register_tenant_budget("a", approx(4.0, 1e-4));
    let spec = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 16.0), (16.0, 32.0)],
    };
    let request = approx(0.5, 1e-6);
    let (first, _) =
        server.serve(|client| client.submit_budget("a", &spec, request).unwrap().wait());
    let (second, _) =
        server.serve(|client| client.submit_budget("a", &spec, request).unwrap().wait());
    let (first, second) = (first.unwrap(), second.unwrap());
    assert_eq!(first.batch_index, 0);
    assert_eq!(second.batch_index, 1);
    assert_ne!(first.answers, second.answers);
}
