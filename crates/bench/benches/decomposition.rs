//! Benchmarks of the workload decomposition (Algorithm 1) — the quantity
//! behind the time curves of the paper's Figs. 2 and 3, plus the DESIGN.md
//! ablations (γ and r sensitivity of solve time, inner-solver budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lrm_core::decomposition::{DecompositionConfig, TargetRank, WorkloadDecomposition};
use lrm_dp::SensitivityNorm;
use lrm_workload::generators::{WRange, WRelated, WorkloadGenerator};
use lrm_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn wrange(m: usize, n: usize) -> Workload {
    WRange
        .generate(m, n, &mut StdRng::seed_from_u64(1))
        .unwrap()
}

fn wrelated(m: usize, n: usize, s: usize) -> Workload {
    WRelated { base_queries: s }
        .generate(m, n, &mut StdRng::seed_from_u64(2))
        .unwrap()
}

/// Baseline decomposition cost by size (Fig. 2/3 time axis).
fn bench_decompose_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose/size");
    group.sample_size(10);
    for &(m, n) in &[(16usize, 32usize), (32, 64)] {
        let w = wrange(m, n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}")),
            &w,
            |bench, w| {
                bench.iter(|| {
                    WorkloadDecomposition::compute(
                        black_box(w),
                        &DecompositionConfig::default(),
                        SensitivityNorm::L1,
                        None,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Fig. 2 ablation: γ's effect on solve time (larger γ → earlier stop).
fn bench_gamma(c: &mut Criterion) {
    let w = wrange(16, 32);
    let mut group = c.benchmark_group("decompose/gamma");
    group.sample_size(10);
    for &gamma in &[1e-4, 1e-2, 1.0] {
        let cfg = DecompositionConfig {
            gamma,
            ..DecompositionConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{gamma:.0e}")),
            &cfg,
            |bench, cfg| {
                bench.iter(|| {
                    WorkloadDecomposition::compute(black_box(&w), cfg, SensitivityNorm::L1, None)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Fig. 3 ablation: r's effect on solve time (search space grows with r).
fn bench_rank_ratio(c: &mut Criterion) {
    let w = wrelated(24, 48, 6);
    let mut group = c.benchmark_group("decompose/rank_ratio");
    group.sample_size(10);
    for &ratio in &[0.8, 1.2, 2.5] {
        let cfg = DecompositionConfig {
            target_rank: TargetRank::RatioOfRank(ratio),
            ..DecompositionConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ratio}")),
            &cfg,
            |bench, cfg| {
                bench.iter(|| {
                    WorkloadDecomposition::compute(black_box(&w), cfg, SensitivityNorm::L1, None)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// DESIGN.md ablation: the accelerated inner solver (Algorithm 2) vs a
/// deliberately starved budget (effectively plain projected-gradient).
fn bench_inner_solver(c: &mut Criterion) {
    let w = wrange(16, 32);
    let mut group = c.benchmark_group("decompose/inner_budget");
    group.sample_size(10);
    for &(label, iters) in &[("nesterov40", 40usize), ("nesterov5", 5)] {
        let cfg = DecompositionConfig {
            nesterov: lrm_opt::NesterovConfig {
                max_iters: iters,
                ..lrm_opt::NesterovConfig::default()
            },
            ..DecompositionConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |bench, cfg| {
            bench.iter(|| {
                WorkloadDecomposition::compute(black_box(&w), cfg, SensitivityNorm::L1, None)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decompose_sizes,
    bench_gamma,
    bench_rank_ratio,
    bench_inner_solver
);
criterion_main!(benches);
