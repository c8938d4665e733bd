//! Layer probes: public kernels of `lrm_linalg`, `lrm_opt`, `lrm_dp` and
//! `lrm_server::spec`, timed from outside at the shapes the workload
//! uses, each call inside a `bench.*` span.

use crate::report::{median, Outcome};
use crate::RunArgs;
use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, DurableLedger, Epsilon, Laplace, SharedLedger};
use lrm_linalg::decomp::svd::Svd;
use lrm_linalg::{ops, Matrix};
use lrm_obs::Memory;
use lrm_server::QuerySpec;
use lrm_workload::generators::{standard_normal, WRangeCoarse, WorkloadGenerator};
use lrm_workload::{Schema, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs `f` inside span `name` and returns its wall time in seconds.
fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> f64 {
    let _span = lrm_obs::span!(name);
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Median seconds per call of `f` over samples of equal call counts,
/// sampling until `budget` seconds have been spent (at least three
/// samples). Calls per sample double until a sample takes 100 µs, which
/// keeps the span count of fast kernels small.
fn per_call(name: &'static str, budget: f64, mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    let mut batch = |calls: u32| timed(name, || (0..calls).for_each(|_| f()));
    while calls < 1 << 20 && batch(calls) < 1e-4 {
        calls *= 2;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget {
        samples.push(batch(calls) / f64::from(calls));
    }
    median(&samples)
}

fn gaussian(rows: usize, cols: usize, seed: u64, stream: u64) -> Matrix {
    let mut rng = derive_rng(seed, stream);
    Matrix::from_fn(rows, cols, |_, _| standard_normal(&mut rng))
}

/// The solver's inner dimension for a workload: r = ⌈1.2·rank⌉.
fn solver_rank(w: &Workload) -> usize {
    ((1.2 * w.rank() as f64).ceil() as usize).max(1)
}

/// GEMM, SVD, interval-operator, projection and ledger/noise probes.
pub fn run_all(out: &mut Outcome, workloads: &[&Workload], args: &RunArgs) {
    let budget = if args.tiny { 0.002 } else { 0.02 };
    let seed = args.seed;

    // GEMM at the solver's shapes: BᵀB·L (r×r×n) and B·L (m×r×n).
    let mut gflops = Vec::new();
    let mut l1_us = Vec::new();
    let mut l2_us = Vec::new();
    let mut svd_ms = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let (m, n, r) = (w.num_queries(), w.domain_size(), solver_rank(w));
        let l = gaussian(r, n, seed, 0x9e_0000 + i as u64);
        for rows in [r, m] {
            let a = gaussian(rows, r, seed, 0x9f_0000 + i as u64);
            let secs = per_call("bench.linalg.gemm", budget, || {
                black_box(ops::matmul(&a, &l).expect("shapes agree"));
            });
            gflops.push(2.0 * (rows * r * n) as f64 / secs / 1e9);
        }
        // Column projections of an r×n L onto the unit L1 / L2 balls.
        let secs = per_call("bench.opt.l1_project", budget, || {
            let mut x = l.clone();
            black_box(lrm_opt::project_columns_l1(&mut x, 1.0));
        });
        l1_us.push(secs * 1e6);
        let secs = per_call("bench.opt.l2_project", budget, || {
            let mut x = l.clone();
            black_box(lrm_opt::project_columns_l2(&mut x, 1.0));
        });
        l2_us.push(secs * 1e6);
        let secs = timed("bench.linalg.svd", || {
            Svd::compute_op(w.op().as_ref()).expect("finite workload")
        });
        svd_ms.push(secs * 1e3);
    }
    let solver = median(&gflops);
    let size = if args.tiny { 128 } else { 512 };
    let (a, b) = (
        gaussian(size, size, seed, 0xa0),
        gaussian(size, size, seed, 0xa1),
    );
    let peak_secs = per_call("bench.linalg.gemm_peak", 0.0, || {
        black_box(ops::matmul(&a, &b).expect("square shapes"));
    });
    let peak = 2.0 * (size * size * size) as f64 / peak_secs / 1e9;
    out.metric("linalg.gemm_solver_gflops", solver, "GFLOP/s");
    out.metric("linalg.gemm_peak_gflops", peak, "GFLOP/s");
    out.metric("linalg.gemm_solver_frac", solver / peak, "ratio");
    out.metric("linalg.svd_ms", median(&svd_ms), "ms");

    // Bᵀ·W through the interval operator at n = 1024 (512 coarse ranges,
    // r = ⌈1.2·32⌉ for its 32 cuts).
    let (m, n) = if args.tiny { (64, 128) } else { (512, 1024) };
    let op = WRangeCoarse { cuts: 32 }
        .generate(m, n, &mut derive_rng(seed, 0xa2))
        .expect("valid shape");
    let bmat = gaussian(m, 39, seed, 0xa3);
    let secs = per_call("bench.linalg.interval_apply", budget, || {
        black_box(op.op().tr_mul(&bmat));
    });
    out.metric("linalg.interval_apply_us", secs * 1e6, "us");
    out.metric("opt.l1_project_us", median(&l1_us), "us");
    out.metric("opt.l2_project_us", median(&l2_us), "us");

    // Ledger reserve + settle pairs and Laplace draws.
    let eps = Epsilon::new(0.1).expect("positive");
    let shared = SharedLedger::new(Epsilon::new(1e12).expect("positive"));
    let block = 1000;
    let secs = per_call("bench.dp.shared_pairs", budget, || {
        for _ in 0..block {
            let id = shared
                .begin_budget(Budget::pure(eps))
                .expect("ample budget");
            shared.settle(id);
        }
    });
    out.metric("dp.shared_pair_us", secs / block as f64 * 1e6, "us");
    let journal = args.work.join("probe-ledger.journal");
    let (durable, _) = DurableLedger::open(&journal, Epsilon::new(1e12).expect("positive"))
        .expect("fresh journal in the scratch directory");
    let pairs = if args.tiny { 10 } else { 100 };
    let durations: Vec<f64> = (0..pairs)
        .map(|_| {
            timed("bench.dp.durable_pair", || {
                let id = durable.begin(eps).expect("ample budget");
                durable.settle(id)
            })
        })
        .collect();
    out.metric("dp.durable_pair_us", median(&durations) * 1e6, "us");
    let laplace = Laplace::centered(10.0).expect("positive scale");
    let mut rng = derive_rng(seed, 0xa4);
    let draws = 10_000;
    let secs = per_call("bench.dp.laplace", budget, || {
        black_box(laplace.sample_vec(draws, &mut rng));
    });
    out.metric("dp.laplace_ns", secs / draws as f64 * 1e9, "ns");
}

/// `QuerySpec::compile` + `to_workload` per spec, in blocks of 256.
pub fn spec_prepare(out: &mut Outcome, memory: &Arc<Memory>, specs: &(Schema, Vec<QuerySpec>)) {
    let (schema, specs) = specs;
    let blocks: Vec<f64> = crate::traced(memory, || {
        specs
            .chunks(256)
            .map(|chunk| {
                timed("bench.spec.prepare", || {
                    for s in chunk {
                        let p = s.compile(schema).expect("trace specs are valid");
                        black_box(p.to_workload().expect("non-empty spec"));
                    }
                }) / chunk.len() as f64
            })
            .collect()
    });
    out.metric("spec.prepare_us", median(&blocks) * 1e6, "us");
}
