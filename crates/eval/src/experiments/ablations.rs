//! Ablation studies on Algorithm 1's design choices (DESIGN.md §8):
//!
//! * β growth factor and doubling period (the paper fixes ×2 every 10);
//! * inner-solver budget: Algorithm 2's acceleration vs a starved budget
//!   (effectively plain projected gradient, ref \[10\] vs ref \[23\]);
//! * the feasibility polish (this reproduction's addition) on vs off;
//! * dead-direction revival on larger-than-rank targets;
//! * range structure vs low rank: WRange against WPermutedRange (same
//!   rank profile, no contiguity) — separating LRM's advantage from the
//!   range-specific advantage of WM/HM.

use crate::experiments::sweep::format_err;
use crate::experiments::ExperimentContext;
use crate::report::{CsvRecord, TableWriter};
use lrm_core::decomposition::{DecompositionConfig, WorkloadDecomposition};
use lrm_core::mechanism::Mechanism;
use lrm_core::LowRankMechanism;
use lrm_dp::rng::{derive_rng, stream_of};
use lrm_dp::{Epsilon, SensitivityNorm};
use lrm_opt::{AlmSchedule, NesterovConfig};
use lrm_workload::generators::{WPermutedRange, WRange, WorkloadGenerator};
use lrm_workload::Workload;
use std::time::Instant;

/// One solver variant under test.
struct Variant {
    name: &'static str,
    config: DecompositionConfig,
}

fn variants() -> Vec<Variant> {
    let base = DecompositionConfig::default();
    vec![
        Variant {
            name: "paper (x2/10, nesterov40, polish)",
            config: base.clone(),
        },
        Variant {
            name: "slow beta (x1.3/10)",
            config: DecompositionConfig {
                schedule: AlmSchedule {
                    growth: 1.3,
                    ..AlmSchedule::default()
                },
                max_outer_iters: 300,
                ..base.clone()
            },
        },
        Variant {
            name: "fast beta (x4/10)",
            config: DecompositionConfig {
                schedule: AlmSchedule {
                    growth: 4.0,
                    ..AlmSchedule::default()
                },
                ..base.clone()
            },
        },
        Variant {
            name: "starved inner (nesterov5)",
            config: DecompositionConfig {
                nesterov: NesterovConfig {
                    max_iters: 5,
                    ..NesterovConfig::default()
                },
                ..base.clone()
            },
        },
        Variant {
            name: "no polish",
            config: DecompositionConfig {
                polish_iters: 0,
                ..base.clone()
            },
        },
    ]
}

/// Runs every solver variant on one workload; returns table rows.
fn run_variants(workload: &Workload, wname: &str, ctx: &ExperimentContext) -> Vec<CsvRecord> {
    let eps = Epsilon::new(0.1).expect("valid");
    let data: Vec<f64> = {
        let mut rng = derive_rng(ctx.seed, stream_of(&format!("ablation/data/{wname}")));
        use rand::Rng;
        (0..workload.domain_size())
            .map(|_| rng.gen_range(0.0..10_000.0f64))
            .collect()
    };

    let mut table = TableWriter::new(format!(
        "Ablation — Algorithm 1 variants on {wname} (m={}, n={}, rank={})",
        workload.num_queries(),
        workload.domain_size(),
        workload.rank()
    ));
    table.header(&[
        "variant",
        "Phi",
        "residual",
        "outer iters",
        "err(ε=0.1)",
        "time (s)",
    ]);

    let mut records = Vec::new();
    for variant in variants() {
        let t0 = Instant::now();
        let decomposition = match WorkloadDecomposition::compute(
            workload,
            &variant.config,
            SensitivityNorm::L1,
            None,
        ) {
            Ok(d) => d,
            Err(e) => {
                table.row(vec![
                    variant.name.into(),
                    format!("err:{e}"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            }
        };
        let seconds = t0.elapsed().as_secs_f64();
        let mech = LowRankMechanism::from_decomposition(
            decomposition.clone(),
            workload.num_queries(),
            workload.domain_size(),
        );
        let err = mech.expected_error(eps, Some(&data));
        table.row(vec![
            variant.name.into(),
            format!("{:.4}", decomposition.scale()),
            format!("{:.2e}", decomposition.stats().residual),
            decomposition.stats().outer_iterations.to_string(),
            format_err(err),
            format!("{seconds:.2}"),
        ]);
        records.push(CsvRecord {
            figure: "ablation".into(),
            dataset: "uniform-synthetic".into(),
            workload: wname.into(),
            mechanism: variant.name.into(),
            x_name: "variant".into(),
            x: 0.0,
            epsilon: eps.value(),
            analytic_avg_error: err,
            empirical_avg_error: f64::NAN,
            compile_seconds: seconds,
            answer_seconds: 0.0,
        });
    }
    if !ctx.quiet {
        println!("{}", table.render());
    }
    records
}

/// Runs the full ablation suite, evicting its strategies on the way out.
pub fn run(ctx: &ExperimentContext) -> Vec<CsvRecord> {
    let (m, n) = if ctx.full { (64, 256) } else { (24, 64) };
    let mut records = Vec::new();

    let wrange = WRange
        .generate(
            m,
            n,
            &mut derive_rng(ctx.seed, stream_of("ablation/wrange")),
        )
        .expect("valid dims");
    records.extend(run_variants(&wrange, "WRange", ctx));

    // Range structure vs low rank: same generator through a column
    // permutation. WM/HM degrade; LRM (rank-driven) should not.
    let wperm = WPermutedRange
        .generate(m, n, &mut derive_rng(ctx.seed, stream_of("ablation/wperm")))
        .expect("valid dims");
    records.extend(run_variants(&wperm, "WPermutedRange", ctx));

    if !ctx.quiet {
        let eps = Epsilon::new(0.1).expect("valid");
        let mut table = TableWriter::new(
            "Ablation — range structure vs low rank (expected batch error, ε = 0.1)",
        );
        table.header(&["workload", "LM", "WM", "HM", "LRM"]);
        for (name, w) in [("WRange", &wrange), ("WPermutedRange", &wperm)] {
            use lrm_core::engine::MechanismKind;
            let err = |kind: MechanismKind| {
                ctx.engine()
                    .compile_default(w, kind)
                    .map(|c| c.expected_error(eps, None))
                    .unwrap_or(f64::NAN)
            };
            let lm = err(MechanismKind::Laplace);
            let wm = err(MechanismKind::Wavelet);
            let hm = err(MechanismKind::Hierarchical);
            let lrm = err(MechanismKind::Lrm);
            table.row(vec![
                name.into(),
                format_err(lm),
                format_err(wm),
                format_err(hm),
                format_err(lrm),
            ]);
        }
        println!("{}", table.render());
    }
    ctx.engine().clear_cache();
    records
}
