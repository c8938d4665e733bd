//! Domain-scaling sweep: the structured (sparse/implicit) workload path
//! against the forced-dense path, on identical workloads.
//!
//! This is the demonstration behind the structure-aware operator refactor:
//! a prefix or range workload compiles through
//! `Engine::compile(MechanismKind::Lrm)` at domain sizes where the dense
//! path is already paying for a dense SVD, dense `W·Lᵀ`/`Bᵀ·W` GEMMs and
//! an `m×n` materialization per compile. The sweep records compile
//! wall-time and closed-form expected error for both paths and the
//! operator densification counter around the structured compile, and
//! serializes them as one JSON report.

use crate::report::TableWriter;
use lrm_core::decomposition::{DecompositionConfig, TargetRank};
use lrm_core::engine::{CompileOptions, Engine, MechanismKind};
use lrm_dp::rng::derive_rng;
use lrm_linalg::operator::densification_count;
use lrm_obs::json;
use lrm_opt::{AlmSchedule, NesterovConfig};
use lrm_workload::generators::{WPrefix, WRange, WRangeCoarse, WorkloadGenerator};
use lrm_workload::Workload;
use std::time::Instant;

/// Which structured workload family to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingFamily {
    /// Evenly spread prefix sums (implicit intervals, deterministic).
    Prefix,
    /// Uniform random range counts (implicit intervals, seeded).
    Range,
    /// Range counts snapped to 32 boundary cuts — `rank(W) ≤ 32` however
    /// many queries are asked, the `m ≫ rank` regime where the workload
    /// GEMMs (`W·Lᵀ`, `Bᵀ·W`) dominate the solver and the structured
    /// operators pay off the most.
    RangeCoarse,
}

impl ScalingFamily {
    /// Family name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ScalingFamily::Prefix => "WPrefix",
            ScalingFamily::Range => "WRange",
            ScalingFamily::RangeCoarse => "WRangeCoarse",
        }
    }

    fn workload(&self, m: usize, n: usize, seed: u64) -> Workload {
        let mut rng = derive_rng(seed, 0x5ca1e);
        match self {
            ScalingFamily::Prefix => WPrefix.generate(m, n, &mut rng),
            ScalingFamily::Range => WRange.generate(m, n, &mut rng),
            ScalingFamily::RangeCoarse => WRangeCoarse { cuts: 32 }.generate(m, n, &mut rng),
        }
        .expect("sweep dimensions are valid")
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Domain sizes to sweep (default 256 → 8192).
    pub domain_sizes: Vec<usize>,
    /// Query count `m`, fixed across the sweep.
    pub queries: usize,
    /// Workload family.
    pub family: ScalingFamily,
    /// Largest `n` the dense path is attempted on; beyond it only the
    /// structured path runs (that is the point of the sweep).
    pub dense_cap: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Suppress table printing.
    pub quiet: bool,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        Self {
            domain_sizes: vec![256, 512, 1024, 2048, 4096, 8192],
            queries: 512,
            family: ScalingFamily::RangeCoarse,
            dense_cap: 4096,
            seed: 20120827,
            quiet: false,
        }
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Domain size `n`.
    pub n: usize,
    /// Query count `m`.
    pub m: usize,
    /// Representation of the structured workload (`intervals`/`sparse`).
    pub structure: &'static str,
    /// Wall-clock seconds of the structured-path LRM compile.
    pub structured_seconds: f64,
    /// Expected average error of the structured-path strategy at the
    /// engine's reference ε.
    pub structured_error: f64,
    /// Decomposition rank of the structured-path strategy.
    pub structured_rank: usize,
    /// Operator densifications observed during the structured compile
    /// (must stay 0 — asserted process-wide by the CI smoke run).
    pub densifications: u64,
    /// Wall-clock seconds of the forced-dense compile; `None` above the
    /// dense cap.
    pub dense_seconds: Option<f64>,
    /// Expected average error of the dense-path strategy.
    pub dense_error: Option<f64>,
}

/// The full sweep outcome.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Family swept.
    pub family: &'static str,
    /// Fixed query count.
    pub queries: usize,
    /// Reference ε the errors are quoted at.
    pub reference_eps: f64,
    /// One entry per domain size.
    pub points: Vec<ScalingPoint>,
}

impl ScalingReport {
    /// Serializes the report as one JSON document; `dense_*` and
    /// `speedup` are `null` above the dense cap.
    pub fn to_json(&self, label: &str) -> String {
        json::object(|o| {
            o.field("schema_version", 1u64)
                .str("label", label)
                .field("family", self.family)
                .field("queries", self.queries)
                .field("reference_eps", self.reference_eps)
                .object("units", |u| {
                    u.field("seconds", "wall-clock per Engine::compile(Lrm)")
                        .field("error", "expected avg squared error at reference_eps");
                })
                .array("points", |a| {
                    for p in &self.points {
                        a.object(|o| {
                            o.field("n", p.n)
                                .field("m", p.m)
                                .field("structure", p.structure)
                                .field("structured_seconds", p.structured_seconds)
                                .field("structured_error", p.structured_error)
                                .field("structured_rank", p.structured_rank)
                                .field("densifications", p.densifications)
                                .opt("dense_seconds", p.dense_seconds)
                                .opt("dense_error", p.dense_error)
                                .opt("speedup", p.dense_seconds.map(|d| d / p.structured_seconds));
                        });
                    }
                });
        })
    }

    /// Whether the structured path beat the dense path at every point with
    /// `n >= threshold` where both ran; `None` when no such comparison
    /// exists (so a dense-capped sweep cannot claim a vacuous win).
    pub fn structured_strictly_faster_from(&self, threshold: usize) -> Option<bool> {
        let mut compared = false;
        for p in self.points.iter().filter(|p| p.n >= threshold) {
            if let Some(d) = p.dense_seconds {
                compared = true;
                if p.structured_seconds >= d {
                    return Some(false);
                }
            }
        }
        compared.then_some(true)
    }
}

/// The sweep's **fixed-work** solver budget.
///
/// The ALM trajectory at small β is chaotic: a last-bit arithmetic
/// difference between the fused dense products and the split structured
/// products can change *how many* outer iterations a run takes, which
/// would turn a kernel comparison into a convergence lottery. Zeroing
/// every early-exit tolerance (γ, `inner_tol`, the Nesterov χ) pins both
/// paths to exactly `max_outer_iters × inner_alternations ×
/// nesterov.max_iters` of structural work, so the wall-time difference
/// measures precisely what the refactor changed: the SVD/initializer and
/// the `W`-products.
pub fn scaling_lrm_config() -> DecompositionConfig {
    DecompositionConfig {
        target_rank: TargetRank::RatioOfRank(crate::params::DEFAULT_RANK_RATIO),
        gamma: 0.0,
        schedule: AlmSchedule::default(),
        max_outer_iters: 12,
        inner_alternations: 3,
        inner_tol: 0.0,
        nesterov: NesterovConfig {
            max_iters: 10,
            tol_per_entry: 0.0,
            ..NesterovConfig::default()
        },
        polish_iters: 0,
    }
}

/// Compiles `workload` as LRM through a fresh engine and returns
/// `(compile seconds, expected avg error, strategy rank)`.
fn compile_lrm(workload: &Workload) -> (f64, f64, usize) {
    // A fresh engine per compile: the sweep measures the strategy search,
    // never a cache hit; no spill dir, so no disk I/O either.
    let engine = Engine::builder().build();
    let options = CompileOptions::with_decomposition(scaling_lrm_config());
    let t0 = Instant::now();
    let compiled = engine
        .compile(workload, MechanismKind::Lrm, &options)
        .expect("LRM compiles on structured families");
    let seconds = t0.elapsed().as_secs_f64();
    let meta = compiled.meta();
    (
        seconds,
        meta.expected_avg_error,
        meta.strategy_rank.unwrap_or(0),
    )
}

/// Runs the sweep.
pub fn run_scaling_sweep(cfg: &ScalingConfig) -> ScalingReport {
    let mut points = Vec::new();
    let mut table = TableWriter::new(format!(
        "Domain scaling — {} (m = {}), structured vs dense LRM compile",
        cfg.family.name(),
        cfg.queries
    ));
    table.header(&[
        "n",
        "structure",
        "structured s",
        "dense s",
        "speedup",
        "densify",
    ]);

    for &n in &cfg.domain_sizes {
        let structured = cfg.family.workload(cfg.queries, n, cfg.seed);
        let structure = structured.structure().label();

        let densify_before = densification_count();
        let (structured_seconds, structured_error, structured_rank) = compile_lrm(&structured);
        let densifications = densification_count() - densify_before;

        let (dense_seconds, dense_error) = if n <= cfg.dense_cap {
            // Force the dense representation of the *same* matrix: same
            // fingerprint, same compile, different code path.
            let dense = structured.to_dense_workload();
            let (secs, err, _) = compile_lrm(&dense);
            (Some(secs), Some(err))
        } else {
            (None, None)
        };

        table.row(vec![
            n.to_string(),
            structure.to_string(),
            format!("{structured_seconds:.3}"),
            dense_seconds.map_or("—".into(), |s| format!("{s:.3}")),
            dense_seconds.map_or("—".into(), |s| {
                format!("{:.2}x", s / structured_seconds.max(1e-12))
            }),
            densifications.to_string(),
        ]);
        points.push(ScalingPoint {
            n,
            m: cfg.queries,
            structure,
            structured_seconds,
            structured_error,
            structured_rank,
            densifications,
            dense_seconds,
            dense_error,
        });
    }

    if !cfg.quiet {
        println!("{}", table.render());
    }
    ScalingReport {
        family: cfg.family.name(),
        queries: cfg.queries,
        reference_eps: 1.0,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_runs_and_serializes() {
        let cfg = ScalingConfig {
            domain_sizes: vec![64, 128],
            queries: 16,
            dense_cap: 128,
            quiet: true,
            ..ScalingConfig::default()
        };
        let report = run_scaling_sweep(&cfg);
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.structured_seconds > 0.0);
            assert!(p.structured_error.is_finite() && p.structured_error > 0.0);
            assert!(p.dense_seconds.is_some());
            // Same workload, same fixed-work budget → comparable strategy
            // quality on both paths (trajectories differ in rounding, so
            // only order-of-magnitude agreement is guaranteed).
            let d = p.dense_error.unwrap();
            assert!(
                p.structured_error <= 4.0 * d && d <= 4.0 * p.structured_error,
                "structured {} vs dense {d}",
                p.structured_error
            );
        }
        let json = report.to_json("test");
        assert!(json.contains("\"points\""));
        assert!(json.contains("\"structure\":\"intervals\""));
        // Dense path skipped above the cap.
        let capped = run_scaling_sweep(&ScalingConfig {
            domain_sizes: vec![128],
            queries: 8,
            dense_cap: 64,
            quiet: true,
            ..ScalingConfig::default()
        });
        assert!(capped.points[0].dense_seconds.is_none());
        assert!(capped.to_json("x").contains("\"dense_seconds\":null"));
    }

    #[test]
    fn strictly_faster_threshold_logic() {
        let point = |n: usize, s: f64, d: Option<f64>| ScalingPoint {
            n,
            m: 8,
            structure: "intervals",
            structured_seconds: s,
            structured_error: 1.0,
            structured_rank: 2,
            densifications: 0,
            dense_seconds: d,
            dense_error: d.map(|_| 1.0),
        };
        let report = ScalingReport {
            family: "WPrefix",
            queries: 8,
            reference_eps: 1.0,
            points: vec![
                point(512, 2.0, Some(1.0)),  // slower below threshold: ignored
                point(1024, 1.0, Some(1.5)), // faster
                point(2048, 1.0, None),      // dense skipped: ignored
            ],
        };
        assert_eq!(report.structured_strictly_faster_from(1024), Some(true));
        assert_eq!(report.structured_strictly_faster_from(512), Some(false));
        // No dense comparison at all → no claim, not a vacuous win.
        assert_eq!(report.structured_strictly_faster_from(2048), None);
    }

    #[test]
    fn range_family_runs() {
        let cfg = ScalingConfig {
            domain_sizes: vec![64],
            queries: 12,
            family: ScalingFamily::Range,
            dense_cap: 64,
            quiet: true,
            ..ScalingConfig::default()
        };
        let report = run_scaling_sweep(&cfg);
        assert_eq!(report.family, "WRange");
        assert_eq!(report.points[0].structure, "intervals");
    }

    #[test]
    fn report_json_is_exact() {
        let point = |n: usize, d: Option<f64>| ScalingPoint {
            n,
            m: 8,
            structure: "intervals",
            structured_seconds: 0.5,
            structured_error: 12.5,
            structured_rank: 3,
            densifications: 0,
            dense_seconds: d,
            dense_error: d.map(|_| 12.0),
        };
        let mut report = ScalingReport {
            family: "WPrefix",
            queries: 8,
            reference_eps: 1.0,
            points: vec![point(64, Some(1.5)), point(128, None)],
        };
        // A non-finite measurement serializes as null, not as `NaN`.
        report.points[1].structured_error = f64::NAN;
        assert_eq!(report.to_json("sweep \"x\""), GOLDEN);
    }

    const GOLDEN: &str = concat!(
        r#"{"schema_version":1,"#,
        r#""label":"sweep \"x\"","#,
        r#""family":"WPrefix","#,
        r#""queries":8,"#,
        r#""reference_eps":1.0,"#,
        r#""units":{"seconds":"wall-clock per Engine::compile(Lrm)","error":"expected avg squared error at reference_eps"},"#,
        r#""points":[{"n":64,"m":8,"structure":"intervals","structured_seconds":0.5,"structured_error":12.5,"structured_rank":3,"densifications":0,"dense_seconds":1.5,"dense_error":12.0,"speedup":3.0},"#,
        r#"{"n":128,"m":8,"structure":"intervals","structured_seconds":0.5,"structured_error":null,"structured_rank":3,"densifications":0,"dense_seconds":null,"dense_error":null,"speedup":null}]}"#,
    );
}
