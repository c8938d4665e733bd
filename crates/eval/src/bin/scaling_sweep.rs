//! Domain-scaling sweep: structured (sparse/implicit) vs forced-dense
//! workload path through `Engine::compile(MechanismKind::Lrm)`.
//!
//! ```text
//! scaling_sweep [--family prefix|range|coarse] [--queries M] [--dense-cap N]
//!               [--sizes N1,N2,...] [--seed S] [--out PATH] [--quiet]
//! scaling_sweep --smoke [--budget-seconds S]
//! ```
//!
//! `--smoke` runs the CI regression gate: one n = 4096 prefix compile on
//! the structured path, asserting (a) **zero operator densifications** —
//! the implicit fast path must not silently fall back to a dense `W` —
//! and (b) a wall-time budget (default 120 s), so a regression to
//! densification or dense-path costs fails the job rather than just
//! slowing it down. The smoke runs in its own process, which is what
//! makes the global densification counter assertable.

use lrm_eval::cli::{refuse_shaping, Flags};
use lrm_eval::experiments::scaling::{run_scaling_sweep, ScalingConfig, ScalingFamily};
use lrm_eval::{emit_report, fail};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    cfg: ScalingConfig,
    out: Option<PathBuf>,
    smoke: bool,
    budget_seconds: f64,
    /// Sweep-shaping flags seen on the command line; `--smoke` uses a
    /// pinned configuration and refuses these rather than silently
    /// ignoring them.
    sweep_flags: Vec<&'static str>,
    /// Whether `--budget-seconds` was passed; only `--smoke` enforces a
    /// budget, so a non-smoke run refuses it rather than silently
    /// ignoring it.
    saw_budget: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cfg: ScalingConfig::default(),
        out: None,
        smoke: false,
        budget_seconds: 120.0,
        sweep_flags: Vec::new(),
        saw_budget: false,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--quiet" => out.cfg.quiet = true,
            "--family" => {
                out.cfg.family = match flags.shaping::<String>("--family")?.as_str() {
                    "prefix" => ScalingFamily::Prefix,
                    "range" => ScalingFamily::Range,
                    "coarse" => ScalingFamily::RangeCoarse,
                    other => return Err(format!("unknown family: {other}")),
                };
            }
            "--queries" => out.cfg.queries = flags.shaping("--queries")?,
            "--dense-cap" => out.cfg.dense_cap = flags.shaping("--dense-cap")?,
            "--sizes" => {
                out.cfg.domain_sizes = flags
                    .shaping::<String>("--sizes")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| format!("bad size: {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => out.cfg.seed = flags.shaping("--seed")?,
            "--out" => out.out = Some(flags.shaping("--out")?),
            "--budget-seconds" => {
                out.saw_budget = true;
                out.budget_seconds = flags.value("--budget-seconds")?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --smoke, --family, --queries, --dense-cap, --sizes, --seed, --out, --quiet, --budget-seconds)"
                ))
            }
        }
    }
    out.sweep_flags = flags.shaping;
    Ok(out)
}

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "scaling_sweep";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            fail!(BIN, "scaling_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        if refuse_shaping(BIN, "--smoke", &args.sweep_flags) {
            return ExitCode::FAILURE;
        }
        // CI gate: n = 4096 prefix, structured path only, modest m so the
        // whole run stays well inside the budget on one CPU.
        let cfg = ScalingConfig {
            domain_sizes: vec![4096],
            queries: 64,
            family: ScalingFamily::Prefix,
            dense_cap: 0, // structured path only
            quiet: args.cfg.quiet,
            ..ScalingConfig::default()
        };
        let report = run_scaling_sweep(&cfg);
        let p = &report.points[0];
        println!(
            "smoke: n={} compiled in {:.3}s ({} densifications, rank {})",
            p.n, p.structured_seconds, p.densifications, p.structured_rank
        );
        if p.densifications != 0 {
            fail!(
                BIN,
                "FAIL: structured compile densified the workload {} time(s)",
                p.densifications
            );
            return ExitCode::FAILURE;
        }
        if p.structured_seconds > args.budget_seconds {
            fail!(
                BIN,
                "FAIL: structured compile took {:.3}s > budget {:.1}s",
                p.structured_seconds,
                args.budget_seconds
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if args.saw_budget {
        fail!(
            BIN,
            "scaling_sweep: --budget-seconds only applies to --smoke"
        );
        return ExitCode::FAILURE;
    }
    let report = run_scaling_sweep(&args.cfg);
    match report.structured_strictly_faster_from(1024) {
        Some(verdict) => {
            println!("structured strictly faster than dense at every measured n >= 1024: {verdict}")
        }
        None => println!("no dense comparison at n >= 1024 (dense path capped)"),
    }
    let label = format!(
        "domain scaling sweep, {} m={} (structured vs dense LRM compile)",
        report.family, report.queries
    );
    if !emit_report(BIN, args.out.as_deref(), &report.to_json(&label)) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
