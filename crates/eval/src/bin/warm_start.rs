//! Warm-started compile farm benchmark: iteration-count reduction and
//! compile-latency percentiles on a near-duplicate panel trace, cold vs
//! warmed vs restarted-with-store (`BENCH_6.json`).
//!
//! ```text
//! warm_start [--n N] [--shapes K] [--cuts C] [--seed S]
//!            [--store-dir DIR] [--out PATH] [--quiet]
//! warm_start --smoke [--budget-seconds S] [--quiet]
//! ```
//!
//! `--smoke` runs the CI regression gate on a pinned small configuration
//! and fails unless (a) every near-duplicate after the first **warm-
//! starts** and converges in **strictly fewer** ALM iterations than its
//! cold baseline (median reduction ≥ 30%), (b) a restarted engine over
//! the same strategy store answers the whole prior working set with
//! **zero** full recompiles (exact disk hits only) and warm-starts a
//! shape it has never seen from a store-loaded seed, and (c) a restarted
//! *server* replays the working set end to end with zero engine cache
//! misses.

use lrm_eval::cli::{refuse_shaping, Flags};
use lrm_eval::experiments::warm_start::{run_warm_start_bench, WarmStartConfig};
use lrm_eval::{emit_report, fail};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    cfg: WarmStartConfig,
    out: Option<PathBuf>,
    smoke: bool,
    budget_seconds: f64,
    /// Shaping flags seen on the command line; `--smoke` is a pinned
    /// configuration and refuses these rather than silently ignoring
    /// them (same contract as `scaling_sweep` and `load_sim`).
    shaping_flags: Vec<&'static str>,
    saw_budget: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cfg: WarmStartConfig::default(),
        out: None,
        smoke: false,
        budget_seconds: 150.0,
        shaping_flags: Vec::new(),
        saw_budget: false,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--quiet" => out.cfg.quiet = true,
            "--n" => out.cfg.buckets = flags.shaping("--n")?,
            "--shapes" => out.cfg.shapes = flags.shaping("--shapes")?,
            "--cuts" => out.cfg.cuts = flags.shaping("--cuts")?,
            "--seed" => out.cfg.seed = flags.shaping("--seed")?,
            "--store-dir" => out.cfg.store_dir = Some(flags.shaping("--store-dir")?),
            "--out" => out.out = Some(flags.shaping("--out")?),
            "--budget-seconds" => {
                out.saw_budget = true;
                out.budget_seconds = flags.value("--budget-seconds")?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --smoke, --n, --shapes, --cuts, --seed, --store-dir, --out, --quiet, --budget-seconds)"
                ))
            }
        }
    }
    out.shaping_flags = flags.shaping;
    Ok(out)
}

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "warm_start";

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            fail!(BIN, "warm_start: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        if refuse_shaping(BIN, "--smoke", &args.shaping_flags) {
            return ExitCode::FAILURE;
        }
        let cfg = WarmStartConfig {
            quiet: args.cfg.quiet,
            ..WarmStartConfig::smoke()
        };
        let t0 = Instant::now();
        let report = run_warm_start_bench(&cfg);
        let elapsed = t0.elapsed().as_secs_f64();
        println!(
            "smoke: median iteration reduction {:.1}%, restart {} disk hits / {} misses, \
             server replay {} answered / {} misses",
            report.median_reduction * 100.0,
            report.restart_disk_hits,
            report.restart_misses,
            report.server_answered,
            report.server_misses,
        );
        let mut failed = false;
        for failure in report.smoke_failures() {
            fail!(BIN, "FAIL: {failure}");
            failed = true;
        }
        if elapsed > args.budget_seconds {
            fail!(
                BIN,
                "FAIL: smoke took {elapsed:.1}s > budget {:.1}s",
                args.budget_seconds
            );
            failed = true;
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if args.saw_budget {
        fail!(BIN, "warm_start: --budget-seconds only applies to --smoke");
        return ExitCode::FAILURE;
    }
    let report = run_warm_start_bench(&args.cfg);
    let label = format!(
        "warm-started compile farm, {} near-duplicate {}-cut panels (single-boundary nudges) over n = {}, cold vs warmed vs restarted-with-store",
        report.config.shapes, report.config.cuts, report.config.buckets,
    );
    if !emit_report(BIN, args.out.as_deref(), &report.to_json(&label)) {
        return ExitCode::FAILURE;
    }
    if report.passes_smoke() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
