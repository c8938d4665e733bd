//! Multi-tenant serving load harness: the coalescing `lrm-server` against
//! a per-query baseline on the same trace, at equal ε.
//!
//! ```text
//! load_sim [--n N] [--cuts C] [--tenants T] [--clients K] [--requests R]
//!          [--burst B] [--spec-queries Q] [--window-ms W] [--max-batch M]
//!          [--workers P] [--eps E] [--tenant-budget EB] [--seed S]
//!          [--out PATH] [--quiet]
//! load_sim --smoke [--budget-seconds S] [--quiet]
//! load_sim --evented [--out PATH] [--quiet]
//! ```
//!
//! `--smoke` runs the CI regression gate on a pinned small configuration
//! and fails unless (a) the coalescing run sustains **strictly higher
//! throughput** than the per-query baseline, (b) **zero** tenants were
//! granted more ε (or δ) than they registered (within the ledger's
//! documented one-slack bound), (c) **zero** operator densifications
//! occurred in either run's compiles (the server's own count), and (d) at
//! least one batch actually coalesced — every condition of
//! [`ServingReport::smoke_failures`](lrm_eval::experiments::serving::ServingReport::smoke_failures).
//! After the pure gate it runs the mixed-ε Gaussian gate
//! ([`ServingConfig::gaussian_smoke`]) through the same conditions plus
//! cross-ε batching, so one entry point covers both noise flavors.
//! The third pass is the evented front-end gate
//! ([`EventedConfig::smoke`]): ≥ 10⁴ requests concurrently in flight
//! from a handful of driver threads over the sharded scheduler, with
//! strictly higher throughput *and* strictly lower p99 than the
//! thread-per-client blocking driver at equal ε — and, as everywhere,
//! zero over-spend and zero densifications. `--evented` runs that same
//! pinned comparison alone and writes the `BENCH_9.json`-style report.
//! The fourth pass is the **observability overhead gate**: the pinned
//! coalescing configuration runs in alternating untraced/traced pairs,
//! with tracing disabled and streaming every span and event through a
//! JSON-lines subscriber into a sink, and fails if the traced runs'
//! summed throughput is more than 5% below the untraced runs'.
//!
//! Set `LRM_TRACE=<path>` on any invocation to capture the full
//! request-lifecycle trace (and the binary's own progress events) as
//! JSON lines at that path.

use lrm_eval::cli::{refuse_shaping, Flags};
use lrm_eval::experiments::evented::{run_evented_bench, EventedConfig};
use lrm_eval::experiments::gaussian::run_gaussian_bench;
use lrm_eval::experiments::serving::{
    build_trace, run_serving_bench, run_serving_mode, ServingConfig, ServingMode,
};
use lrm_eval::{emit_report, fail};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    cfg: ServingConfig,
    out: Option<PathBuf>,
    smoke: bool,
    evented: bool,
    budget_seconds: f64,
    /// Shaping flags seen on the command line; `--smoke` is a pinned
    /// configuration and refuses these rather than silently ignoring
    /// them (same contract as `scaling_sweep`).
    shaping_flags: Vec<&'static str>,
    saw_budget: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cfg: ServingConfig::default(),
        out: None,
        smoke: false,
        evented: false,
        budget_seconds: 150.0,
        shaping_flags: Vec::new(),
        saw_budget: false,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next_flag() {
        let cfg = &mut out.cfg;
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--evented" => out.evented = true,
            "--quiet" => cfg.quiet = true,
            "--n" => cfg.buckets = flags.shaping("--n")?,
            "--cuts" => cfg.cuts = flags.shaping("--cuts")?,
            "--tenants" => cfg.tenants = flags.shaping("--tenants")?,
            "--clients" => cfg.clients = flags.shaping("--clients")?,
            "--requests" => cfg.requests_per_client = flags.shaping("--requests")?,
            "--burst" => cfg.burst = flags.shaping("--burst")?,
            "--spec-queries" => cfg.spec_queries = flags.shaping("--spec-queries")?,
            "--window-ms" => {
                cfg.window = Duration::from_secs_f64(flags.shaping::<f64>("--window-ms")? / 1e3)
            }
            "--max-batch" => cfg.max_batch = flags.shaping("--max-batch")?,
            "--workers" => cfg.workers = flags.shaping("--workers")?,
            "--eps" => cfg.eps_request = flags.shaping("--eps")?,
            "--tenant-budget" => cfg.tenant_budget = flags.shaping("--tenant-budget")?,
            "--seed" => cfg.seed = flags.shaping("--seed")?,
            "--out" => out.out = Some(flags.shaping("--out")?),
            "--budget-seconds" => {
                out.saw_budget = true;
                out.budget_seconds = flags.value("--budget-seconds")?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --smoke, --evented, --n, --cuts, --tenants, --clients, --requests, --burst, --spec-queries, --window-ms, --max-batch, --workers, --eps, --tenant-budget, --seed, --out, --quiet, --budget-seconds)"
                ))
            }
        }
    }
    out.shaping_flags = flags.shaping;
    Ok(out)
}

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "load_sim";

/// Untraced/traced run pairs of the observability overhead gate.
const OBS_PAIRS: usize = 6;

fn main() -> ExitCode {
    lrm_eval::progress::init_tracing(BIN);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            fail!(BIN, "load_sim: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        if refuse_shaping(BIN, "--smoke", &args.shaping_flags) {
            return ExitCode::FAILURE;
        }
        let t0 = Instant::now();
        let quiet = args.cfg.quiet;
        let mut failed = false;
        // First pass: coalescing against per-query serving. Second pass:
        // the same gate under approximate DP on a mixed-ε trace, where
        // cross-ε (δ-class) coalescing must strictly beat the ε-keyed
        // scheduler with zero ε or δ over-spend.
        let pure = run_serving_bench(&ServingConfig {
            quiet,
            ..ServingConfig::smoke()
        });
        let gaussian = run_gaussian_bench(&ServingConfig {
            quiet,
            ..ServingConfig::gaussian_smoke()
        });
        for (pass, report) in [("smoke", &pure), ("smoke (gaussian)", &gaussian)] {
            println!(
                "{pass}: speedup {:.2}x over {}, {} coalesced batches ({} cross-eps, mean occupancy {:.2}), \
                 error ratio {:.2}, eps overspend {}, delta overspend {}, densifications {}",
                report.speedup(),
                report.baseline.mode,
                report.coalesced.coalesced_batches,
                report.coalesced.cross_eps_batches,
                report.coalesced.mean_occupancy,
                report.error_ratio(),
                report.coalesced.overspend || report.baseline.overspend,
                report.coalesced.delta_overspend || report.baseline.delta_overspend,
                report.coalesced.densifications + report.baseline.densifications,
            );
            for failure in report.smoke_failures() {
                fail!(BIN, "FAIL: {pass}: {failure}");
                failed = true;
            }
        }

        // Third pass: the evented front-end gate. A handful of driver
        // threads must hold ≥ 10⁴ requests in flight over the sharded
        // scheduler and strictly beat the thread-per-client blocking
        // driver on both throughput and p99 latency at equal ε.
        let mut evented_cfg = EventedConfig::smoke();
        evented_cfg.serving.quiet = args.cfg.quiet;
        let evented = run_evented_bench(&evented_cfg);
        println!(
            "smoke (evented): {:.2}x throughput, {:.2}x p99 gain, {} peak in-flight \
             across {} active shards (max share {:.2}), overspend {}",
            evented.throughput_gain(),
            evented.p99_gain(),
            evented.evented.peak_in_flight(),
            evented.evented.active_shards(),
            evented.evented.max_shard_fraction(),
            evented.blocking.overspend || evented.evented.stats.overspend,
        );
        if !evented.passes_smoke() {
            fail!(BIN,
                "FAIL: the evented front-end gate did not hold ({:.2}x throughput, {:.2}x p99 gain, {} peak in-flight, {} active shards, max shard share {:.2})",
                evented.throughput_gain(),
                evented.p99_gain(),
                evented.evented.peak_in_flight(),
                evented.evented.active_shards(),
                evented.evented.max_shard_fraction(),
            );
            failed = true;
        }

        // Fourth pass: the observability overhead gate. The pinned
        // coalescing trace runs OBS_PAIRS more times each way on identical
        // configurations — with tracing fully disabled (the one-relaxed-
        // load fast path) and streaming every span and event through a
        // JsonLines subscriber into a sink — and the traced runs' summed
        // throughput must hold at least 95% of the untraced runs'. The
        // runs alternate U,T,T,U,… so each side goes first equally often
        // and a drift in the host's load over the pass hits both sides.
        let obs_cfg = ServingConfig {
            quiet: true,
            ..ServingConfig::smoke()
        };
        let obs_trace = build_trace(&obs_cfg);
        let prior = lrm_obs::uninstall();
        let sink: Arc<dyn lrm_obs::Subscriber> = Arc::new(lrm_obs::JsonLines::new(std::io::sink()));
        let (mut untraced, mut traced) = (0.0, 0.0);
        for run in 0..2 * OBS_PAIRS {
            let tracing = matches!(run % 4, 1 | 2);
            if tracing {
                lrm_obs::install(sink.clone());
            }
            let stats = run_serving_mode(&obs_cfg, &obs_trace, ServingMode::Coalescing);
            if tracing {
                lrm_obs::uninstall();
                traced += stats.requests_per_second;
            } else {
                untraced += stats.requests_per_second;
            }
        }
        if let Some(prior) = prior {
            lrm_obs::install(prior);
        }
        let (traced, untraced) = (traced / OBS_PAIRS as f64, untraced / OBS_PAIRS as f64);
        println!(
            "smoke (obs): traced {traced:.1} req/s vs untraced {untraced:.1} req/s over {OBS_PAIRS} alternating pairs ({:+.1}% throughput)",
            100.0 * (traced / untraced.max(1e-12) - 1.0),
        );
        if traced < 0.95 * untraced {
            fail!(
                BIN,
                "FAIL: tracing costs more than 5% throughput ({traced:.1} req/s traced vs {untraced:.1} req/s untraced)"
            );
            failed = true;
        }

        let elapsed = t0.elapsed().as_secs_f64();
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
        fail!(BIN, "load_sim: --budget-seconds only applies to --smoke");
        return ExitCode::FAILURE;
    }

    if args.evented {
        let refused: Vec<_> = args
            .shaping_flags
            .iter()
            .copied()
            .filter(|f| *f != "--out")
            .collect();
        if refuse_shaping(BIN, "--evented", &refused) {
            return ExitCode::FAILURE;
        }
        let mut cfg = EventedConfig::smoke();
        cfg.serving.quiet = args.cfg.quiet;
        let report = run_evented_bench(&cfg);
        println!(
            "evented vs blocking front end: {:.2}x throughput, {:.2}x p99 gain, {} peak in-flight, gate {}",
            report.throughput_gain(),
            report.p99_gain(),
            report.evented.peak_in_flight(),
            if report.passes_smoke() { "PASS" } else { "FAIL" }
        );
        let label = format!(
            "evented front end, {} virtual clients x {} requests over {} shards / {} driver threads (evented vs blocking)",
            cfg.serving.clients, cfg.serving.requests_per_client, cfg.shards, cfg.driver_threads
        );
        if !emit_report(BIN, args.out.as_deref(), &report.to_json(&label)) {
            return ExitCode::FAILURE;
        }
        return if report.passes_smoke() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let report = run_serving_bench(&args.cfg);
    println!(
        "coalescing vs per-query baseline: {:.2}x throughput, {:.2}x error ratio, smoke gate {}",
        report.speedup(),
        report.error_ratio(),
        if report.passes_smoke() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    let label = format!(
        "serving load harness, {} clients x {} requests, {} tenants, eps {} (coalescing vs per-query)",
        report.config.clients,
        report.config.requests_per_client,
        report.config.tenants,
        report.config.eps_request
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
