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
//! granted more ε than they registered (within the ledger's documented
//! one-slack bound), (c) **zero** operator densifications occurred in
//! either run's compiles (the server's own count), and (d) at least one
//! batch actually coalesced. After the pure gate it runs the mixed-ε
//! Gaussian gate ([`ServingConfig::gaussian_smoke`]) so one entry point
//! covers both noise flavors.
//! The third pass is the evented front-end gate
//! ([`EventedConfig::smoke`]): ≥ 10⁴ requests concurrently in flight
//! from a handful of driver threads over the sharded scheduler, with
//! strictly higher throughput *and* strictly lower p99 than the
//! thread-per-client blocking driver at equal ε — and, as everywhere,
//! zero over-spend and zero densifications. `--evented` runs that same
//! pinned comparison alone and writes the `BENCH_9.json`-style report.
//! The fourth pass is the **observability overhead gate**: the pinned
//! coalescing configuration runs twice more, once with tracing disabled
//! and once streaming every span and event through a JSON-lines
//! subscriber into a sink, and fails if tracing costs more than 5% of
//! the untraced throughput.
//!
//! Set `LRM_TRACE=<path>` on any invocation to capture the full
//! request-lifecycle trace (and the binary's own progress events) as
//! JSON lines at that path.

use lrm_eval::experiments::evented::{run_evented_bench, EventedConfig};
use lrm_eval::experiments::gaussian::run_gaussian_bench;
use lrm_eval::experiments::serving::{
    build_trace, run_serving_bench, run_serving_mode, ServingConfig, ServingMode,
};
use lrm_eval::fail;
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

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        cfg: ServingConfig::default(),
        out: None,
        smoke: false,
        evented: false,
        budget_seconds: 150.0,
        shaping_flags: Vec::new(),
        saw_budget: false,
    };
    fn next_parse<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let v = args.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag}: {v}"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--evented" => out.evented = true,
            "--quiet" => out.cfg.quiet = true,
            "--n" => {
                out.shaping_flags.push("--n");
                out.cfg.buckets = next_parse("--n", &mut args)?;
            }
            "--cuts" => {
                out.shaping_flags.push("--cuts");
                out.cfg.cuts = next_parse("--cuts", &mut args)?;
            }
            "--tenants" => {
                out.shaping_flags.push("--tenants");
                out.cfg.tenants = next_parse("--tenants", &mut args)?;
            }
            "--clients" => {
                out.shaping_flags.push("--clients");
                out.cfg.clients = next_parse("--clients", &mut args)?;
            }
            "--requests" => {
                out.shaping_flags.push("--requests");
                out.cfg.requests_per_client = next_parse("--requests", &mut args)?;
            }
            "--burst" => {
                out.shaping_flags.push("--burst");
                out.cfg.burst = next_parse("--burst", &mut args)?;
            }
            "--spec-queries" => {
                out.shaping_flags.push("--spec-queries");
                out.cfg.spec_queries = next_parse("--spec-queries", &mut args)?;
            }
            "--window-ms" => {
                out.shaping_flags.push("--window-ms");
                let ms: f64 = next_parse("--window-ms", &mut args)?;
                out.cfg.window = Duration::from_secs_f64(ms / 1e3);
            }
            "--max-batch" => {
                out.shaping_flags.push("--max-batch");
                out.cfg.max_batch = next_parse("--max-batch", &mut args)?;
            }
            "--workers" => {
                out.shaping_flags.push("--workers");
                out.cfg.workers = next_parse("--workers", &mut args)?;
            }
            "--eps" => {
                out.shaping_flags.push("--eps");
                out.cfg.eps_request = next_parse("--eps", &mut args)?;
            }
            "--tenant-budget" => {
                out.shaping_flags.push("--tenant-budget");
                out.cfg.tenant_budget = next_parse("--tenant-budget", &mut args)?;
            }
            "--seed" => {
                out.shaping_flags.push("--seed");
                out.cfg.seed = next_parse("--seed", &mut args)?;
            }
            "--out" => {
                out.shaping_flags.push("--out");
                let v = args.next().ok_or("--out needs a path")?;
                out.out = Some(PathBuf::from(v));
            }
            "--budget-seconds" => {
                out.saw_budget = true;
                out.budget_seconds = next_parse("--budget-seconds", &mut args)?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (try --smoke, --evented, --n, --cuts, --tenants, --clients, --requests, --burst, --spec-queries, --window-ms, --max-batch, --workers, --eps, --tenant-budget, --seed, --out, --quiet, --budget-seconds)"
                ))
            }
        }
    }
    Ok(out)
}

/// Binary name for progress routing (see `lrm_eval::progress`).
const BIN: &str = "load_sim";

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
        if !args.shaping_flags.is_empty() {
            fail!(
                BIN,
                "load_sim: --smoke runs a pinned configuration and does not accept {}",
                args.shaping_flags.join(", ")
            );
            return ExitCode::FAILURE;
        }
        let cfg = ServingConfig {
            quiet: args.cfg.quiet,
            ..ServingConfig::smoke()
        };
        let t0 = Instant::now();
        let report = run_serving_bench(&cfg);
        println!(
            "smoke: speedup {:.2}x, {} coalesced batches (mean occupancy {:.2}), \
             error ratio {:.2}, overspend {}, densifications {}",
            report.speedup(),
            report.coalesced.coalesced_batches,
            report.coalesced.mean_occupancy,
            report.error_ratio(),
            report.coalesced.overspend || report.baseline.overspend,
            report.coalesced.densifications + report.baseline.densifications,
        );
        let mut failed = false;
        if report.speedup() <= 1.0 {
            fail!(BIN,
                "FAIL: coalescing throughput {:.1} req/s is not strictly above the baseline {:.1} req/s",
                report.coalesced.requests_per_second, report.baseline.requests_per_second
            );
            failed = true;
        }
        if report.coalesced.overspend || report.baseline.overspend {
            fail!(BIN, "FAIL: a tenant was granted more ε than it registered");
            failed = true;
        }
        if report.coalesced.densifications + report.baseline.densifications != 0 {
            fail!(
                BIN,
                "FAIL: the serving path densified a structured workload"
            );
            failed = true;
        }
        if report.coalesced.coalesced_batches == 0 {
            fail!(BIN, "FAIL: the coalescing run never coalesced a batch");
            failed = true;
        }

        // Second pass: the same gate under approximate DP, on a mixed-ε
        // trace. Cross-ε (δ-class) coalescing must strictly beat the
        // ε-keyed scheduler with zero ε or δ over-spend.
        let gaussian_cfg = ServingConfig {
            quiet: args.cfg.quiet,
            ..ServingConfig::gaussian_smoke()
        };
        let gaussian = run_gaussian_bench(&gaussian_cfg);
        println!(
            "smoke (gaussian): speedup {:.2}x over eps-fragmented, {} cross-eps batches, \
             eps overspend {}, delta overspend {}",
            gaussian.speedup(),
            gaussian.coalesced.cross_eps_batches,
            gaussian.coalesced.overspend || gaussian.fragmented.overspend,
            gaussian.coalesced.delta_overspend || gaussian.fragmented.delta_overspend,
        );
        if !gaussian.passes_smoke() {
            fail!(BIN,
                "FAIL: the mixed-eps gaussian gate did not hold (speedup {:.2}x, {} cross-eps batches)",
                gaussian.speedup(),
                gaussian.coalesced.cross_eps_batches
            );
            failed = true;
        }

        // Third pass: the evented front-end gate. A handful of driver
        // threads must hold ≥ 10⁴ requests in flight over the sharded
        // scheduler and strictly beat the thread-per-client blocking
        // driver on both throughput and p99 latency at equal ε.
        let evented_cfg = EventedConfig {
            serving: lrm_eval::experiments::serving::ServingConfig {
                quiet: args.cfg.quiet,
                ..EventedConfig::smoke().serving
            },
            ..EventedConfig::smoke()
        };
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
        // coalescing trace runs twice more on identical configurations —
        // once with tracing fully disabled (the one-relaxed-load fast
        // path) and once streaming every span and event through a
        // JsonLines subscriber into a sink — and the traced run must
        // hold at least 95% of the untraced throughput.
        let obs_cfg = ServingConfig {
            quiet: true,
            ..ServingConfig::smoke()
        };
        let obs_trace = build_trace(&obs_cfg);
        let prior = lrm_obs::uninstall();
        let untraced = run_serving_mode(&obs_cfg, &obs_trace, ServingMode::Coalescing);
        lrm_obs::install(Arc::new(lrm_obs::JsonLines::new(std::io::sink())));
        let traced = run_serving_mode(&obs_cfg, &obs_trace, ServingMode::Coalescing);
        lrm_obs::uninstall();
        if let Some(prior) = prior {
            lrm_obs::install(prior);
        }
        println!(
            "smoke (obs): traced {:.1} req/s vs untraced {:.1} req/s ({:+.1}% throughput)",
            traced.requests_per_second,
            untraced.requests_per_second,
            100.0 * (traced.requests_per_second / untraced.requests_per_second.max(1e-12) - 1.0),
        );
        if traced.requests_per_second < 0.95 * untraced.requests_per_second {
            fail!(
                BIN,
                "FAIL: tracing costs more than 5% throughput ({:.1} req/s traced vs {:.1} req/s untraced)",
                traced.requests_per_second,
                untraced.requests_per_second
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
            .filter(|f| **f != "--out")
            .collect();
        if !refused.is_empty() {
            fail!(
                BIN,
                "load_sim: --evented runs a pinned configuration and does not accept {}",
                refused
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return ExitCode::FAILURE;
        }
        let cfg = EventedConfig {
            serving: lrm_eval::experiments::serving::ServingConfig {
                quiet: args.cfg.quiet,
                ..EventedConfig::smoke().serving
            },
            ..EventedConfig::smoke()
        };
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
        if let Some(path) = &args.out {
            if let Err(e) = report.write(path, &label) {
                fail!(BIN, "load_sim: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("report written to {}", path.display());
        } else {
            println!("{}", report.to_json(&label));
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
    if let Some(path) = &args.out {
        if let Err(e) = report.write(path, &label) {
            fail!(BIN, "load_sim: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    } else {
        println!("{}", report.to_json(&label));
    }
    if report.passes_smoke() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
