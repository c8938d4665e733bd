//! The `serve-memory` and `serve-durable` workloads: one client thread
//! with one `TicketSet` against an LRM server, in rounds of a closed-loop
//! slice (fixed in-flight window), an open-loop slice (Poisson arrivals
//! at a pinned rate, latency timed from each request's due time) and an
//! engine round over batch-shaped workloads cut from the trace.

use crate::compile::{nudge_intervals, Entry, Panel, Passes, Plan};
use crate::report::{self, field_values, mean, median, quantile, span_us, Outcome};
use crate::{probes, traced, RunArgs, WorkloadName};
use lrm_core::engine::{CompileOptions, Engine, MechanismKind};
use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, Epsilon};
use lrm_eval::experiments::scaling::scaling_lrm_config;
use lrm_eval::experiments::serving::{build_trace, ServingConfig, Trace, TraceRequest};
use lrm_obs::Memory;
use lrm_server::{Completion, PreparedRows, QuerySpec, Server, ServerReport, TicketSet};
use lrm_workload::{Schema, Workload};
use rand::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer metrics only a serving run produces; a `compile` run reports
/// them as 0.
pub const SERVER_LAYER_METRICS: &[(&str, &str)] = &[
    ("server.batches", "count"),
    ("server.occupancy", "requests"),
    ("server.close.window", "count"),
    ("server.close.rank", "count"),
    ("server.close.ceiling", "count"),
    ("server.peak_queue", "count"),
    ("server.late_ms", "ms"),
    ("server.open_samples", "count"),
    ("server.coalesce_us.p50", "us"),
    ("server.coalesce_us.p99", "us"),
    ("server.queue_us.p50", "us"),
    ("server.queue_us.p99", "us"),
    ("server.compile_us.p50", "us"),
    ("server.compile_us.p99", "us"),
    ("server.noise_us.p50", "us"),
    ("server.noise_us.p99", "us"),
    ("server.settle_us.p50", "us"),
    ("server.settle_us.p99", "us"),
    ("server.batch_compile_us", "us"),
];

const TENANTS: usize = 8;
const EPS_LEVELS: [f64; 4] = [0.05, 0.1, 0.2, 0.4];
/// Requests in the generated trace. Every request of a run is distinct
/// up to this count (beyond it the trace repeats, and repeated batches
/// turn into strategy-cache hits); 2¹⁷ covers a 30 s run at 3× the
/// closed-loop capacity seen on a 2-core Xeon.
const POOL: usize = 1 << 17;
const IN_FLIGHT: usize = 256;
/// Closed-loop throughput is counted per window of this length, and
/// `capacity_rps` is the mean over the middle half of a run's windows.
const WINDOW: Duration = Duration::from_millis(250);
/// Per-tenant ε, sized so no request is refused.
const TENANT_BUDGET: f64 = 1e8;

/// Open-loop arrival rates (requests/s), pinned. What loads the one
/// worker is batches, not requests: its closed loop on a 2-core Xeon
/// closed ~950 batches/s of ~4 requests (~3.8k requests/s) in memory. At
/// 1000 requests/s the open loop's batches, mostly of one or two
/// requests, kept the worker ~80% busy, and how many requests each batch
/// caught then followed the host's speed (`release_error` moved by 20%).
/// At 400/s it is about a third busy. Durable: ~1.2k–2k requests/s
/// closed-loop, fsync-bound.
fn pinned_rate(workload: WorkloadName, tiny: bool) -> f64 {
    match (workload, tiny) {
        (_, true) => 200.0,
        (WorkloadName::ServeDurable, false) => 150.0,
        _ => 400.0,
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant{t:02}")
}

fn trace_config(seed: u64, requests: usize) -> ServingConfig {
    ServingConfig {
        buckets: 16,
        cuts: 8,
        tenants: TENANTS,
        clients: 1,
        requests_per_client: requests,
        burst: 1,
        spec_queries: 1,
        window: Duration::from_millis(5),
        max_batch: 64,
        workers: 1,
        eps_request: EPS_LEVELS[0],
        tenant_budget: TENANT_BUDGET,
        seed,
        quiet: true,
        noise_delta: 0.0,
        tenant_delta: 0.0,
        eps_levels: EPS_LEVELS.to_vec(),
        rank_close: true,
    }
}

/// A sample of the serving trace's specs, for the spec-layer probe.
pub fn probe_specs(seed: u64) -> (Schema, Vec<QuerySpec>) {
    let t = build_trace(&trace_config(seed, 1024));
    let specs = t.per_client[0].iter().map(|r| r.spec.clone()).collect();
    (t.schema, specs)
}

fn server_options() -> CompileOptions {
    CompileOptions::with_decomposition(scaling_lrm_config())
}

/// One worker and one scheduler shard: with the client thread that is
/// as many busy threads as a 2-core machine has cores. With two of each,
/// closed-loop throughput moved by ±15% between identical runs, because
/// the threads then time-share the cores.
fn build_server(trace: &Trace, seed: u64, state_dir: Option<&Path>) -> Server {
    let mut builder = Server::builder(trace.schema.clone(), trace.data.clone())
        .engine(Engine::builder().build())
        .mechanism(MechanismKind::Lrm)
        .compile_options(server_options())
        .coalesce_window(Duration::from_millis(5))
        .max_batch(64)
        .workers(1)
        .shards(1)
        .seed(seed);
    if let Some(dir) = state_dir {
        builder = builder.state_dir(dir);
    }
    let server = builder.build().expect("valid server configuration");
    let budget = Budget::pure(Epsilon::new(TENANT_BUDGET).expect("positive budget"));
    for t in 0..TENANTS {
        server.register_tenant_budget(&tenant_name(t), budget);
    }
    server
}

/// Client-observed outcome of every request of a run.
#[derive(Debug, Default)]
struct Tally {
    submitted: u64,
    failed: u64,
    granted: Vec<f64>,
    /// Σ of realized squared error over every released answer.
    sq_err: f64,
    /// Σ of the closed-form expected squared error over the same answers.
    expected_sq_err: f64,
    /// Each release's expected error over the error of answering its
    /// query alone with the Laplace mechanism at the same ε.
    expected: Vec<f64>,
    wrong_length: u64,
    /// Open loop: how late the generator submitted each request, in ms.
    late_ms: Vec<f64>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            granted: vec![0.0; TENANTS],
            ..Tally::default()
        }
    }

    fn record(&mut self, req: &TraceRequest, outcome: Completion) {
        match outcome {
            Ok(release) => {
                self.granted[req.tenant] += release.eps_spent.value();
                if release.answers.len() != req.exact.len() {
                    self.wrong_length += 1;
                }
                self.sq_err += release
                    .answers
                    .iter()
                    .zip(&req.exact)
                    .map(|(a, e)| (a - e) * (a - e))
                    .sum::<f64>();
                self.expected_sq_err += release.answers.len() as f64 * release.expected_avg_error;
                // A lone range or prefix query has sensitivity 1, so the
                // Laplace mechanism answers it with error 2/ε².
                let eps = release.eps_spent.value();
                self.expected
                    .push(release.expected_avg_error / (2.0 / (eps * eps)));
            }
            Err(e) => {
                eprintln!("perfbench: request failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// The trace and where the next request comes from.
struct Feed<'a> {
    pool: &'a [TraceRequest],
    next: usize,
}

impl<'a> Feed<'a> {
    fn take(&mut self) -> &'a TraceRequest {
        let pool = self.pool;
        let r = &pool[self.next % pool.len()];
        self.next += 1;
        r
    }
}

/// Submits the feed's next request into `set`; a synchronous refusal
/// counts as a failed request.
fn submit<'a>(
    client: &lrm_server::Client<'_>,
    set: &TicketSet,
    feed: &mut Feed<'a>,
    tally: &mut Tally,
) -> Option<&'a TraceRequest> {
    let req = feed.take();
    tally.submitted += 1;
    match client.submit_budget_into(&tenant_name(req.tenant), &req.spec, req.budget, set) {
        Ok(_) => Some(req),
        Err(e) => {
            eprintln!("perfbench: submit refused: {e}");
            tally.failed += 1;
            None
        }
    }
}

/// Closed loop: `IN_FLIGHT` requests outstanding until `duration` has
/// passed or `limit` requests were submitted, then drain. Returns the
/// server's report and, per `WINDOW` of `duration`, the releases granted
/// in it.
fn closed_loop(
    server: &Server,
    feed: &mut Feed<'_>,
    duration: Duration,
    limit: usize,
    tally: &mut Tally,
) -> (ServerReport, Vec<u64>) {
    let windows = (duration.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize;
    let (granted, report) = server.serve(|client| {
        let set = TicketSet::new();
        // Set tokens count up from 0 in submission order.
        let mut by_token = Vec::new();
        let mut granted = vec![0u64; windows];
        let t0 = Instant::now();
        for _ in 0..IN_FLIGHT.min(limit) {
            by_token.extend(submit(client, &set, feed, tally));
        }
        let mut submitted = by_token.len();
        while let Some((token, outcome)) = set.wait_any() {
            let at = t0.elapsed();
            let in_time = at < duration;
            if outcome.is_ok() {
                let w = (at.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
                if let Some(g) = granted.get_mut(w) {
                    *g += 1;
                }
            }
            tally.record(by_token[token as usize], outcome);
            if submitted < limit && in_time {
                by_token.extend(submit(client, &set, feed, tally));
                submitted += 1;
            }
        }
        granted
    });
    (report, granted)
}

/// Open loop: Poisson arrivals at `rate`/s for `duration`. Returns the
/// latency in ms of each granted request, timed from its due time, in
/// due-time order; generator lateness goes to the tally.
fn open_loop(
    server: &Server,
    feed: &mut Feed<'_>,
    duration: Duration,
    rate: f64,
    rng_stream: u64,
    seed: u64,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut rng = derive_rng(seed, rng_stream);
    let mut gap = move || Duration::from_secs_f64(-(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate);
    server
        .serve(|client| {
            let set = TicketSet::new();
            let mut by_token = Vec::new();
            let mut latency = Vec::new();
            let t0 = Instant::now();
            let end = t0 + duration;
            let mut due = t0 + gap();
            let harvest = |token: u64,
                           outcome: Completion,
                           tally: &mut Tally,
                           latency: &mut Vec<(u64, f64)>,
                           by_token: &[(&TraceRequest, Instant)]| {
                let (req, due) = by_token[token as usize];
                if outcome.is_ok() {
                    latency.push((token, due.elapsed().as_secs_f64() * 1e3));
                }
                tally.record(req, outcome);
            };
            while due < end {
                let now = Instant::now();
                while due <= now && due < end {
                    tally
                        .late_ms
                        .push(now.duration_since(due).as_secs_f64() * 1e3);
                    if let Some(req) = submit(client, &set, feed, tally) {
                        by_token.push((req, due));
                    }
                    due += gap();
                }
                let mut harvested = false;
                while let Some((token, outcome)) = set.poll() {
                    harvest(token, outcome, tally, &mut latency, &by_token);
                    harvested = true;
                }
                if !harvested {
                    // Sleep until the next arrival, but wake often enough
                    // to see completions promptly.
                    let wait = due.saturating_duration_since(Instant::now());
                    std::thread::sleep(wait.min(Duration::from_micros(200)));
                }
            }
            while let Some((token, outcome)) = set.wait_any() {
                harvest(token, outcome, tally, &mut latency, &by_token);
            }
            latency.sort_by_key(|&(token, _)| token);
            latency.into_iter().map(|(_, ms)| ms).collect()
        })
        .0
}

/// Batch-shaped workloads from the trace (consecutive 64-request
/// batches, stacked as the server stacks them) with near-duplicates, for
/// the engine rounds at serving shape.
fn serving_panel(pool: &[TraceRequest], schema: &Schema, entries: usize) -> Vec<Entry> {
    pool.chunks(64)
        .take(entries)
        .enumerate()
        .map(|(i, batch)| {
            let mut intervals = Vec::new();
            for r in batch {
                match r
                    .spec
                    .compile(schema)
                    .expect("trace specs are valid")
                    .rows()
                {
                    PreparedRows::Intervals(rows) => intervals.extend_from_slice(rows),
                    PreparedRows::Sparse(_) => unreachable!("ranges and prefixes are intervals"),
                }
            }
            let original = Workload::from_intervals(schema.domain_size(), intervals)
                .expect("valid batch workload");
            let near = nudge_intervals(&original);
            Entry::new(format!("batch-{i}"), original, near)
        })
        .collect()
}

/// What the serving slices of a run measured.
#[derive(Default)]
struct Slices {
    /// Granted releases per second of each closed-loop window.
    capacity: Vec<f64>,
    /// The same, untraced, in a traced run.
    untraced_capacity: Vec<f64>,
    /// Median latency of each open-loop slice, and every latency.
    p50_ms: Vec<f64>,
    /// Expected error of each open-loop release over the error of
    /// answering its query alone with the Laplace mechanism at its ε.
    open_error: Vec<f64>,
    latency_ms: Vec<f64>,
    /// The closed-loop slices' server reports.
    reports: Vec<ServerReport>,
}

pub fn run(args: &RunArgs, collector: Option<&Arc<Memory>>) -> Outcome {
    let mut out = Outcome::default();
    let durable = args.workload == WorkloadName::ServeDurable;
    let (requests, warmup, panel_entries) = if args.tiny {
        (8192, 64, 4)
    } else {
        (POOL, 1024, 48)
    };

    // Set-up: trace, server, tenants, and a warm-up that fills the
    // engine's cache. Repeated for a steady median; the last one is kept.
    let mut setup = Vec::new();
    let mut kept = None;
    for k in 0..5 {
        let t = Instant::now();
        let trace = build_trace(&trace_config(args.seed, requests));
        let state_dir = durable.then(|| args.work.join(format!("state-{k}")));
        let server = build_server(&trace, args.seed, state_dir.as_deref());
        let mut warm = Tally::new();
        let mut feed = Feed {
            pool: &trace.per_client[0],
            next: 0,
        };
        closed_loop(
            &server,
            &mut feed,
            Duration::from_secs(60),
            warmup,
            &mut warm,
        );
        let next = feed.next;
        setup.push(t.elapsed().as_secs_f64());
        kept = Some((trace, server, state_dir, warm, next));
    }
    let (trace, server, state_dir, mut tally, next) = kept.expect("set-up ran");
    let pool = &trace.per_client[0];
    let mut feed = Feed { pool, next };
    let rate = pinned_rate(args.workload, args.tiny);
    let slice = Duration::from_secs_f64(if args.tiny { 0.25 } else { 1.0 });

    // Rounds of a closed-loop slice, an open-loop slice and an engine
    // round at serving shape, one per 2.8 s of `--seconds` (about what a
    // round takes on a 2-core Xeon; the count depends on `--seconds`
    // only, so every run does the same work), so a slow stretch of the
    // host weighs on every metric alike and the medians ride it out:
    // closed-loop throughput moves by ±20% from one slice to the next.
    // A traced run first repeats each closed slice untraced, for the
    // tracing overhead.
    let entries = serving_panel(pool, &trace.schema, panel_entries);
    let data: Vec<Vec<f64>> = vec![trace.data.clone(); entries.len()];
    let options = server_options();
    let panel_dir = args.work.join("panel");
    let panel = Panel {
        entries: &entries,
        options: &options,
        dir: &panel_dir,
        data: &data,
    };
    let plan = Plan {
        restarts: 10,
        release_blocks: 0,
        memory_hits: if collector.is_some() { 20 } else { 0 },
    };
    let mut passes = Passes::new(entries.len());
    let mut slices = Slices::default();
    // A traced round runs two closed-loop slices; half as many rounds
    // keep the run within the trace's distinct requests.
    let per_round = if collector.is_some() { 5.6 } else { 2.8 };
    let rounds = ((args.seconds / per_round).floor() as u64).max(1);
    for round in 0..rounds {
        if let Some(memory) = collector {
            let (_, granted) = closed_loop(&server, &mut feed, slice, usize::MAX, &mut tally);
            slices.untraced_capacity.extend(per_second(&granted));
            traced(memory, || {
                serving_round(
                    &server,
                    &mut feed,
                    slice,
                    rate,
                    round,
                    args.seed,
                    &mut tally,
                    &mut slices,
                );
                passes.round(&panel, &plan, args.seed, &mut out);
            });
        } else {
            serving_round(
                &server,
                &mut feed,
                slice,
                rate,
                round,
                args.seed,
                &mut tally,
                &mut slices,
            );
            passes.round(&panel, &plan, args.seed, &mut out);
        }
    }
    let capacity_rps = report::interquartile_mean(&slices.capacity);
    eprintln!(
        "perfbench: {} {rounds} rounds, capacity {capacity_rps:.0} rps; open loop {} samples at {rate} rps",
        args.workload.label(),
        slices.latency_ms.len()
    );
    eprintln!(
        "perfbench: closed-loop windows {:.0?} rps; open-loop slice p50s {:.2?} ms",
        slices.capacity, slices.p50_ms
    );
    if feed.next > pool.len() {
        eprintln!(
            "perfbench: the run used {} requests; the trace repeated",
            feed.next
        );
    }

    // Output checks.
    let ratio = tally.sq_err / tally.expected_sq_err;
    eprintln!("perfbench: realized/expected squared error {ratio:.3}");
    out.check(tally.wrong_length == 0, || {
        format!(
            "{} releases had the wrong number of answers",
            tally.wrong_length
        )
    });
    let band = crate::compile::ERROR_BAND;
    out.check((band.0..=band.1).contains(&ratio), || {
        format!("realized/expected error ratio {ratio:.3} outside {band:?}")
    });
    let min_samples = if args.tiny { 20 } else { 1000 };
    out.check(slices.latency_ms.len() >= min_samples, || {
        format!(
            "open loop gave {} samples; p99 needs at least {min_samples}",
            slices.latency_ms.len()
        )
    });
    let spend = server.tenant_spend();
    for t in 0..TENANTS {
        let name = tenant_name(t);
        let g = tally.granted[t];
        out.check(g <= TENANT_BUDGET, || {
            format!("{name} granted {g} over its budget")
        });
        let ledger = spend
            .iter()
            .find(|s| s.tenant == name)
            .map_or(f64::NAN, |s| s.spent);
        out.check((ledger - g).abs() <= 1e-9 * g.max(1.0), || {
            format!("{name}: ledger spent {ledger}, clients were granted {g}")
        });
    }
    drop(server);
    if let Some(dir) = &state_dir {
        // A server rebuilt over the same state must resume exactly the
        // spend its clients were granted.
        let reopened = Server::builder(trace.schema.clone(), trace.data.clone())
            .seed(args.seed)
            .state_dir(dir)
            .build()
            .expect("server over an existing state directory");
        let budget = Budget::pure(Epsilon::new(TENANT_BUDGET).expect("positive budget"));
        for t in 0..TENANTS {
            let name = tenant_name(t);
            let g = tally.granted[t];
            match reopened.try_register_tenant_budget(&name, budget) {
                Ok(r) => out.check(r.resumed && (r.spent - g).abs() <= 1e-9 * g.max(1.0), || {
                    format!("{name}: restarted ledger spent {} (resumed {}), clients were granted {g}", r.spent, r.resumed)
                }),
                Err(e) => out.check(false, || format!("{name}: reopening the ledger failed: {e}")),
            }
        }
    }
    out.attempted = tally.submitted + passes.compiles;
    out.failed = tally.failed + passes.failed;

    match collector {
        None => {
            out.metric("setup_s", median(&setup), "s");
            out.metric("rss_mb", report::peak_rss_mb(), "MB");
            crate::compile::end_to_end_engine_metrics(&mut out, &passes);
            out.metric("capacity_rps", capacity_rps, "1/s");
            out.metric("p50_ms", median(&slices.p50_ms), "ms");
            // Open-loop releases only: at a pinned arrival rate the batches
            // they share do not depend on how fast the host runs.
            out.metric("release_error", mean(&slices.open_error), "ratio");
        }
        Some(memory) => {
            let records = memory.records();
            let reports = &slices.reports;
            let sum = |f: fn(&ServerReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
            let batches = sum(|r| r.metrics.batches);
            let occupied: f64 = reports
                .iter()
                .map(|r| r.metrics.mean_occupancy * r.metrics.batches as f64)
                .sum();
            out.metric("server.batches", batches, "count");
            out.metric("server.occupancy", occupied / batches.max(1.0), "requests");
            out.metric(
                "server.close.window",
                sum(|r| r.metrics.window_closed_batches),
                "count",
            );
            out.metric(
                "server.close.rank",
                sum(|r| r.metrics.rank_closed_batches),
                "count",
            );
            out.metric(
                "server.close.ceiling",
                sum(|r| r.metrics.ceiling_closed_batches),
                "count",
            );
            let peak = reports.iter().map(|r| r.metrics.peak_queue_depth).max();
            out.metric("server.peak_queue", peak.unwrap_or(0) as f64, "count");
            out.metric("server.late_ms", quantile(&tally.late_ms, 0.99), "ms");
            out.metric(
                "server.open_samples",
                slices.latency_ms.len() as f64,
                "count",
            );
            for (field, p50, p99) in [
                (
                    "coalesce_ns",
                    "server.coalesce_us.p50",
                    "server.coalesce_us.p99",
                ),
                ("queue_ns", "server.queue_us.p50", "server.queue_us.p99"),
                (
                    "compile_ns",
                    "server.compile_us.p50",
                    "server.compile_us.p99",
                ),
                ("noise_ns", "server.noise_us.p50", "server.noise_us.p99"),
                ("settle_ns", "server.settle_us.p50", "server.settle_us.p99"),
            ] {
                let us: Vec<f64> = field_values(&records, "request.complete", field)
                    .iter()
                    .map(|ns| ns / 1e3)
                    .collect();
                out.metric(p50, median(&us), "us");
                out.metric(p99, quantile(&us, 0.99), "us");
            }
            out.metric(
                "server.batch_compile_us",
                median(&span_us(&records, "batch.compile")),
                "us",
            );
            out.metric("latency.p99_ms", quantile(&slices.latency_ms, 0.99), "ms");
            crate::compile::engine_layer_metrics(&mut out, &passes);
            let cached = reports.last().map_or(0, |r| r.cache.entries);
            out.metric("engine.cache_entries", cached as f64, "count");
            let probe_entries: Vec<&Workload> = entries.iter().map(|e| &e.original).collect();
            traced(memory, || probes::run_all(&mut out, &probe_entries, args));
            let specs = pool.iter().take(1024).map(|r| r.spec.clone()).collect();
            probes::spec_prepare(&mut out, memory, &(trace.schema.clone(), specs));
            // Tracing cost as time per request: untraced ÷ traced capacity.
            out.metric(
                "obs.overhead",
                report::interquartile_mean(&slices.untraced_capacity) / capacity_rps,
                "ratio",
            );
        }
    }
    out
}

/// Releases per second of each closed-loop window.
fn per_second(granted: &[u64]) -> Vec<f64> {
    granted
        .iter()
        .map(|&g| g as f64 / WINDOW.as_secs_f64())
        .collect()
}

/// One closed-loop slice and one open-loop slice.
#[allow(clippy::too_many_arguments)]
fn serving_round(
    server: &Server,
    feed: &mut Feed<'_>,
    slice: Duration,
    rate: f64,
    round: u64,
    seed: u64,
    tally: &mut Tally,
    slices: &mut Slices,
) {
    let (report, granted) = closed_loop(server, feed, slice, usize::MAX, tally);
    slices.capacity.extend(per_second(&granted));
    slices.reports.push(report);
    let before = tally.expected.len();
    let latency = open_loop(server, feed, slice, rate, 0x0be0 + round, seed, tally);
    slices
        .open_error
        .extend_from_slice(&tally.expected[before..]);
    slices.p50_ms.push(median(&latency));
    slices.latency_ms.extend(latency);
}
