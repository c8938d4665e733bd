//! Evented front-end harness: 10⁴+ in-flight requests from a handful of
//! driver threads, against the thread-per-client blocking driver.
//!
//! The question this bench answers is different from the coalescing one
//! ([`crate::experiments::serving`] asks *does batching beat per-query
//! serving*): here **both** runs use the coalescing scheduler at equal ε
//! on the identical trace, and the variable is the *front end*:
//!
//! * **blocking** — the legacy shape: one OS thread per virtual client,
//!   each a synchronous request–response loop (`burst` tickets deep,
//!   1 in the pinned gate) blocking on [`lrm_server::Ticket::wait`].
//!   Holding ~10⁴ requests in flight costs ~10⁴ OS threads, and every
//!   completion pays a dedicated per-request channel wakeup of a
//!   specific parked thread that then contends with thousands of
//!   runnable siblings for a CPU slice before it can even resubmit.
//! * **evented** — the *same* virtual-client population folded onto a
//!   few driver threads. Each driver simulates its share of the clients
//!   (dealt round-robin), submitting through
//!   [`Client::submit_budget_into`](lrm_server::Client::submit_budget_into)
//!   into one [`TicketSet`] and harvesting with
//!   [`TicketSet::wait_any`]; the set token (handed out in submission
//!   order) maps each completion back to its virtual client, whose next
//!   request is submitted on the spot. The server runs its sharded
//!   scheduler (`shards > 1`), so admission, window timing, and
//!   flushing are spread across per-noise-class shards with
//!   work-stealing workers behind them.
//!
//! Both drivers enforce identical per-client sequencing — virtual
//! client *c* never has more than `burst` requests outstanding, and its
//! request *r + 1* is submitted only once *r*'s completion is observed —
//! so both offer the same load (clients × burst in flight) and neither
//! gets to time-shift its submissions. Latency is **client-observed**:
//! the clock starts in the driver immediately before the submit call
//! and stops when the driver observes the completion, so the blocking
//! run is charged for its thread wakeup/reschedule delays exactly as
//! the evented run is charged for its harvest loop. Both grant the
//! *entire* trace (the tenant budgets are sized so no request is
//! refused), which makes throughput and tail latency directly
//! comparable: same requests, same grants, same noise discipline, zero
//! ε/δ over-spend tolerated. The gate
//! ([`EventedReport::passes_smoke`]) requires the evented run to hold
//! ≥ `target_in_flight` requests in flight server-side, to sustain
//! strictly higher throughput *and* strictly lower p99 latency than the
//! blocking driver, and to actually spread load across ≥ 2 scheduler
//! shards with bounded imbalance.

use crate::experiments::serving::{
    build_server, build_trace, collect_stats, ClientOutcome, ServingConfig, ServingMode,
    ServingRunStats, Trace, TraceRequest,
};
use crate::report::TableWriter;
use lrm_obs::json;
use lrm_server::{Client, ServerReport, Ticket, TicketSet};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Configuration of the evented-vs-blocking comparison.
#[derive(Debug, Clone)]
pub struct EventedConfig {
    /// The shared trace/server shape. `burst` is the per-virtual-client
    /// pipeline depth in *both* drivers (1 = synchronous
    /// request–response), so both hold `clients × burst` requests in
    /// flight and the comparison is about the front end, not the
    /// offered load.
    pub serving: ServingConfig,
    /// Scheduler shards of the evented run's server (the blocking run
    /// keeps the single-shard legacy shape).
    pub shards: usize,
    /// Driver threads of the evented run. The trace's virtual clients
    /// are dealt round-robin across them.
    pub driver_threads: usize,
    /// The in-flight floor the evented run must demonstrate: its
    /// server-side peak queue depth must reach this many concurrently
    /// submitted-but-unanswered requests.
    pub target_in_flight: u64,
}

impl EventedConfig {
    /// The pinned CI gate configuration: a small domain (answering is
    /// cheap, so the front end is what's measured) and the classic C10K
    /// population — 12 288 virtual clients, each a synchronous
    /// request–response loop (`burst` 1) issuing 4 requests, ≈ 5 × 10⁴
    /// submissions with 12 288 concurrently in flight. The blocking
    /// driver needs one OS thread per client to hold that; the evented
    /// driver folds them onto 4 threads. Four ε levels give the
    /// noise-class shard router classes to spread, and tenant budgets
    /// are sized to grant every request in both runs.
    pub fn smoke() -> Self {
        EventedConfig {
            serving: ServingConfig {
                buckets: 16,
                cuts: 8,
                tenants: 8,
                clients: 12_288,
                requests_per_client: 4,
                burst: 1,
                spec_queries: 1,
                window: Duration::from_millis(5),
                max_batch: 64,
                workers: 3,
                eps_request: 0.1,
                // Requests round-robin tenants (8) and ε levels (4), so
                // tenant t always draws level t mod 4; the hottest
                // tenants spend 6 144 × 0.4 = 2 457.6 ε. 2 800 grants
                // everything — rejections would skew the comparison.
                tenant_budget: 2_800.0,
                seed: 20120827,
                quiet: false,
                noise_delta: 0.0,
                tenant_delta: 0.0,
                eps_levels: vec![0.05, 0.1, 0.2, 0.4],
                rank_close: false,
            },
            shards: 8,
            driver_threads: 4,
            target_in_flight: 10_000,
        }
    }
}

/// The evented run's stats: the shared serving counters plus the
/// shard/steal picture that only exists on a sharded server.
#[derive(Debug, Clone)]
pub struct EventedRunStats {
    /// The common counters, measured exactly as the blocking run's.
    pub stats: ServingRunStats,
    /// Driver threads that drove the run.
    pub driver_threads: usize,
    /// Scheduler shards of the run's server.
    pub shards: usize,
    /// Batches a worker claimed from another shard's flush queue.
    pub stolen_batches: u64,
    /// Peak submitted-but-unanswered requests per shard (index = shard).
    pub shard_peak_depths: Vec<u64>,
}

impl EventedRunStats {
    /// Peak concurrently in-flight requests, measured server-side
    /// (submitted but not yet answered, summed across shards).
    pub fn peak_in_flight(&self) -> u64 {
        self.stats.peak_queue_depth
    }

    /// Shards that ever held a request.
    pub fn active_shards(&self) -> usize {
        self.shard_peak_depths.iter().filter(|&&p| p > 0).count()
    }

    /// The hottest shard's share of the summed per-shard peaks — the
    /// imbalance signal (1.0 means one shard took everything).
    pub fn max_shard_fraction(&self) -> f64 {
        let total: u64 = self.shard_peak_depths.iter().sum();
        let max = self.shard_peak_depths.iter().copied().max().unwrap_or(0);
        if total == 0 {
            1.0
        } else {
            max as f64 / total as f64
        }
    }
}

/// Stats of one evented-comparison run: the shared serving counters,
/// with the latency percentiles taken exactly over the client-observed
/// latencies (the server-side histogram can't see the front end's own
/// delays — thread wakeups, harvest loops — which are the whole point
/// here).
fn client_observed_stats(
    mode: &'static str,
    scfg: &ServingConfig,
    outcomes: &[ClientOutcome],
    report: &ServerReport,
    wall_seconds: f64,
) -> ServingRunStats {
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let percentile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * q).ceil() as usize;
        latencies[idx] as f64 / 1e3
    };
    ServingRunStats {
        p50_latency_ms: percentile(0.50),
        p99_latency_ms: percentile(0.99),
        ..collect_stats(mode, scfg, outcomes, report, wall_seconds)
    }
}

/// Replays the trace through the legacy front end: a single-shard
/// server, one OS thread per virtual client, each holding a `burst`-deep
/// pipeline of blocking tickets. The client threads run on small stacks
/// (the drive loop is shallow) so the 10⁴-thread population stays cheap
/// in memory; what it can't avoid is the scheduler cost of 10⁴ runnable
/// threads, which is exactly what the comparison measures.
pub fn run_blocking_mode(cfg: &EventedConfig, trace: &Trace) -> ServingRunStats {
    let scfg = &cfg.serving;
    let server = build_server(scfg, trace, ServingMode::Coalescing, 1);
    let t0 = Instant::now();
    let (outcomes, report) = server.serve(|client| {
        std::thread::scope(|s| {
            let handles: Vec<_> = trace
                .per_client
                .iter()
                .map(|requests| {
                    let client = client.clone();
                    std::thread::Builder::new()
                        .stack_size(128 * 1024)
                        .spawn_scoped(s, move || drive_blocking(&client, requests, scfg))
                        .expect("spawn blocking client thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<ClientOutcome>>()
        })
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    client_observed_stats("blocking", scfg, &outcomes, &report, wall_seconds)
}

/// One blocking client: keep `burst` tickets outstanding, block on the
/// oldest, submit a replacement per completion — the steady-state
/// closed loop of the thread-per-client front end.
fn drive_blocking(
    client: &Client<'_>,
    requests: &[TraceRequest],
    cfg: &ServingConfig,
) -> ClientOutcome {
    let window = cfg.burst.max(1);
    let mut out = ClientOutcome::for_tenants(cfg.tenants);
    let mut pending: VecDeque<(usize, Instant, Ticket)> = VecDeque::with_capacity(window);
    let mut next = 0usize;
    loop {
        while pending.len() < window && next < requests.len() {
            let req = &requests[next];
            let tenant = ServingConfig::tenant_name(req.tenant);
            let start = Instant::now();
            let ticket = client
                .submit_budget(&tenant, &req.spec, req.budget)
                .expect("trace specs and tenants are valid; admission is unbounded");
            pending.push_back((next, start, ticket));
            next += 1;
        }
        let Some((index, start, ticket)) = pending.pop_front() else {
            break;
        };
        let outcome = ticket.wait();
        out.record_timed(&requests[index], outcome, start.elapsed());
    }
    out
}

/// Replays the trace through the sharded server with `driver_threads`
/// evented drivers.
pub fn run_evented_mode(cfg: &EventedConfig, trace: &Trace) -> EventedRunStats {
    let scfg = &cfg.serving;
    let server = build_server(scfg, trace, ServingMode::Coalescing, cfg.shards);
    let t0 = Instant::now();
    let (outcomes, report) = server.serve(|client| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.driver_threads)
                .map(|d| {
                    let client = client.clone();
                    s.spawn(move || drive_evented(&client, trace, scfg, d, cfg.driver_threads))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect::<Vec<ClientOutcome>>()
        })
    });
    let wall_seconds = t0.elapsed().as_secs_f64();

    let stats = client_observed_stats("evented", scfg, &outcomes, &report, wall_seconds);
    EventedRunStats {
        stats,
        driver_threads: cfg.driver_threads,
        shards: cfg.shards,
        stolen_batches: report.metrics.stolen_batches,
        shard_peak_depths: report.metrics.shard_peak_depths,
    }
}

/// One evented driver: simulate the virtual clients dealt to this
/// driver (clients `driver`, `driver + drivers`, …) with the exact
/// per-client sequencing the blocking threads enforce — every client
/// keeps up to `burst` requests outstanding, and its next request is
/// submitted the moment one of its completions is harvested. All
/// submissions go into one [`TicketSet`]; set tokens come back in
/// submission order starting at 0, so `token` indexes the driver's
/// submit-order bookkeeping that maps each completion back to the
/// virtual client (and its latency clock) it belongs to.
fn drive_evented(
    client: &Client<'_>,
    trace: &Trace,
    cfg: &ServingConfig,
    driver: usize,
    drivers: usize,
) -> ClientOutcome {
    let vclients: Vec<&Vec<TraceRequest>> = trace
        .per_client
        .iter()
        .skip(driver)
        .step_by(drivers)
        .collect();
    let burst = cfg.burst.max(1);
    let set = TicketSet::new();
    let mut out = ClientOutcome::for_tenants(cfg.tenants);
    // Per-virtual-client cursor of the next request to submit, and the
    // submit-order log mapping tokens back to (client, request, clock).
    let mut next = vec![0usize; vclients.len()];
    let mut submitted: Vec<(usize, usize, Instant)> = Vec::new();
    let submit = |v: usize, next: &mut [usize], submitted: &mut Vec<(usize, usize, Instant)>| {
        let r = next[v];
        let req = &vclients[v][r];
        let tenant = ServingConfig::tenant_name(req.tenant);
        let start = Instant::now();
        let token = client
            .submit_budget_into(&tenant, &req.spec, req.budget, &set)
            .expect("trace specs and tenants are valid; admission is unbounded");
        debug_assert_eq!(token, submitted.len() as u64, "tokens are sequential");
        submitted.push((v, r, start));
        next[v] = r + 1;
    };
    // Prime every client's pipeline, breadth-first so no client gets a
    // head start over its blocking-run counterpart.
    for round in 0..burst {
        for (v, requests) in vclients.iter().enumerate() {
            if round < requests.len() {
                submit(v, &mut next, &mut submitted);
            }
        }
    }
    while let Some((token, outcome)) = set.wait_any() {
        let (v, r, start) = submitted[token as usize];
        out.record_timed(&vclients[v][r], outcome, start.elapsed());
        if next[v] < vclients[v].len() {
            submit(v, &mut next, &mut submitted);
        }
    }
    debug_assert!(
        next.iter().zip(&vclients).all(|(&n, reqs)| n == reqs.len()),
        "drained with requests left"
    );
    out
}

/// The comparison `load_sim --evented` reports and CI gates on.
#[derive(Debug, Clone)]
pub struct EventedReport {
    /// Configuration echo.
    pub config: EventedConfig,
    /// The thread-per-client blocking run (single-shard server).
    pub blocking: ServingRunStats,
    /// The evented run (sharded server, few driver threads).
    pub evented: EventedRunStats,
}

impl EventedReport {
    /// Evented throughput over blocking throughput (granted requests per
    /// second; > 1 means the evented front end is strictly faster).
    pub fn throughput_gain(&self) -> f64 {
        self.evented.stats.requests_per_second / self.blocking.requests_per_second.max(1e-12)
    }

    /// Blocking p99 latency over evented p99 latency (> 1 means the
    /// evented front end also has the shorter tail).
    pub fn p99_gain(&self) -> f64 {
        self.blocking.p99_latency_ms / self.evented.stats.p99_latency_ms.max(1e-12)
    }

    /// The acceptance gate: the evented run demonstrated the configured
    /// in-flight depth, beat the blocking driver on *both* throughput
    /// and tail latency, spread load across ≥ 2 shards without a hot
    /// shard, granted exactly what the blocking run granted, and — as
    /// always — zero over-spend and zero densifications anywhere.
    pub fn passes_smoke(&self) -> bool {
        let ev = &self.evented.stats;
        let bl = &self.blocking;
        self.throughput_gain() > 1.0
            && self.p99_gain() > 1.0
            && self.evented.peak_in_flight() >= self.config.target_in_flight
            && ev.answered == bl.answered
            && ev.rejected == 0
            && bl.rejected == 0
            && !ev.overspend
            && !bl.overspend
            && !ev.delta_overspend
            && !bl.delta_overspend
            && ev.densifications == 0
            && bl.densifications == 0
            && ev.coalesced_batches > 0
            && self.evented.active_shards() >= 2
            && self.evented.max_shard_fraction() <= 0.6
    }

    /// Serializes the report as one JSON document.
    pub fn to_json(&self, label: &str) -> String {
        let ev = &self.evented;
        json::object(|o| {
            o.field("schema_version", 1u64)
                .str("label", label)
                .object("config", |c| {
                    self.config.serving.write_json(c);
                    c.field("shards", self.config.shards)
                        .field("driver_threads", self.config.driver_threads)
                        .field("target_in_flight", self.config.target_in_flight);
                })
                .object("units", |u| {
                    u.field("throughput", "granted requests (and queries) per second")
                        .field("latency", "client-observed submit-to-completion milliseconds")
                        .field(
                            "in_flight",
                            "peak concurrently submitted-but-unanswered requests, measured server-side",
                        );
                })
                .array("runs", |a| {
                    a.object(|r| self.blocking.write_json(r))
                        .object(|r| ev.stats.write_json(r));
                })
                .object("evented", |e| {
                    e.field("peak_in_flight", ev.peak_in_flight())
                        .array("shard_peak_depths", |a| {
                            for &depth in &ev.shard_peak_depths {
                                a.value(depth);
                            }
                        })
                        .field("active_shards", ev.active_shards())
                        .field("max_shard_fraction", ev.max_shard_fraction())
                        .field("stolen_batches", ev.stolen_batches);
                })
                .object("comparison", |c| {
                    c.field("throughput_gain", self.throughput_gain())
                        .field("p99_gain", self.p99_gain())
                        .field("strictly_faster", self.throughput_gain() > 1.0)
                        .field("strictly_lower_p99", self.p99_gain() > 1.0)
                        .field("passes_smoke", self.passes_smoke());
                });
        })
    }
}

/// Runs the full comparison: the same trace through the blocking
/// thread-per-client driver (single-shard server) and the evented
/// drivers (sharded server).
pub fn run_evented_bench(cfg: &EventedConfig) -> EventedReport {
    let trace = build_trace(&cfg.serving);
    let blocking = run_blocking_mode(cfg, &trace);
    let evented = run_evented_mode(cfg, &trace);

    if !cfg.serving.quiet {
        let mut table = TableWriter::new(format!(
            "Evented front end — {} virtual clients × {} requests, {} shards, {} driver threads",
            cfg.serving.clients, cfg.serving.requests_per_client, cfg.shards, cfg.driver_threads
        ));
        table.header(&[
            "mode",
            "wall s",
            "req/s",
            "p50 ms",
            "p99 ms",
            "peak in-flight",
            "batches",
            "stolen",
        ]);
        for (run, stolen) in [(&blocking, 0), (&evented.stats, evented.stolen_batches)] {
            table.row(vec![
                run.mode.to_string(),
                format!("{:.3}", run.wall_seconds),
                format!("{:.1}", run.requests_per_second),
                format!("{:.1}", run.p50_latency_ms),
                format!("{:.1}", run.p99_latency_ms),
                run.peak_queue_depth.to_string(),
                run.batches.to_string(),
                stolen.to_string(),
            ]);
        }
        println!("{}", table.render());
    }

    EventedReport {
        config: cfg.clone(),
        blocking,
        evented,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::serving::{json_reader, sample_run_stats};

    fn tiny() -> EventedConfig {
        EventedConfig {
            serving: ServingConfig {
                buckets: 64,
                cuts: 8,
                tenants: 2,
                clients: 4,
                requests_per_client: 8,
                burst: 8,
                spec_queries: 4,
                max_batch: 4,
                workers: 2,
                // 16 requests per tenant × ε 0.25 = 4: everything grants.
                tenant_budget: 10.0,
                quiet: true,
                ..ServingConfig::default()
            },
            shards: 4,
            driver_threads: 2,
            target_in_flight: 8,
        }
    }

    #[test]
    fn evented_bench_grants_the_whole_trace_and_reports() {
        let cfg = tiny();
        let report = run_evented_bench(&cfg);

        // Both drivers grant every request: the budgets never bind, so
        // any divergence would be a lost or double-delivered completion.
        assert_eq!(report.blocking.answered, 32);
        assert_eq!(report.evented.stats.answered, 32);
        assert_eq!(report.blocking.rejected, 0);
        assert_eq!(report.evented.stats.rejected, 0);

        // The hard invariants.
        assert!(!report.blocking.overspend);
        assert!(!report.evented.stats.overspend);
        assert_eq!(report.blocking.densifications, 0);
        assert_eq!(report.evented.stats.densifications, 0);

        // Token-indexed bookkeeping lined completions up with the right
        // trace requests: noisy answers differ from exact ones by a
        // finite, positive amount (a mispairing would explode the MSE;
        // a zero would mean no release was measured at all).
        assert!(report.evented.stats.mean_squared_error > 0.0);
        assert!(report.evented.stats.mean_squared_error.is_finite());

        // Shard accounting is present and consistent.
        assert_eq!(report.evented.shard_peak_depths.len(), 4);
        assert!(report.evented.active_shards() >= 1);
        let json = report.to_json("test");
        json_reader::parse(&json);
        assert!(json.contains("\"mode\":\"blocking\""));
        assert!(json.contains("\"mode\":\"evented\""));
        assert!(json.contains("\"peak_in_flight\""));
        assert!(json.contains("\"throughput_gain\""));
    }

    #[test]
    fn driver_partition_covers_every_virtual_client_once() {
        // The round-robin deal (clients d, d+T, …) must partition the
        // trace: 4 virtual clients over 3 drivers → shares of 2/1/1.
        let cfg = tiny();
        let trace = build_trace(&cfg.serving);
        let mut seen = vec![0usize; trace.per_client.len()];
        for d in 0..3 {
            for (c, _) in trace.per_client.iter().enumerate().skip(d).step_by(3) {
                seen[c] += 1;
            }
        }
        assert_eq!(seen, vec![1; trace.per_client.len()]);
    }

    #[test]
    fn report_json_is_exact() {
        let mut evented = sample_run_stats("evented", 20.0);
        evented.cross_eps_batches = 1;
        evented.p99_latency_ms = 20.0;
        let report = EventedReport {
            config: tiny(),
            blocking: sample_run_stats("blocking", 10.0),
            evented: EventedRunStats {
                stats: evented,
                driver_threads: 2,
                shards: 4,
                stolen_batches: 1,
                shard_peak_depths: vec![3, 3, 2, 0],
            },
        };
        assert_eq!(report.to_json("front end"), GOLDEN);
    }

    const GOLDEN: &str = concat!(
        r#"{"schema_version":1,"#,
        r#""label":"front end","#,
        r#""config":{"buckets":64,"cuts":8,"tenants":2,"clients":4,"requests_per_client":8,"burst":8,"spec_queries":4,"window_ms":20.0,"max_batch":4,"workers":2,"eps_request":0.25,"eps_levels":[],"noise_delta":0.0,"tenant_budget":10.0,"tenant_delta":0.0,"seed":20120827,"shards":4,"driver_threads":2,"target_in_flight":8},"#,
        r#""units":{"throughput":"granted requests (and queries) per second","latency":"client-observed submit-to-completion milliseconds","in_flight":"peak concurrently submitted-but-unanswered requests, measured server-side"},"#,
        r#""runs":[{"mode":"blocking","wall_seconds":2.5,"answered":10,"rejected":2,"queries_answered":40,"requests_per_second":10.0,"queries_per_second":40.0,"mean_squared_error":1250.5,"batches":4,"coalesced_batches":3,"cross_eps_batches":0,"mean_occupancy":2.5,"max_occupancy":4,"cache_misses":4,"cache_hits":0,"peak_queue_depth":8,"p50_latency_ms":12.25,"p99_latency_ms":40.0,"overspend":false,"delta_overspend":false,"densifications":0},"#,
        r#"{"mode":"evented","wall_seconds":2.5,"answered":10,"rejected":2,"queries_answered":40,"requests_per_second":20.0,"queries_per_second":80.0,"mean_squared_error":1250.5,"batches":4,"coalesced_batches":3,"cross_eps_batches":1,"mean_occupancy":2.5,"max_occupancy":4,"cache_misses":4,"cache_hits":0,"peak_queue_depth":8,"p50_latency_ms":12.25,"p99_latency_ms":20.0,"overspend":false,"delta_overspend":false,"densifications":0}],"#,
        r#""evented":{"peak_in_flight":8,"shard_peak_depths":[3,3,2,0],"active_shards":3,"max_shard_fraction":0.375,"stolen_batches":1},"#,
        r#""comparison":{"throughput_gain":2.0,"p99_gain":2.0,"strictly_faster":true,"strictly_lower_p99":true,"passes_smoke":false}}"#,
    );
}
