//! Crash–restart fault-injection harness for the fault-contained serving
//! runtime (the chaos gate of the failure model).
//!
//! One run drives real traffic through a sequence of short-lived
//! [`Server`] "processes" that all share one durable state directory —
//! every cycle builds a server over whatever the previous cycle left on
//! disk, injects one fault from a fixed rotation, serves a deterministic
//! request mix, shuts down, and (for the file-damage faults) corrupts the
//! on-disk state before the next cycle reopens it. The faults:
//!
//! | fault | mechanism |
//! |---|---|
//! | worker panic | `server::worker::panic` failpoint, one batch |
//! | compile stall | `core::alm::stall` failpoint + a compile deadline |
//! | settle crash | `server::settle::crash` failpoint (after noise, before settlement) |
//! | torn journal | truncate 1–3 bytes off one tenant's ε-journal |
//! | store truncate | chop the persisted farm queue in half |
//!
//! The failpoint faults need `debug_assertions` (they compile to no-ops
//! in release builds); the file-damage faults and the restart machinery
//! are real in every profile. Invariants checked across the whole run,
//! not per cycle:
//!
//! 1. **No over-spend, ever**: the ε (and, on a Gaussian run, the δ)
//!    each tenant *observed* being granted across every cycle never
//!    exceeds its registered budget — crashes between noise and
//!    settlement must over-charge, never under-charge, in **both**
//!    ledger columns (verified again at the end against the replayed
//!    ledgers).
//! 2. **No duplicate noise release**: every released `batch_index` is
//!    globally unique across all cycles, despite the pinned seed — the
//!    persisted noise epoch is what keeps the streams apart.
//! 3. **The pool never starves**: every cycle answers at least one
//!    request, whatever was injected.
//! 4. **Every ticket resolves**: no submission is left hanging.
//! 5. **Degraded mode is fast**: in stall cycles every release lands
//!    within twice the compile deadline.

use crate::experiments::scaling::scaling_lrm_config;
use lrm_core::engine::{CompileOptions, MechanismKind, NoiseFlavor};
use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, Epsilon};
use lrm_server::{QuerySpec, Server, ServerError};
use lrm_testing::{arm, reset, FailAction, FireRule};
use lrm_workload::{Attribute, Schema};
use rand::Rng;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One injected fault of the rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A worker panics mid-batch (supervision + quarantine path).
    WorkerPanic,
    /// Every compile stalls past the deadline (degraded-mode path).
    CompileStall,
    /// A worker crashes after drawing noise, before settling (the
    /// intent must replay as spent).
    SettleCrash,
    /// 1–3 bytes torn off the end of one tenant's budget journal.
    TornJournal,
    /// The persisted farm queue is chopped in half.
    StoreTruncate,
}

impl Fault {
    /// The fixed rotation; cycle `c` injects `ROTATION[c % 5]`.
    pub const ROTATION: [Fault; 5] = [
        Fault::WorkerPanic,
        Fault::CompileStall,
        Fault::SettleCrash,
        Fault::TornJournal,
        Fault::StoreTruncate,
    ];

    /// Short label for per-cycle reporting.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::WorkerPanic => "worker-panic",
            Fault::CompileStall => "compile-stall",
            Fault::SettleCrash => "settle-crash",
            Fault::TornJournal => "torn-journal",
            Fault::StoreTruncate => "store-truncate",
        }
    }

    /// Whether this fault is delivered through a `lrm-testing` failpoint
    /// (and therefore needs a `debug_assertions` build to fire).
    pub fn needs_failpoints(&self) -> bool {
        matches!(
            self,
            Fault::WorkerPanic | Fault::CompileStall | Fault::SettleCrash
        )
    }
}

/// Chaos-run configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Crash–restart cycles (each builds one server over the shared
    /// state directory; the rotation repeats every 5).
    pub cycles: usize,
    /// Histogram buckets.
    pub buckets: usize,
    /// Boundary cuts the specs snap to.
    pub cuts: usize,
    /// Well-funded tenants (sized so traffic never exhausts them).
    pub big_tenants: usize,
    /// Requests per cycle, submitted sequentially.
    pub requests_per_cycle: usize,
    /// Queries per range-panel spec.
    pub spec_queries: usize,
    /// Per-release ε.
    pub eps_request: f64,
    /// Per-release δ. Zero (the default) runs the pure-DP harness;
    /// anything positive switches the servers to the Gaussian mechanism
    /// and makes every crash–restart invariant bind on *both* ledger
    /// columns — in particular a settle crash must replay its (ε, δ)
    /// intent as spent in both.
    pub noise_delta: f64,
    /// Budget of the deliberately under-funded tenant — it exhausts
    /// mid-run so every later cycle also exercises the refusal path.
    pub small_budget: f64,
    /// Worker threads per server.
    pub workers: usize,
    /// Compile deadline used in `CompileStall` cycles.
    pub stall_deadline: Duration,
    /// Master seed — pinned across cycles on purpose, so only the
    /// persisted noise epoch separates the cycles' noise streams.
    pub seed: u64,
    /// Arm failpoint faults (auto-disabled in release builds).
    pub inject_failpoints: bool,
    /// Suppress per-cycle printing.
    pub quiet: bool,
    /// Shared durable state directory; `None` picks a temp directory
    /// (removed afterwards).
    pub state_dir: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            cycles: 20,
            buckets: 128,
            cuts: 8,
            big_tenants: 3,
            requests_per_cycle: 10,
            spec_queries: 4,
            eps_request: 0.05,
            noise_delta: 0.0,
            small_budget: 0.3,
            workers: 3,
            stall_deadline: Duration::from_millis(400),
            seed: 20120827,
            inject_failpoints: true,
            quiet: false,
            state_dir: None,
        }
    }
}

impl ChaosConfig {
    /// The pinned CI smoke configuration: 6 cycles (one full rotation
    /// plus the reopen that verifies the last file-damage fault), small
    /// domain.
    pub fn smoke() -> Self {
        Self {
            cycles: 6,
            buckets: 64,
            big_tenants: 2,
            requests_per_cycle: 6,
            spec_queries: 3,
            small_budget: 0.15,
            workers: 2,
            ..Self::default()
        }
    }

    /// The Gaussian CI smoke: the first three rotation entries are the
    /// failpoint faults (worker panic, compile stall, settle crash), so
    /// three cycles cover every in-process fault — including the
    /// settle crash whose (ε, δ) intent must replay in both columns —
    /// without repeating the flavor-independent file-damage faults.
    pub fn gaussian_smoke() -> Self {
        Self {
            cycles: 3,
            noise_delta: 1e-6,
            ..Self::smoke()
        }
    }

    /// Whether this run uses the Gaussian mechanism ((ε, δ)-DP).
    pub fn is_gaussian(&self) -> bool {
        self.noise_delta > 0.0
    }

    fn big_name(t: usize) -> String {
        format!("tenant{t:02}")
    }

    /// Budget of the well-funded tenants: the whole run's demand with
    /// slack, so crashes (which over-charge) still leave head-room.
    fn big_budget(&self) -> f64 {
        (self.cycles * self.requests_per_cycle) as f64 * self.eps_request + 1.0
    }

    /// δ budget of the well-funded tenants: twice the whole run's δ
    /// demand, so replayed double-charges never refuse their traffic.
    fn big_delta(&self) -> f64 {
        (2 * self.cycles * self.requests_per_cycle) as f64 * self.noise_delta
    }

    /// δ budget of the under-funded tenant: generous, so it keeps
    /// exhausting on ε exactly like the pure harness.
    fn small_delta(&self) -> f64 {
        1e-3
    }

    /// A registration-shaped budget: pure ε, or (ε, δ) when Gaussian.
    fn budget(&self, eps: Epsilon, delta: f64) -> Budget {
        if self.is_gaussian() {
            Budget::approx(eps, delta).expect("valid chaos delta")
        } else {
            Budget::pure(eps)
        }
    }
}

/// What one cycle's client observed (accumulated inside `serve`).
#[derive(Debug, Default)]
struct CycleOutcome {
    answered: u64,
    refused: u64,
    quarantined: u64,
    degraded: u64,
    unresolved: u64,
    unexpected: u64,
    latency_violations: u64,
    /// `(tenant, ε, δ)` of every grant the client actually saw (δ is 0
    /// on a pure run).
    grants: Vec<(String, f64, f64)>,
    /// `batch_index` of every release (the noise-stream label).
    indices: Vec<u64>,
}

/// Whole-run outcome and invariant verdicts.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Cycles driven.
    pub cycles: usize,
    /// Whether failpoint faults were actually armed (debug builds only).
    pub failpoints_active: bool,
    /// Requests granted a release, across all cycles.
    pub answered: u64,
    /// Requests refused with a typed budget error.
    pub refused: u64,
    /// Requests refused because their shape was quarantined.
    pub quarantined: u64,
    /// Degraded (deadline-fallback) releases.
    pub degraded: u64,
    /// Worker respawns across all cycles.
    pub worker_respawns: u64,
    /// Ledger journals replayed by the final verification reopen.
    pub ledger_replays: u64,
    /// Tickets that never resolved (must be 0).
    pub unresolved_tickets: u64,
    /// Duplicate released batch indices across cycles (must be 0).
    pub duplicate_releases: u64,
    /// Errors outside the typed failure model (must be 0).
    pub unexpected_errors: u64,
    /// Tenants whose observed grants exceeded their budget (must be 0).
    pub overspent_tenants: u64,
    /// Tenants whose replayed ledger remembers *less* spend than the
    /// grants actually released (must be 0 — crashes over-charge, never
    /// under-charge).
    pub undercounted_tenants: u64,
    /// Tenants whose observed δ grants exceeded their δ budget (must be
    /// 0; always 0 on a pure run).
    pub delta_overspent_tenants: u64,
    /// Tenants whose replayed ledger remembers less δ spend than the
    /// grants actually released (must be 0; always 0 on a pure run).
    pub delta_undercounted_tenants: u64,
    /// Cycles that answered nothing (must be 0 — the pool never starves).
    pub starved_cycles: u64,
    /// Stall-cycle releases slower than 2× the compile deadline (must
    /// be 0).
    pub latency_violations: u64,
    /// Failpoint-fault cycles whose expected symptom never surfaced
    /// (must be 0 when failpoints are active — otherwise the harness is
    /// quietly testing nothing).
    pub missed_faults: u64,
    /// Parseable flight-recorder post-mortem dumps found under
    /// `state_dir/flightrec/` at the end of the run (the durable
    /// servers arm the recorder; every injected panic must dump one).
    pub postmortems: u64,
    /// Panic-fault cycles that left **no new parseable** post-mortem
    /// artifact behind (must be 0 when failpoints are active — a crash
    /// without a flight-recorder dump is an undiagnosable crash).
    pub missing_postmortems: u64,
}

impl ChaosReport {
    /// The acceptance gate over every invariant.
    pub fn passes(&self) -> bool {
        self.answered > 0
            && self.unresolved_tickets == 0
            && self.duplicate_releases == 0
            && self.unexpected_errors == 0
            && self.overspent_tenants == 0
            && self.undercounted_tenants == 0
            && self.delta_overspent_tenants == 0
            && self.delta_undercounted_tenants == 0
            && self.starved_cycles == 0
            && self.latency_violations == 0
            && (!self.failpoints_active || self.missed_faults == 0)
            && self.missing_postmortems == 0
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{} cycles (failpoints {}): {} answered, {} refused, {} quarantined, {} degraded, \
             {} respawns, {} replays, {} postmortems; invariants — unresolved {}, duplicates {}, \
             unexpected {}, overspent {}/{}δ, undercounted {}/{}δ, starved {}, slow-degraded {}, \
             missed-faults {}, missing-postmortems {} => {}",
            self.cycles,
            if self.failpoints_active { "on" } else { "off" },
            self.answered,
            self.refused,
            self.quarantined,
            self.degraded,
            self.worker_respawns,
            self.ledger_replays,
            self.postmortems,
            self.unresolved_tickets,
            self.duplicate_releases,
            self.unexpected_errors,
            self.overspent_tenants,
            self.delta_overspent_tenants,
            self.undercounted_tenants,
            self.delta_undercounted_tenants,
            self.starved_cycles,
            self.latency_violations,
            self.missed_faults,
            self.missing_postmortems,
            if self.passes() { "PASS" } else { "FAIL" },
        )
    }
}

/// Runs the whole crash–restart chaos sequence.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let failpoints_active = cfg.inject_failpoints && cfg!(debug_assertions);
    if failpoints_active {
        // Injected panics are the behavior under test; suppress their
        // default backtrace spew but keep it for anything unexpected.
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.contains("failpoint") {
                    default(info);
                }
            }));
        });
    }
    let owned_dir;
    let dir: &Path = match &cfg.state_dir {
        Some(d) => d,
        None => {
            owned_dir = std::env::temp_dir().join(format!(
                "lrm_chaos_{}_{:08x}",
                std::process::id(),
                cfg.seed
            ));
            &owned_dir
        }
    };
    let _ = std::fs::remove_dir_all(dir);

    let schema = Schema::single(
        Attribute::new("v", 0.0, cfg.buckets as f64, cfg.buckets).expect("valid attribute"),
    );
    let mut data_rng = derive_rng(cfg.seed, 0xda7a);
    let data: Vec<f64> = (0..cfg.buckets)
        .map(|_| data_rng.gen_range(0..500) as f64)
        .collect();
    let eps_request = Epsilon::new(cfg.eps_request).expect("positive eps");
    let request_budget = cfg.budget(eps_request, cfg.noise_delta);
    let big_budget = cfg.budget(
        Epsilon::new(cfg.big_budget()).expect("positive budget"),
        cfg.big_delta(),
    );
    let small_budget = cfg.budget(
        Epsilon::new(cfg.small_budget).expect("positive budget"),
        cfg.small_delta(),
    );

    let mut report = ChaosReport {
        cycles: cfg.cycles,
        failpoints_active,
        answered: 0,
        refused: 0,
        quarantined: 0,
        degraded: 0,
        worker_respawns: 0,
        ledger_replays: 0,
        unresolved_tickets: 0,
        duplicate_releases: 0,
        unexpected_errors: 0,
        overspent_tenants: 0,
        undercounted_tenants: 0,
        delta_overspent_tenants: 0,
        delta_undercounted_tenants: 0,
        starved_cycles: 0,
        latency_violations: 0,
        missed_faults: 0,
        postmortems: 0,
        missing_postmortems: 0,
    };
    let flightrec_dir = dir.join("flightrec");
    let mut granted: HashMap<String, (f64, f64)> = HashMap::new();
    let mut seen_indices: HashSet<u64> = HashSet::new();

    for cycle in 0..cfg.cycles {
        let fault = Fault::ROTATION[cycle % Fault::ROTATION.len()];
        let mut rng = derive_rng(cfg.seed, 0xc4a0_5000 + cycle as u64);
        reset();
        if failpoints_active {
            match fault {
                Fault::WorkerPanic => arm(
                    "server::worker::panic",
                    FailAction::Panic,
                    FireRule::Once {
                        at: rng.gen_range(1..=2),
                    },
                ),
                Fault::CompileStall => arm(
                    "core::alm::stall",
                    FailAction::SleepMs(150),
                    FireRule::Always,
                ),
                Fault::SettleCrash => arm(
                    "server::settle::crash",
                    FailAction::Panic,
                    FireRule::Once {
                        at: rng.gen_range(1..=2),
                    },
                ),
                Fault::TornJournal | Fault::StoreTruncate => {}
            }
        }

        let dumps_before = postmortem_census(&flightrec_dir);

        let mut options = CompileOptions::with_decomposition(scaling_lrm_config());
        if cfg.is_gaussian() {
            options.flavor = NoiseFlavor::ApproxDp;
        }
        let mut builder = Server::builder(schema.clone(), data.clone())
            .mechanism(MechanismKind::Lrm)
            .compile_options(options)
            .coalesce_window(Duration::ZERO)
            .max_batch(1)
            .workers(cfg.workers)
            .seed(cfg.seed) // pinned: the epoch file must separate the streams
            .state_dir(dir);
        if fault == Fault::CompileStall {
            builder = builder.compile_deadline(cfg.stall_deadline);
        }
        let server = builder
            .build()
            .expect("a chaos server must build over damaged state");
        for t in 0..cfg.big_tenants {
            server
                .try_register_tenant_budget(&ChaosConfig::big_name(t), big_budget)
                .expect("big-tenant ledger reopens");
        }
        server
            .try_register_tenant_budget("small", small_budget)
            .expect("small-tenant ledger reopens");

        let (cyc, server_report) = server.serve(|client| {
            let mut cyc = CycleOutcome::default();
            let mut spec_rng = derive_rng(cfg.seed, 0x57ec_0000 + cycle as u64);
            for r in 0..cfg.requests_per_cycle {
                let tenant = if r % (cfg.big_tenants + 1) == cfg.big_tenants {
                    "small".to_string()
                } else {
                    ChaosConfig::big_name(r % cfg.big_tenants)
                };
                let spec = random_panel(cfg, &mut spec_rng);
                let t0 = Instant::now();
                let ticket = match client.submit_budget(&tenant, &spec, request_budget) {
                    Ok(t) => t,
                    Err(ServerError::Overloaded { .. }) => continue,
                    Err(_) => {
                        cyc.unexpected += 1;
                        continue;
                    }
                };
                match ticket.wait_timeout(Duration::from_secs(30)) {
                    None => cyc.unresolved += 1,
                    Some(Ok(release)) => {
                        cyc.answered += 1;
                        if release.degraded {
                            cyc.degraded += 1;
                        }
                        cyc.grants
                            .push((tenant, release.eps_spent.value(), release.delta_spent));
                        cyc.indices.push(release.batch_index);
                        if fault == Fault::CompileStall && t0.elapsed() > 2 * cfg.stall_deadline {
                            cyc.latency_violations += 1;
                        }
                    }
                    Some(Err(ServerError::Admission(_))) => cyc.refused += 1,
                    Some(Err(ServerError::Quarantined { .. })) => cyc.quarantined += 1,
                    Some(Err(_)) => cyc.unexpected += 1,
                }
            }
            cyc
        });
        reset();

        // Merge the cycle into the run-wide invariants.
        report.answered += cyc.answered;
        report.refused += cyc.refused;
        report.quarantined += cyc.quarantined;
        report.degraded += cyc.degraded;
        report.unresolved_tickets += cyc.unresolved;
        report.unexpected_errors += cyc.unexpected;
        report.latency_violations += cyc.latency_violations;
        report.worker_respawns += server_report.metrics.worker_respawns;
        if cyc.answered == 0 {
            report.starved_cycles += 1;
        }
        for (tenant, eps, delta) in &cyc.grants {
            let entry = granted.entry(tenant.clone()).or_insert((0.0, 0.0));
            entry.0 += eps;
            entry.1 += delta;
        }
        for &idx in &cyc.indices {
            if !seen_indices.insert(idx) {
                report.duplicate_releases += 1;
            }
        }
        if failpoints_active {
            let symptom_shown = match fault {
                Fault::WorkerPanic | Fault::SettleCrash => {
                    server_report.metrics.worker_respawns > 0
                }
                Fault::CompileStall => server_report.metrics.degraded_releases > 0,
                Fault::TornJournal | Fault::StoreTruncate => true,
            };
            if !symptom_shown {
                report.missed_faults += 1;
            }
            // Every injected panic must leave a flight-recorder dump
            // behind — a crash with no post-mortem is undiagnosable.
            if matches!(fault, Fault::WorkerPanic | Fault::SettleCrash)
                && postmortem_census(&flightrec_dir) <= dumps_before
            {
                report.missing_postmortems += 1;
            }
        }
        if !cfg.quiet {
            println!(
                "cycle {cycle:02} [{}]: {} answered ({} degraded), {} refused, {} quarantined, \
                 {} respawns, {} replays",
                fault.label(),
                cyc.answered,
                cyc.degraded,
                cyc.refused,
                cyc.quarantined,
                server_report.metrics.worker_respawns,
                server_report.metrics.ledger_replays,
            );
        }
        drop(server_report);

        // The file-damage faults strike *between* processes.
        match fault {
            Fault::TornJournal => tear_a_journal(dir, &mut rng),
            Fault::StoreTruncate => truncate_farm_queue(dir),
            _ => {}
        }
    }

    // Final verification reopen: the replayed ledgers must remember at
    // least every grant any client ever observed (over-charge is legal,
    // under-charge never), and nothing may exceed its budget.
    let verifier = Server::builder(schema, data)
        .workers(1)
        .seed(cfg.seed)
        .state_dir(dir)
        .build()
        .expect("the verification server must build");
    let mut check = |tenant: &str, budget: Budget| {
        let resume = verifier
            .try_register_tenant_budget(tenant, budget)
            .expect("ledger reopens for verification");
        let (observed, observed_delta) = granted.get(tenant).copied().unwrap_or((0.0, 0.0));
        if observed > budget.eps().value() + 1e-9 {
            report.overspent_tenants += 1;
        }
        if observed_delta > budget.delta() + 1e-12 {
            report.delta_overspent_tenants += 1;
        }
        if resume.resumed {
            report.ledger_replays += 1;
            if resume.spent + 1e-9 < observed {
                report.undercounted_tenants += 1;
            }
            if resume.delta_spent + 1e-12 < observed_delta {
                report.delta_undercounted_tenants += 1;
            }
        } else if observed > 0.0 {
            // A tenant that was granted ε but left no journal behind is
            // exactly the under-count the WAL exists to prevent.
            report.undercounted_tenants += 1;
        }
    };
    for t in 0..cfg.big_tenants {
        check(&ChaosConfig::big_name(t), big_budget);
    }
    check("small", small_budget);
    drop(verifier);
    report.postmortems = postmortem_census(&flightrec_dir);

    if cfg.state_dir.is_none() {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

/// Counts the **parseable** flight-recorder post-mortem dumps under the
/// state directory's `flightrec/`. Parseable means non-empty with every
/// line a `{"t":…}` JSON object — the JSON-lines contract the dump
/// writer promises, checked here so a truncated or interleaved dump
/// fails the chaos gate rather than some later reader.
fn postmortem_census(flightrec: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(flightrec) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("postmortem-") && name.ends_with(".jsonl")
        })
        .filter(|e| {
            std::fs::read_to_string(e.path()).is_ok_and(|text| {
                !text.trim().is_empty()
                    && text
                        .lines()
                        .all(|l| l.starts_with(r#"{"t":"#) && l.ends_with('}'))
            })
        })
        .count() as u64
}

/// A random range panel snapped to the boundary grid.
fn random_panel(cfg: &ChaosConfig, rng: &mut impl Rng) -> QuerySpec {
    let step = (cfg.buckets / cfg.cuts).max(1);
    let boundary = |k: usize| (k * step) as f64;
    let ranges: Vec<(f64, f64)> = (0..cfg.spec_queries)
        .map(|_| {
            let lo = rng.gen_range(0..cfg.cuts);
            let hi = rng.gen_range(lo + 1..=cfg.cuts);
            (boundary(lo), boundary(hi))
        })
        .collect();
    QuerySpec::Ranges { attr: 0, ranges }
}

/// Tears 1–3 bytes off the end of one tenant's budget journal — less
/// than any frame, so only the final frame can be damaged (the torn-tail
/// case the journal's recovery is specified for).
fn tear_a_journal(state_dir: &Path, rng: &mut impl Rng) {
    let ledgers = state_dir.join("ledgers");
    let Ok(entries) = std::fs::read_dir(&ledgers) else {
        return;
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "epsj"))
        .collect();
    files.sort();
    if files.is_empty() {
        return;
    }
    let victim = &files[rng.gen_range(0..files.len())];
    let Ok(meta) = std::fs::metadata(victim) else {
        return;
    };
    let cut = 1 + rng.gen_range(0..3) as u64;
    if meta.len() > cut + 8 {
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(victim) {
            let _ = f.set_len(meta.len() - cut);
        }
    }
}

/// Chops the persisted farm popularity queue in half; the next server
/// must tolerate the damage (it is a performance hint, not privacy
/// state).
fn truncate_farm_queue(state_dir: &Path) {
    let path = state_dir.join("farm_queue.lrmf");
    let Ok(meta) = std::fs::metadata(&path) else {
        return;
    };
    if meta.len() > 4 {
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = f.set_len(meta.len() / 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// File-damage faults and the restart invariants, without arming any
    /// failpoints: lib tests share one process, and an armed
    /// `server::worker::panic` would crash the *other* serving tests'
    /// workers. The failpoint faults are exercised by the `chaos` binary
    /// (its own process) and by `lrm-server`'s `faults` test binary.
    #[test]
    fn restart_invariants_hold_without_failpoints() {
        let cfg = ChaosConfig {
            cycles: 5, // one full rotation: both file-damage faults strike
            buckets: 32,
            cuts: 4,
            big_tenants: 2,
            requests_per_cycle: 4,
            spec_queries: 2,
            eps_request: 0.05,
            noise_delta: 0.0,
            small_budget: 0.12,
            workers: 2,
            stall_deadline: Duration::from_millis(400),
            seed: 0xc4a0_0001,
            inject_failpoints: false,
            quiet: true,
            state_dir: None,
        };
        let report = run_chaos(&cfg);
        assert!(
            report.passes(),
            "chaos invariants failed: {}",
            report.summary()
        );
        assert!(!report.failpoints_active);
        assert!(report.answered > 0);
        // The under-funded tenant exhausted mid-run.
        assert!(report.refused > 0, "the small tenant never exhausted");
        // Every tenant's journal replayed at the final verification.
        assert_eq!(report.ledger_replays, 3);
        assert_eq!(report.missed_faults, 0);
    }

    /// The same rotation with δ > 0: every server compiles the Gaussian
    /// mechanism, the (ε, δ)-ledgers bind both columns across restarts
    /// and file damage, and the small tenant still exhausts on ε.
    #[test]
    fn gaussian_restart_invariants_hold_without_failpoints() {
        let cfg = ChaosConfig {
            cycles: 5, // one full rotation: both file-damage faults strike
            buckets: 32,
            cuts: 4,
            big_tenants: 2,
            requests_per_cycle: 4,
            spec_queries: 2,
            eps_request: 0.05,
            noise_delta: 1e-6,
            small_budget: 0.12,
            workers: 2,
            stall_deadline: Duration::from_millis(400),
            seed: 0xc4a0_0002,
            inject_failpoints: false,
            quiet: true,
            state_dir: None,
        };
        let report = run_chaos(&cfg);
        assert!(
            report.passes(),
            "gaussian chaos invariants failed: {}",
            report.summary()
        );
        assert!(report.answered > 0);
        assert!(report.refused > 0, "the small tenant never exhausted");
        assert_eq!(report.ledger_replays, 3);
        assert_eq!(report.delta_overspent_tenants, 0);
        assert_eq!(report.delta_undercounted_tenants, 0);
    }

    #[test]
    fn rotation_covers_every_fault_and_smoke_replays_it() {
        assert_eq!(Fault::ROTATION.len(), 5);
        let smoke = ChaosConfig::smoke();
        assert!(smoke.cycles > Fault::ROTATION.len());
        // The well-funded budget covers the whole run's demand.
        assert!(
            smoke.big_budget()
                > (smoke.cycles * smoke.requests_per_cycle) as f64 * smoke.eps_request
        );
        for fault in Fault::ROTATION {
            assert!(!fault.label().is_empty());
        }
        assert!(Fault::WorkerPanic.needs_failpoints());
        assert!(!Fault::TornJournal.needs_failpoints());

        // The Gaussian smoke's three cycles are exactly the failpoint
        // faults, and its δ budgets cover the whole run's δ demand.
        let gaussian = ChaosConfig::gaussian_smoke();
        assert!(gaussian.is_gaussian());
        assert_eq!(gaussian.cycles, 3);
        assert!(Fault::ROTATION[..gaussian.cycles]
            .iter()
            .all(Fault::needs_failpoints));
        assert!(
            gaussian.big_delta()
                > (gaussian.cycles * gaussian.requests_per_cycle) as f64 * gaussian.noise_delta
        );
        assert!(gaussian.small_delta() < 1.0);
    }
}
