//! Engine rounds over a panel of workloads (cold, warm, restart and
//! release passes, plus memory hits when tracing) and the `compile`
//! workload built on them.

use crate::report::{self, geo_mean, median, Outcome};
use crate::{probes, traced, RunArgs};
use lrm_core::engine::{
    CacheOutcome, CompileMeta, CompileOptions, CompiledMechanism, Engine, MechanismKind,
};
use lrm_core::mechanism::Mechanism;
use lrm_dp::rng::derive_rng;
use lrm_dp::Epsilon;
use lrm_linalg::operator::densification_count;
use lrm_linalg::Matrix;
use lrm_obs::Memory;
use lrm_workload::generators::{standard_normal, WRangeCoarse, WorkloadGenerator};
use lrm_workload::{WDiscrete, WRange, Workload};
use rand::{Rng, RngCore};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One panel entry: a workload and its near-duplicate.
pub struct Entry {
    pub label: String,
    pub original: Workload,
    pub near: Workload,
    /// The average error at ε = 1 of the SVD construction for the
    /// original and for the near-duplicate (see [`svd_error`]).
    pub svd_error: [f64; 2],
}

impl Entry {
    pub fn new(label: String, original: Workload, near: Workload) -> Self {
        let svd_error = [svd_error(&original), svd_error(&near)];
        Entry {
            label,
            original,
            near,
            svd_error,
        }
    }
}

/// Moves one boundary of query 0 of an interval workload by one bucket.
pub fn nudge_intervals(w: &Workload) -> Workload {
    let n = w.domain_size();
    let mut row = vec![0.0; n];
    let mut intervals: Vec<(usize, usize)> = (0..w.num_queries())
        .map(|i| {
            w.op().fill_row(i, &mut row);
            let lo = row
                .iter()
                .position(|&v| v != 0.0)
                .expect("non-empty interval");
            let hi = row
                .iter()
                .rposition(|&v| v != 0.0)
                .expect("non-empty interval");
            (lo, hi)
        })
        .collect();
    let (lo, hi) = intervals[0];
    intervals[0] = if hi + 1 < n {
        (lo, hi + 1)
    } else if lo > 0 {
        (lo - 1, hi)
    } else {
        (lo, hi - 1)
    };
    Workload::from_intervals(n, intervals).expect("nudged intervals stay valid")
}

/// WRelated (`W = C·A / √s`, Gaussian factors) and the same workload with
/// row 0 of `C` redrawn.
fn related_pair(m: usize, n: usize, s: usize, rng: &mut dyn RngCore) -> (Workload, Workload) {
    let mut c = Matrix::from_fn(m, s, |_, _| standard_normal(rng));
    let a = Matrix::from_fn(s, n, |_, _| standard_normal(rng));
    let build = |c: &Matrix| {
        let w = lrm_linalg::ops::matmul(c, &a).expect("shapes agree");
        Workload::new(w.scale(1.0 / (s as f64).sqrt())).expect("finite workload")
    };
    let original = build(&c);
    for v in c.row_mut(0) {
        *v = standard_normal(rng);
    }
    (original, build(&c))
}

/// The paper's families: WDiscrete (p = 0.02), WRange, WRelated
/// (s = 0.2·min(m, n)) and WRangeCoarse (32 cuts, so all 8 buckets here),
/// 60 draws each at m = 12 queries over n = 8 buckets, the regime where
/// the workload's rank is below its query count.
///
/// Why these sizes, on a 2-core Xeon with the default options: how long
/// one draw takes to compile moves by ±50% from draw to draw (its ALM
/// outer and inner iteration counts both move), so a pass needs a few
/// hundred draws before its total stops moving with the seed. Here a
/// draw costs ~20 ms; at m = 6, n = 24 ~50 ms, at m = 8, n = 32 ~0.3 s
/// and at m = 16, n = 64 1–3 s.
pub fn paper_panel(seed: u64, tiny: bool) -> Vec<Entry> {
    let (m, n, draws) = if tiny { (6, 4, 1) } else { (12, 8, 60) };
    let mut entries = Vec::new();
    let mut stream = 0u64;
    let mut rng = || {
        stream += 1;
        derive_rng(seed, 0xc0_0000 + stream)
    };
    let interval_entry = |name: &str, g: &dyn WorkloadGenerator, rng: &mut dyn RngCore| {
        let original = g.generate(m, n, rng).expect("valid panel shape");
        let near = nudge_intervals(&original);
        Entry::new(format!("{name}-{m}x{n}"), original, near)
    };
    for _ in 0..draws {
        let original = WDiscrete::default()
            .generate(m, n, &mut rng())
            .expect("valid panel shape");
        let mut flipped = (*original.matrix()).clone();
        flipped[(0, 0)] = -flipped[(0, 0)];
        let near = Workload::new(flipped).expect("finite workload");
        entries.push(Entry::new(format!("WDiscrete-{m}x{n}"), original, near));
        entries.push(interval_entry("WRange", &WRange, &mut rng()));
        let s = ((0.2 * m.min(n) as f64).round() as usize).max(1);
        let (original, near) = related_pair(m, n, s, &mut rng());
        entries.push(Entry::new(format!("WRelated-{m}x{n}"), original, near));
        let coarse = WRangeCoarse { cuts: 32.min(n) };
        entries.push(interval_entry("WRangeCoarse", &coarse, &mut rng()));
    }
    for (i, e) in entries.iter_mut().enumerate() {
        e.label = format!("#{i} {}", e.label);
    }
    entries
}

/// WRangeCoarse (8 cuts) at 32 × 1024: the structured operator path at
/// scale, which must compile without densifying. Traced runs only: its
/// ALM iteration count moves from 28 to 41 with the seed and the warm
/// start sometimes costs more than the cold compile, so in the timed
/// passes this one ~4 s entry set half their spread.
pub fn structured_entry(seed: u64, tiny: bool) -> Entry {
    let (m, n) = if tiny { (8, 64) } else { (32, 1024) };
    let original = WRangeCoarse { cuts: 8 }
        .generate(m, n, &mut derive_rng(seed, 0xc1_0000))
        .expect("valid panel shape");
    let near = nudge_intervals(&original);
    Entry::new(format!("WRangeCoarse-{m}x{n}"), original, near)
}

/// How much work one round does besides the cold and warm compile of
/// each entry.
pub struct Plan {
    /// Restart passes, each with fresh engines over the round's stores.
    pub restarts: usize,
    /// Timed blocks of `RELEASE_BLOCK` releases through each entry's cold
    /// strategy.
    pub release_blocks: usize,
    /// Memory-hit compiles per entry.
    pub memory_hits: usize,
}

/// Releases per timed block: one release of a 6 × 24 strategy takes well
/// under a microsecond, too short to time alone.
const RELEASE_BLOCK: usize = 32;

/// What the rounds measured over one panel.
#[derive(Default)]
pub struct Passes {
    /// Latency of every cold compile and every warm (near-duplicate)
    /// compile, per entry.
    pub cold_ms: Vec<Vec<f64>>,
    pub warm_ms: Vec<Vec<f64>>,
    /// Latency of every restart (disk-hit) compile, per stored strategy
    /// (entry `i`'s original at `2i`, its near-duplicate at `2i + 1`).
    pub restart_ms: Vec<Vec<f64>>,
    /// Latency of one release, per timed block, per entry.
    pub release_ms: Vec<Vec<f64>>,
    /// Latency of every memory-hit compile.
    pub memory_hit_ms: Vec<f64>,
    /// Compile metadata of the first round's cold and warm compiles.
    pub cold: Vec<CompileMeta>,
    pub warm: Vec<CompileMeta>,
    /// Compile outcomes over every round.
    pub outcomes: Vec<CacheOutcome>,
    /// Each first-round cold and warm strategy's expected error over the
    /// error of the SVD construction for the same workload.
    pub error_ratios: Vec<f64>,
    /// Per entry: realized squared error summed over its released
    /// answers, the number of answers, and its SVD construction's
    /// average error at ε = 1.
    pub release_sq: Vec<(f64, f64, f64)>,
    /// Realized and expected squared error summed over every released
    /// answer.
    pub sq_err: f64,
    pub expected_sq_err: f64,
    pub rounds: usize,
    /// Strategies resident in the entries' memory caches after the first
    /// round's cold and warm compiles.
    pub cache_entries: usize,
    pub compiles: u64,
    pub releases: u64,
    pub failed: u64,
    /// Wall time of each observed ALM outer iteration (traced runs).
    pub outer_ms: Vec<f64>,
}

/// The panel, its per-entry data vectors and where its stores live.
pub struct Panel<'a> {
    pub entries: &'a [Entry],
    pub options: &'a CompileOptions,
    pub dir: &'a Path,
    /// Per-entry data vector the releases answer over.
    pub data: &'a [Vec<f64>],
}

/// Draws one data vector per entry: counts in 0..100 over its domain.
pub fn panel_data(entries: &[Entry], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = derive_rng(seed, 0xda7a);
    entries
        .iter()
        .map(|e| {
            (0..e.original.domain_size())
                .map(|_| f64::from(rng.gen_range(0..100u32)))
                .collect()
        })
        .collect()
}

/// Average squared error per query at ε = 1 of the SVD construction
/// `B = √r·UΣ`, `L = V/√r` (Lemma 3) for `w`; at ε it is this over ε².
/// It is what LRM's search starts from and must beat. Dividing by it
/// takes out how hard the drawn workload is, which otherwise moves the
/// panel's error by ±10% with the seed.
pub fn svd_error(w: &Workload) -> f64 {
    lrm_core::bounds::lemma3_upper_bound(&w.singular_values(), 1.0) / w.num_queries() as f64
}

/// Geometric mean of the raw expected errors, compared bit for bit
/// between rounds.
fn raw_error(cold: &[CompileMeta], warm: &[CompileMeta]) -> f64 {
    let errors: Vec<f64> = cold
        .iter()
        .chain(warm)
        .map(|m| m.expected_avg_error)
        .collect();
    geo_mean(&errors)
}

fn engine_over(dir: &Path) -> Engine {
    Engine::builder().spill_dir(dir).build()
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch store directory");
    dir.to_path_buf()
}

/// One compile, inside a `bench.engine.compile` span when tracing.
fn compile_one(
    engine: &Engine,
    w: &Workload,
    options: &CompileOptions,
    pass: &'static str,
) -> Option<CompiledMechanism> {
    let mut span = lrm_obs::span!("bench.engine.compile", pass = pass, rows = w.num_queries());
    match engine.compile(w, MechanismKind::Lrm, options) {
        Ok(c) => {
            span.record("cache", format!("{:?}", c.meta().cache));
            span.record("alm_iterations", c.meta().alm_iterations.unwrap_or(0));
            Some(c)
        }
        Err(e) => {
            eprintln!("perfbench: compile failed in the {pass} pass: {e}");
            None
        }
    }
}

/// Times each ALM outer iteration of the compiles run inside `f`, as
/// `bench.decomp.outer` events, when tracing is on. A compile's first
/// iteration is left out: its interval also holds the initializer.
fn observing<R>(samples: &Rc<RefCell<Vec<f64>>>, f: impl FnOnce() -> R) -> R {
    if !lrm_obs::enabled() {
        return f();
    }
    let (sink, clock) = (samples.clone(), RefCell::new(Instant::now()));
    lrm_opt::telemetry::with_observer(
        Rc::new(move |it: lrm_opt::AlmIteration| {
            let now = Instant::now();
            let ms = now.duration_since(*clock.borrow()).as_secs_f64() * 1e3;
            *clock.borrow_mut() = now;
            if it.outer > 1 {
                sink.borrow_mut().push(ms);
                lrm_obs::event!("bench.decomp.outer", outer = it.outer, ms = ms);
            }
        }),
        f,
    )
}

/// Runs `f` and returns its result with its wall time in ms.
fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

impl Passes {
    pub fn new(entries: usize) -> Self {
        Passes {
            cold_ms: vec![Vec::new(); entries],
            warm_ms: vec![Vec::new(); entries],
            restart_ms: vec![Vec::new(); 2 * entries],
            release_ms: vec![Vec::new(); entries],
            release_sq: vec![(0.0, 0.0, f64::NAN); entries],
            ..Passes::default()
        }
    }

    /// Geometric mean over every cold and warm strategy of its expected
    /// error over its SVD construction's (both at ε = 1).
    pub fn strategy_error(&self) -> f64 {
        geo_mean(&self.error_ratios)
    }

    /// Geometric mean over entries of the realized squared error per
    /// released answer over the entry's SVD construction's error.
    pub fn release_error(&self) -> f64 {
        let ratios: Vec<f64> = self
            .release_sq
            .iter()
            .filter(|&&(_, n, _)| n > 0.0)
            .map(|&(sq, n, svd)| sq / n / svd)
            .collect();
        geo_mean(&ratios)
    }

    fn count(&self, outcome: CacheOutcome) -> f64 {
        self.outcomes.iter().filter(|&&o| o == outcome).count() as f64
    }

    /// Seconds a cold pass over the panel takes: the sum over entries of
    /// each one's median cold compile, so a stall during one round moves
    /// it no more than the entries it hit.
    pub fn cold_s(&self) -> f64 {
        self.cold_ms.iter().map(|s| median(s)).sum::<f64>() / 1e3
    }

    /// The same for the warm (near-duplicate) compiles.
    pub fn warm_s(&self) -> f64 {
        self.warm_ms.iter().map(|s| median(s)).sum::<f64>() / 1e3
    }

    /// Geometric mean over stored strategies of each one's median restart
    /// latency: the panel mixes shapes, so a median over all of them
    /// would sit between shape groups and jump with the seed.
    pub fn restart_ms(&self) -> f64 {
        geo_mean(
            &self
                .restart_ms
                .iter()
                .map(|s| median(s))
                .collect::<Vec<_>>(),
        )
    }

    /// Each entry's median release latency, in ms.
    fn release_medians(&self) -> Vec<f64> {
        self.release_ms
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    }

    /// One round over `panel`. Each entry, over a fresh engine and store
    /// of its own: its cold compile, its near-duplicate's warm compile,
    /// the memory hits and timed release blocks `plan` asks for. Then the
    /// restart passes over every entry's store. Every round after the
    /// first must reproduce the first one's strategies bit for bit.
    pub fn round(&mut self, panel: &Panel<'_>, plan: &Plan, seed: u64, out: &mut Outcome) {
        let Panel {
            entries,
            options,
            dir,
            data,
        } = *panel;
        let outer = Rc::new(RefCell::new(Vec::new()));
        let eps = Epsilon::new(1.0).expect("positive");
        let mut rng = derive_rng(seed, 0x5e1e_0000 + self.rounds as u64);
        let mut cold_meta = Vec::new();
        let mut warm_meta = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            let engine = engine_over(&fresh_dir(&dir.join(format!("store-{i}"))));
            let (cold, ms) = observing(&outer, || {
                timed_ms(|| compile_one(&engine, &e.original, options, "cold"))
            });
            self.cold_ms[i].push(ms);
            let (warm, ms) = observing(&outer, || {
                timed_ms(|| compile_one(&engine, &e.near, options, "warm"))
            });
            self.warm_ms[i].push(ms);
            self.compiles += 2;
            if self.rounds == 0 {
                self.cache_entries += engine.cache_stats().entries;
            }
            for (c, expect, pass) in [
                (&cold, CacheOutcome::Miss, "cold"),
                (&warm, CacheOutcome::WarmStart, "near-duplicate"),
            ] {
                let Some(c) = c else {
                    self.failed += 1;
                    continue;
                };
                let cache = c.meta().cache;
                self.outcomes.push(cache);
                out.check(cache == expect, || {
                    format!("{}: {pass} compile reported {cache:?}", e.label)
                });
            }
            if self.rounds == 0 {
                for (c, svd) in [(&cold, e.svd_error[0]), (&warm, e.svd_error[1])] {
                    if let Some(m) = c.as_ref().map(|c| c.meta()) {
                        let eps = m.reference_eps.value();
                        self.error_ratios
                            .push(m.expected_avg_error / (svd / (eps * eps)));
                    }
                }
            }
            cold_meta.extend(cold.as_ref().map(|c| c.meta().clone()));
            warm_meta.extend(warm.as_ref().map(|c| c.meta().clone()));

            for _ in 0..plan.memory_hits {
                let (c, ms) = timed_ms(|| compile_one(&engine, &e.original, options, "memory"));
                self.memory_hit_ms.push(ms);
                self.compiles += 1;
                match c {
                    Some(c) => {
                        let cache = c.meta().cache;
                        self.outcomes.push(cache);
                        out.check(cache == CacheOutcome::MemoryHit, || {
                            format!("{}: repeat compile reported {cache:?}", e.label)
                        });
                    }
                    None => self.failed += 1,
                }
            }

            // Releases through the cold strategy at ε = 1, each answer
            // checked against the exact one.
            let Some(cold) = &cold else { continue };
            if plan.release_blocks == 0 {
                continue;
            }
            let exact = e
                .original
                .answer(&data[i])
                .expect("data matches the domain");
            let expected = cold.expected_average_error(eps, Some(&data[i]));
            self.release_sq[i].2 = e.svd_error[0] / (eps.value() * eps.value());
            for _ in 0..plan.release_blocks {
                let _span = lrm_obs::span!("bench.engine.release", entry = i);
                let (answers, ms) = timed_ms(|| {
                    (0..RELEASE_BLOCK)
                        .map(|_| cold.answer(&data[i], eps, &mut rng))
                        .collect::<Vec<_>>()
                });
                self.release_ms[i].push(ms / RELEASE_BLOCK as f64);
                for a in answers {
                    self.releases += 1;
                    match a {
                        Ok(a) if a.len() == exact.len() => {
                            let sq = a
                                .iter()
                                .zip(&exact)
                                .map(|(a, e)| (a - e) * (a - e))
                                .sum::<f64>();
                            self.sq_err += sq;
                            self.expected_sq_err += a.len() as f64 * expected;
                            self.release_sq[i].0 += sq;
                            self.release_sq[i].1 += a.len() as f64;
                        }
                        Ok(a) => out.check(false, || {
                            format!("{}: release has {} answers", e.label, a.len())
                        }),
                        Err(err) => {
                            eprintln!("perfbench: release failed: {err}");
                            self.failed += 1;
                        }
                    }
                }
            }
        }
        self.outer_ms.extend(outer.borrow().iter());

        for _ in 0..plan.restarts {
            for (i, e) in entries.iter().enumerate() {
                let engine = engine_over(&dir.join(format!("store-{i}")));
                for (k, w) in [&e.original, &e.near].into_iter().enumerate() {
                    let (c, ms) = timed_ms(|| compile_one(&engine, w, options, "restart"));
                    self.restart_ms[2 * i + k].push(ms);
                    self.compiles += 1;
                    let Some(c) = c else {
                        self.failed += 1;
                        continue;
                    };
                    let m = c.meta();
                    self.outcomes.push(m.cache);
                    out.check(m.cache == CacheOutcome::DiskHit, || {
                        format!("{}: restart compile reported {:?}", e.label, m.cache)
                    });
                    // A disk hit serves the strategy its first compile
                    // stored, so the expected error must match bit for bit.
                    let first = if k == 0 { &cold_meta } else { &warm_meta };
                    if let Some(f) = first.get(i) {
                        let f = f.expected_avg_error;
                        out.check(m.expected_avg_error == f, || {
                            format!(
                                "{}: disk hit error {} differs from its compile {f}",
                                e.label, m.expected_avg_error
                            )
                        });
                    }
                }
            }
        }

        if self.rounds == 0 {
            self.cold = cold_meta;
            self.warm = warm_meta;
        } else {
            let (first, again) = (
                raw_error(&self.cold, &self.warm),
                raw_error(&cold_meta, &warm_meta),
            );
            out.check(first == again, || {
                format!("strategy error {again} on a repeat differs from {first}")
            });
        }
        self.rounds += 1;
    }
}

/// Realized squared error over the closed-form expected error, summed
/// over every released answer, must fall inside this band. Less noise
/// than calibrated would break the privacy guarantee; the realized error
/// also holds the structural residual `‖(W − BL)x‖²`, which the expected
/// error omits, and a short run has few releases.
pub const ERROR_BAND: (f64, f64) = (0.7, 3.0);

/// Rounds a run of `seconds` makes: one per 7 s; a round (cold and warm
/// compile of every entry, 640 releases through each cold strategy and
/// ten restart compiles of each stored strategy) takes 5.5–8 s on a
/// 2-core Xeon. The count depends on `--seconds` only, so every run does
/// the same work.
fn rounds_for(seconds: f64) -> usize {
    ((seconds / 7.0).floor() as usize).max(1)
}

/// The `compile` workload: the paper panel through the engine with the
/// default compile options, no server, ledger or noise in the compiles;
/// the strategies then answer the panel's data.
pub fn run(args: &RunArgs, collector: Option<&Arc<Memory>>) -> Outcome {
    let mut out = Outcome::default();
    let options = CompileOptions::default();

    // Set-up: panel and data generation, with each workload's SVD
    // construction error, repeated for a steady median.
    // There is no warm-up: a process's first compiles run slower, but
    // every metric is a median over rounds, so the first round's slowness
    // does not show.
    let mut setup = Vec::new();
    let mut kept = None;
    for _ in 0..21 {
        let t = Instant::now();
        let entries = paper_panel(args.seed, args.tiny);
        let data = panel_data(&entries, args.seed);
        setup.push(t.elapsed().as_secs_f64());
        kept = Some((entries, data));
    }
    let (mut entries, mut data) = kept.expect("set-up ran");
    let plan = Plan {
        restarts: 10,
        release_blocks: if args.tiny { 4 } else { 20 },
        memory_hits: if collector.is_some() { 20 } else { 0 },
    };

    // Densifications are counted in this process only, around the
    // rounds; nothing else runs in it meanwhile.
    let densify_before = densification_count();
    let mut passes = Passes::new(entries.len());
    let mut overhead = None;
    match collector {
        None => {
            let panel = Panel {
                entries: &entries,
                options: &options,
                dir: &args.work,
                data: &data,
            };
            for _ in 0..rounds_for(args.seconds) {
                passes.round(&panel, &plan, args.seed, &mut out);
            }
        }
        Some(memory) => {
            // An untraced round (a process's first compiles run slower),
            // a traced round over the panel plus the structured entry,
            // and an untraced round again: the tracing cost is the ratio
            // of the last two rounds' cold compile time over the panel.
            let small = entries.len();
            entries.push(structured_entry(args.seed, args.tiny));
            data = panel_data(&entries, args.seed);
            let panel = |n: usize| Panel {
                entries: &entries[..n],
                options: &options,
                dir: &args.work,
                data: &data[..n],
            };
            passes.round(&panel(small), &plan, args.seed, &mut out);
            let mut p = Passes::new(entries.len());
            traced(memory, || {
                p.round(&panel(entries.len()), &plan, args.seed, &mut out)
            });
            let mut again = Passes::new(small);
            again.round(&panel(small), &plan, args.seed, &mut out);
            let traced_s: f64 = p.cold_ms[..small].iter().flatten().sum::<f64>() / 1e3;
            overhead = Some(traced_s / again.cold_s());
            for q in [&passes, &again] {
                p.compiles += q.compiles;
                p.releases += q.releases;
                p.failed += q.failed;
            }
            passes = p;
        }
    }
    let densified = densification_count() - densify_before;
    out.check(densified == 0, || {
        format!("the panel densified an operator {densified} times")
    });
    let ratio = passes.sq_err / passes.expected_sq_err;
    out.check((ERROR_BAND.0..=ERROR_BAND.1).contains(&ratio), || {
        format!("realized/expected error ratio {ratio:.3} outside {ERROR_BAND:?}")
    });
    out.attempted = passes.compiles + passes.releases;
    out.failed = passes.failed;
    eprintln!(
        "perfbench: compile {} rounds, cold {:.3}s warm {:.3}s strategy_error {:e}, \
         realized/expected release error {ratio:.3}",
        passes.rounds,
        passes.cold_s(),
        passes.warm_s(),
        passes.strategy_error()
    );

    match collector {
        None => {
            out.metric("setup_s", median(&setup), "s");
            out.metric("rss_mb", report::peak_rss_mb(), "MB");
            end_to_end_engine_metrics(&mut out, &passes);
            // The strategies answering their panel's data: releases per
            // second for a client cycling through the panel, and the
            // geometric mean over entries of each one's median latency.
            let per_entry = passes.release_medians();
            out.metric(
                "capacity_rps",
                per_entry.len() as f64 / (per_entry.iter().sum::<f64>() / 1e3),
                "1/s",
            );
            out.metric("p50_ms", geo_mean(&per_entry), "ms");
            out.metric("release_error", passes.release_error(), "ratio");
        }
        Some(memory) => {
            engine_layer_metrics(&mut out, &passes);
            out.metric("engine.cache_entries", passes.cache_entries as f64, "count");
            let all: Vec<f64> = passes.release_ms.concat();
            out.metric("latency.p99_ms", report::quantile(&all, 0.99), "ms");
            let probe_entries: Vec<&Workload> = entries.iter().map(|e| &e.original).collect();
            traced(memory, || probes::run_all(&mut out, &probe_entries, args));
            probes::spec_prepare(&mut out, memory, &crate::serve::probe_specs(args.seed));
            out.metric("obs.overhead", overhead.unwrap_or(f64::NAN), "ratio");
            // No server runs here; its metrics read 0 so every traced run
            // prints the full per-layer set.
            for &(name, unit) in crate::serve::SERVER_LAYER_METRICS {
                out.metric(name, 0.0, unit);
            }
        }
    }
    out
}

/// `cold_s`, `warm_s` and `strategy_error`.
pub fn end_to_end_engine_metrics(out: &mut Outcome, p: &Passes) {
    out.metric("cold_s", p.cold_s(), "s");
    out.metric("warm_s", p.warm_s(), "s");
    out.metric("strategy_error", p.strategy_error(), "ratio");
}

/// `engine.*` and `decomp.*` metrics from a set of passes.
pub fn engine_layer_metrics(out: &mut Outcome, p: &Passes) {
    let cold_iters: usize = p.cold.iter().filter_map(|m| m.alm_iterations).sum();
    let warm_iters: usize = p.warm.iter().filter_map(|m| m.alm_iterations).sum();
    out.metric("decomp.outer_iters", cold_iters as f64, "count");
    out.metric("decomp.outer_ms", median(&p.outer_ms), "ms");
    out.metric("engine.miss", p.count(CacheOutcome::Miss), "count");
    out.metric("engine.warm", p.count(CacheOutcome::WarmStart), "count");
    out.metric(
        "engine.memory_hit",
        p.count(CacheOutcome::MemoryHit),
        "count",
    );
    out.metric("engine.disk_hit", p.count(CacheOutcome::DiskHit), "count");
    out.metric(
        "engine.warm_iter_ratio",
        warm_iters as f64 / cold_iters.max(1) as f64,
        "ratio",
    );
    out.metric("engine.memory_hit_us", median(&p.memory_hit_ms) * 1e3, "us");
    out.metric("engine.restart_ms", p.restart_ms(), "ms");
}
