//! Layered benchmark of the lrm workspace.
//!
//! ```text
//! perfbench --workload <compile|serve-memory|serve-durable> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- …`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! same workload runs again with the benchmark's own spans, the
//! `lrm_obs::Memory` subscriber and the solver observer installed, and the
//! metrics are the per-layer ones. Every number is taken from outside the
//! program: by timing calls into each crate's public functions and by
//! reading the counters those functions return. Scratch state (strategy
//! stores, durable ledgers, the trace file) lives under
//! `.perfbench_work/` in the working directory. `--tiny` shrinks every
//! workload for the benchmark's own test.

mod compile;
mod probes;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    Compile,
    ServeMemory,
    ServeDurable,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "compile" => Some(Self::Compile),
            "serve-memory" => Some(Self::ServeMemory),
            "serve-durable" => Some(Self::ServeDurable),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::Compile => "compile",
            Self::ServeMemory => "serve-memory",
            Self::ServeDurable => "serve-durable",
        }
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: WorkloadName,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// This run's private scratch directory.
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <compile|serve-memory|serve-durable> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<(WorkloadName, u64, f64, bool, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
        tiny,
    ))
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace, tiny) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench_work");
    let work = root.join(format!("{}-{}", workload.label(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        work: work.clone(),
    };
    let collector = trace.then(|| Arc::new(lrm_obs::Memory::default()));
    let mut outcome = match workload {
        WorkloadName::Compile => compile::run(&args, collector.as_ref()),
        WorkloadName::ServeMemory | WorkloadName::ServeDurable => {
            serve::run(&args, collector.as_ref())
        }
    };
    if let Some(memory) = &collector {
        // One file per workload, overwritten by its next traced run.
        let path = root.join(format!("trace-{}.jsonl", workload.label()));
        if let Err(e) = write_trace(&path, &memory.take()) {
            eprintln!("perfbench: trace file {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    outcome.check_finite();
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

/// Writes the collected spans and events, one JSON object a line.
fn write_trace(path: &Path, records: &[lrm_obs::Record]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in records {
        writeln!(out, "{}", lrm_obs::json::record_line(r))?;
    }
    out.flush()
}

/// Runs `f` with `memory` installed as the process's trace subscriber.
/// Records stay in `memory` after the subscriber is removed.
pub fn traced<R>(memory: &Arc<lrm_obs::Memory>, f: impl FnOnce() -> R) -> R {
    lrm_obs::install(memory.clone());
    let r = f();
    lrm_obs::uninstall();
    r
}
