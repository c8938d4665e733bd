//! Flag reading shared by the gate binaries (`load_sim`, `scaling_sweep`,
//! `warm_start`, `chaos`).

use std::str::FromStr;

/// A binary's arguments, read flag by flag. Flags that shape the run's
/// configuration are recorded as they are read: a `--smoke` run uses a
/// pinned configuration and refuses them rather than silently ignoring
/// them.
pub struct Flags<I> {
    args: I,
    /// The configuration-shaping flags read so far.
    pub shaping: Vec<&'static str>,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// Reads `args` (excluding the program name).
    pub fn new(args: I) -> Self {
        Self {
            args,
            shaping: Vec::new(),
        }
    }

    /// The next flag, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value after `flag`, parsed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.args.next().ok_or(format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag}: {v}"))
    }

    /// The value after the configuration-shaping `flag`, parsed.
    pub fn shaping<T: FromStr>(&mut self, flag: &'static str) -> Result<T, String> {
        self.shaping.push(flag);
        self.value(flag)
    }
}

/// Whether a run in the pinned-configuration `mode` (`--smoke`, …) must
/// be refused because it was given the configuration-shaping flags
/// `shaping`; reports them under `bin`.
pub fn refuse_shaping(bin: &'static str, mode: &str, shaping: &[&str]) -> bool {
    if !shaping.is_empty() {
        crate::fail!(
            bin,
            "{bin}: {mode} runs a pinned configuration and does not accept {}",
            shaping.join(", ")
        );
    }
    !shaping.is_empty()
}
