//! Run outcome, metric values, sample statistics and the one-line JSON
//! result the benchmark prints last.

use lrm_obs::{Record, Value};
use std::fmt::Write as _;

/// Everything one run reports: the counts, the output checks that failed,
/// and the metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed output check; empty means the outputs were
    /// correct.
    pub errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed output check unless `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Fails the run for every metric that could not be measured.
    pub fn check_finite(&mut self) {
        for &(name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is {value}"));
            }
        }
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}, …}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured is printed as 0 and failed by `check_finite`.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (NaN if empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of the samples between the first and third quartile: as robust
/// as a median, but not stuck on the few values a count per window can
/// take.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let (lo, hi) = (s.len() / 4, s.len() - s.len() / 4);
    mean(&s[lo..hi.max(lo + 1).min(s.len())])
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn geo_mean(samples: &[f64]) -> f64 {
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len().max(1) as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Durations in microseconds of every span named `name`.
pub fn span_us(records: &[Record], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Span(s) if s.name == name => Some(s.dur_ns as f64 / 1e3),
            _ => None,
        })
        .collect()
}

/// Numeric field `key` of every record named `name`.
pub fn field_values(records: &[Record], name: &str, key: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.name() == name)
        .filter_map(|r| match r.field(key)? {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        })
        .collect()
}
