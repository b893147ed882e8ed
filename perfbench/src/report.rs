//! Sample statistics and the result line.
//!
//! Every timing the benchmark reports is a percentile ([`SUSTAINED`])
//! over many samples taken in one run; the sample counts are printed on
//! the summary lines. The result line itself is the one JSON object
//! `main` prints last.

use std::fmt::Write;

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload found and measured.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted: trials, instances or runs.
    pub attempted: u64,
    /// Operations that missed termination, validity, ε-agreement or the
    /// expected outcome, plus failed cross-checks.
    pub failed: u64,
    /// The first few failure descriptions, for the summary lines.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable summary lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one attempted operation, failed when `problem` is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failure without counting a new attempt (a failed
    /// cross-check of an operation already counted).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(problem);
        }
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps (non-finite values become `null`).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Percentile of per-operation times that every set-up time, rate and
/// latency uses.
///
/// On the 2-vCPU reference box, other tenants' load makes the same
/// operation run at one of two speeds about 1.6x apart; the share of
/// operations in the fast state shifts from second to second and from
/// minute to minute. A median sits between the two states and moved by
/// up to 34% across runs, a 75th percentile by up to 31% once whole runs
/// fell into a fast minute. Operations (a sweep batch, a service
/// instance, a scale round) each fall inside one state, and their 90th
/// percentile stays in the slow state unless nine in ten operations of
/// a run are fast: the service's p90 moved by 5-7% across three sets of
/// ten runs. The 99th percentile is not used either: single operations
/// stretched by up to 2x at random moved it by 18-30%.
pub const SUSTAINED: f64 = 0.9;

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. One struct for all workloads, so none can leave one out.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Time to construct the workload's engines, in seconds, at the
    /// [`SUSTAINED`] percentile of several set-ups.
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    /// Consensus trials (sweep trials, service instances, scale runs)
    /// completed per second.
    pub trials_per_s: f64,
    /// Those that decided, per second.
    pub decisions_per_s: f64,
    pub rounds_per_s: f64,
    /// Latency of one consensus trial at the [`SUSTAINED`] percentile:
    /// its lane batch (sweep), its instance (service), its run (scale).
    pub instance_ms: f64,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut RunReport) {
        report.metric("setup_s", self.setup_s, "s");
        report.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        report.metric("trials_per_s", self.trials_per_s, "1/s");
        report.metric("decisions_per_s", self.decisions_per_s, "1/s");
        report.metric("rounds_per_s", self.rounds_per_s, "1/s");
        report.metric("instance_ms", self.instance_ms, "ms");
    }
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    adn_bench::harness::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.99), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunReport::default();
        r.check(None);
        r.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(Some("bad".into()));
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
