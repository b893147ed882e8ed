//! The simulator's benchmark: one command, one workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|service|scale_runs|scale_csr> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: one client on one thread
//! (`TrialPool::with_threads(1)`, one shard) issues its next operation
//! when the previous one returns. `--trace 0` measures for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` runs a fixed amount
//! of traced work, writes its spans to `perfbench/out/`, and reports the
//! per-layer metrics and its own overhead. Either way every output
//! passes the correctness gates, and the last line of standard output
//! is the result object (`correct`, `attempted`, `failed`, `metrics`).
//! Untraced runs also reproduce the pinned work fingerprint of their
//! seed, where `fingerprint.tsv` has one.
//!
//! The workloads and metrics are listed, with reasons, in the
//! repository's `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod config;
mod fingerprint;
mod layers;
mod report;
mod scale;
mod service;
mod spans;
mod sweep;
mod twins;

use std::path::PathBuf;
use std::process::ExitCode;

use report::RunReport;
use spans::Tracer;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 4] = ["sweep", "service", "scale_runs", "scale_csr"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

fn span_file(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

fn run(args: &Args) -> RunReport {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={cores} threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        let mut tracer = Tracer::new();
        let mut report = match args.workload.as_str() {
            "sweep" => sweep::trace(args.seed, &mut tracer),
            "service" => service::trace(args.seed, &mut tracer),
            "scale_runs" => scale::trace(scale::Rows::Runs, args.seed, &mut tracer),
            _ => scale::trace(scale::Rows::Csr, args.seed, &mut tracer),
        };
        let path = span_file(&args.workload, args.seed);
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
        report
    } else {
        let (mut report, fp) = match args.workload.as_str() {
            "sweep" => sweep::measure(args.seed, args.seconds),
            "service" => service::measure(args.seed, args.seconds),
            "scale_runs" => scale::measure(scale::Rows::Runs, args.seed, args.seconds),
            _ => scale::measure(scale::Rows::Csr, args.seed, args.seconds),
        };
        report.note(format!("fingerprint: {} {} {fp}", args.workload, args.seed));
        match fingerprint::pinned(&args.workload, args.seed) {
            Some(pinned) if pinned == fp => report.note("fingerprint: matches the pinned counts"),
            Some(pinned) => {
                report.fail(format!("fingerprint {fp} differs from the pinned {pinned}"))
            }
            None => report.note("fingerprint: not pinned for this seed"),
        }
        report
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{emit, Extras};
    use crate::report::EndToEnd;
    use crate::twins::LayerStats;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values of one top-level list of `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &BENCHMARK_JSON[start..];
        let body = &rest[..rest.find(']').expect("list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    fn names(report: &RunReport) -> Vec<String> {
        report.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn printed_end_to_end_metrics_are_exactly_the_listed_ones() {
        let mut r = RunReport::default();
        EndToEnd {
            setup_s: 1.0,
            peak_rss_mb: 1.0,
            trials_per_s: 1.0,
            decisions_per_s: 1.0,
            rounds_per_s: 1.0,
            instance_ms: 1.0,
        }
        .emit(&mut r);
        assert_eq!(names(&r), listed("end_to_end"));
    }

    #[test]
    fn printed_per_layer_metrics_are_exactly_the_listed_ones() {
        let mut r = RunReport::default();
        emit(
            &mut r,
            &LayerStats::default(),
            &Extras::default(),
            &Tracer::new(),
        );
        assert_eq!(names(&r), listed("per_layer"));
    }

    #[test]
    fn workloads_are_exactly_the_listed_ones() {
        assert_eq!(listed("workloads"), WORKLOADS.to_vec());
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload service --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service", 9, 2.5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload sweep --trace 2").is_err());
        assert!(parse("--workload sweep --seconds 0").is_err());
        assert!(parse("--workload sweep --seed").is_err());
    }

    #[test]
    fn benchmark_sources_pass_the_workspace_audit() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let rel = format!(
                    "perfbench/src/{}",
                    path.file_name().expect("file name").to_string_lossy()
                );
                files.push((
                    rel,
                    std::fs::read_to_string(&path).expect("readable source"),
                ));
            }
        }
        files.sort();
        let findings = adn_audit::audit_files(&files);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
