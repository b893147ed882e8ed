//! Per-layer metrics of the traced run, shared by every workload.
//!
//! Each metric is named after the crate whose public call it times or
//! counts. A workload that does not drive a layer itself still reports
//! it, measured on a twin call at the workload's own configuration; the
//! workload modules say which.

use std::time::Instant;

use adn_faults::{ChurnPlan, CrashSchedule, DownKind};
use adn_sim::Outcome;
use adn_types::Round;

use crate::config::Config;
use crate::report::{median, percentile, RunReport};
use crate::spans::Tracer;
use crate::twins::LayerStats;

/// Layers whose self time the traced run reports, in report order.
pub const LAYERS: [&str; 7] = [
    "perfbench",
    "adn-sim",
    "adn-adversary",
    "adn-core",
    "adn-graph",
    "adn-net",
    "adn-faults",
];

/// The traced run's measurements that do not come from the round twins.
#[derive(Debug, Default)]
pub struct Extras {
    /// `TrialPool::run_lanes` batch times.
    pub batch_ms: Vec<f64>,
    /// Batches `LaneRun::try_new` accepted, out of `lane_attempts`.
    pub laned: u64,
    pub lane_attempts: u64,
    /// Σ lane rounds and Σ (batch width × batch rounds).
    pub lane_rounds: u64,
    pub lane_slots: u64,
    pub scalar_trial_ms: Vec<f64>,
    /// Step time with default observability over step time lean.
    pub observe_share: f64,
    /// Step time at `shards(2)` over `shards(1)`.
    pub shard2_ratio: f64,
    pub churn_slice_us: Vec<f64>,
    /// Rounds and busy ms of the workload's consensus instances.
    pub instance_rounds: Vec<u64>,
    pub instance_ms: Vec<f64>,
    /// Traced over untraced time of the same operations.
    pub overhead_ratio: f64,
}

impl Extras {
    /// Adds one `run_lanes` batch: its time and per-trial rounds.
    pub fn batch(&mut self, ms: f64, rounds: impl Iterator<Item = u64>, laned: bool) {
        let rounds: Vec<u64> = rounds.collect();
        let max = rounds.iter().copied().max().unwrap_or(0);
        self.batch_ms.push(ms);
        self.lane_rounds += rounds.iter().sum::<u64>();
        self.lane_slots += rounds.len() as u64 * max;
        self.laned += u64::from(laned);
        self.lane_attempts += 1;
    }
}

/// Builds `cfg` and times its steps to the stop, `reps` times after one
/// untimed warm-up run when `reps > 1`; returns the median step time in
/// ms and the last outcome.
pub fn step_time(cfg: &Config, reps: usize) -> (f64, Outcome) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    let warm_up = usize::from(reps > 1);
    for rep in 0..reps.max(1) + warm_up {
        let mut sim = cfg.builder(None).build();
        let started = Instant::now();
        while sim.stopped().is_none() {
            sim.step();
        }
        if rep >= warm_up {
            times.push(started.elapsed().as_nanos() as f64 / 1e6);
        }
        last = Some(sim.finish());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// The churn plan equivalent to a crash schedule of initial crashes:
/// each faulty node goes down abruptly at round 0.
///
/// # Panics
///
/// Panics if a faulty node crashes after round 0 or keeps survivors.
pub fn plan_of_initial_crashes(crash: &CrashSchedule) -> ChurnPlan {
    let mut plan = ChurnPlan::new(crash.n());
    for node in crash.faulty_iter() {
        assert!(
            crash.is_silent(node, Round::ZERO),
            "node {node} is not an initial crash"
        );
        plan.crash(node, Round::ZERO, DownKind::Abrupt);
    }
    plan
}

/// Times `ChurnPlan::slice_into` of `plan` at `start`, `reps` times, into
/// `out`; returns the slice.
pub fn time_slices(
    plan: &ChurnPlan,
    start: Round,
    reps: usize,
    tracer: &mut Tracer,
    extras: &mut Extras,
    op: u64,
) -> CrashSchedule {
    let mut out = CrashSchedule::new(plan.n());
    for _ in 0..reps {
        let started = Instant::now();
        tracer.span("faults.churn_slice", "adn-faults", op, || {
            plan.slice_into(start, &mut out)
        });
        extras
            .churn_slice_us
            .push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Emits every per-layer metric, in `BENCHMARK.json` order.
pub fn emit(report: &mut RunReport, s: &LayerStats, x: &Extras, tracer: &Tracer) {
    let busy_ms: f64 = s.step_ms.iter().sum();
    let (p50, p90) = if s.step_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&s.step_ms, 0.5), percentile(&s.step_ms, 0.9))
    };
    report.metric("engine.build_ms", med(&s.build_ms), "ms");
    report.metric("engine.step_ms_p50", p50, "ms");
    report.metric("engine.step_ms_p90", p90, "ms");
    report.metric("engine.step_busy_ms", busy_ms, "ms");
    report.metric("engine.steps", s.step_ms.len() as f64, "count");
    report.metric("engine.links", s.links as f64, "count");
    report.metric(
        "engine.ns_per_link",
        ratio(busy_ms * 1e6, s.links as f64),
        "ns",
    );
    report.metric("engine.observe_share", x.observe_share, "ratio");
    report.metric("engine.shard2_ratio", x.shard2_ratio, "ratio");

    let fill_ms: f64 = s.fill_ms.iter().sum();
    report.metric("adversary.fill_ms", med(&s.fill_ms), "ms");
    report.metric("adversary.links_chosen", s.links_chosen as f64, "count");
    report.metric(
        "adversary.ns_per_link",
        ratio(fill_ms * 1e6, s.links_chosen as f64),
        "ns",
    );
    report.metric(
        "adversary.realized_ratio",
        ratio(s.links_realized as f64, s.links_chosen as f64),
        "ratio",
    );

    report.metric(
        "plane.recv_ns_per_link",
        ratio(s.recv_ns, s.recv_links as f64),
        "ns",
    );
    report.metric(
        "plane.send_ns_per_link",
        ratio(s.send_ns, s.send_links as f64),
        "ns",
    );
    report.metric("plane.end_round_ms", med(&s.end_round_ms), "ms");

    report.metric("graph.transpose_ms", med(&s.transpose_ms), "ms");
    report.metric("graph.window_ms", med(&s.window_ms), "ms");
    report.metric(
        "graph.linkplane_kb",
        med(&s.linkplane_bytes) / 1024.0,
        "KiB",
    );

    report.metric("net.ports_ms", med(&s.ports_ms), "ms");

    report.metric(
        "faults.fabricate_ns",
        ratio(s.fabricate_ns, s.fabricated as f64),
        "ns",
    );
    report.metric("faults.churn_slice_us", med(&x.churn_slice_us), "us");

    report.metric("lanes.batch_ms", x.batch_ms.iter().sum(), "ms");
    report.metric(
        "lanes.laned_ratio",
        ratio(x.laned as f64, x.lane_attempts as f64),
        "ratio",
    );
    report.metric(
        "lanes.live_ratio",
        ratio(x.lane_rounds as f64, x.lane_slots as f64),
        "ratio",
    );
    report.metric("pool.scalar_trial_ms", med(&x.scalar_trial_ms), "ms");

    let rounds: u64 = x.instance_rounds.iter().sum();
    report.metric(
        "service.rounds_per_instance",
        ratio(rounds as f64, x.instance_rounds.len() as f64),
        "count",
    );
    report.metric(
        "service.ms_per_round",
        ratio(x.instance_ms.iter().sum(), rounds as f64),
        "ms",
    );

    report.metric("trace.overhead_ratio", x.overhead_ratio, "ratio");
    report.metric("trace.spans", tracer.spans().len() as f64, "count");
    let by_layer = tracer.self_ms_by_layer();
    for layer in LAYERS {
        let ms = by_layer
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, ms)| ms);
        report.metric(format!("self_ms.{layer}"), ms, "ms");
    }
}

/// Names the twin-plane and degree checks' failures, if any.
pub fn check_twins(report: &mut RunReport, s: &LayerStats, degree_floor: Option<usize>) {
    if s.twin_mismatches > 0 {
        report.fail(format!(
            "twin planes left the engine's state in {} rounds",
            s.twin_mismatches
        ));
    }
    if let Some(floor) = degree_floor {
        match s.min_window_degree {
            Some(d) if d >= floor => {}
            other => report.fail(format!(
                "realized windowed dynaDegree {other:?} below floor {floor}"
            )),
        }
    }
}
