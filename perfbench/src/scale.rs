//! `scale_runs` and `scale_csr`: single large runs on the sparse link
//! plane.
//!
//! DAC at n = 8192, ε = 1e-3, f = 4 initial crashes, `LinkMode::Sparse`,
//! lean observability, one shard, run to decision. `scale_runs` uses
//! `Rotating{d: n/2+1}`, whose receiver rows are id-range runs;
//! `scale_csr` uses `Spread{t: 3, d: n/2+1}`, whose rows are CSR lists.
//! Both drive the receiver-major sparse kernel and `LinkPlane`, through
//! the two row kinds: an optimisation of one row kind that slows the
//! other shows up as two workloads moving apart instead of netting out
//! inside one.

use std::time::Instant;

use adn_adversary::AdversarySpec;
use adn_faults::CrashSchedule;
use adn_sim::{scalar_lane_outcome, workload, LaneRun, LinkMode, Simulation, TrialPool};
use adn_types::{Params, Round};

use crate::config::{Algo, Config};
use crate::fingerprint::Fingerprint;
use crate::layers::{self, Extras};
use crate::report::{median, peak_rss_mb, percentile, EndToEnd, RunReport, SUSTAINED};
use crate::spans::Tracer;
use crate::twins::{traced_run, LayerStats};

const N: usize = 8192;
const F: usize = 4;
/// Builds timed before the first run; every run adds its own.
const EXTRA_SETUPS: usize = 12;

/// Which row kind the adversary emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    Runs,
    Csr,
}

impl Rows {
    fn spec(self) -> AdversarySpec {
        match self {
            Rows::Runs => AdversarySpec::Rotating { d: N / 2 + 1 },
            Rows::Csr => AdversarySpec::Spread { t: 3, d: N / 2 + 1 },
        }
    }

    /// The window over which the adversary guarantees its degree.
    fn window(self) -> usize {
        match self {
            Rows::Runs => 1,
            Rows::Csr => 3,
        }
    }
}

fn config(rows: Rows, seed: u64) -> Config {
    Config {
        params: Params::new(N, F, 1e-3).expect("valid params"),
        algo: Algo::Dac,
        inputs: workload::random(N, seed),
        crash: CrashSchedule::initial_crashes(N, F),
        byzantine: Vec::new(),
        adversary: rows.spec(),
        adversary_seed: seed,
        link_mode: LinkMode::Sparse,
        lean: true,
        shards: 1,
        max_rounds: 10_000,
        fault_overflow: false,
    }
}

fn build(cfg: &Config) -> (f64, Simulation) {
    let builder = cfg.builder(None);
    let started = Instant::now();
    let sim = builder.build();
    (started.elapsed().as_secs_f64(), sim)
}

/// The untraced run: end-to-end metrics and the work fingerprint.
pub fn measure(rows: Rows, seed: u64, seconds: f64) -> (RunReport, Fingerprint) {
    let mut report = RunReport::default();
    let cfg = config(rows, seed);
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS).map(|_| build(&cfg).0).collect();

    let mut fp = Fingerprint::default();
    let (mut run_ms, mut round_ms, mut run_rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut decided = 0u64;
    let started = Instant::now();
    while run_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (setup, mut sim) = build(&cfg);
        setups.push(setup);
        if !sim.uses_sparse_links() {
            report.fail("the run left the sparse link plane".into());
        }
        let mut ms = 0.0;
        while sim.stopped().is_none() {
            let t0 = Instant::now();
            sim.step();
            let step = t0.elapsed().as_nanos() as f64 / 1e6;
            round_ms.push(step);
            ms += step;
        }
        run_ms.push(ms);
        let outcome = sim.finish();
        let problem = cfg.check_outcome(&outcome);
        decided += u64::from(problem.is_none());
        report.check(problem);
        run_rounds.push(outcome.rounds());
        if fp.ops == 0 {
            fp.ops = 1;
            fp.rounds = outcome.rounds();
            fp.decisions = decided;
            fp.links = outcome.traffic().deliveries();
        }
    }

    // Rates and run latencies from per-round times: a round (0.3-0.7 s)
    // is shorter than the host's load swings, like the operations the
    // other workloads time (see `SUSTAINED`), while a whole run averages
    // over a few swings, and the two or three runs that fit in a
    // measurement moved their median by 10% and their maximum by 18%
    // between measurements. A run's latency is its round count times the
    // sustained round time.
    let runs = run_ms.len() as f64;
    let rounds_per_run = run_rounds.iter().sum::<u64>() as f64 / runs;
    let sustained_run_ms = rounds_per_run * percentile(&round_ms, SUSTAINED);
    let trials_per_s = 1e3 / sustained_run_ms;
    report.note(format!(
        "{:?}: {} runs of {:?} rounds, median {:.1} ms/run, median {:.1} ms/round; set-up p90 of {}",
        rows,
        run_ms.len(),
        run_rounds,
        median(&run_ms),
        median(&round_ms),
        setups.len()
    ));
    EndToEnd {
        setup_s: percentile(&setups, SUSTAINED),
        peak_rss_mb: peak_rss_mb(),
        trials_per_s,
        decisions_per_s: trials_per_s * decided as f64 / runs,
        rounds_per_s: trials_per_s * rounds_per_run,
        instance_ms: sustained_run_ms,
    }
    .emit(&mut report);
    (report, fp)
}

/// The traced run: one run traced round by round through the twins
/// (with the realized windowed dynaDegree checked against ⌊n/2⌋) against
/// the same run untraced.
///
/// Layer coverage: `lanes.*` time a one-trial `run_lanes` batch, which
/// the lane gate rejects (n exceeds `MAX_LANE_N`); `engine.observe_share`
/// turns schedule recording and phase multisets back on;
/// `faults.churn_slice` slices the churn plan of the initial crashes;
/// fabrication is a two-faced twin of node 0.
pub fn trace(rows: Rows, seed: u64, tracer: &mut Tracer) -> RunReport {
    let mut report = RunReport::default();
    let cfg = config(rows, seed);
    let mut stats = LayerStats::default();
    let mut x = Extras::default();

    let (untraced_ms, reference) = layers::step_time(&cfg, 1);
    let (outcome, traced_ms) = traced_run(&cfg, tracer, &mut stats, 0, Some(rows.window()));
    report.check(cfg.check_outcome(&outcome));
    if outcome.rounds() != reference.rounds() {
        report.fail("the traced run took another round count".into());
    }
    x.overhead_ratio = traced_ms / untraced_ms;
    x.instance_rounds.push(outcome.rounds());
    x.instance_ms.push(traced_ms);

    let two = Config {
        shards: 2,
        ..cfg.clone()
    };
    x.shard2_ratio = layers::step_time(&two, 1).0 / untraced_ms;
    let observed = Config {
        lean: false,
        ..cfg.clone()
    };
    x.observe_share = layers::step_time(&observed, 1).0 / untraced_ms;

    let pool = TrialPool::with_threads(1);
    let t0 = Instant::now();
    let outs = tracer.span("lanes.run_lanes", "adn-sim", 1, || {
        pool.run_lanes(&[seed], |_| cfg.builder(None))
    });
    let ms = t0.elapsed().as_nanos() as f64 / 1e6;
    let laned = tracer.span("lanes.try_new", "adn-sim", 1, || {
        LaneRun::try_new(vec![cfg.builder(None)]).is_ok()
    });
    x.batch(ms, outs.iter().map(|o| o.rounds), laned);
    report.check(cfg.check_lane(&outs[0]));

    let t0 = Instant::now();
    let scalar = tracer.span("pool.scalar_trial", "adn-sim", 2, || {
        scalar_lane_outcome(cfg.builder(None))
    });
    x.scalar_trial_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
    if scalar != outs[0] {
        report.fail("the scalar trial differs from the one-trial lane batch".into());
    }

    let plan = layers::plan_of_initial_crashes(&cfg.crash);
    let slice = layers::time_slices(&plan, Round::ZERO, 16, tracer, &mut x, 3);
    if slice != cfg.crash {
        report.fail("churn slice of the initial crashes differs from the crash schedule".into());
    }
    layers::check_twins(&mut report, &stats, Some(N / 2));
    layers::emit(&mut report, &stats, &x, tracer);
    report
}
