//! `sweep`: Monte-Carlo trial batches through `TrialPool::run_lanes`.
//!
//! Three fixed families of seeded trial batches, each taking a
//! comparable share of the wall time on the reference box:
//!
//! * `shared` — DAC, n = 64, ⌊n/8⌋ initial crashes, `Rotating{d: n/2}`:
//!   one link realization serves all 64 lanes;
//! * `random` — the same with a per-trial `Random{p: 0.6}` adversary, so
//!   every lane pays its own Bernoulli link fill;
//! * `byz` — DBAC, n = 11, f = 2, two two-faced Byzantine nodes under
//!   `DbacThreshold`, default observability: the lane gate rejects the
//!   batch and every trial runs scalar. Its batches hold 8 trials, not
//!   64: a scalar batch costs the same per trial at any size, and a
//!   64-trial batch (5 s) gave one sample per run, whose host-load
//!   swings moved the mix's throughput by up to 28% between runs.
//!
//! Throughput is that of a fixed mix: `WEIGHTS` batches of each family
//! per cycle, timed by each family's sustained (90th-percentile) batch. A faster family
//! raises `trials_per_s` by its share of the cycle's time, whichever
//! family it is. Batches are scheduled to the family with the least
//! accumulated time, so every family gets about a third of the run.

use std::time::Instant;

use adn_adversary::AdversarySpec;
use adn_faults::CrashSchedule;
use adn_sim::{scalar_lane_outcome, workload, LaneOutcome, LaneRun, LinkMode, TrialPool};
use adn_types::{Params, Round};

use crate::config::{mix, Algo, Config};
use crate::fingerprint::Fingerprint;
use crate::layers::{self, Extras};
use crate::report::{median, peak_rss_mb, percentile, EndToEnd, RunReport, SUSTAINED};
use crate::spans::Tracer;
use crate::twins::{traced_run, LayerStats};

/// Trials per batch of the laned families: one lane word.
const LANE_BATCH: usize = 64;
/// Trials per batch of the scalar `byz` family.
const SCALAR_BATCH: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Shared,
    Random,
    Byz,
}

const FAMILIES: [Family; 3] = [Family::Shared, Family::Random, Family::Byz];

/// Batches of each family per mix cycle, chosen so each family takes
/// about a third of a cycle on the reference box (2 vCPU), where a batch
/// takes about 12 ms, 72 ms and 0.62 s.
const WEIGHTS: [f64; 3] = [408.0, 69.0, 8.0];

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Shared => "shared",
            Family::Random => "random",
            Family::Byz => "byz",
        }
    }

    /// The run of one trial, with its own seed for inputs and adversary.
    fn trial(self, seed: u64) -> Config {
        let (params, crash, byzantine, adversary, algo) = match self {
            Family::Shared | Family::Random => {
                let n = 64;
                let spec = if self == Family::Shared {
                    AdversarySpec::Rotating { d: n / 2 }
                } else {
                    AdversarySpec::Random { p: 0.6 }
                };
                (
                    Params::new(n, n / 8, 1e-3).expect("valid params"),
                    CrashSchedule::initial_crashes(n, n / 8),
                    Vec::new(),
                    spec,
                    Algo::Dac,
                )
            }
            Family::Byz => (
                Params::new(11, 2, 1e-3).expect("valid params"),
                CrashSchedule::new(11),
                vec![9, 10],
                AdversarySpec::DbacThreshold,
                Algo::Dbac,
            ),
        };
        Config {
            params,
            algo,
            inputs: workload::random(params.n(), seed),
            crash,
            byzantine,
            adversary,
            adversary_seed: seed,
            link_mode: LinkMode::Auto,
            lean: false,
            shards: 1,
            max_rounds: 100_000,
            fault_overflow: false,
        }
    }

    fn laned(self) -> bool {
        self != Family::Byz
    }

    fn batch_size(self) -> usize {
        if self.laned() {
            LANE_BATCH
        } else {
            SCALAR_BATCH
        }
    }
}

/// Mix cycles whose trial seeds the trial set holds: about a minute of
/// work on the reference box, three times a measured run. A run that
/// gets further wraps around and repeats trials.
const CYCLES: usize = 4;

/// The one-time set-up of a sweep: the single-worker pool and the trial
/// set — every family's base configuration and the seeds of every trial
/// of `CYCLES` mix cycles, batch after batch.
struct TrialSet {
    pool: TrialPool,
    bases: Vec<Config>,
    seeds: Vec<Vec<u64>>,
}

impl TrialSet {
    /// The trial seeds of batch `b` of family `f`.
    fn batch(&self, f: usize, b: u64) -> &[u64] {
        let size = FAMILIES[f].batch_size();
        let batches = self.seeds[f].len() / size;
        let start = (b as usize % batches) * size;
        &self.seeds[f][start..start + size]
    }
}

fn set_up(seed: u64) -> TrialSet {
    let seeds = (0..FAMILIES.len())
        .map(|f| {
            let size = FAMILIES[f].batch_size() as u64;
            let batches = (CYCLES as f64 * WEIGHTS[f]) as u64;
            (0..batches)
                .flat_map(|b| (0..size).map(move |l| mix(seed, &[f as u64, b, l])))
                .collect()
        })
        .collect();
    TrialSet {
        pool: TrialPool::with_threads(1),
        bases: FAMILIES.iter().map(|f| f.trial(seed)).collect(),
        seeds,
    }
}

/// Times `samples` set-ups; returns the sustained seconds per set-up
/// with the last set-up made.
fn timed_set_up(seed: u64, samples: usize) -> (f64, TrialSet) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let started = Instant::now();
        last = Some(std::hint::black_box(set_up(seed)));
        times.push(started.elapsed().as_secs_f64());
    }
    (
        percentile(&times, SUSTAINED),
        last.expect("at least one set-up"),
    )
}

fn run_batch(pool: &TrialPool, family: Family, seeds: &[u64]) -> (f64, Vec<LaneOutcome>) {
    let started = Instant::now();
    let outs = pool.run_lanes(seeds, |&s| family.trial(s).builder(None));
    (started.elapsed().as_nanos() as f64 / 1e6, outs)
}

/// Gates every trial of a batch; returns how many decided.
fn check_batch(report: &mut RunReport, family: Family, seeds: &[u64], outs: &[LaneOutcome]) -> u64 {
    let mut decided = 0;
    for (&s, o) in seeds.iter().zip(outs) {
        let problem = family
            .trial(s)
            .check_lane(o)
            .map(|p| format!("{} trial {s:#x}: {p}", family.name()));
        decided += u64::from(problem.is_none());
        report.check(problem);
    }
    decided
}

/// Re-runs lane `lane` of a laned batch as a scalar simulation and
/// requires the same outcome.
fn check_scalar(
    report: &mut RunReport,
    family: Family,
    seeds: &[u64],
    outs: &[LaneOutcome],
    lane: usize,
) {
    if family.laned() && scalar_lane_outcome(family.trial(seeds[lane]).builder(None)) != outs[lane]
    {
        report.fail(format!(
            "{} trial {:#x}: lane outcome differs from its scalar run",
            family.name(),
            seeds[lane]
        ));
    }
}

#[derive(Debug, Default, Clone)]
struct FamilyRun {
    batch_ms: Vec<f64>,
    rounds: Vec<u64>,
}

/// The untraced run: end-to-end metrics and the work fingerprint.
pub fn measure(seed: u64, seconds: f64) -> (RunReport, Fingerprint) {
    let mut report = RunReport::default();
    let (setup_s, set) = timed_set_up(seed, 25);

    // Fingerprint extras, untimed: delivered links of each family's
    // first trial and lane-gate fallbacks of each family's first batch.
    let mut fp = Fingerprint::default();
    for (f, family) in FAMILIES.iter().enumerate() {
        let cfg = family.trial(set.batch(f, 0)[0]);
        let outcome = cfg.builder(None).run();
        report.check(
            cfg.check_outcome(&outcome)
                .map(|p| format!("{} sample run: {p}", family.name())),
        );
        fp.links += outcome.traffic().deliveries();
        let builders = set
            .batch(f, 0)
            .iter()
            .map(|&s| family.trial(s).builder(None))
            .collect();
        fp.fallbacks += u64::from(LaneRun::try_new(builders).is_err());
    }

    let mut runs = vec![FamilyRun::default(); FAMILIES.len()];
    let mut spent = [0.0f64; 3];
    let (mut attempted, mut decided) = (0u64, 0u64);
    let started = Instant::now();
    loop {
        let all_ran = runs.iter().all(|r| !r.batch_ms.is_empty());
        if all_ran && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let f = (0..FAMILIES.len())
            .min_by(|&a, &b| spent[a].total_cmp(&spent[b]))
            .expect("three families");
        let family = FAMILIES[f];
        let batch = runs[f].batch_ms.len() as u64;
        let seeds = set.batch(f, batch);
        let (ms, outs) = run_batch(&set.pool, family, seeds);
        spent[f] += ms;
        let ok = check_batch(&mut report, family, seeds, &outs);
        let lane = (mix(seed, &[f as u64, batch, 0xA11]) % seeds.len() as u64) as usize;
        check_scalar(&mut report, family, seeds, &outs, lane);
        let rounds: u64 = outs.iter().map(|o| o.rounds).sum();
        if batch == 0 {
            fp.ops += seeds.len() as u64;
            fp.rounds += rounds;
            fp.decisions += ok;
        }
        attempted += seeds.len() as u64;
        decided += ok;
        runs[f].batch_ms.push(ms);
        runs[f].rounds.push(rounds);
    }

    // The fixed mix, timed by each family's sustained batch time.
    let batch_ms: Vec<f64> = runs
        .iter()
        .map(|r| percentile(&r.batch_ms, SUSTAINED))
        .collect();
    let cycle_ms: f64 = (0..3).map(|f| WEIGHTS[f] * batch_ms[f]).sum();
    let cycle_trials: f64 = (0..3)
        .map(|f| WEIGHTS[f] * FAMILIES[f].batch_size() as f64)
        .sum();
    let cycle_rounds: f64 = (0..3)
        .map(|f| {
            let r = &runs[f].rounds;
            WEIGHTS[f] * r.iter().sum::<u64>() as f64 / r.len() as f64
        })
        .sum();
    let trials_per_s = cycle_trials / (cycle_ms / 1e3);
    // Every trial of a batch completes when its batch returns: the
    // mix's trial latency is its families' batch times, weighted by
    // trials.
    let instance_ms: f64 = (0..3)
        .map(|f| WEIGHTS[f] * FAMILIES[f].batch_size() as f64 * batch_ms[f])
        .sum::<f64>()
        / cycle_trials;

    for (f, family) in FAMILIES.iter().enumerate() {
        let r = &runs[f];
        report.note(format!(
            "sweep/{}: {} batches, median {:.3} ms/batch, p90 {:.3} ms ({:.1}% of the mix), {:.0} trials/s",
            family.name(),
            r.batch_ms.len(),
            median(&r.batch_ms),
            batch_ms[f],
            100.0 * WEIGHTS[f] * batch_ms[f] / cycle_ms,
            family.batch_size() as f64 / (batch_ms[f] / 1e3)
        ));
    }
    report.note(format!("sweep: set-up p90 of 25, {attempted} trials gated"));
    EndToEnd {
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        trials_per_s,
        decisions_per_s: trials_per_s * decided as f64 / attempted as f64,
        rounds_per_s: cycle_rounds / (cycle_ms / 1e3),
        instance_ms,
    }
    .emit(&mut report);
    (report, fp)
}

/// The traced run: one batch per family, traced, against the same batch
/// untraced; each family's first trial replayed through the twins.
///
/// Layer coverage: the adversary, plane and graph twins replay the
/// `shared` and `random` samples (the `byz` sample is DBAC, which the DAC
/// plane twin does not model) plus the `byz` adversary; fabrication is
/// the `byz` family's own; `faults.churn_slice` slices the churn plan of
/// the `shared` family's initial crashes; `engine.observe_share` and
/// `engine.shard2_ratio` time the `byz` sample, the family that runs
/// scalar.
pub fn trace(seed: u64, tracer: &mut Tracer) -> RunReport {
    let mut report = RunReport::default();
    let set = set_up(seed);
    let mut stats = LayerStats::default();
    let mut x = Extras::default();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);

    for (f, family) in FAMILIES.iter().copied().enumerate() {
        let seeds = set.batch(f, 0);
        let op = f as u64;
        let (ms, _) = run_batch(&set.pool, family, seeds);
        untraced_ms += ms;

        let root = tracer.enter("op.batch", "perfbench", op);
        let started = Instant::now();
        let outs = tracer.span("lanes.run_lanes", "adn-sim", op, || {
            set.pool
                .run_lanes(seeds, |&s| family.trial(s).builder(None))
        });
        let ms = started.elapsed().as_nanos() as f64 / 1e6;
        tracer.exit(root);
        traced_ms += ms;
        check_batch(&mut report, family, seeds, &outs);

        let builders = seeds
            .iter()
            .map(|&s| family.trial(s).builder(None))
            .collect();
        let laned = tracer.span("lanes.try_new", "adn-sim", op, || {
            LaneRun::try_new(builders).is_ok()
        });
        if laned != family.laned() {
            report.fail(format!("{}: lane gate returned {laned}", family.name()));
        }
        x.batch(ms, outs.iter().map(|o| o.rounds), laned);

        let sample = family.trial(seeds[0]);
        let started = Instant::now();
        let scalar = tracer.span("pool.scalar_trial", "adn-sim", op, || {
            scalar_lane_outcome(sample.builder(None))
        });
        x.scalar_trial_ms
            .push(started.elapsed().as_nanos() as f64 / 1e6);
        if scalar != outs[0] {
            report.fail(format!(
                "{}: lane outcome differs from its scalar run",
                family.name()
            ));
        }
        let (outcome, step_ms) = traced_run(&sample, tracer, &mut stats, op, None);
        report.check(sample.check_outcome(&outcome));
        x.instance_rounds.push(outcome.rounds());
        x.instance_ms.push(step_ms);
    }

    let byz = Family::Byz.trial(set.batch(2, 0)[0]);
    let lean = Config {
        lean: true,
        ..byz.clone()
    };
    let two = Config {
        shards: 2,
        ..byz.clone()
    };
    let (default_ms, _) = layers::step_time(&byz, 3);
    x.observe_share = default_ms / layers::step_time(&lean, 3).0;
    x.shard2_ratio = layers::step_time(&two, 3).0 / default_ms;

    let shared = &set.bases[0];
    let plan = layers::plan_of_initial_crashes(&shared.crash);
    let slice = layers::time_slices(&plan, Round::ZERO, 64, tracer, &mut x, 0);
    if slice != shared.crash {
        report.fail("churn slice of the initial crashes differs from the crash schedule".into());
    }
    x.overhead_ratio = traced_ms / untraced_ms;
    layers::check_twins(&mut report, &stats, None);
    layers::emit(&mut report, &stats, &x, tracer);
    report
}
