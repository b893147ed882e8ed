//! `service`: one long-lived `ServiceRun` over a stream of consensus
//! instances.
//!
//! DAC at n = 512 on the dense plane under `Rotating{d: n/2+1}`, E20's
//! heavy `flap(n/8)` churn plan (mixed periodic-abrupt and Markov
//! flappers), R_max = 48 and a `T = 4` dynaDegree watchdog. One
//! closed-loop client runs instances back to back for the measured time,
//! and at least `MIN_INSTANCES` so the 90th percentile has a hundred
//! samples beyond it. Instance turnover, churn slicing, the watchdog and
//! dense sender-major delivery do the work; lanes and the sparse plane
//! are bypassed.

use std::time::Instant;

use adn_adversary::AdversarySpec;
use adn_faults::{ChurnPlan, CrashSchedule, DownKind};
use adn_sim::workload::InputStream;
use adn_sim::{
    scalar_lane_outcome, InstanceRecord, LaneRun, LinkMode, PlaneMode, ServiceRun, Simulation,
    TrialPool,
};
use adn_types::{NodeId, Params, Round, Value};

use crate::config::{check_instance, Algo, Config};
use crate::fingerprint::Fingerprint;
use crate::layers::{self, Extras};
use crate::report::{peak_rss_mb, percentile, EndToEnd, RunReport, SUSTAINED};
use crate::spans::Tracer;
use crate::twins::{traced_run, LayerStats};

const N: usize = 512;
const EPS: f64 = 1e-2;
const R_MAX: u64 = 48;
const WATCHDOG_T: usize = 4;
/// `ServiceRun::new` calls timed per run.
const SETUPS: usize = 21;
/// Instances in the fingerprint prefix and the floor of every run.
pub const MIN_INSTANCES: usize = 1000;
/// Rounds the churn plan covers. Instances stop before it runs out,
/// so no instance ever runs on a plan that has gone quiet.
const HORIZON: u64 = 100_000;

fn params() -> Params {
    Params::fault_free(N, EPS).expect("valid params")
}

fn adversary() -> AdversarySpec {
    AdversarySpec::Rotating { d: N / 2 + 1 }
}

/// E20's `flap(n/8)`: an eighth of the fleet flaps, even ones on
/// periodic abrupt plans, odd ones on seeded Markov walks.
fn churn(seed: u64) -> ChurnPlan {
    let horizon = Round::new(HORIZON);
    let mut plan = ChurnPlan::new(N);
    for v in 0..N / 8 {
        let node = NodeId::new(2 + v);
        if v % 2 == 0 {
            plan.flap_periodic(
                node,
                Round::new(2 + (v as u64 % 13)),
                2,
                9 + (v as u64 % 5),
                DownKind::Abrupt,
                horizon,
            );
        } else {
            plan.flap_random(node, 0.05, 0.35, seed ^ (0xE20 + v as u64), horizon);
        }
    }
    plan
}

fn service(seed: u64, plan: ChurnPlan) -> ServiceRun {
    let p = params();
    let builder = Simulation::builder(p)
        .adversary(adversary().build(N, 0, seed))
        .algorithm(adn_sim::factories::dac(p))
        .algorithm_plane(PlaneMode::Always)
        .link_mode(LinkMode::Dense)
        .max_rounds(R_MAX);
    ServiceRun::new(builder, plan, InputStream::random(seed)).dyna_window(WATCHDOG_T)
}

/// The standalone run equivalent to one service instance: its inputs,
/// its membership slice, the same adversary.
fn standalone(seed: u64, instance: u64, crash: CrashSchedule) -> Config {
    let mut inputs = vec![Value::HALF; N];
    InputStream::random(seed).fill(instance, &mut inputs);
    Config {
        params: params(),
        algo: Algo::Dac,
        inputs,
        crash,
        byzantine: Vec::new(),
        adversary: adversary(),
        adversary_seed: seed,
        link_mode: LinkMode::Dense,
        lean: false,
        shards: 1,
        max_rounds: R_MAX,
        fault_overflow: true,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e6
}

/// The untraced run: end-to-end metrics and the work fingerprint.
pub fn measure(seed: u64, seconds: f64) -> (RunReport, Fingerprint) {
    let mut report = RunReport::default();
    let plan = churn(seed);
    // Set-up: `ServiceRun::new` (engine, port table, plane columns),
    // several times; the last one serves.
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        let p = plan.clone();
        let started = Instant::now();
        svc = Some(std::hint::black_box(service(seed, p)));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut svc = svc.expect("at least one set-up");

    let mut fp = Fingerprint::default();
    let mut records: Vec<(f64, InstanceRecord)> = Vec::new();
    let started = Instant::now();
    while (records.len() < MIN_INSTANCES || started.elapsed().as_secs_f64() < seconds)
        && svc.total_rounds() + R_MAX < HORIZON
    {
        let t0 = Instant::now();
        let rec = svc.run_instance();
        let ms = ms_since(t0);
        report.check(check_instance(&rec));
        if records.len() < MIN_INSTANCES {
            fp.ops += 1;
            fp.rounds += rec.rounds;
            fp.decisions += u64::from(rec.outcome.is_decided());
            fp.links += rec.min_dyna_degree.unwrap_or(0) as u64;
        }
        records.push((ms, rec));
    }

    let times: Vec<f64> = records.iter().map(|r| r.0).collect();
    let op_ms = percentile(&times, SUSTAINED);
    let decided = records.iter().filter(|r| r.1.outcome.is_decided()).count();
    let total_rounds: u64 = records.iter().map(|r| r.1.rounds).sum();
    report.note(format!(
        "service: {} instances in {:.3} s, {:.2} rounds/instance, {} aborted; set-up p90 of {}",
        records.len(),
        times.iter().sum::<f64>() / 1e3,
        total_rounds as f64 / records.len() as f64,
        svc.aborted_instances(),
        setups.len()
    ));
    EndToEnd {
        setup_s: percentile(&setups, SUSTAINED),
        peak_rss_mb: peak_rss_mb(),
        trials_per_s: 1e3 / op_ms,
        decisions_per_s: 1e3 / op_ms * decided as f64 / records.len() as f64,
        rounds_per_s: 1e3 / op_ms * total_rounds as f64 / records.len() as f64,
        instance_ms: op_ms,
    }
    .emit(&mut report);
    (report, fp)
}

/// Instances of the traced stream (and of its untraced twin).
const TRACED_INSTANCES: usize = 200;
/// Leading instances replayed standalone through the twins.
const TWIN_INSTANCES: usize = 3;

/// The traced run: a stream traced per instance against the same stream
/// untraced, with each instance's churn slice re-timed, and the first
/// instances replayed as standalone runs through the round twins (each
/// must reproduce its service instance's round count).
///
/// Layer coverage: `lanes.*` time one `run_lanes` batch of the first 64
/// instances as standalone trials (their membership slices differ, so
/// the lane gate is expected to reject them); fabrication is a two-faced
/// twin of node 0; `engine.shard2_ratio` shows `shards(2)` on the dense
/// path, which does not shard.
pub fn trace(seed: u64, tracer: &mut Tracer) -> RunReport {
    let mut report = RunReport::default();
    let plan = churn(seed);
    let mut x = Extras::default();
    let mut stats = LayerStats::default();

    let mut plain = service(seed, plan.clone());
    let mut untraced_ms = 0.0;
    for _ in 0..TRACED_INSTANCES {
        let t0 = Instant::now();
        plain.run_instance();
        untraced_ms += ms_since(t0);
    }

    let started = Instant::now();
    let mut svc = tracer.span("engine.build", "adn-sim", 0, || service(seed, plan.clone()));
    stats.build_ms.push(ms_since(started));
    let mut slices = Vec::new();
    let mut records = Vec::new();
    let mut clock = 0;
    for k in 0..TRACED_INSTANCES as u64 {
        let root = tracer.enter("op.instance", "perfbench", k);
        let slice = layers::time_slices(&plan, Round::new(clock), 1, tracer, &mut x, k);
        let t0 = Instant::now();
        let rec = tracer.span("service.run_instance", "adn-sim", k, || svc.run_instance());
        let ms = ms_since(t0);
        tracer.exit(root);
        report.check(check_instance(&rec));
        x.instance_rounds.push(rec.rounds);
        x.instance_ms.push(ms);
        clock += rec.rounds;
        slices.push(slice);
        records.push(rec);
    }
    x.overhead_ratio = x.instance_ms.iter().sum::<f64>() / untraced_ms;

    for k in 0..TWIN_INSTANCES {
        let cfg = standalone(seed, k as u64, slices[k].clone());
        let (outcome, _) = traced_run(&cfg, tracer, &mut stats, k as u64, None);
        if outcome.rounds() != records[k].rounds {
            report.fail(format!(
                "instance {k}: standalone run took {} rounds, the service {}",
                outcome.rounds(),
                records[k].rounds
            ));
        }
    }

    let trials: Vec<u64> = (0..64).collect();
    let cfgs: Vec<Config> = trials
        .iter()
        .map(|&k| standalone(seed, k, slices[k as usize].clone()))
        .collect();
    let pool = TrialPool::with_threads(1);
    let t0 = Instant::now();
    let outs = tracer.span("lanes.run_lanes", "adn-sim", 0, || {
        pool.run_lanes(&trials, |&k| cfgs[k as usize].builder(None))
    });
    let ms = ms_since(t0);
    let builders = cfgs.iter().map(|c| c.builder(None)).collect();
    let laned = tracer.span("lanes.try_new", "adn-sim", 0, || {
        LaneRun::try_new(builders).is_ok()
    });
    x.batch(ms, outs.iter().map(|o| o.rounds), laned);
    for (k, o) in outs.iter().enumerate() {
        if o.rounds != records[k].rounds {
            report.fail(format!(
                "instance {k}: lane-batch trial took {} rounds",
                o.rounds
            ));
        }
    }

    for k in 0..TWIN_INSTANCES {
        let t0 = Instant::now();
        let o = tracer.span("pool.scalar_trial", "adn-sim", k as u64, || {
            scalar_lane_outcome(cfgs[k].builder(None))
        });
        x.scalar_trial_ms.push(ms_since(t0));
        if o != outs[k] {
            report.fail(format!(
                "instance {k}: scalar trial differs from the lane batch's"
            ));
        }
    }

    let lean = Config {
        lean: true,
        ..cfgs[0].clone()
    };
    let two = Config {
        shards: 2,
        ..cfgs[0].clone()
    };
    let (default_ms, _) = layers::step_time(&cfgs[0], 9);
    x.observe_share = default_ms / layers::step_time(&lean, 9).0;
    x.shard2_ratio = layers::step_time(&two, 9).0 / default_ms;

    layers::check_twins(&mut report, &stats, None);
    layers::emit(&mut report, &stats, &x, tracer);
    report
}
