//! One scalar run's configuration, the builder it makes, and the
//! correctness gates every benchmark output passes through.
//!
//! The gates recompute each verdict from the run's inputs instead of
//! trusting the code under test: a `LaneOutcome` carries no verdicts at
//! all, and an `Outcome`'s own verdicts are cross-checked against the
//! inputs the benchmark generated.

use adn_adversary::AdversarySpec;
use adn_faults::{strategies::TwoFaced, CrashSchedule};
use adn_net::PortNumbering;
use adn_sim::{
    factories, InstanceRecord, LaneOutcome, LinkMode, Outcome, SimBuilder, Simulation, StopReason,
};
use adn_types::{NodeId, Params, Value, ValueInterval};

/// Seed of the simulator's default port numbering; passing it explicitly
/// keeps the engine on exactly the numbering it would pick by itself.
const PORT_SEED: u64 = 0xC0FFEE;

/// Tolerance the library's own ε-agreement verdicts allow.
const EPS_SLACK: f64 = 1e-12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Dac,
    Dbac,
}

/// Everything needed to rebuild one run, its twins, and its verdicts.
#[derive(Debug, Clone)]
pub struct Config {
    pub params: Params,
    pub algo: Algo,
    pub inputs: Vec<Value>,
    pub crash: CrashSchedule,
    /// Nodes running the two-faced Byzantine strategy.
    pub byzantine: Vec<usize>,
    pub adversary: AdversarySpec,
    pub adversary_seed: u64,
    pub link_mode: LinkMode,
    /// Schedule recording and phase multisets off.
    pub lean: bool,
    pub shards: usize,
    pub max_rounds: u64,
    /// Lets a churn slice put more than `f` nodes down (service twins).
    pub fault_overflow: bool,
}

impl Config {
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// The port numbering the simulator picks by default at this size.
    pub fn ports(&self) -> PortNumbering {
        if self.n() <= PortNumbering::MAX_DENSE_N {
            PortNumbering::random(self.n(), PORT_SEED)
        } else {
            PortNumbering::rotation(self.n(), PORT_SEED)
        }
    }

    /// The builder of this run. `ports` pins the numbering explicitly
    /// (the traced run does, so its twins share it); `None` keeps the
    /// builder's own default, which is the same numbering.
    pub fn builder(&self, ports: Option<PortNumbering>) -> SimBuilder {
        let n = self.n();
        let mut b = Simulation::builder(self.params)
            .inputs(self.inputs.clone())
            .crashes(self.crash.clone())
            .adversary(
                self.adversary
                    .build(n, self.params.f(), self.adversary_seed),
            )
            .algorithm(match self.algo {
                Algo::Dac => factories::dac(self.params),
                Algo::Dbac => factories::dbac(self.params),
            })
            .link_mode(self.link_mode)
            .shards(self.shards)
            .max_rounds(self.max_rounds)
            .allow_fault_overflow(self.fault_overflow);
        if self.lean {
            b = b.record_schedule(false).observe_phases(false);
        }
        for &v in &self.byzantine {
            b = b.byzantine(NodeId::new(v), Box::new(TwoFaced::zero_one(n / 2)));
        }
        if let Some(p) = ports {
            b = b.ports(p);
        }
        b
    }

    /// Whether node `v` is fault-free (neither crash-faulty nor
    /// Byzantine).
    pub fn fault_free(&self, v: usize) -> bool {
        !self.byzantine.contains(&v) && !self.crash.is_faulty(NodeId::new(v))
    }

    /// Hull of the fault-free nodes' inputs: every node here is either
    /// fault-free, crashed before sending anything, or Byzantine, so a
    /// decided output outside it is a validity violation.
    fn honest_hull(&self) -> Option<ValueInterval> {
        ValueInterval::of(
            (0..self.n())
                .filter(|&v| self.fault_free(v))
                .map(|v| self.inputs[v]),
        )
    }

    /// Checks termination, ε-agreement and validity of per-node outputs.
    fn check_outputs(&self, outputs: &[Option<Value>]) -> Option<String> {
        let hull = self.honest_hull()?;
        let mut decided = Vec::with_capacity(outputs.len());
        for (v, out) in outputs.iter().enumerate() {
            if !self.fault_free(v) {
                continue;
            }
            match out {
                Some(x) => decided.push(*x),
                None => return Some(format!("fault-free node {v} undecided")),
            }
        }
        let range = ValueInterval::of(decided.iter().copied()).map_or(0.0, ValueInterval::range);
        if range > self.params.eps() + EPS_SLACK {
            return Some(format!(
                "output range {range:e} exceeds eps {:e}",
                self.params.eps()
            ));
        }
        if let Some(x) = decided.iter().find(|x| !hull.contains(**x)) {
            return Some(format!("output {} outside the honest input hull", x.get()));
        }
        None
    }

    /// Gate for one trial of a lane batch.
    pub fn check_lane(&self, o: &LaneOutcome) -> Option<String> {
        if o.reason != StopReason::AllOutput {
            return Some(format!(
                "stopped by {:?} after {} rounds",
                o.reason, o.rounds
            ));
        }
        self.check_outputs(&o.outputs)
    }

    /// Gate for one scalar run: recomputed verdicts plus the outcome's
    /// own.
    pub fn check_outcome(&self, o: &Outcome) -> Option<String> {
        if o.reason() != StopReason::AllOutput {
            return Some(format!(
                "stopped by {:?} after {} rounds",
                o.reason(),
                o.rounds()
            ));
        }
        let outputs: Vec<Option<Value>> = NodeId::all(self.n()).map(|v| o.output_of(v)).collect();
        self.check_outputs(&outputs).or_else(|| {
            (!(o.all_honest_output() && o.eps_agreement(self.params.eps()) && o.validity()))
                .then(|| "outcome verdicts disagree with the recomputed ones".to_string())
        })
    }
}

/// Gate for one service instance: it must decide, and its watchdog
/// verdicts must hold.
pub fn check_instance(rec: &InstanceRecord) -> Option<String> {
    if !rec.outcome.is_decided() {
        return Some(format!("instance {} {}", rec.instance, rec.outcome));
    }
    if !rec.validity || !rec.agreement {
        return Some(format!(
            "instance {}: validity={} agreement={}",
            rec.instance, rec.validity, rec.agreement
        ));
    }
    None
}

/// A 64-bit mix of a seed and a path of indices (SplitMix64 finalizer),
/// so every trial of every batch gets its own reproducible seed.
pub fn mix(seed: u64, path: &[u64]) -> u64 {
    let mut x = seed ^ 0x5EED_BE4C_0000_0001;
    for &p in path {
        x = (x ^ p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_sim::workload;

    fn tiny() -> Config {
        let params = Params::new(9, 1, 1e-2).expect("valid params");
        Config {
            params,
            algo: Algo::Dac,
            inputs: workload::random(9, 3),
            crash: CrashSchedule::initial_crashes(9, 1),
            byzantine: Vec::new(),
            adversary: AdversarySpec::Rotating { d: 5 },
            adversary_seed: 3,
            link_mode: LinkMode::Auto,
            lean: false,
            shards: 1,
            max_rounds: 10_000,
            fault_overflow: false,
        }
    }

    #[test]
    fn a_good_run_passes_every_gate() {
        let cfg = tiny();
        let lane = adn_sim::scalar_lane_outcome(cfg.builder(None));
        assert_eq!(cfg.check_lane(&lane), None);
        assert_eq!(cfg.check_outcome(&cfg.builder(None).run()), None);
    }

    #[test]
    fn injected_bad_lane_outcomes_fail() {
        let cfg = tiny();
        let good = adn_sim::scalar_lane_outcome(cfg.builder(None));

        let mut wide = good.clone();
        let (lo, hi) = (
            cfg.honest_hull().unwrap().lo(),
            cfg.honest_hull().unwrap().hi(),
        );
        wide.outputs[0] = Some(lo);
        wide.outputs[1] = Some(hi);
        assert!(cfg.check_lane(&wide).unwrap().contains("exceeds eps"));

        let mut outside = good.clone();
        for o in outside.outputs.iter_mut().take(8) {
            *o = Some(Value::saturating(hi.get() + 1e-3));
        }
        assert!(cfg.check_lane(&outside).unwrap().contains("outside"));

        let mut undecided = good.clone();
        undecided.outputs[2] = None;
        assert!(cfg.check_lane(&undecided).unwrap().contains("undecided"));

        let mut capped = good;
        capped.reason = StopReason::MaxRounds;
        assert!(cfg.check_lane(&capped).unwrap().contains("MaxRounds"));
    }

    #[test]
    fn trial_seeds_differ_by_path() {
        assert_ne!(mix(1, &[0, 0, 0]), mix(1, &[0, 0, 1]));
        assert_ne!(mix(1, &[0, 1]), mix(2, &[0, 1]));
        assert_eq!(mix(7, &[1, 2]), mix(7, &[1, 2]));
    }
}
