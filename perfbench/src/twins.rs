//! The traced scalar run: steps a `Simulation` round by round and, after
//! each `step`, replays the round through lockstep twins of the layers
//! the engine drives, each call in its own span.
//!
//! * `adn-adversary`: a twin adversary built from the same spec and
//!   seed, fed the same `AdversaryView`, fills its own `LinkPlane` or
//!   `EdgeSet` (`adversary.fill`).
//! * `adn-graph`: the realized links are transposed (`graph.transpose`)
//!   and slid through a `T = 4` `WindowUnion` (`graph.window`).
//! * `adn-core`: two twin `DacPlane`s replay the realized links, one
//!   receiver-major through `receive_many`, one sender-major through
//!   `deliver_from_sender`; both must end every round in the engine's
//!   state.
//! * `adn-faults`: a two-faced strategy fabricates one message per
//!   realized out-link of each Byzantine node, or of node 0 on runs
//!   without Byzantine nodes (`faults.fabricate`).
//!
//! Twins run outside the spanned `engine.step`, so they never inflate
//! the engine's own time.

use std::time::Instant;

use adn_adversary::{Adversary, AdversaryView};
use adn_core::{AlgorithmPlane, DacPlane};
use adn_faults::{strategies::TwoFaced, ByzContext, ByzantineStrategy};
use adn_graph::{EdgeSet, LinkPlane, LinkRows, NodeSet, WindowUnion};
use adn_net::PortNumbering;
use adn_sim::{Outcome, Simulation};
use adn_types::{Batch, Message, NodeId, Phase, Port, Round, Value};

use crate::config::{Algo, Config};
use crate::spans::Tracer;

/// Window of the `graph.window` replay.
pub const WINDOW_T: usize = 4;

/// Per-layer counts and timings accumulated over traced runs.
#[derive(Debug, Default)]
pub struct LayerStats {
    pub ports_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    /// Links the engine delivered (`Outcome::traffic().deliveries()`).
    pub links: u64,
    pub fill_ms: Vec<f64>,
    pub links_chosen: u64,
    pub links_realized: u64,
    pub recv_ns: f64,
    pub recv_links: u64,
    pub send_ns: f64,
    pub send_links: u64,
    pub end_round_ms: Vec<f64>,
    pub transpose_ms: Vec<f64>,
    pub window_ms: Vec<f64>,
    pub linkplane_bytes: Vec<f64>,
    pub fabricate_ns: f64,
    pub fabricated: u64,
    /// Smallest realized windowed in-degree over fault-free receivers.
    pub min_window_degree: Option<usize>,
    /// Rounds in which a twin plane left the engine's state.
    pub twin_mismatches: u64,
}

/// Reusable scratch of the twin replays for one system size.
struct Twins {
    adversary: Box<dyn Adversary>,
    sparse: Option<LinkPlane>,
    chosen: EdgeSet,
    realized: EdgeSet,
    transposed: EdgeSet,
    ring: Vec<EdgeSet>,
    ring_len: usize,
    ring_head: usize,
    window: WindowUnion,
    planes: Option<(DacPlane, DacPlane)>,
    strategies: Vec<(usize, TwoFaced)>,
    deliverers: NodeSet,
    honest: NodeSet,
    phases: Vec<Phase>,
    values: Vec<Value>,
    msgs: Vec<Message>,
    batch: Vec<(Port, Message)>,
    offsets: Vec<usize>,
    port_col: Vec<Port>,
    fabricated: Batch,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e6
}

/// Runs `cfg` to its stop with every round traced and replayed, adding
/// to `stats`; `check_window` is the `T` of the realized dynaDegree
/// check (`None` skips it). Returns the outcome and the engine's step
/// time in ms.
pub fn traced_run(
    cfg: &Config,
    tracer: &mut Tracer,
    stats: &mut LayerStats,
    op: u64,
    check_window: Option<usize>,
) -> (Outcome, f64) {
    let n = cfg.n();
    let root = tracer.enter("op.run", "perfbench", op);

    let started = Instant::now();
    let ports = tracer.span("net.ports", "adn-net", op, || cfg.ports());
    stats.ports_ms.push(ms_since(started));

    let builder = cfg.builder(Some(ports.clone()));
    let started = Instant::now();
    let mut sim = tracer.span("engine.build", "adn-sim", op, || builder.build());
    stats.build_ms.push(ms_since(started));

    let mut tw = Twins {
        adversary: cfg.adversary.build(n, cfg.params.f(), cfg.adversary_seed),
        sparse: sim.uses_sparse_links().then(|| LinkPlane::new(n)),
        chosen: EdgeSet::empty(if sim.uses_sparse_links() { 0 } else { n }),
        realized: EdgeSet::empty(n),
        transposed: EdgeSet::empty(n),
        ring: (0..WINDOW_T).map(|_| EdgeSet::empty(n)).collect(),
        ring_len: 0,
        ring_head: 0,
        window: WindowUnion::new(n),
        planes: (cfg.algo == Algo::Dac).then(|| {
            let p = DacPlane::new(cfg.params, &cfg.inputs);
            (p.clone(), p)
        }),
        strategies: if cfg.byzantine.is_empty() {
            vec![(0, TwoFaced::zero_one(n / 2))]
        } else {
            cfg.byzantine
                .iter()
                .map(|&v| (v, TwoFaced::zero_one(n / 2)))
                .collect()
        },
        deliverers: NodeSet::new(n),
        honest: NodeSet::new(n),
        phases: vec![Phase::ZERO; n],
        values: vec![Value::HALF; n],
        msgs: vec![Message::new(Value::HALF, Phase::ZERO); n],
        batch: Vec::new(),
        offsets: vec![0; n + 1],
        port_col: vec![Port::new(0); n],
        fabricated: Batch::new(),
    };

    let mut step_total = 0.0;
    while sim.stopped().is_none() {
        let t = sim.round();
        tw.snapshot(cfg, &sim, t);
        let round_span = tracer.enter("op.round", "perfbench", op);
        let started = Instant::now();
        tracer.span("engine.step", "adn-sim", op, || sim.step());
        let ms = ms_since(started);
        if sim.round() == t {
            tracer.exit(round_span);
            break;
        }
        stats.step_ms.push(ms);
        step_total += ms;
        tw.replay(cfg, &sim, &ports, t, tracer, stats, op, check_window);
        tracer.exit(round_span);
    }
    let outcome = tracer.span("engine.finish", "adn-sim", op, || sim.finish());
    stats.links += outcome.traffic().deliveries();
    tracer.exit(root);
    (outcome, step_total)
}

impl Twins {
    /// The engine's view of round `t`, taken before it steps.
    fn snapshot(&mut self, cfg: &Config, sim: &Simulation, t: Round) {
        self.deliverers.clear();
        self.honest.clear();
        for v in 0..cfg.n() {
            let id = NodeId::new(v);
            self.phases[v] = sim.phase_of(id).unwrap_or(Phase::ZERO);
            self.values[v] = sim.value_of(id).unwrap_or(Value::HALF);
            if cfg.byzantine.contains(&v) {
                self.deliverers.insert(id);
            } else {
                if !cfg.crash.is_silent(id, t) {
                    self.deliverers.insert(id);
                }
                if !cfg.crash.has_crashed_by(id, t) {
                    self.honest.insert(id);
                }
            }
        }
        if let Some((recv, _)) = &self.planes {
            for v in 0..cfg.n() {
                self.msgs[v] = Message::new(recv.values()[v], recv.phases()[v]);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        cfg: &Config,
        sim: &Simulation,
        ports: &PortNumbering,
        t: Round,
        tracer: &mut Tracer,
        stats: &mut LayerStats,
        op: u64,
        check_window: Option<usize>,
    ) {
        let n = cfg.n();
        let view = AdversaryView {
            round: t,
            params: cfg.params,
            phases: &self.phases,
            values: &self.values,
            deliverers: &self.deliverers,
            honest: &self.honest,
        };

        // adn-adversary: the twin fills the same round.
        let started = Instant::now();
        let fill = tracer.enter("adversary.fill", "adn-adversary", op);
        match self.sparse.as_mut() {
            Some(lp) => {
                lp.begin_round(&self.deliverers);
                self.adversary.sparse_into(&view, lp);
            }
            None => {
                self.chosen.clear();
                self.adversary.edges_into(&view, &mut self.chosen);
            }
        }
        tracer.exit(fill);
        stats.fill_ms.push(ms_since(started));
        stats.links_chosen += match self.sparse.as_ref() {
            Some(lp) => lp.edge_count(),
            None => self.chosen.edge_count(),
        } as u64;
        let heap = sim
            .link_plane_heap_bytes()
            .unwrap_or(n * n.div_ceil(64) * 8);
        stats.linkplane_bytes.push(heap as f64);

        // The realized links, kept past the next step.
        let rows = sim.realized_rows();
        rows.copy_into(&mut self.realized);
        stats.links_realized += self.realized.edge_count() as u64;

        // adn-graph: sliding window and transpose.
        let slot = self.ring_head;
        let started = Instant::now();
        let win = tracer.enter("graph.window", "adn-graph", op);
        if self.ring_len == WINDOW_T {
            self.window.pop_rows(&self.ring[slot]);
        }
        self.ring[slot].copy_from(&self.realized);
        self.window.push_rows(&self.ring[slot]);
        tracer.exit(win);
        stats.window_ms.push(ms_since(started));
        self.ring_head = (slot + 1) % WINDOW_T;
        self.ring_len = (self.ring_len + 1).min(WINDOW_T);

        let started = Instant::now();
        tracer.span("graph.transpose", "adn-graph", op, || {
            self.realized.transpose_into(&mut self.transposed)
        });
        stats.transpose_ms.push(ms_since(started));

        self.replay_planes(cfg, sim, ports, tracer, stats, op);
        self.fabricate(cfg, t, tracer, stats, op);
        if let Some(tw) = check_window {
            self.check_degree(cfg, tw, stats);
        }
    }

    fn replay_planes(
        &mut self,
        cfg: &Config,
        sim: &Simulation,
        ports: &PortNumbering,
        tracer: &mut Tracer,
        stats: &mut LayerStats,
        op: u64,
    ) {
        let Some((recv, send)) = self.planes.as_mut() else {
            return;
        };
        let n = cfg.n();
        // Receiver-major batches, senders ascending (built untimed).
        self.batch.clear();
        for v in 0..n {
            self.offsets[v] = self.batch.len();
            let vid = NodeId::new(v);
            for u in self.realized.in_neighbors(vid).iter() {
                self.batch
                    .push((ports.port_of(vid, u), self.msgs[u.index()]));
            }
        }
        self.offsets[n] = self.batch.len();
        let started = Instant::now();
        tracer.span("plane.receive_many", "adn-core", op, || {
            for v in self.honest.iter() {
                let v = v.index();
                recv.receive_many(v, &self.batch[self.offsets[v]..self.offsets[v + 1]]);
            }
        });
        stats.recv_ns += started.elapsed().as_nanos() as f64;
        stats.recv_links += self.batch.len() as u64;

        // Sender-major: one call per sender over its realized out-row.
        let span = tracer.enter("plane.deliver_from_sender", "adn-core", op);
        for u in 0..n {
            let row = self.transposed.in_neighbors(NodeId::new(u));
            if row.is_empty() {
                continue;
            }
            for v in row.iter() {
                self.port_col[v.index()] = ports.port_of(v, NodeId::new(u));
            }
            let started = Instant::now();
            send.deliver_from_sender(self.msgs[u], row, &self.port_col);
            stats.send_ns += started.elapsed().as_nanos() as f64;
            stats.send_links += row.len() as u64;
        }
        tracer.exit(span);

        let started = Instant::now();
        tracer.span("plane.end_round", "adn-core", op, || {
            recv.end_round(&self.honest)
        });
        stats.end_round_ms.push(ms_since(started));
        send.end_round(&self.honest);

        let diverged = self.honest.iter().any(|v| {
            let i = v.index();
            let engine = (sim.phase_of(v), sim.value_of(v));
            engine != (Some(recv.phases()[i]), Some(recv.values()[i]))
                || engine != (Some(send.phases()[i]), Some(send.values()[i]))
        });
        stats.twin_mismatches += u64::from(diverged);
    }

    fn fabricate(
        &mut self,
        cfg: &Config,
        t: Round,
        tracer: &mut Tracer,
        stats: &mut LayerStats,
        op: u64,
    ) {
        let span = tracer.enter("faults.fabricate", "adn-faults", op);
        for (b, strategy) in self.strategies.iter_mut() {
            let ctx = ByzContext {
                round: t,
                self_id: NodeId::new(*b),
                params: cfg.params,
                phases: &self.phases,
                values: &self.values,
            };
            for v in self.transposed.in_neighbors(NodeId::new(*b)).iter() {
                self.fabricated.clear();
                let started = Instant::now();
                strategy.messages_into(&ctx, v, &mut self.fabricated);
                stats.fabricate_ns += started.elapsed().as_nanos() as f64;
                stats.fabricated += 1;
            }
        }
        tracer.exit(span);
    }

    /// The realized `T`-window in-degree of every fault-free receiver,
    /// recomputed from the kept rounds by plain set union — a reference
    /// independent of `WindowUnion`.
    fn check_degree(&self, cfg: &Config, t_window: usize, stats: &mut LayerStats) {
        assert!(t_window <= WINDOW_T, "the ring keeps {WINDOW_T} rounds");
        if self.ring_len < t_window {
            return;
        }
        let n = cfg.n();
        let mut union = NodeSet::new(n);
        let newest = (self.ring_head + WINDOW_T - 1) % WINDOW_T;
        for v in (0..n).filter(|&v| cfg.fault_free(v)) {
            union.clear();
            for k in 0..t_window {
                let slot = (newest + WINDOW_T - k) % WINDOW_T;
                union.union_with(self.ring[slot].in_neighbors(NodeId::new(v)));
            }
            let d = union.len();
            stats.min_window_degree = Some(stats.min_window_degree.map_or(d, |m| m.min(d)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adn_adversary::AdversarySpec;
    use adn_faults::CrashSchedule;
    use adn_sim::LinkMode;
    use adn_types::Params;

    use adn_sim::workload;

    fn small(link_mode: LinkMode, byzantine: Vec<usize>, algo: Algo) -> Config {
        let n = 24;
        let f = if byzantine.is_empty() {
            2
        } else {
            byzantine.len()
        };
        Config {
            params: Params::new(n, f, 1e-3).expect("valid params"),
            algo,
            inputs: workload::random(n, 5),
            crash: if byzantine.is_empty() {
                CrashSchedule::initial_crashes(n, f)
            } else {
                CrashSchedule::new(n)
            },
            byzantine,
            adversary: AdversarySpec::Rotating { d: n / 2 + 1 },
            adversary_seed: 5,
            link_mode,
            lean: true,
            shards: 1,
            max_rounds: 10_000,
            fault_overflow: false,
        }
    }

    /// Every span lies inside its parent, no self time is negative, and
    /// the twins track the engine on the dense and the sparse path.
    #[test]
    fn traced_runs_nest_and_twins_track_the_engine() {
        for mode in [LinkMode::Dense, LinkMode::Sparse] {
            let cfg = small(mode, Vec::new(), Algo::Dac);
            let mut tracer = Tracer::new();
            let mut stats = LayerStats::default();
            let (outcome, step_ms) = traced_run(&cfg, &mut tracer, &mut stats, 3, Some(1));
            assert_eq!(cfg.check_outcome(&outcome), None);
            assert!(step_ms > 0.0);
            assert_eq!(stats.twin_mismatches, 0, "{mode:?}");
            assert!(stats.min_window_degree.unwrap() >= cfg.n() / 2, "{mode:?}");
            assert_eq!(stats.links_realized, stats.links);
            assert_eq!(stats.recv_links, stats.links);
            assert_eq!(stats.send_links, stats.links);
            let spans = tracer.spans();
            assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
            for s in spans {
                if let Some(p) = s.parent {
                    assert!(s.start_ns >= spans[p].start_ns && s.end_ns <= spans[p].end_ns);
                }
            }
            let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
            for expected in [
                "engine.step",
                "adversary.fill",
                "plane.receive_many",
                "graph.window",
            ] {
                assert!(names.contains(&expected), "{expected} missing");
            }
        }
    }

    #[test]
    fn byzantine_runs_fabricate_per_realized_link() {
        let cfg = Config {
            params: Params::new(11, 2, 0.25).expect("valid params"),
            inputs: workload::random(11, 5),
            crash: CrashSchedule::new(11),
            byzantine: vec![9, 10],
            adversary: AdversarySpec::DbacThreshold,
            ..small(LinkMode::Auto, Vec::new(), Algo::Dbac)
        };
        let mut stats = LayerStats::default();
        let (outcome, _) = traced_run(&cfg, &mut Tracer::new(), &mut stats, 0, None);
        assert_eq!(cfg.check_outcome(&outcome), None);
        assert!(stats.fabricated > 0);
        assert_eq!(stats.recv_links, 0, "the DAC plane twin skips DBAC runs");
    }

    #[test]
    fn a_degree_below_the_floor_is_reported() {
        let cfg = small(LinkMode::Dense, Vec::new(), Algo::Dac);
        let mut stats = LayerStats::default();
        traced_run(&cfg, &mut Tracer::new(), &mut stats, 0, Some(1));
        let mut report = crate::report::RunReport::default();
        crate::layers::check_twins(&mut report, &stats, Some(cfg.n()));
        assert_eq!(report.failed, 1);
        stats.twin_mismatches = 2;
        crate::layers::check_twins(&mut report, &stats, None);
        assert_eq!(report.failed, 2);
    }
}
