//! The columnar algorithm plane: all fault-free nodes' state as flat
//! arrays, driven sender-major.
//!
//! The [`Algorithm`](crate::Algorithm) trait models one node as one boxed
//! state machine — the semantic reference, and the only interface exotic
//! algorithms (piggybacking, baselines, strawmen) implement. But on the
//! simulator's hot path it costs one virtual call *per delivered message*:
//! at `n = 1024` that is ~1M dynamic dispatches per round, now the
//! dominant round cost. DAC and DBAC don't need that generality:
//!
//! * their broadcast is always exactly one `(value, phase)` message — a
//!   snapshot of two state columns;
//! * anonymity means a sender's message is **identical at every
//!   receiver** — classify the sender once, then apply the one message to
//!   all its out-neighbors;
//! * each receiver splits into exactly three cases per message — **jump**
//!   (sender ahead: adopt wholesale), **same-phase** (one port bit + a
//!   min/max or trim fold), **stale** (skip).
//!
//! [`AlgorithmPlane`] captures that shape: one object holds *every*
//! node's state in struct-of-arrays layout ([`DacPlane`], [`DbacPlane`]),
//! and the engine delivers one *sender's* broadcast to a whole receiver
//! bitset per (non-virtual-per-message) call. On the sparse link plane
//! the engine drives the same columns receiver-major instead: one
//! receiver's row per call, an id-range run of it a 64-sender word at a
//! time ([`AlgorithmPlane::receive_run`]). The trait path remains the
//! behavioral oracle: planes must be observationally **identical** to a
//! per-node state machine run under ascending-sender delivery —
//! `tests/plane_equivalence.rs` fuzzes that contract across adversaries,
//! crash/Byzantine mixes, and ε.

use std::fmt;

use adn_graph::NodeSet;
use adn_types::{Message, Params, Phase, Port, PortRow, Value};

use crate::dbac::{max_index, min_index};

/// Columnar state of one algorithm across **all** `n` node slots.
///
/// The engine materializes a plane instead of `n` boxed
/// [`Algorithm`](crate::Algorithm)s when the factory declares itself
/// plane-capable. Slots of Byzantine nodes exist but are never driven
/// (never delivered to, never advanced) — the engine masks them out.
///
/// # Contract
///
/// Implementations must be observationally identical to running one
/// trait-object state machine per slot with deliveries applied in the
/// same order. In particular:
///
/// * a slot's broadcast is always exactly its `(value, phase)` pair and
///   mutates nothing — planes are only for such algorithms. The engine
///   therefore never asks the plane for broadcasts: it reads its own
///   start-of-round snapshot of the [`phases`](AlgorithmPlane::phases) /
///   [`values`](AlgorithmPlane::values) columns, which stays correct
///   while the live plane mutates as earlier senders of the round
///   deliver;
/// * [`AlgorithmPlane::receive`] mirrors `Algorithm::receive` message for
///   message (the engine routes Byzantine fabrications and crash-round
///   partial broadcasts through it link by link);
/// * [`AlgorithmPlane::deliver_from_sender`] applies one single-message
///   broadcast to every receiver in a set, ascending — the dense path's
///   bulk call;
/// * [`AlgorithmPlane::receive_many`] and [`AlgorithmPlane::receive_run`]
///   apply one receiver's row of single-message links, senders
///   ascending — the sparse path's calls, for a staged batch and for an
///   id-range run of unconditional senders respectively. Both must equal
///   `receive` once per link.
pub trait AlgorithmPlane: fmt::Debug {
    /// Number of node slots (the system size `n`).
    fn n(&self) -> usize;

    /// Per-slot phase column (Byzantine slots hold their initial state).
    fn phases(&self) -> &[Phase];

    /// Per-slot current-value column.
    fn values(&self) -> &[Value];

    /// Per-slot decided-output column (`None` until the slot's
    /// termination rule fires).
    fn outputs(&self) -> &[Option<Value>];

    /// Maps one outgoing honest broadcast to what actually crosses the
    /// wire. The identity by default; wire-format adaptors (the quantized
    /// plane in `adn-sim`) override it to snap the value to their codec
    /// grid. The engine calls it **once per transmitting non-Byzantine
    /// sender per round** — anonymity means every receiver sees the same
    /// encoded message, so per-link encoding would be redundant work —
    /// and routes Byzantine fabrications around it (a strategy's batch
    /// already is the wire content, exactly as on the trait path, where
    /// fabrications bypass the `Quantized` broadcast wrapper too).
    fn encode_wire(&self, msg: Message) -> Message {
        msg
    }

    /// Delivers one sender's staged broadcast `msg` (already passed
    /// through [`AlgorithmPlane::encode_wire`] by the engine) to every
    /// receiver in `receivers`, in ascending receiver order. `ports[v]`
    /// is the local port receiver `v` hears this sender on (the sender's
    /// transposed port column). The sender itself is never in `receivers`
    /// (self-delivery is internal, as for the trait path).
    fn deliver_from_sender(&mut self, msg: Message, receivers: &NodeSet, ports: &[Port]);

    /// Delivers an arbitrary batch to one receiver — the per-link path
    /// for Byzantine fabrications and crash-round partial broadcasts.
    /// Mirrors `Algorithm::receive` exactly.
    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]);

    /// Delivers one round's worth of single-message links to one
    /// receiver, in slice order — the sparse link plane's path for CSR
    /// rows and for runs holding a crash-round sender (each entry is one
    /// sender's broadcast on the port the receiver hears it on, senders
    /// ascending). Must be observationally
    /// identical to calling [`AlgorithmPlane::receive`] once per entry;
    /// the default does exactly that, while the columnar planes override
    /// it to split their columns once per receiver instead of per link.
    // audit: no-alloc
    fn receive_many(&mut self, receiver: usize, batch: &[(Port, Message)]) {
        for &(port, msg) in batch {
            self.receive(receiver, port, std::slice::from_ref(&msg));
        }
    }

    /// Delivers one id-range run of a receiver's row: every sender `u` in
    /// `senders ∩ {lo..=hi} \ {receiver}`, ascending, with message
    /// `wire[u]` on port `ports.port_of(u)` (`ports` is the receiver's
    /// port row, `wire` the round's per-sender wire messages). The sparse
    /// link plane drives it for run rows whose senders all deliver
    /// unconditionally. Must be observationally identical to calling
    /// [`AlgorithmPlane::receive`] once per sender, ascending; the
    /// default does exactly that, so adaptors stay correct. The columnar
    /// planes override it: [`DacPlane`] applies a run a 64-sender word at
    /// a time, [`DbacPlane`] walks it link by link without staging.
    // audit: no-alloc
    fn receive_run(
        &mut self,
        receiver: usize,
        lo: usize,
        hi: usize,
        senders: &NodeSet,
        ports: PortRow<'_>,
        wire: &[Message],
    ) {
        for (w, mut bits) in run_words(senders, lo, hi, receiver) {
            while bits != 0 {
                let u = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.receive(receiver, ports.port_of(u), std::slice::from_ref(&wire[u]));
            }
        }
    }

    /// Splits the plane into per-receiver-range [`PlaneShard`]s for the
    /// sharded delivery loop: shard `i` owns receivers
    /// `bounds[i]..bounds[i + 1]` and only ever mutates their columns, so
    /// the shards can be driven from different threads. Returns `false`
    /// (leaving `out` untouched) when the plane cannot shard — the
    /// default, which makes the engine fall back to single-shard
    /// delivery. Wire-format adaptors must **not** forward this to an
    /// inner plane: a shard drives the inner columns directly and would
    /// bypass the adaptor's decode.
    ///
    /// `bounds` is ascending with `bounds[0] == 0`, ends at
    /// [`AlgorithmPlane::n`], and has one more entry than `out`.
    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]) -> bool {
        let _ = (bounds, out);
        false
    }

    /// End-of-round hook for every slot in `executing`, ascending —
    /// mirrors `Algorithm::end_round`.
    fn end_round(&mut self, executing: &NodeSet);

    /// Resets every slot to its initial state against a fresh input
    /// vector, in place, as if the plane were freshly constructed —
    /// the columnar half of the service layer's allocation-free instance
    /// turnover (the per-node half is `Algorithm::reset_instance`).
    /// Returns `false` (leaving the plane untouched) when in-place resets
    /// are unsupported, making the service layer refuse rather than
    /// silently rebuild. The DAC/DBAC planes override this; wire-format
    /// adaptors forward it to their inner plane (resetting state columns
    /// does not touch the wire encoding).
    ///
    /// # Panics
    ///
    /// Implementations panic if `inputs.len() != self.n()`.
    fn reset_instance(&mut self, inputs: &[Value]) -> bool {
        let _ = inputs;
        false
    }

    /// Short algorithm name for reports (matches the trait
    /// implementation's `name`).
    fn name(&self) -> &'static str;
}

/// The non-empty words of `senders ∩ {lo..=hi} \ {skip}`, ascending, as
/// `(word index, masked word)` — the chunks a run receive walks.
#[inline]
fn run_words(
    senders: &NodeSet,
    lo: usize,
    hi: usize,
    skip: usize,
) -> impl Iterator<Item = (usize, u64)> + '_ {
    let words = senders.words();
    let (lw, hw) = (lo / 64, hi / 64);
    (lw..=hw).filter_map(move |w| {
        let mut mask = u64::MAX;
        if w == lw {
            mask &= u64::MAX << (lo % 64);
        }
        if w == hw {
            mask &= u64::MAX >> (63 - hi % 64);
        }
        if w == skip / 64 {
            mask &= !(1u64 << (skip % 64));
        }
        let word = words[w] & mask;
        (word != 0).then_some((w, word))
    })
}

/// Upper bound on delivery shards a plane can be split into
/// ([`AlgorithmPlane::fill_shards`]); the engine sizes its fixed shard
/// scratch against it.
pub const MAX_PLANE_SHARDS: usize = 8;

/// One receiver-range slice of a columnar plane
/// (see [`AlgorithmPlane::fill_shards`]): exclusive `&mut` views of the
/// columns for receivers `base..base + len`, safe to drive from its own
/// thread while sibling shards run on theirs.
pub struct PlaneShard<'a> {
    base: usize,
    repr: ShardRepr<'a>,
}

enum ShardRepr<'a> {
    Dac(DacCols<'a>),
    Dbac(DbacCols<'a>),
}

impl PlaneShard<'_> {
    /// First receiver this shard owns.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Delivers one round's worth of single-message links to `receiver`
    /// (a **global** slot index inside this shard's range), in slice
    /// order — the sharded mirror of [`AlgorithmPlane::receive_many`].
    #[inline]
    pub fn receive_many(&mut self, receiver: usize, batch: &[(Port, Message)]) {
        let v = receiver - self.base;
        match &mut self.repr {
            ShardRepr::Dac(cols) => {
                for &(port, msg) in batch {
                    cols.process(v, port, msg);
                }
            }
            ShardRepr::Dbac(cols) => {
                for &(port, msg) in batch {
                    cols.process(v, port, msg);
                }
            }
        }
    }

    /// Delivers one id-range run to `receiver` (a **global** slot index
    /// inside this shard's range) — the sharded mirror of
    /// [`AlgorithmPlane::receive_run`], with the same arguments.
    // audit: no-alloc
    #[inline]
    pub fn receive_run(
        &mut self,
        receiver: usize,
        lo: usize,
        hi: usize,
        senders: &NodeSet,
        ports: PortRow<'_>,
        wire: &[Message],
    ) {
        let v = receiver - self.base;
        let chunks = run_words(senders, lo, hi, receiver);
        match &mut self.repr {
            ShardRepr::Dac(cols) => cols.receive_run(v, chunks, ports, wire),
            ShardRepr::Dbac(cols) => cols.receive_run(v, chunks, ports, wire),
        }
    }
}

impl fmt::Debug for PlaneShard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.repr {
            ShardRepr::Dac(_) => "dac",
            ShardRepr::Dbac(_) => "dbac",
        };
        write!(f, "PlaneShard({kind}, base {})", self.base)
    }
}

/// Carves the first `at` elements off `*s` (for per-shard column
/// splitting — each call hands the caller an exclusive prefix and leaves
/// the tail for the remaining shards).
fn take_split<'a, T>(s: &mut &'a mut [T], at: usize) -> &'a mut [T] {
    let (head, rest) = std::mem::take(s).split_at_mut(at);
    *s = rest;
    head
}

/// Checks the [`AlgorithmPlane::fill_shards`] `bounds` contract against a
/// plane of `n` slots.
fn assert_shard_bounds(n: usize, bounds: &[usize], shards: usize) {
    assert_eq!(bounds.len(), shards + 1, "one bound per shard edge");
    assert_eq!(bounds[0], 0, "first shard starts at slot 0");
    assert_eq!(bounds[shards], n, "last shard ends at n");
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]),
        "bounds must ascend"
    );
}

/// [`Dac`](crate::Dac) in struct-of-arrays layout: one plane holds every
/// node's phase, value, tracked extrema, port bit row, and contribution
/// count as flat columns. See [`AlgorithmPlane`] for the equivalence
/// contract and [the module docs](self) for why.
#[derive(Debug, Clone)]
pub struct DacPlane {
    pend: u64,
    /// `dac_quorum() - 1`: foreign same-phase contributions needed to
    /// advance, hoisted so the hot loop compares `seen_count` directly.
    foreign_quorum: u32,
    /// Words per `ports_seen` row (`n.div_ceil(64)`).
    row_words: usize,
    phase: Vec<Phase>,
    value: Vec<Value>,
    vmin: Vec<Value>,
    vmax: Vec<Value>,
    /// `R_i` rows, one bitset row of `row_words` words per slot.
    ports_seen: Vec<u64>,
    /// Foreign same-phase contributions per slot (`|R_i| - 1`).
    seen_count: Vec<u32>,
    /// Decided outputs. **Not** consulted on the hot path: `output[v]` is
    /// `Some` iff `phase[v] >= pend` (every phase change runs the
    /// `try_advance` tail, which maintains the invariant), so deliveries
    /// test the phase they already loaded.
    output: Vec<Option<Value>>,
}

impl DacPlane {
    /// Creates the plane with one slot per input, terminating at the
    /// paper's `pend = ⌈log₂(1/ε)⌉`.
    pub fn new(params: Params, inputs: &[Value]) -> Self {
        DacPlane::with_pend(params, inputs, params.dac_pend())
    }

    /// Creates the plane with an explicit termination phase.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != params.n()`.
    pub fn with_pend(params: Params, inputs: &[Value], pend: u64) -> Self {
        let n = params.n();
        assert_eq!(inputs.len(), n, "one input per slot");
        let row_words = n.div_ceil(64);
        let mut plane = DacPlane {
            pend,
            foreign_quorum: (params.dac_quorum() - 1) as u32,
            row_words,
            phase: vec![Phase::ZERO; n],
            value: inputs.to_vec(),
            vmin: inputs.to_vec(),
            vmax: inputs.to_vec(),
            ports_seen: vec![0; n * row_words],
            seen_count: vec![0; n],
            output: vec![None; n],
        };
        let mut cols = plane.cols();
        for v in 0..n {
            cols.maybe_output(v);
        }
        plane
    }

    /// The termination phase in effect.
    pub fn pend(&self) -> u64 {
        self.pend
    }

    /// Borrows every column as a disjoint `&mut` slice. The engine's bulk
    /// calls split once and run the whole receiver walk on the views:
    /// `&mut` slices are provably non-aliasing, so the optimizer keeps
    /// loop-invariant pointers and the receiver's hot fields in registers
    /// instead of re-loading them after every store (one `Vec` store
    /// could otherwise alias every other column).
    #[inline]
    fn cols(&mut self) -> DacCols<'_> {
        DacCols {
            pend: self.pend,
            foreign_quorum: self.foreign_quorum,
            row_words: self.row_words,
            phase: &mut self.phase,
            value: &mut self.value,
            vmin: &mut self.vmin,
            vmax: &mut self.vmax,
            ports_seen: &mut self.ports_seen,
            seen_count: &mut self.seen_count,
            output: &mut self.output,
        }
    }
}

/// The disjoint column views of one [`DacPlane`] (see [`DacPlane::cols`]).
struct DacCols<'a> {
    pend: u64,
    foreign_quorum: u32,
    row_words: usize,
    phase: &'a mut [Phase],
    value: &'a mut [Value],
    vmin: &'a mut [Value],
    vmax: &'a mut [Value],
    ports_seen: &'a mut [u64],
    seen_count: &'a mut [u32],
    output: &'a mut [Option<Value>],
}

impl DacCols<'_> {
    /// Alg. 1 `RESET()` for slot `v`: clear its port row and collapse the
    /// extrema onto the current value.
    #[inline]
    fn reset(&mut self, v: usize) {
        let row = v * self.row_words;
        self.ports_seen[row..row + self.row_words].fill(0);
        self.seen_count[v] = 0;
        self.vmin[v] = self.value[v];
        self.vmax[v] = self.value[v];
    }

    #[inline]
    fn maybe_output(&mut self, v: usize) {
        if self.phase[v].as_u64() >= self.pend && self.output[v].is_none() {
            self.output[v] = Some(self.value[v]);
        }
    }

    /// One received message at slot `v` — the columnar mirror of
    /// `Dac::process` (Alg. 1 lines 5–15), with two flow changes that are
    /// behaviorally invisible: "decided" is read off the phase column
    /// (`phase >= pend ⇔ output set` — the `output` invariant), and
    /// `try_advance` is skipped when the message changed nothing (a
    /// drained quorum condition cannot become true without new state).
    #[inline(always)]
    fn process(&mut self, v: usize, port: Port, msg: Message) {
        let p = self.phase[v];
        if p.as_u64() >= self.pend {
            // Decided: keeps broadcasting, no longer updates.
            return;
        }
        let q = msg.phase();
        if q > p {
            // Jump: adopt the future state wholesale.
            self.value[v] = msg.value();
            self.phase[v] = q;
            self.reset(v);
        } else if q == p {
            let (w, b) = (port.index() / 64, port.index() % 64);
            let slot = &mut self.ports_seen[v * self.row_words + w];
            if *slot & (1 << b) != 0 {
                return; // duplicate port: nothing changed
            }
            *slot |= 1 << b;
            let seen = self.seen_count[v] + 1;
            self.seen_count[v] = seen;
            let mv = msg.value();
            if mv < self.vmin[v] {
                self.vmin[v] = mv;
            } else if mv > self.vmax[v] {
                self.vmax[v] = mv;
            }
            // Below quorum nothing can advance and the phase is still
            // short of pend — skip the call, keeping the per-message path
            // free of the out-of-line advance machinery.
            if seen < self.foreign_quorum {
                return;
            }
        } else {
            return; // stale: nothing changed
        }
        self.try_advance(v);
    }

    /// A run of unconditional senders at slot `v`, one 64-sender word
    /// (`chunks`, from [`run_words`]) at a time. A word whose senders are
    /// at or behind `v`'s phase, whose ports form one unwrapped range,
    /// and whose fresh ports leave `v` short of quorum is applied in bulk
    /// by [`DacCols::absorb_chunk`]. Every other word — a jump, a quorum
    /// crossing, a wrap, a table row — goes through
    /// [`DacCols::process`] sender by sender, ascending. Either way the
    /// result equals per-sender `process` calls.
    // audit: no-alloc-fn
    #[inline]
    fn receive_run(
        &mut self,
        v: usize,
        chunks: impl Iterator<Item = (usize, u64)>,
        ports: PortRow<'_>,
        wire: &[Message],
    ) {
        for (w, chunk) in chunks {
            let p = self.phase[v];
            if p.as_u64() >= self.pend {
                return; // decided: nothing in the rest of the run applies
            }
            if self.absorb_chunk(v, p, w * 64, chunk, ports, wire) {
                continue;
            }
            let mut bits = chunk;
            while bits != 0 {
                let u = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.process(v, ports.port_of(u), wire[u]);
            }
        }
    }

    /// The bulk half of [`DacCols::receive_run`]: applies the senders
    /// `base + bit` of `chunk` to slot `v` (at phase `p`, undecided) as
    /// one port-range OR, one count add and one min/max fold, and returns
    /// `true` — or returns `false` having changed nothing when the word
    /// needs the per-sender path. Senders behind `p` are stale and
    /// senders on ports already in `R_i` are duplicates: both skip. The
    /// rest are fresh, and the fold visits them ascending with
    /// `process`'s own comparisons, so ties resolve identically.
    // audit: no-alloc-fn
    #[inline]
    fn absorb_chunk(
        &mut self,
        v: usize,
        p: Phase,
        base: usize,
        chunk: u64,
        ports: PortRow<'_>,
        wire: &[Message],
    ) -> bool {
        let PortRow::Offset { offset, n } = ports else {
            return false;
        };
        // Re-base on the lowest sender `a`: bit `i` of `rel` is sender
        // `a + i`, heard on port `pa + i` unless the range wraps at `n`.
        let first = chunk.trailing_zeros() as usize;
        let a = base + first;
        let rel = chunk >> first;
        let span = 63 - rel.leading_zeros() as usize;
        let pa = if a + offset >= n {
            a + offset - n
        } else {
            a + offset
        };
        if pa + span >= n {
            return false;
        }
        let (pw, pb) = (pa / 64, pa % 64);
        let row = &mut self.ports_seen[v * self.row_words..(v + 1) * self.row_words];
        let mut seen = row[pw] >> pb;
        if pb != 0 && pw + 1 < row.len() {
            seen |= row[pw + 1] << (64 - pb);
        }
        // One pass over the senders on unseen ports: flag jumps, collect
        // the fresh same-phase ones and fold their values — into locals
        // only, so a word that turns out to need the per-sender path is
        // left untouched. Senders on seen ports only need the jump check.
        let (mut fresh, mut ahead) = (0u64, false);
        let (mut lo, mut hi) = (self.vmin[v], self.vmax[v]);
        let mut bits = rel & !seen;
        let mut dup = rel & seen;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let m = wire[a + i];
            let q = m.phase();
            ahead |= q > p;
            if q == p {
                fresh |= 1 << i;
                let mv = m.value();
                if mv < lo {
                    lo = mv;
                } else if mv > hi {
                    hi = mv;
                }
            }
        }
        while dup != 0 {
            let i = dup.trailing_zeros() as usize;
            dup &= dup - 1;
            ahead |= wire[a + i].phase() > p;
        }
        if ahead {
            return false;
        }
        let count = fresh.count_ones();
        let total = self.seen_count[v] + count;
        if total >= self.foreign_quorum {
            return false;
        }
        if fresh == 0 {
            return true;
        }
        row[pw] |= fresh << pb;
        if pb != 0 && fresh >> (64 - pb) != 0 {
            row[pw + 1] |= fresh >> (64 - pb);
        }
        self.seen_count[v] = total;
        self.vmin[v] = lo;
        self.vmax[v] = hi;
        true
    }

    #[inline]
    fn try_advance(&mut self, v: usize) {
        while self.seen_count[v] >= self.foreign_quorum && self.phase[v].as_u64() < self.pend {
            self.value[v] = self.vmin[v].midpoint(self.vmax[v]);
            self.phase[v] = self.phase[v].next();
            self.reset(v);
        }
        self.maybe_output(v);
    }
}

impl AlgorithmPlane for DacPlane {
    fn n(&self) -> usize {
        self.phase.len()
    }

    fn phases(&self) -> &[Phase] {
        &self.phase
    }

    fn values(&self) -> &[Value] {
        &self.value
    }

    fn outputs(&self) -> &[Option<Value>] {
        &self.output
    }

    // audit: no-alloc
    fn deliver_from_sender(&mut self, msg: Message, receivers: &NodeSet, ports: &[Port]) {
        let mut cols = self.cols();
        for (wi, mut word) in receivers.iter_words() {
            let base = wi * 64;
            while word != 0 {
                let v = base + word.trailing_zeros() as usize;
                word &= word - 1;
                cols.process(v, ports[v], msg);
            }
        }
    }

    // audit: no-alloc
    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]) {
        let mut cols = self.cols();
        for &msg in batch {
            cols.process(receiver, port, msg);
        }
    }

    // audit: no-alloc
    fn receive_many(&mut self, receiver: usize, batch: &[(Port, Message)]) {
        let mut cols = self.cols();
        for &(port, msg) in batch {
            cols.process(receiver, port, msg);
        }
    }

    // audit: no-alloc
    fn receive_run(
        &mut self,
        receiver: usize,
        lo: usize,
        hi: usize,
        senders: &NodeSet,
        ports: PortRow<'_>,
        wire: &[Message],
    ) {
        let chunks = run_words(senders, lo, hi, receiver);
        self.cols().receive_run(receiver, chunks, ports, wire);
    }

    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]) -> bool {
        assert_shard_bounds(self.phase.len(), bounds, out.len());
        let (pend, foreign_quorum, row_words) = (self.pend, self.foreign_quorum, self.row_words);
        let (mut phase, mut value) = (&mut self.phase[..], &mut self.value[..]);
        let (mut vmin, mut vmax) = (&mut self.vmin[..], &mut self.vmax[..]);
        let mut ports_seen = &mut self.ports_seen[..];
        let (mut seen_count, mut output) = (&mut self.seen_count[..], &mut self.output[..]);
        for (i, slot) in out.iter_mut().enumerate() {
            let len = bounds[i + 1] - bounds[i];
            *slot = Some(PlaneShard {
                base: bounds[i],
                repr: ShardRepr::Dac(DacCols {
                    pend,
                    foreign_quorum,
                    row_words,
                    phase: take_split(&mut phase, len),
                    value: take_split(&mut value, len),
                    vmin: take_split(&mut vmin, len),
                    vmax: take_split(&mut vmax, len),
                    ports_seen: take_split(&mut ports_seen, len * row_words),
                    seen_count: take_split(&mut seen_count, len),
                    output: take_split(&mut output, len),
                }),
            });
        }
        true
    }

    fn end_round(&mut self, executing: &NodeSet) {
        let mut cols = self.cols();
        executing.for_each(|id| cols.try_advance(id.index()));
    }

    fn reset_instance(&mut self, inputs: &[Value]) -> bool {
        let n = self.phase.len();
        assert_eq!(inputs.len(), n, "one input per slot");
        let mut cols = self.cols();
        for (v, input) in inputs.iter().enumerate() {
            cols.phase[v] = Phase::ZERO;
            cols.value[v] = *input;
            cols.output[v] = None;
            cols.reset(v);
            cols.maybe_output(v);
        }
        true
    }

    fn name(&self) -> &'static str {
        "dac"
    }
}

/// [`Dbac`](crate::Dbac) in struct-of-arrays layout: phase, value, port
/// bit rows, and the `R_low`/`R_high` trim lists as flat `f + 1`-wide
/// slabs. See [`AlgorithmPlane`] for the equivalence contract.
#[derive(Debug, Clone)]
pub struct DbacPlane {
    pend: u64,
    /// `dbac_quorum() - 1`, hoisted like [`DacPlane::foreign_quorum`].
    foreign_quorum: u32,
    row_words: usize,
    /// Trim-list capacity per slot (`f + 1`).
    cap: usize,
    phase: Vec<Phase>,
    value: Vec<Value>,
    ports_seen: Vec<u64>,
    seen_count: Vec<u32>,
    /// `R_low` slab: slot `v` owns `low[v*cap..v*cap + low_len[v]]`.
    low: Vec<Value>,
    low_len: Vec<u32>,
    /// `R_high` slab, same layout.
    high: Vec<Value>,
    high_len: Vec<u32>,
    /// Shared scratch for sorting piggybacked (Byzantine) batches —
    /// one suffices because batches are consumed delivery by delivery.
    sort_scratch: Vec<Message>,
    output: Vec<Option<Value>>,
}

impl DbacPlane {
    /// Creates the plane with one slot per input, terminating at the
    /// paper's Eq. (6) `pend`.
    pub fn new(params: Params, inputs: &[Value]) -> Self {
        DbacPlane::with_pend(params, inputs, params.dbac_pend())
    }

    /// Creates the plane with an explicit termination phase.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != params.n()`.
    pub fn with_pend(params: Params, inputs: &[Value], pend: u64) -> Self {
        let n = params.n();
        assert_eq!(inputs.len(), n, "one input per slot");
        let row_words = n.div_ceil(64);
        let cap = params.dbac_list_len();
        let mut plane = DbacPlane {
            pend,
            foreign_quorum: (params.dbac_quorum() - 1) as u32,
            row_words,
            cap,
            phase: vec![Phase::ZERO; n],
            value: inputs.to_vec(),
            ports_seen: vec![0; n * row_words],
            seen_count: vec![0; n],
            low: vec![Value::HALF; n * cap],
            low_len: vec![0; n],
            high: vec![Value::HALF; n * cap],
            high_len: vec![0; n],
            sort_scratch: Vec::new(),
            output: vec![None; n],
        };
        let mut cols = plane.cols();
        for v in 0..n {
            cols.reset(v);
            cols.maybe_output(v);
        }
        plane
    }

    /// The termination phase in effect.
    pub fn pend(&self) -> u64 {
        self.pend
    }

    /// Disjoint column views — same rationale as [`DacPlane::cols`].
    #[inline]
    fn cols(&mut self) -> DbacCols<'_> {
        DbacCols {
            pend: self.pend,
            foreign_quorum: self.foreign_quorum,
            row_words: self.row_words,
            cap: self.cap,
            phase: &mut self.phase,
            value: &mut self.value,
            ports_seen: &mut self.ports_seen,
            seen_count: &mut self.seen_count,
            low: &mut self.low,
            low_len: &mut self.low_len,
            high: &mut self.high,
            high_len: &mut self.high_len,
            output: &mut self.output,
        }
    }
}

/// The disjoint column views of one [`DbacPlane`] (see
/// [`DbacPlane::cols`]).
struct DbacCols<'a> {
    pend: u64,
    foreign_quorum: u32,
    row_words: usize,
    cap: usize,
    phase: &'a mut [Phase],
    value: &'a mut [Value],
    ports_seen: &'a mut [u64],
    seen_count: &'a mut [u32],
    low: &'a mut [Value],
    low_len: &'a mut [u32],
    high: &'a mut [Value],
    high_len: &'a mut [u32],
    output: &'a mut [Option<Value>],
}

impl DbacCols<'_> {
    /// Alg. 2 `RESET()` + self-store for slot `v` (mirrors
    /// `Dbac::reset`).
    #[inline]
    fn reset(&mut self, v: usize) {
        let row = v * self.row_words;
        self.ports_seen[row..row + self.row_words].fill(0);
        self.seen_count[v] = 0;
        if self.cap == 1 {
            // Both degenerate lists hold exactly the own value — the
            // state `store`'s fast path relies on.
            self.low[v] = self.value[v];
            self.high[v] = self.value[v];
            self.low_len[v] = 1;
            self.high_len[v] = 1;
        } else {
            self.low_len[v] = 0;
            self.high_len[v] = 0;
            self.store(v, self.value[v]);
        }
    }

    /// Alg. 2 `STORE(v_j)` for slot `v` — byte-for-byte the trait
    /// version's push-or-replace logic, including `max_index` /
    /// `min_index` tie-breaking.
    #[inline]
    fn store(&mut self, v: usize, val: Value) {
        if self.cap == 1 {
            // f = 0: the trim lists degenerate to a running min and max.
            // After every reset both hold exactly the own value (length
            // 1), so the general push-or-replace below reduces to this.
            if val < self.low[v] {
                self.low[v] = val;
            }
            if val > self.high[v] {
                self.high[v] = val;
            }
            return;
        }
        let base = v * self.cap;
        let llen = self.low_len[v] as usize;
        if llen < self.cap {
            self.low[base + llen] = val;
            self.low_len[v] += 1;
        } else if let Some(max_idx) = max_index(&self.low[base..base + llen]) {
            if val < self.low[base + max_idx] {
                self.low[base + max_idx] = val;
            }
        }
        let hlen = self.high_len[v] as usize;
        if hlen < self.cap {
            self.high[base + hlen] = val;
            self.high_len[v] += 1;
        } else if let Some(min_idx) = min_index(&self.high[base..base + hlen]) {
            if val > self.high[base + min_idx] {
                self.high[base + min_idx] = val;
            }
        }
    }

    #[inline]
    fn maybe_output(&mut self, v: usize) {
        if self.phase[v].as_u64() >= self.pend && self.output[v].is_none() {
            self.output[v] = Some(self.value[v]);
        }
    }

    /// One received message at slot `v` — the columnar mirror of
    /// `Dbac::process` (Alg. 2 lines 5–11), with the same
    /// behavior-preserving flow changes as [`DacCols::process`]:
    /// decided-by-phase and no `try_advance` after a no-op message.
    #[inline(always)]
    fn process(&mut self, v: usize, port: Port, msg: Message) {
        let p = self.phase[v];
        if p.as_u64() >= self.pend {
            return;
        }
        if msg.phase() >= p {
            let (w, b) = (port.index() / 64, port.index() % 64);
            let slot = &mut self.ports_seen[v * self.row_words + w];
            if *slot & (1 << b) == 0 {
                *slot |= 1 << b;
                let seen = self.seen_count[v] + 1;
                self.seen_count[v] = seen;
                if self.cap == 1 {
                    // The degenerate f = 0 trim, kept inline — `store`'s
                    // general path would drag its push-or-replace code
                    // (and a function call) into every counted message.
                    let val = msg.value();
                    if val < self.low[v] {
                        self.low[v] = val;
                    }
                    if val > self.high[v] {
                        self.high[v] = val;
                    }
                } else {
                    self.store(v, msg.value());
                }
                // Below quorum nothing can advance (same early-out as
                // `DacCols::process`).
                if seen >= self.foreign_quorum {
                    self.try_advance(v);
                }
            }
        }
    }

    /// A run of unconditional senders at slot `v`: the fused per-link
    /// walk, each sender's wire message processed on its row port as it
    /// is found, with no staging batch. Trim lists keep no word-shaped
    /// summary, so there is no bulk step; a decided slot exits at once.
    // audit: no-alloc-fn
    #[inline]
    fn receive_run(
        &mut self,
        v: usize,
        chunks: impl Iterator<Item = (usize, u64)>,
        ports: PortRow<'_>,
        wire: &[Message],
    ) {
        for (w, mut bits) in chunks {
            if self.phase[v].as_u64() >= self.pend {
                return;
            }
            while bits != 0 {
                let u = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.process(v, ports.port_of(u), wire[u]);
            }
        }
    }

    // audit: no-alloc-fn
    #[inline]
    fn try_advance(&mut self, v: usize) {
        while self.seen_count[v] >= self.foreign_quorum && self.phase[v].as_u64() < self.pend {
            let (lo, hi) = if self.cap == 1 {
                (self.low[v], self.high[v])
            } else {
                let base = v * self.cap;
                let (Some(&lo), Some(&hi)) = (
                    self.low[base..base + self.low_len[v] as usize].iter().max(),
                    self.high[base..base + self.high_len[v] as usize]
                        .iter()
                        .min(),
                ) else {
                    debug_assert!(false, "low/high lists are never empty at quorum");
                    return;
                };
                (lo, hi)
            };
            self.value[v] = lo.midpoint(hi);
            self.phase[v] = self.phase[v].next();
            self.reset(v);
        }
        self.maybe_output(v);
    }
}

impl AlgorithmPlane for DbacPlane {
    fn n(&self) -> usize {
        self.phase.len()
    }

    fn phases(&self) -> &[Phase] {
        &self.phase
    }

    fn values(&self) -> &[Value] {
        &self.value
    }

    fn outputs(&self) -> &[Option<Value>] {
        &self.output
    }

    // audit: no-alloc
    fn deliver_from_sender(&mut self, msg: Message, receivers: &NodeSet, ports: &[Port]) {
        let mut cols = self.cols();
        for (wi, mut word) in receivers.iter_words() {
            let base = wi * 64;
            while word != 0 {
                let v = base + word.trailing_zeros() as usize;
                word &= word - 1;
                cols.process(v, ports[v], msg);
            }
        }
    }

    // audit: no-alloc
    fn receive(&mut self, receiver: usize, port: Port, batch: &[Message]) {
        if batch.len() == 1 {
            self.cols().process(receiver, port, batch[0]);
        } else {
            // Multi-message (Byzantine) batches are processed in ascending
            // phase order — the same resolution as `Dbac::receive`, with
            // one plane-wide scratch instead of one per node.
            let mut sorted = std::mem::take(&mut self.sort_scratch);
            sorted.clear();
            sorted.extend_from_slice(batch);
            sorted.sort();
            let mut cols = self.cols();
            for &msg in &sorted {
                cols.process(receiver, port, msg);
            }
            self.sort_scratch = sorted;
        }
    }

    // audit: no-alloc
    fn receive_many(&mut self, receiver: usize, batch: &[(Port, Message)]) {
        // Every entry is one honest single-message link (the sparse path
        // never routes Byzantine fabrications here), so no per-batch
        // phase sorting is needed — this is `receive` with a 1-message
        // batch per entry, columns split once.
        let mut cols = self.cols();
        for &(port, msg) in batch {
            cols.process(receiver, port, msg);
        }
    }

    // audit: no-alloc
    fn receive_run(
        &mut self,
        receiver: usize,
        lo: usize,
        hi: usize,
        senders: &NodeSet,
        ports: PortRow<'_>,
        wire: &[Message],
    ) {
        let chunks = run_words(senders, lo, hi, receiver);
        self.cols().receive_run(receiver, chunks, ports, wire);
    }

    fn fill_shards<'a>(&'a mut self, bounds: &[usize], out: &mut [Option<PlaneShard<'a>>]) -> bool {
        assert_shard_bounds(self.phase.len(), bounds, out.len());
        let (pend, foreign_quorum) = (self.pend, self.foreign_quorum);
        let (row_words, cap) = (self.row_words, self.cap);
        let (mut phase, mut value) = (&mut self.phase[..], &mut self.value[..]);
        let mut ports_seen = &mut self.ports_seen[..];
        let mut seen_count = &mut self.seen_count[..];
        let (mut low, mut low_len) = (&mut self.low[..], &mut self.low_len[..]);
        let (mut high, mut high_len) = (&mut self.high[..], &mut self.high_len[..]);
        let mut output = &mut self.output[..];
        for (i, slot) in out.iter_mut().enumerate() {
            let len = bounds[i + 1] - bounds[i];
            *slot = Some(PlaneShard {
                base: bounds[i],
                repr: ShardRepr::Dbac(DbacCols {
                    pend,
                    foreign_quorum,
                    row_words,
                    cap,
                    phase: take_split(&mut phase, len),
                    value: take_split(&mut value, len),
                    ports_seen: take_split(&mut ports_seen, len * row_words),
                    seen_count: take_split(&mut seen_count, len),
                    low: take_split(&mut low, len * cap),
                    low_len: take_split(&mut low_len, len),
                    high: take_split(&mut high, len * cap),
                    high_len: take_split(&mut high_len, len),
                    output: take_split(&mut output, len),
                }),
            });
        }
        true
    }

    fn end_round(&mut self, executing: &NodeSet) {
        let mut cols = self.cols();
        executing.for_each(|id| cols.try_advance(id.index()));
    }

    fn reset_instance(&mut self, inputs: &[Value]) -> bool {
        let n = self.phase.len();
        assert_eq!(inputs.len(), n, "one input per slot");
        self.sort_scratch.clear();
        let mut cols = self.cols();
        for (v, input) in inputs.iter().enumerate() {
            cols.phase[v] = Phase::ZERO;
            cols.value[v] = *input;
            cols.output[v] = None;
            cols.reset(v);
            cols.maybe_output(v);
        }
        true
    }

    fn name(&self) -> &'static str {
        "dbac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Dac, Dbac};
    use adn_types::rng::SplitMix64;
    use adn_types::NodeId;

    fn val(v: f64) -> Value {
        Value::new(v).unwrap()
    }

    fn msg(v: f64, p: u64) -> Message {
        Message::new(val(v), Phase::new(p))
    }

    /// Drives slot 0 of a DAC plane and a standalone `Dac` through the
    /// same delivery script and asserts identical observable state.
    fn assert_dac_lockstep(params: Params, pend: u64, input: f64, script: &[(usize, Message)]) {
        let n = params.n();
        let mut inputs = vec![Value::HALF; n];
        inputs[0] = val(input);
        let mut plane = DacPlane::with_pend(params, &inputs, pend);
        let mut node = Dac::with_pend(params, val(input), pend);
        for &(port, m) in script {
            plane.receive(0, Port::new(port), &[m]);
            node.receive(Port::new(port), &[m]);
            assert_eq!(plane.phases()[0], node.phase(), "phase after {m}");
            assert_eq!(plane.values()[0], node.current_value(), "value after {m}");
            assert_eq!(plane.outputs()[0], node.output(), "output after {m}");
        }
    }

    #[test]
    fn dac_plane_mirrors_dac_on_quorum_script() {
        let params = Params::new(5, 1, 0.25).unwrap();
        assert_dac_lockstep(
            params,
            2,
            0.0,
            &[
                (1, msg(1.0, 0)),
                (2, msg(0.5, 0)), // quorum: advance with midpoint
                (1, msg(0.2, 1)),
                (3, msg(0.8, 1)), // advance again -> pend -> output
                (2, msg(0.1, 5)), // decided: frozen
            ],
        );
    }

    #[test]
    fn dac_plane_same_round_jump_then_same_phase() {
        // The sender-major walk may jump a receiver mid-round and then
        // feed it same-phase values from *later* senders of the same
        // round: the jump must reset the port row so those count anew.
        let params = Params::new(5, 1, 0.25).unwrap();
        assert_dac_lockstep(
            params,
            4,
            0.0,
            &[
                (1, msg(0.9, 0)), // same-phase contribution, port 1
                (2, msg(0.7, 2)), // jump to phase 2 (resets port row)
                (1, msg(0.3, 2)), // port 1 contributes AGAIN post-jump
                (3, msg(0.5, 2)), // completes the phase-2 quorum
                (4, msg(0.4, 2)), // stale (receiver is at phase 3 now)
            ],
        );
        // And the concrete post-state: quorum of {0.7 (own), 0.3, 0.5}
        // -> midpoint(0.3, 0.7) = 0.5 at phase 3.
        let inputs = [val(0.0), Value::HALF, Value::HALF, Value::HALF, Value::HALF];
        let mut plane = DacPlane::with_pend(params, &inputs, 4);
        for (port, m) in [
            (1, msg(0.9, 0)),
            (2, msg(0.7, 2)),
            (1, msg(0.3, 2)),
            (3, msg(0.5, 2)),
        ] {
            plane.receive(0, Port::new(port), &[m]);
        }
        assert_eq!(plane.phases()[0], Phase::new(3));
        assert_eq!(plane.values()[0], Value::HALF);
    }

    #[test]
    fn dbac_plane_mirrors_dbac_including_trim_ties() {
        let params = Params::new(6, 1, 0.1).unwrap();
        let n = params.n();
        let mut inputs = vec![Value::HALF; n];
        inputs[0] = val(0.5);
        let mut plane = DbacPlane::with_pend(params, &inputs, 3);
        let mut node = Dbac::with_pend(params, val(0.5), 3);
        // Ties (repeated 0.2) exercise the max_index/min_index
        // tie-breaking that the plane must replicate exactly.
        let script = [
            (1, msg(0.2, 0)),
            (2, msg(0.2, 0)),
            (3, msg(0.2, 3)), // future phase accepted, no jump
            (4, msg(0.9, 0)), // quorum of 5 -> advance
            (1, msg(0.4, 1)),
        ];
        for (port, m) in script {
            plane.receive(0, Port::new(port), &[m]);
            node.receive(Port::new(port), &[m]);
            assert_eq!(plane.phases()[0], node.phase(), "phase after {m}");
            assert_eq!(plane.values()[0], node.current_value(), "value after {m}");
            assert_eq!(plane.outputs()[0], node.output(), "output after {m}");
        }
    }

    #[test]
    fn dbac_plane_sorts_multi_message_batches() {
        let params = Params::new(6, 1, 0.1).unwrap();
        let inputs = vec![Value::HALF; 6];
        let mut plane = DbacPlane::with_pend(params, &inputs, 10);
        let mut node = Dbac::with_pend(params, Value::HALF, 10);
        let batch = [msg(0.9, 2), msg(0.1, 0)];
        plane.receive(0, Port::new(1), &batch);
        node.receive(Port::new(1), &batch);
        assert_eq!(plane.values()[0], node.current_value());
        assert_eq!(plane.phases()[0], node.phase());
    }

    #[test]
    fn plane_bulk_delivery_visits_receivers_ascending() {
        let params = Params::fault_free(5, 0.25).unwrap();
        let inputs: Vec<Value> = (0..5).map(|i| val(i as f64 / 10.0)).collect();
        let mut plane = DacPlane::new(params, &inputs);
        let receivers = NodeSet::from_ids(5, [NodeId::new(1), NodeId::new(3)]);
        let ports: Vec<Port> = (0..5).map(Port::new).collect();
        plane.deliver_from_sender(msg(0.9, 0), &receivers, &ports);
        // Only the addressed slots saw the message.
        assert_eq!(plane.values()[0], val(0.0));
        assert_eq!(plane.phases()[2], Phase::ZERO);
        // n = 5 quorum is 3: one foreign value is not enough to advance.
        for v in [1usize, 3] {
            assert_eq!(plane.seen_count[v], 1, "slot {v}");
            assert_eq!(plane.vmax[v], val(0.9), "slot {v}");
        }
    }

    #[test]
    fn encode_wire_defaults_to_identity() {
        let params = Params::fault_free(3, 0.25).unwrap();
        let dac = DacPlane::new(params, &[Value::HALF; 3]);
        let dbac = DbacPlane::with_pend(Params::new(6, 1, 0.1).unwrap(), &[Value::HALF; 6], 3);
        let m = msg(0.3, 2);
        assert_eq!(dac.encode_wire(m), m);
        assert_eq!(dbac.encode_wire(m), m);
    }

    #[test]
    fn columns_snapshot_initial_state() {
        let params = Params::fault_free(3, 0.25).unwrap();
        let inputs = [val(0.1), val(0.2), val(0.3)];
        let plane = DacPlane::new(params, &inputs);
        assert_eq!(plane.values(), &inputs);
        assert!(plane.phases().iter().all(|&p| p == Phase::ZERO));
        assert_eq!(plane.n(), 3);
        assert_eq!(plane.name(), "dac");
    }

    #[test]
    fn receive_many_matches_per_link_receives() {
        let params = Params::new(6, 1, 0.1).unwrap();
        let inputs = vec![Value::HALF; 6];
        let script = [
            (Port::new(1), msg(0.2, 0)),
            (Port::new(2), msg(0.9, 0)),
            (Port::new(3), msg(0.4, 1)),
            (Port::new(4), msg(0.6, 0)),
        ];
        let mut bulk_dac = DacPlane::with_pend(params, &inputs, 3);
        let mut link_dac = DacPlane::with_pend(params, &inputs, 3);
        bulk_dac.receive_many(2, &script);
        for &(port, m) in &script {
            link_dac.receive(2, port, &[m]);
        }
        assert_eq!(bulk_dac.phases(), link_dac.phases());
        assert_eq!(bulk_dac.values(), link_dac.values());
        let mut bulk_dbac = DbacPlane::with_pend(params, &inputs, 3);
        let mut link_dbac = DbacPlane::with_pend(params, &inputs, 3);
        bulk_dbac.receive_many(2, &script);
        for &(port, m) in &script {
            link_dbac.receive(2, port, &[m]);
        }
        assert_eq!(bulk_dbac.phases(), link_dbac.phases());
        assert_eq!(bulk_dbac.values(), link_dbac.values());
    }

    #[test]
    fn shards_mirror_whole_plane_delivery() {
        let params = Params::new(7, 1, 0.1).unwrap();
        let inputs: Vec<Value> = (0..7).map(|i| val(i as f64 / 10.0)).collect();
        let deliver = |shard: &mut PlaneShard<'_>, lo: usize, hi: usize| {
            for v in lo..hi {
                let batch = [
                    (Port::new(1), msg(0.8, 0)),
                    (Port::new(2), msg(0.1, 0)),
                    (Port::new(3), msg(0.5, 0)),
                ];
                shard.receive_many(v, &batch);
            }
        };
        let bounds = [0usize, 3, 7];
        let mut whole = DacPlane::with_pend(params, &inputs, 4);
        let mut sharded = DacPlane::with_pend(params, &inputs, 4);
        {
            let mut shards: [Option<PlaneShard<'_>>; 2] = [None, None];
            assert!(sharded.fill_shards(&bounds, &mut shards));
            for (i, shard) in shards.iter_mut().enumerate() {
                let s = shard.as_mut().unwrap();
                assert_eq!(s.base(), bounds[i]);
                deliver(s, bounds[i], bounds[i + 1]);
            }
        }
        for v in 0..7 {
            whole.receive_many(
                v,
                &[
                    (Port::new(1), msg(0.8, 0)),
                    (Port::new(2), msg(0.1, 0)),
                    (Port::new(3), msg(0.5, 0)),
                ],
            );
        }
        assert_eq!(whole.phases(), sharded.phases());
        assert_eq!(whole.values(), sharded.values());
        assert_eq!(whole.outputs(), sharded.outputs());
        // Same drill for DBAC, whose trim slabs split at `len * cap`.
        let mut whole = DbacPlane::with_pend(params, &inputs, 4);
        let mut sharded = DbacPlane::with_pend(params, &inputs, 4);
        {
            let mut shards: [Option<PlaneShard<'_>>; 2] = [None, None];
            assert!(sharded.fill_shards(&bounds, &mut shards));
            for (i, shard) in shards.iter_mut().enumerate() {
                deliver(shard.as_mut().unwrap(), bounds[i], bounds[i + 1]);
            }
        }
        for v in 0..7 {
            whole.receive_many(
                v,
                &[
                    (Port::new(1), msg(0.8, 0)),
                    (Port::new(2), msg(0.1, 0)),
                    (Port::new(3), msg(0.5, 0)),
                ],
            );
        }
        assert_eq!(whole.phases(), sharded.phases());
        assert_eq!(whole.values(), sharded.values());
    }

    #[test]
    fn reset_instance_is_observationally_fresh() {
        let params = Params::new(6, 1, 0.1).unwrap();
        let dirty_script = [
            (Port::new(1), msg(0.2, 0)),
            (Port::new(2), msg(0.9, 1)),
            (Port::new(3), msg(0.4, 0)),
        ];
        let follow_script = [
            (Port::new(2), msg(0.7, 0)),
            (Port::new(4), msg(0.3, 0)),
            (Port::new(1), msg(0.6, 1)),
        ];
        let old_inputs = vec![Value::HALF; 6];
        let new_inputs: Vec<Value> = (0..6).map(|i| val(i as f64 / 10.0)).collect();
        // A used-then-reset plane must behave exactly like a fresh one
        // under any follow-up script — for DAC and DBAC alike.
        let mut used_dac = DacPlane::with_pend(params, &old_inputs, 3);
        for v in 0..6 {
            used_dac.receive_many(v, &dirty_script);
        }
        assert!(used_dac.reset_instance(&new_inputs));
        let mut fresh_dac = DacPlane::with_pend(params, &new_inputs, 3);
        for v in 0..6 {
            used_dac.receive_many(v, &follow_script);
            fresh_dac.receive_many(v, &follow_script);
        }
        assert_eq!(used_dac.phases(), fresh_dac.phases());
        assert_eq!(used_dac.values(), fresh_dac.values());
        assert_eq!(used_dac.outputs(), fresh_dac.outputs());
        let mut used_dbac = DbacPlane::with_pend(params, &old_inputs, 3);
        for v in 0..6 {
            used_dbac.receive_many(v, &dirty_script);
        }
        assert!(used_dbac.reset_instance(&new_inputs));
        let mut fresh_dbac = DbacPlane::with_pend(params, &new_inputs, 3);
        for v in 0..6 {
            used_dbac.receive_many(v, &follow_script);
            fresh_dbac.receive_many(v, &follow_script);
        }
        assert_eq!(used_dbac.phases(), fresh_dbac.phases());
        assert_eq!(used_dbac.values(), fresh_dbac.values());
        assert_eq!(used_dbac.outputs(), fresh_dbac.outputs());
    }

    /// One randomized bulk-vs-per-link case: a receiver driven into a
    /// mid-phase state by per-link receives (so ports from an earlier
    /// round of the same phase sit in `R_i`), then one run whose senders
    /// sit behind, at or ahead of its phase, on a rotation, identity or
    /// table port row. Returns the plane that took the run in bulk, the
    /// one that took it link by link, and the receiver's phase before.
    fn run_case<P: AlgorithmPlane + Clone>(
        seed: u64,
        build: impl Fn(Params, &[Value], u64) -> P,
    ) -> (P, P, usize, Phase) {
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        let n = [63, 64, 65, 127, 129, 130, 257][rng.next_index(7)];
        let params = Params::new(n, rng.next_index(n / 6 + 1), 0.1).unwrap();
        let inputs: Vec<Value> = (0..n).map(|_| val(rng.next_f64())).collect();
        let mut plane = build(params, &inputs, 1 + rng.next_below(4));
        let table: Vec<Port> = rng.permutation(n).into_iter().map(Port::new).collect();
        let ports = match rng.next_index(3) {
            0 => PortRow::Offset {
                offset: rng.next_index(n),
                n,
            },
            1 => PortRow::Offset { offset: 0, n },
            _ => PortRow::Table(&table),
        };
        let v = rng.next_index(n);
        let p0 = rng.next_below(2);
        for _ in 0..n / 4 + rng.next_index(n / 2) {
            let m = msg(rng.next_f64(), p0 + u64::from(rng.next_bool(0.05)));
            plane.receive(v, ports.port_of(rng.next_index(n)), &[m]);
        }
        // Jumps are rare per sender in a real round; a word holding one
        // takes the per-sender path, so most draws keep them rarer still.
        let p = plane.phases()[v].as_u64();
        let ahead = [0.0, 0.002, 0.02, 0.1][rng.next_index(4)];
        let stale = [0.0, 0.1][rng.next_index(2)];
        let wire: Vec<Message> = (0..n)
            .map(|_| {
                let q = if rng.next_bool(ahead) {
                    p + 1 + rng.next_below(2)
                } else if rng.next_bool(stale) {
                    p.saturating_sub(1)
                } else {
                    p
                };
                msg(rng.next_f64(), q)
            })
            .collect();
        let density = 0.5 + 0.5 * rng.next_f64();
        let senders = NodeSet::from_ids(
            n,
            (0..n).filter(|_| rng.next_bool(density)).map(NodeId::new),
        );
        let lo = rng.next_index(n);
        let hi = lo + rng.next_index(n - lo);
        let before = plane.phases()[v];
        let mut links = plane.clone();
        plane.receive_run(v, lo, hi, &senders, ports, &wire);
        for u in senders.iter().filter(|u| (lo..=hi).contains(&u.index())) {
            if u.index() != v {
                links.receive(v, ports.port_of(u.index()), &[wire[u.index()]]);
            }
        }
        (plane, links, v, before)
    }

    #[test]
    fn dac_receive_run_matches_per_link_receives() {
        let (mut advanced, mut decided) = (0, 0);
        for seed in 0..400 {
            let (bulk, links, v, before) = run_case(seed, DacPlane::with_pend);
            let ctx = format!("seed {seed}, receiver {v}");
            assert_eq!(bulk.phase, links.phase, "{ctx}");
            assert_eq!(bulk.value, links.value, "{ctx}");
            assert_eq!(bulk.vmin, links.vmin, "{ctx}");
            assert_eq!(bulk.vmax, links.vmax, "{ctx}");
            assert_eq!(bulk.ports_seen, links.ports_seen, "{ctx}");
            assert_eq!(bulk.seen_count, links.seen_count, "{ctx}");
            assert_eq!(bulk.output, links.output, "{ctx}");
            advanced += u32::from(links.phase[v] > before);
            decided += u32::from(links.output[v].is_some());
        }
        // The draw must reach quorum crossings, jumps and decisions.
        assert!(advanced >= 40, "only {advanced} runs moved the phase");
        assert!(decided >= 20, "only {decided} runs ended decided");
    }

    /// The word-chunk fast path's gate, case by case: it takes unwrapped
    /// rotation words of same-phase, stale and duplicate senders short of
    /// quorum, and hands back (unchanged) words with a jump, a wrap, a
    /// quorum crossing, or table ports.
    #[test]
    fn absorb_chunk_takes_exactly_the_bulk_words() {
        let n = 200;
        let params = Params::fault_free(n, 0.1).unwrap(); // quorum 101
        let inputs: Vec<Value> = (0..n).map(|i| val(i as f64 / n as f64)).collect();
        let wire: Vec<Message> = (0..n).map(|i| msg(i as f64 / n as f64, 1)).collect();
        let mut plane = DacPlane::with_pend(params, &inputs, 5);
        let v = 7;
        plane.phase[v] = Phase::new(1);
        let p = Phase::new(1);
        let rot = |offset| PortRow::Offset { offset, n };
        let mut cols = plane.cols();
        // Word 1 (senders 64..128) at offset 10: ports 74..138, split
        // across two port words. Taken; the OR lands in both words.
        assert!(cols.absorb_chunk(v, p, 64, u64::MAX, rot(10), &wire));
        assert_eq!(cols.seen_count[v], 64);
        let row = &cols.ports_seen[v * 4..v * 4 + 4];
        assert_eq!(row[1], u64::MAX << 10);
        assert_eq!(row[2], (1 << 10) - 1);
        // The own value 7/200 stays the minimum; the word raises the max.
        assert_eq!(
            (cols.vmin[v], cols.vmax[v]),
            (val(7.0 / 200.0), val(127.0 / 200.0))
        );
        // The same word again: every port is a duplicate. Taken, no-op.
        assert!(cols.absorb_chunk(v, p, 64, u64::MAX, rot(10), &wire));
        assert_eq!(cols.seen_count[v], 64);
        // Stale senders skip: word 0 with its senders a phase behind.
        let mut behind = wire.clone();
        for m in &mut behind[..64] {
            *m = msg(m.value().get(), 0);
        }
        assert!(cols.absorb_chunk(v, p, 0, u64::MAX, rot(136), &behind));
        assert_eq!(cols.seen_count[v], 64);
        // A jump, a wrap (offset 150: ports 150..214 cross n = 200), a
        // quorum crossing (64 + 64 > 100 foreign), and a table row all
        // fall back without touching the state.
        let mut jump = wire.clone();
        jump[3] = msg(0.5, 2);
        let table: Vec<Port> = (0..n).map(Port::new).collect();
        for (base, w, ports) in [
            (0, &jump, rot(136)),
            (0, &wire, rot(150)),
            (128, &wire, rot(10)),
            (0, &wire, PortRow::Table(&table)),
        ] {
            assert!(!cols.absorb_chunk(v, p, base, u64::MAX >> 8, ports, w));
            assert_eq!(cols.seen_count[v], 64);
        }
    }

    #[test]
    fn dbac_receive_run_matches_per_link_receives() {
        for seed in 0..400 {
            let (bulk, links, v, _) = run_case(seed, DbacPlane::with_pend);
            let ctx = format!("seed {seed}, receiver {v}");
            assert_eq!(bulk.phase, links.phase, "{ctx}");
            assert_eq!(bulk.value, links.value, "{ctx}");
            assert_eq!(bulk.ports_seen, links.ports_seen, "{ctx}");
            assert_eq!(bulk.seen_count, links.seen_count, "{ctx}");
            assert_eq!(bulk.low, links.low, "{ctx}");
            assert_eq!(bulk.low_len, links.low_len, "{ctx}");
            assert_eq!(bulk.high, links.high, "{ctx}");
            assert_eq!(bulk.high_len, links.high_len, "{ctx}");
            assert_eq!(bulk.output, links.output, "{ctx}");
        }
    }

    #[test]
    fn shard_receive_run_matches_whole_plane() {
        let n = 130;
        let params = Params::new(n, 2, 0.1).unwrap();
        let inputs: Vec<Value> = (0..n).map(|i| val(i as f64 / n as f64)).collect();
        let wire: Vec<Message> = (0..n)
            .map(|i| msg((i * 7 % n) as f64 / n as f64, 0))
            .collect();
        let senders = NodeSet::full(n);
        let ports = |v: usize| PortRow::Offset {
            offset: v * 3 % n,
            n,
        };
        let bounds = [0usize, 50, n];
        let mut whole = DacPlane::with_pend(params, &inputs, 3);
        let mut sharded = whole.clone();
        for v in 0..n {
            whole.receive_run(v, v / 2, n - 1, &senders, ports(v), &wire);
        }
        {
            let mut shards: [Option<PlaneShard<'_>>; 2] = [None, None];
            assert!(sharded.fill_shards(&bounds, &mut shards));
            for (i, shard) in shards.iter_mut().enumerate() {
                let s = shard.as_mut().unwrap();
                for v in bounds[i]..bounds[i + 1] {
                    s.receive_run(v, v / 2, n - 1, &senders, ports(v), &wire);
                }
            }
        }
        assert_eq!(whole.phases(), sharded.phases());
        assert_eq!(whole.values(), sharded.values());
        assert_eq!(whole.ports_seen, sharded.ports_seen);
    }

    #[test]
    fn pend_zero_outputs_immediately() {
        let params = Params::fault_free(3, 1.0).unwrap(); // pend = 0
        let inputs = [val(0.1), val(0.2), val(0.3)];
        let plane = DacPlane::new(params, &inputs);
        assert!(plane.outputs().iter().all(Option::is_some));
        let dbac_params = Params::new(6, 1, 0.1).unwrap();
        let plane = DbacPlane::with_pend(dbac_params, &[Value::HALF; 6], 0);
        assert!(plane.outputs().iter().all(Option::is_some));
        assert_eq!(plane.pend(), 0);
    }
}
