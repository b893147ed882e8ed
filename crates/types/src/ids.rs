use std::fmt;

/// Index of a node, used **only by the simulator and the analysis**.
///
/// The algorithms themselves never observe a [`NodeId`]: the paper's model is
/// anonymous, and nodes distinguish senders purely through their private
/// [`Port`] numbering. `NodeId` exists so that the execution substrate and
/// the proofs-as-tests can talk about "node 3" the way the paper's analysis
/// denotes the node set by `[n] = {1, ..., n}` (we use `0..n`).
///
/// ```
/// use adn_types::NodeId;
/// let id = NodeId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identifier from a zero-based index.
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the zero-based index of this node.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Iterates over all node identifiers of a system of size `n`.
    ///
    /// ```
    /// use adn_types::NodeId;
    /// let all: Vec<_> = NodeId::all(3).collect();
    /// assert_eq!(all, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..n).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// A local communication port at a receiver.
///
/// Each node has a static, private bijection from nodes to ports (§II-A of
/// the paper): two different receivers may use different ports for the same
/// sender, so ports cannot be used to agree on global identities, but a
/// single receiver can tell distinct senders apart and deduplicate messages
/// per phase. Ports are zero-based; a system of size `n` uses ports
/// `0..n`.
///
/// ```
/// use adn_types::Port;
/// let p = Port::new(2);
/// assert_eq!(p.index(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(usize);

impl Port {
    /// Creates a port from a zero-based index.
    pub const fn new(index: usize) -> Self {
        Port(index)
    }

    /// Returns the zero-based index of this port.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for Port {
    fn from(index: usize) -> Self {
        Port(index)
    }
}

/// One receiver's whole port bijection, resolved once per receiver so a
/// bulk receive can map many senders without a per-link representation
/// match. Handed out by the port-numbering layer; read by the columnar
/// planes.
///
/// ```
/// use adn_types::{Port, PortRow};
/// let rot = PortRow::Offset { offset: 3, n: 5 };
/// assert_eq!(rot.port_of(1), Port::new(4));
/// assert_eq!(rot.port_of(2), Port::new(0)); // wraps mod n
/// let table = [Port::new(2), Port::new(0), Port::new(1)];
/// assert_eq!(PortRow::Table(&table).port_of(0), Port::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRow<'a> {
    /// `port = (sender + offset) mod n`, with `offset < n`: a rotation
    /// numbering's row, or the identity's (`offset = 0`). Consecutive
    /// senders land on consecutive ports until the one wrap at `n`.
    Offset {
        /// The receiver's rotation offset (`0` for the identity).
        offset: usize,
        /// The system size, the modulus of the rotation.
        n: usize,
    },
    /// An explicit row: `port = row[sender]`.
    Table(&'a [Port]),
}

impl PortRow<'_> {
    /// The port this row's receiver hears `sender` on.
    #[inline]
    pub fn port_of(&self, sender: usize) -> Port {
        match *self {
            PortRow::Offset { offset, n } => {
                debug_assert!(sender < n, "sender {sender} out of range");
                let p = sender + offset;
                Port(if p >= n { p - n } else { p })
            }
            PortRow::Table(row) => row[sender],
        }
    }
}

/// A synchronous round number, starting at `0`.
///
/// ```
/// use adn_types::Round;
/// let r = Round::ZERO;
/// assert_eq!(r.next().as_u64(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(u64);

impl Round {
    /// The first round.
    pub const ZERO: Round = Round(0);

    /// Creates a round from its index.
    pub const fn new(round: u64) -> Self {
        Round(round)
    }

    /// Returns the round index as a `u64`.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the round that follows this one.
    #[must_use]
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Returns `self + delta` rounds.
    #[must_use]
    pub const fn plus(self, delta: u64) -> Round {
        Round(self.0 + delta)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A phase index of the approximate-consensus algorithms, starting at `0`.
///
/// Phases are the unit of progress in DAC and DBAC: a node's state value is
/// updated exactly once per phase transition, and the convergence-rate
/// analysis (Remark 1, Theorem 7) bounds the shrinkage of the fault-free
/// value range per phase.
///
/// ```
/// use adn_types::Phase;
/// assert!(Phase::ZERO < Phase::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Phase(u64);

impl Phase {
    /// The initial phase.
    pub const ZERO: Phase = Phase(0);

    /// Creates a phase from its index.
    pub const fn new(phase: u64) -> Self {
        Phase(phase)
    }

    /// Returns the phase index as a `u64`.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the phase that follows this one.
    #[must_use]
    pub const fn next(self) -> Phase {
        Phase(self.0 + 1)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ph{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_display() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "n7");
        assert_eq!(NodeId::from(7), id);
    }

    #[test]
    fn node_all_is_exact() {
        let it = NodeId::all(5);
        assert_eq!(it.len(), 5);
        assert_eq!(it.last(), Some(NodeId::new(4)));
    }

    #[test]
    fn port_ordering_matches_indices() {
        assert!(Port::new(1) < Port::new(2));
        assert_eq!(Port::new(3).to_string(), "p3");
    }

    #[test]
    fn round_arithmetic() {
        let r = Round::ZERO.plus(4);
        assert_eq!(r.as_u64(), 4);
        assert_eq!(r.next(), Round::new(5));
        assert_eq!(r.to_string(), "r4");
    }

    #[test]
    fn phase_next_increments() {
        assert_eq!(Phase::ZERO.next(), Phase::new(1));
        assert_eq!(Phase::new(9).to_string(), "ph9");
    }

    #[test]
    fn ids_are_distinct_and_hashable() {
        // Compile-time check that NodeId stays usable as a hash key
        // (downstream users may want hash maps even though the
        // deterministic stack itself never iterates one).
        fn assert_hash_key<T: std::hash::Hash + Eq>() {}
        assert_hash_key::<NodeId>();
        let mut ids: Vec<NodeId> = NodeId::all(4).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(Round::default(), Round::ZERO);
        assert_eq!(Phase::default(), Phase::ZERO);
    }
}
