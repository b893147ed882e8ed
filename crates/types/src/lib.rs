//! Core vocabulary types for the `anondyn` stack.
//!
//! This crate defines the small, dependency-free types shared by every other
//! crate in the workspace: identifiers ([`NodeId`], [`Port`], [`Round`],
//! [`Phase`]), the bounded consensus state value ([`Value`]), the wire
//! message ([`Message`]), the system parameters ([`Params`]) together with
//! the paper's thresholds and termination formulas, a deterministic seedable
//! RNG ([`rng::SplitMix64`]), and the crate-level error type ([`Error`]).
//!
//! # Model recap
//!
//! The paper ("Fault-tolerant Consensus in Anonymous Dynamic Network",
//! ICDCS 2024) studies `n` anonymous nodes in synchronous rounds. Nodes know
//! `n` and the fault bound `f`, but have no identities; a receiver
//! distinguishes senders only through a private *port numbering*. A dynamic
//! message adversary picks the reliable links each round. Up to `f` nodes
//! crash (algorithm DAC) or act Byzantine (algorithm DBAC).
//!
//! # Example
//!
//! ```
//! use adn_types::{Params, Value};
//!
//! let params = Params::new(11, 2, 1e-3)?;
//! // DAC advances a phase on floor(n/2)+1 distinct same-phase values.
//! assert_eq!(params.dac_quorum(), 6);
//! // DBAC needs floor((n+3f)/2)+1 distinct senders.
//! assert_eq!(params.dbac_quorum(), 9);
//! let v = Value::new(0.25)?;
//! assert!(v <= Value::ONE);
//! # Ok::<(), adn_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod batch;
mod error;
mod ids;
mod message;
mod params;
pub mod rng;
mod value;

pub use batch::Batch;
pub use error::Error;
pub use ids::{NodeId, Phase, Port, PortRow, Round};
pub use message::Message;
pub use params::{FaultKind, Params};
pub use value::{Value, ValueInterval};

/// Convenient `Result` alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;
