//! Error type for the simulator.

use std::error::Error;
use std::fmt;

use crate::node::{NodeId, Port};

/// Errors raised while constructing a topology or running a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The adjacency lists do not describe a simple undirected graph.
    InvalidTopology(String),
    /// A node attempted to send a message whose encoded size exceeds the
    /// configured per-edge bandwidth `B`.
    BandwidthExceeded {
        /// The offending sender.
        node: NodeId,
        /// The port the message was addressed to.
        port: Port,
        /// The round in which the send was attempted.
        round: u64,
        /// The size of the offending message in bits.
        message_bits: u32,
        /// The configured bandwidth in bits.
        bandwidth_bits: u32,
    },
    /// A node attempted to send two messages over the same edge in the same
    /// round (each edge-direction carries at most one `B`-bit message per
    /// round).
    DuplicateSend {
        /// The offending sender.
        node: NodeId,
        /// The port that was written twice.
        port: Port,
        /// The round in which the duplicate send was attempted.
        round: u64,
    },
    /// A node addressed a message to a port `>= degree(node)`.
    InvalidPort {
        /// The offending sender.
        node: NodeId,
        /// The out-of-range port.
        port: Port,
        /// The sender's degree.
        degree: usize,
    },
    /// The run's [`FaultPlan`](crate::FaultPlan) cannot apply to the
    /// network: a loss probability is NaN or outside `[0, 1]`, or a crash
    /// window names a node the network does not have. Refused before
    /// round 0.
    InvalidFaultPlan(String),
    /// The simulation did not quiesce within the configured round budget.
    RoundLimitExceeded {
        /// The configured budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTopology(why) => write!(f, "invalid topology: {why}"),
            SimError::BandwidthExceeded {
                node,
                port,
                round,
                message_bits,
                bandwidth_bits,
            } => write!(
                f,
                "node {node} sent a {message_bits}-bit message on port {port} in round \
                 {round}, exceeding the bandwidth of {bandwidth_bits} bits"
            ),
            SimError::DuplicateSend { node, port, round } => write!(
                f,
                "node {node} sent two messages on port {port} in round {round}"
            ),
            SimError::InvalidPort { node, port, degree } => write!(
                f,
                "node {node} addressed port {port} but has degree {degree}"
            ),
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "simulation exceeded the round limit of {limit}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_informative() {
        let e = SimError::BandwidthExceeded {
            node: 3,
            port: 1,
            round: 7,
            message_bits: 99,
            bandwidth_bits: 32,
        };
        let s = e.to_string();
        assert!(s.contains("99"));
        assert!(s.contains("32"));
        assert!(s.contains("node 3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
