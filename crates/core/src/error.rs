//! Error type shared by all distributed algorithms in this crate.

use std::error::Error;
use std::fmt;

use dapsp_congest::SimError;

/// Errors raised by the distributed algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying simulation failed (bandwidth violation, round-limit
    /// blowout, …). Any of these indicates a bug in an algorithm, since the
    /// paper's algorithms respect the CONGEST constraints by design.
    Sim(SimError),
    /// The input graph is disconnected; the paper's model assumes a
    /// connected network (distances would be infinite otherwise).
    Disconnected,
    /// The input graph has no nodes.
    EmptyGraph,
    /// A requested source/root node id is `>= n`.
    InvalidNode {
        /// The offending id.
        node: u32,
        /// The graph size.
        num_nodes: usize,
    },
    /// The source set `S` passed to S-SP was empty.
    EmptySourceSet,
    /// An approximation parameter was out of range (e.g. `epsilon <= 0`).
    InvalidParameter(String),
    /// The graph has more nodes than an all-pairs table can cover: a
    /// [`RouteTable`](crate::routing::RouteTable) cell holds a 16-bit hop
    /// count and a 16-bit next-hop id, so `num_nodes` must not exceed
    /// [`MAX_NODES`](crate::routing::MAX_NODES).
    TableTooLarge {
        /// The graph size.
        num_nodes: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
            CoreError::Disconnected => write!(f, "input graph is disconnected"),
            CoreError::EmptyGraph => write!(f, "input graph has no nodes"),
            CoreError::InvalidNode { node, num_nodes } => {
                write!(f, "node {node} out of range for a {num_nodes}-node graph")
            }
            CoreError::EmptySourceSet => write!(f, "source set must be nonempty"),
            CoreError::InvalidParameter(why) => write!(f, "invalid parameter: {why}"),
            CoreError::TableTooLarge { num_nodes } => write!(
                f,
                "an all-pairs table over {num_nodes} nodes exceeds the {}-node limit \
                 of its 16-bit cells",
                crate::routing::MAX_NODES
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(CoreError::Disconnected.to_string().contains("disconnected"));
        let e = CoreError::InvalidNode {
            node: 7,
            num_nodes: 3,
        };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn sim_errors_convert_and_chain() {
        let e: CoreError = SimError::RoundLimitExceeded { limit: 5 }.into();
        assert!(matches!(e, CoreError::Sim(_)));
        assert!(Error::source(&e).is_some());
    }
}
