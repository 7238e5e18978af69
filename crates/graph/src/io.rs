//! Plain-text edge-list serialization.
//!
//! Format: one `u v` pair per line, whitespace-separated; lines starting
//! with `#` and blank lines are ignored. An optional leading `n <count>`
//! line pins the node count (otherwise it is `max id + 1`). This is the
//! lowest-common-denominator format of network datasets (SNAP et al.), so
//! real topologies can be fed to the algorithms.

use std::error::Error;
use std::fmt;

use crate::graph::{Graph, GraphError};

/// The most nodes an edge list may declare or imply: 2²² ≈ 4.2 M, whose
/// empty adjacency lists alone take ≈ 96 MiB. A count above it is refused
/// before anything is allocated.
const MAX_NODES: u64 = 1 << 22;

/// Errors raised while parsing an edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// A line was not a valid `u v` pair or `n <count>` header.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A node count above 2²² ≈ 4.2 M: a header `n` that large, or an id
    /// whose `id + 1` is.
    TooManyNodes {
        /// 1-based line number.
        line: usize,
        /// The node count that line asks for.
        nodes: u64,
    },
    /// The edge list violated graph validity (self-loop / out-of-range).
    Graph(GraphError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed { line, content } => {
                write!(f, "malformed edge list at line {line}: {content:?}")
            }
            ParseError::TooManyNodes { line, nodes } => write!(
                f,
                "edge list line {line} asks for {nodes} nodes; at most {MAX_NODES} are allowed"
            ),
            ParseError::Graph(e) => write!(f, "invalid edge: {e}"),
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e)
    }
}

/// Parses an edge list.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines, self-loops, ids exceeding
/// a declared `n` header, or a node count above 2²² (refused before
/// anything is allocated).
///
/// # Examples
///
/// ```
/// use dapsp_graph::io;
///
/// # fn main() -> Result<(), dapsp_graph::io::ParseError> {
/// let g = io::from_edge_list("# a triangle plus a tail\n0 1\n1 2\n2 0\n2 3\n")?;
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 4);
/// # Ok(())
/// # }
/// ```
pub fn from_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    let mut max_id = 0u32;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (a, b) = (parts.next(), parts.next());
        let malformed = || ParseError::Malformed {
            line: idx + 1,
            content: raw.to_string(),
        };
        let too_many = |nodes: u64| ParseError::TooManyNodes {
            line: idx + 1,
            nodes,
        };
        match (a, b, parts.next()) {
            (Some("n"), Some(count), None) => {
                let count: u64 = count.parse().map_err(|_| malformed())?;
                if count > MAX_NODES {
                    return Err(too_many(count));
                }
                declared_n = Some(count as usize);
            }
            (Some(u), Some(v), None) => {
                let u: u32 = u.parse().map_err(|_| malformed())?;
                let v: u32 = v.parse().map_err(|_| malformed())?;
                max_id = max_id.max(u).max(v);
                if u64::from(max_id) + 1 > MAX_NODES {
                    return Err(too_many(u64::from(max_id) + 1));
                }
                pairs.push((u, v));
            }
            _ => return Err(malformed()),
        }
    }
    let n = declared_n.unwrap_or(if pairs.is_empty() {
        0
    } else {
        max_id as usize + 1
    });
    let mut b = Graph::builder(n);
    for (u, v) in pairs {
        b.add_edge(u, v)?;
    }
    Ok(b.build())
}

/// Serializes a graph as an edge list with an `n` header, in a format
/// [`from_edge_list`] round-trips.
///
/// # Examples
///
/// ```
/// use dapsp_graph::{generators, io};
///
/// let g = generators::cycle(4);
/// let text = io::to_edge_list(&g);
/// assert_eq!(io::from_edge_list(&text).unwrap(), g);
/// ```
pub fn to_edge_list(g: &Graph) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "n {}", g.num_nodes());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trips_generated_graphs() {
        for g in [
            generators::path(7),
            generators::complete(5),
            generators::erdos_renyi_connected(20, 0.2, 3),
            Graph::builder(3).build(), // isolated nodes need the n header
        ] {
            assert_eq!(from_edge_list(&to_edge_list(&g)).unwrap(), g);
        }
    }

    #[test]
    fn ignores_comments_and_blanks() {
        let g = from_edge_list("# hi\n\n0 1\n\n# bye\n1 2\n").unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 3);
    }

    #[test]
    fn reports_malformed_lines_with_position() {
        let err = from_edge_list("0 1\nnonsense\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 2, .. }));
        let err = from_edge_list("0 1 2\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rejects_invalid_edges() {
        assert!(matches!(
            from_edge_list("3 3\n").unwrap_err(),
            ParseError::Graph(GraphError::SelfLoop { node: 3 })
        ));
        assert!(matches!(
            from_edge_list("n 2\n0 5\n").unwrap_err(),
            ParseError::Graph(GraphError::NodeOutOfRange { .. })
        ));
    }

    /// Node counts above the cap are refused with a typed error before
    /// any allocation, whether a header asks for them or an id implies
    /// them; a small header is accepted.
    #[test]
    fn rejects_node_counts_above_the_cap() {
        for (text, line, nodes) in [
            ("n 18446744073709551615\n0 1\n", 1, u64::MAX),
            ("n 4294967296\n0 1\n", 1, 1 << 32),
            ("n 4294967295\n0 1\n", 1, u64::from(u32::MAX)),
            ("# one past the cap\nn 4194305\n", 2, MAX_NODES + 1),
            ("0 1\n4294967295 0\n", 2, 1 << 32),
            ("0 1\n1 4194304\n", 2, MAX_NODES + 1),
        ] {
            assert_eq!(
                from_edge_list(text).unwrap_err(),
                ParseError::TooManyNodes { line, nodes },
                "{text:?}"
            );
        }
        assert_eq!(from_edge_list("n 9\n0 8\n").unwrap().num_nodes(), 9);
    }

    #[test]
    fn empty_input_is_the_empty_graph() {
        assert_eq!(from_edge_list("").unwrap().num_nodes(), 0);
        assert_eq!(from_edge_list("n 4\n").unwrap().num_nodes(), 4);
    }

    use crate::Graph;
}
