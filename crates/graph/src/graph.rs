//! The undirected graph type and its builder.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use dapsp_congest::Topology;

/// Errors raised while building a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: u32,
        /// The number of nodes in the graph under construction.
        num_nodes: usize,
    },
    /// An edge `(v, v)` was added.
    SelfLoop {
        /// The node with the attempted self-loop.
        node: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range for a {num_nodes}-node graph")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
        }
    }
}

impl Error for GraphError {}

/// A simple undirected graph on nodes `0..n`.
///
/// Construct one with [`Graph::builder`]; the builder deduplicates edges and
/// rejects self-loops and out-of-range endpoints, so a `Graph` is always
/// simple.
///
/// # Examples
///
/// ```
/// use dapsp_graph::Graph;
///
/// # fn main() -> Result<(), dapsp_graph::GraphError> {
/// let mut b = Graph::builder(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 3)?;
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    num_edges: usize,
}

impl Graph {
    /// Starts building an `n`-node graph with no edges.
    pub fn builder(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: BTreeSet::new(),
        }
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The neighbors of `v` in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// True if the edge `(u, v)` is present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u as u32, v))
        })
    }

    /// Converts the graph into a simulator [`Topology`].
    ///
    /// The conversion cannot fail: a `Graph` is simple and symmetric by
    /// construction.
    pub fn to_topology(&self) -> Topology {
        Topology::from_adjacency(self.adj.clone()).expect("a Graph is always a valid topology")
    }
}

/// Incremental constructor for [`Graph`]; see [`Graph::builder`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Adds the undirected edge `(u, v)`. Adding an existing edge is a no-op.
    ///
    /// # Errors
    ///
    /// Rejects self-loops and endpoints `>= n`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w as usize >= self.n {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    num_nodes: self.n,
                });
            }
        }
        self.edges.insert((u.min(v), u.max(v)));
        Ok(self)
    }

    /// True if the edge is already present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edges.contains(&(u.min(v), u.max(v)))
    }

    /// Number of distinct edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the graph.
    pub fn build(self) -> Graph {
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        Graph {
            adj,
            num_edges: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedupes_edges() {
        let mut b = Graph::builder(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = Graph::builder(3);
        assert_eq!(
            b.add_edge(2, 2).unwrap_err(),
            GraphError::SelfLoop { node: 2 }
        );
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = Graph::builder(3);
        assert!(matches!(
            b.add_edge(0, 3).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: 3,
                num_nodes: 3
            }
        ));
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let mut b = Graph::builder(4);
        b.add_edge(2, 0).unwrap();
        b.add_edge(2, 3).unwrap();
        b.add_edge(2, 1).unwrap();
        let g = b.build();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let mut b = Graph::builder(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        let g = b.build();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn topology_conversion_preserves_structure() {
        let mut b = Graph::builder(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        let t = g.to_topology();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.neighbors(1), &[0, 2]);
    }

    #[test]
    fn display_of_errors() {
        assert!(GraphError::SelfLoop { node: 1 }.to_string().contains("1"));
    }
}
