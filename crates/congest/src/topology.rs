//! The communication graph over which a distributed algorithm runs.

use crate::error::SimError;
use crate::node::NodeId;

/// One node's port space, borrowed from a [`Topology`] (see
/// [`Topology::ports`]): parallel per-port slices.
pub(crate) struct Ports<'a> {
    /// The node behind each port.
    pub(crate) neighbors: &'a [NodeId],
    /// The port at that neighbor leading back.
    pub(crate) reverse_ports: &'a [u32],
}

/// A validated, undirected communication topology given as adjacency lists.
///
/// Node identifiers are `0..n`. [`Topology::from_adjacency`] checks that the
/// lists describe a simple undirected graph (symmetric, no self-loops, no
/// parallel edges).
///
/// The *port* of a neighbor is its index in the node's adjacency list; ports
/// are the only way algorithms address messages, mirroring the CONGEST
/// assumption that a node initially knows nothing beyond its immediate
/// neighborhood.
///
/// # Examples
///
/// ```
/// use dapsp_congest::Topology;
///
/// # fn main() -> Result<(), dapsp_congest::SimError> {
/// let triangle = Topology::from_adjacency(vec![vec![1, 2], vec![0, 2], vec![0, 1]])?;
/// assert_eq!(triangle.num_nodes(), 3);
/// assert_eq!(triangle.num_edges(), 3);
/// assert_eq!(triangle.degree(0), 2);
/// # Ok(())
/// # }
/// ```
/// The topology is stored in CSR (compressed sparse row) form: one flat
/// neighbor array plus per-node offsets, so a whole simulation round walks
/// memory sequentially instead of chasing one heap allocation per node.
///
/// # Presence
///
/// A topology is immutable. A [`TopologyPlan`](crate::TopologyPlan) is an
/// edit batch applied between runs by
/// [`churned_topology`](crate::churned_topology), which returns a fresh
/// topology; the only state it adds is a presence bit per node
/// ([`Topology::node_present`]). A removed node keeps its id as an
/// isolated vertex, so ids are never reused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// `offsets[v]..offsets[v+1]` delimits `v`'s slice of `neighbors` and
    /// `reverse_ports`; `offsets.len() == n + 1`.
    offsets: Vec<u32>,
    /// Flat neighbor array: `neighbors[offsets[v] + p]` is the node reached
    /// from `v` through port `p`.
    neighbors: Vec<NodeId>,
    /// `reverse_ports[offsets[v] + p]` is the port *at the neighbor*
    /// reached through `(v, p)` that leads back to `v`. Precomputed so
    /// message delivery is O(1).
    reverse_ports: Vec<u32>,
    num_edges: usize,
    /// `absent[v]` iff a plan removed `v` and did not re-join it; empty
    /// means everyone is present.
    absent: Vec<bool>,
}

impl Topology {
    /// Builds a topology from adjacency lists.
    ///
    /// Construction and validation run in `O(n + m)` time (one stamped
    /// scatter array replaces the per-neighbor membership scans), so even
    /// clique inputs cost linear-in-`m` work.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTopology`] if any list mentions a node id
    /// `>= n`, contains a self-loop or a duplicate neighbor, or if the lists
    /// are not symmetric (`u` lists `v` but `v` does not list `u`).
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Result<Self, SimError> {
        let n = adj.len();
        // `mark[v] == u` iff node u already listed v in this pass; node ids
        // are `< n <= u32::MAX`, so `u32::MAX` is a safe "never" value.
        let mut mark = vec![u32::MAX; n];
        let mut degree_pairs = 0usize;
        for (u, neighbors) in adj.iter().enumerate() {
            for &v in neighbors {
                if v as usize >= n {
                    return Err(SimError::InvalidTopology(format!(
                        "node {u} lists neighbor {v}, but there are only {n} nodes"
                    )));
                }
                if v as usize == u {
                    return Err(SimError::InvalidTopology(format!(
                        "node {u} has a self-loop"
                    )));
                }
                if mark[v as usize] == u as u32 {
                    return Err(SimError::InvalidTopology(format!(
                        "node {u} lists neighbor {v} twice"
                    )));
                }
                mark[v as usize] = u as u32;
            }
            degree_pairs += neighbors.len();
        }
        // Flatten into CSR.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(degree_pairs);
        offsets.push(0u32);
        for list in &adj {
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len() as u32);
        }
        drop(adj);
        // Reverse ports in O(n + m): bucket every directed edge u--p-->v by
        // its target v (a counting sort), then for each v scatter v's own
        // neighbor->port map into a stamped array and resolve its bucket.
        let mut incoming = vec![0u32; n + 1];
        for &v in &neighbors {
            incoming[v as usize + 1] += 1;
        }
        for v in 0..n {
            incoming[v + 1] += incoming[v];
        }
        let mut cursor = incoming.clone();
        // Bucketed entries grouped by target: the flat index
        // `offsets[u] + p` of each directed edge plus its source `u`.
        let mut by_target = vec![(0u32, 0u32); degree_pairs];
        for u in 0..n {
            let start = offsets[u] as usize;
            for (off, &nb) in neighbors[start..offsets[u + 1] as usize].iter().enumerate() {
                let v = nb as usize;
                by_target[cursor[v] as usize] = ((start + off) as u32, u as u32);
                cursor[v] += 1;
            }
        }
        let mut reverse_ports = vec![0u32; degree_pairs];
        // Stamped scatter: port_at[w] is meaningful iff stamp[w] == v.
        let mut port_at = vec![0u32; n];
        let mut stamp = vec![u32::MAX; n];
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            for (q, &w) in neighbors[start..end].iter().enumerate() {
                stamp[w as usize] = v as u32;
                port_at[w as usize] = q as u32;
            }
            for &(e, u) in &by_target[incoming[v] as usize..incoming[v + 1] as usize] {
                // Edge e is u --p--> v; symmetric iff v also lists u.
                if stamp[u as usize] != v as u32 {
                    return Err(SimError::InvalidTopology(format!(
                        "edge {u}->{v} is not symmetric: {v} does not list {u}"
                    )));
                }
                reverse_ports[e as usize] = port_at[u as usize];
            }
        }
        Ok(Self {
            offsets,
            neighbors,
            reverse_ports,
            num_edges: degree_pairs / 2,
            absent: Vec::new(),
        })
    }

    /// Number of nodes `n` (including [absent](Topology::node_present)
    /// ones — ids are never reused).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The neighbors of `v`, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The node reached from `v` through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn neighbor_at(&self, v: NodeId, p: u32) -> NodeId {
        self.neighbors(v)[p as usize]
    }

    /// The port at `neighbor_at(v, p)` that leads back to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    pub fn reverse_port(&self, v: NodeId, p: u32) -> u32 {
        self.ports(v).reverse_ports[p as usize]
    }

    /// The flat index of the directed edge leaving `v` through port `p`:
    /// its CSR slot in `0..2m`, used by observers to key per-edge
    /// accounting without hashing.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; an out-of-range `p` yields an index
    /// beyond `v`'s slice rather than panicking here.
    pub fn directed_edge_index(&self, v: NodeId, p: u32) -> u32 {
        self.offsets[v as usize] + p
    }

    /// Number of directed edges `2m`, the exclusive upper bound of
    /// [`Topology::directed_edge_index`].
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether node `v` is present (not removed by a plan's
    /// [`NodeEvent::Crash`](crate::NodeEvent::Crash)).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` on a topology with an absent node.
    pub fn node_present(&self, v: NodeId) -> bool {
        self.absent.is_empty() || !self.absent[v as usize]
    }

    /// The graph as adjacency lists in port order (absent nodes have
    /// none). Feeding the result back through
    /// [`Topology::from_adjacency`] yields the same ports with every node
    /// present.
    pub fn to_adjacency(&self) -> Vec<Vec<NodeId>> {
        (0..self.num_nodes() as NodeId)
            .map(|v| self.neighbors(v).to_vec())
            .collect()
    }

    /// Marks the nodes with `absent[v]` as removed; an all-present mask is
    /// stored as nothing, so it compares equal to a fresh topology.
    pub(crate) fn with_absent(mut self, absent: Vec<bool>) -> Self {
        debug_assert_eq!(absent.len(), self.num_nodes());
        self.absent = if absent.contains(&true) {
            absent
        } else {
            Vec::new()
        };
        self
    }

    /// Node `v`'s whole port space resolved once: what the commit phase
    /// holds for the duration of one outbox.
    pub(crate) fn ports(&self, v: NodeId) -> Ports<'_> {
        let (lo, hi) = (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        );
        Ports {
            neighbors: &self.neighbors[lo..hi],
            reverse_ports: &self.reverse_ports[lo..hi],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Vec<Vec<NodeId>> {
        vec![vec![1], vec![0, 2], vec![1]]
    }

    #[test]
    fn accepts_valid_path() {
        let t = Topology::from_adjacency(path3()).unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.neighbors(1), &[0, 2]);
    }

    #[test]
    fn reverse_ports_round_trip() {
        let t = Topology::from_adjacency(path3()).unwrap();
        for v in 0..3u32 {
            for p in 0..t.degree(v) as u32 {
                let u = t.neighbor_at(v, p);
                let back = t.reverse_port(v, p);
                assert_eq!(t.neighbor_at(u, back), v);
            }
        }
    }

    #[test]
    fn rejects_self_loop() {
        let err = Topology::from_adjacency(vec![vec![0]]).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
    }

    #[test]
    fn rejects_asymmetric() {
        let err = Topology::from_adjacency(vec![vec![1], vec![]]).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Topology::from_adjacency(vec![vec![5]]).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let err = Topology::from_adjacency(vec![vec![1, 1], vec![0, 0]]).unwrap_err();
        assert!(matches!(err, SimError::InvalidTopology(_)));
    }

    #[test]
    fn csr_handles_isolated_nodes_between_edges() {
        // Node 1 is isolated; 0, 2, 3 form a path 0-2-3 with unsorted lists.
        let t = Topology::from_adjacency(vec![vec![2], vec![], vec![3, 0], vec![2]]).unwrap();
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.degree(1), 0);
        assert_eq!(t.neighbors(1), &[] as &[NodeId]);
        assert_eq!(t.neighbors(2), &[3, 0]);
        for v in [0u32, 2, 3] {
            for p in 0..t.degree(v) as u32 {
                let u = t.neighbor_at(v, p);
                assert_eq!(t.neighbor_at(u, t.reverse_port(v, p)), v);
            }
        }
    }

    #[test]
    fn clique_reverse_ports_round_trip() {
        let n = 40u32;
        let adj: Vec<Vec<NodeId>> = (0..n)
            .map(|u| (0..n).filter(|&v| v != u).collect())
            .collect();
        let t = Topology::from_adjacency(adj).unwrap();
        assert_eq!(t.num_edges(), (n as usize * (n as usize - 1)) / 2);
        for v in 0..n {
            for p in 0..t.degree(v) as u32 {
                let u = t.neighbor_at(v, p);
                assert_eq!(t.neighbor_at(u, t.reverse_port(v, p)), v);
            }
        }
    }

    #[test]
    fn directed_edge_indices_are_unique_and_dense() {
        let t = Topology::from_adjacency(vec![vec![2], vec![], vec![3, 0], vec![2]]).unwrap();
        assert_eq!(t.num_directed_edges(), 4);
        let mut seen = vec![false; t.num_directed_edges()];
        for v in 0..t.num_nodes() as NodeId {
            for p in 0..t.degree(v) as u32 {
                let e = t.directed_edge_index(v, p) as usize;
                assert!(!seen[e], "index {e} repeated");
                seen[e] = true;
                // The reverse direction pairs up through reverse_port.
                let u = t.neighbor_at(v, p);
                let r = t.directed_edge_index(u, t.reverse_port(v, p));
                assert_ne!(e as u32, r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_and_single_node() {
        let t = Topology::from_adjacency(vec![]).unwrap();
        assert_eq!(t.num_nodes(), 0);
        let t = Topology::from_adjacency(vec![vec![]]).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_edges(), 0);
    }

    #[test]
    fn a_fresh_topology_is_all_present_and_round_trips() {
        let t = Topology::from_adjacency(path3()).unwrap();
        assert!((0..3).all(|v| t.node_present(v)));
        assert_eq!(t.to_adjacency(), path3());
        let absent = t.clone().with_absent(vec![false, true, false]);
        assert!(!absent.node_present(1) && absent.node_present(2));
        assert_ne!(absent, t);
        assert_eq!(t.clone().with_absent(vec![false; 3]), t);
    }
}
