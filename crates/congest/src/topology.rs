//! The communication graph over which a distributed algorithm runs.

use crate::error::SimError;
use crate::node::NodeId;

/// Per-node mutable overlay, materialized lazily the first time a node's
/// adjacency changes. The base CSR arrays stay immutable; a spilled node's
/// port space lives here instead.
///
/// Ports are *stable*: removing an edge tombstones its port (the `dead`
/// flag) rather than shifting later ports, and inserting an edge appends a
/// fresh port at each endpoint. A dead port keeps its neighbor id and
/// reverse port so observers and purge logic can still resolve the edge it
/// used to be; liveness is monotone (live → dead, never back — a
/// re-inserted edge gets a new port).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Spill {
    neighbors: Vec<NodeId>,
    reverse_ports: Vec<u32>,
    dead: Vec<bool>,
    /// Directed-edge index per port: base ports keep their CSR slot;
    /// inserted ports get fresh indices `>= 2m_base` from a monotone
    /// counter, so indices never collide or get reused.
    edge_idx: Vec<u32>,
}

/// One node's port space, borrowed from a [`Topology`] (see
/// [`Topology::ports`]): parallel per-port slices, tombstoned ports
/// included.
pub(crate) struct Ports<'a> {
    /// The node behind each port (the former neighbor for a dead port).
    pub(crate) neighbors: &'a [NodeId],
    /// The port at that neighbor leading back.
    pub(crate) reverse_ports: &'a [u32],
    /// Tombstone flags; `None` while the node's adjacency never changed.
    pub(crate) dead: Option<&'a [bool]>,
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
/// # Versioned views
///
/// A topology is a *versioned view*: the CSR base is immutable, and the
/// mutators ([`Topology::insert_edge`], [`Topology::remove_edge`],
/// [`Topology::remove_node`], [`Topology::join_node`]) record changes in a
/// per-node delta overlay in `O(degree)` per event, bumping
/// [`Topology::epoch`]. Ports never shift: removals tombstone their port
/// (query liveness with [`Topology::port_live`]), insertions append fresh
/// ports, and removed nodes become [absent](Topology::node_present) while
/// keeping their id. [`Topology::degree`] and [`Topology::neighbors`] span
/// the full port space including tombstones — algorithm code that walks
/// ports on a churned topology must filter by `port_live`. Equality is
/// representational: two views compare equal iff they went through the same
/// mutation history, not merely if they describe the same live graph.
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
    /// Version counter: 0 at construction, +1 per applied mutation.
    epoch: u64,
    /// Per-node overlays; empty until the first mutation (so unmutated
    /// topologies pay one `is_empty` check per accessor).
    spills: Vec<Option<Box<Spill>>>,
    /// `absent[v]` iff `v` was removed by [`Topology::remove_node`] and not
    /// re-joined; empty means everyone is present.
    absent: Vec<bool>,
    /// Directed edges added beyond the base CSR; inserted ports take
    /// indices `base_2m + 0, base_2m + 1, …` in insertion order.
    ext_edges: u32,
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
            epoch: 0,
            spills: Vec::new(),
            absent: Vec::new(),
            ext_edges: 0,
        })
    }

    /// Number of nodes `n` (including [absent](Topology::node_present)
    /// ones — ids are never reused).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *live* undirected edges `m`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of node `v` — the size of its port space, *including*
    /// tombstoned (dead) ports; [`Topology::port_live`] tells the live ones
    /// apart.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: NodeId) -> usize {
        match self.spill(v) {
            Some(s) => s.neighbors.len(),
            None => (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize,
        }
    }

    /// The neighbors of `v`, in port order — including the former
    /// neighbors behind tombstoned ports (filter with
    /// [`Topology::port_live`] on a churned view).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        match self.spill(v) {
            Some(s) => &s.neighbors,
            None => {
                &self.neighbors
                    [self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
            }
        }
    }

    /// The node reached from `v` through port `p` (still resolvable when
    /// the port is dead — the id of the former neighbor).
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
        match self.spill(v) {
            Some(s) => s.reverse_ports[p as usize],
            None => {
                self.reverse_ports
                    [self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
                    [p as usize]
            }
        }
    }

    /// The flat index of the directed edge leaving `v` through port `p`:
    /// a unique value (base ports use their CSR slot in `0..2m_base`;
    /// ports inserted by churn take fresh indices `>= 2m_base`), used by
    /// observers to key per-edge accounting without hashing. Indices are
    /// never reused, so they stay unique across the whole run even as
    /// edges come and go.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; an out-of-range `p` on an unmutated
    /// node yields an index beyond `v`'s slice rather than panicking here.
    pub fn directed_edge_index(&self, v: NodeId, p: u32) -> u32 {
        match self.spill(v) {
            Some(s) => s.edge_idx[p as usize],
            None => self.offsets[v as usize] + p,
        }
    }

    /// Number of directed edge *indices* ever allocated (`2m_base` plus
    /// inserted directions), the exclusive upper bound of
    /// [`Topology::directed_edge_index`].
    pub fn num_directed_edges(&self) -> usize {
        self.neighbors.len() + self.ext_edges as usize
    }

    /// The version counter: 0 at construction, incremented once per applied
    /// mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether node `v` is present (not removed by
    /// [`Topology::remove_node`]).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` on a node-churned view.
    pub fn node_present(&self, v: NodeId) -> bool {
        self.absent.is_empty() || !self.absent[v as usize]
    }

    /// Whether port `p` of node `v` is live (its edge not removed).
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range on a mutated node.
    pub fn port_live(&self, v: NodeId, p: u32) -> bool {
        match self.spill(v) {
            Some(s) => !s.dead[p as usize],
            None => true,
        }
    }

    /// The current *live* graph as adjacency lists (absent nodes get empty
    /// lists, i.e. they stay in the id space as isolated vertices). Feeding
    /// the result back through [`Topology::from_adjacency`] yields a fresh
    /// epoch-0 view of the post-churn graph — the oracle-side mirror of a
    /// churned run.
    pub fn to_adjacency(&self) -> Vec<Vec<NodeId>> {
        (0..self.num_nodes() as NodeId)
            .map(|v| {
                if !self.node_present(v) {
                    return Vec::new();
                }
                (0..self.degree(v) as u32)
                    .filter(|&p| self.port_live(v, p))
                    .map(|p| self.neighbor_at(v, p))
                    .collect()
            })
            .collect()
    }

    /// Node `v`'s whole port space resolved once: what the commit phase
    /// holds for the duration of one outbox instead of re-resolving the
    /// overlay for every message.
    pub(crate) fn ports(&self, v: NodeId) -> Ports<'_> {
        match self.spill(v) {
            Some(s) => Ports {
                neighbors: &s.neighbors,
                reverse_ports: &s.reverse_ports,
                dead: Some(&s.dead),
            },
            None => {
                let (lo, hi) = (
                    self.offsets[v as usize] as usize,
                    self.offsets[v as usize + 1] as usize,
                );
                Ports {
                    neighbors: &self.neighbors[lo..hi],
                    reverse_ports: &self.reverse_ports[lo..hi],
                    dead: None,
                }
            }
        }
    }

    fn spill(&self, v: NodeId) -> Option<&Spill> {
        match self.spills.get(v as usize) {
            Some(slot) => slot.as_deref(),
            None => None,
        }
    }

    /// Materializes (or fetches) `v`'s overlay, copying its base CSR slice
    /// on first touch — the `O(degree)` part of every mutator.
    fn spill_mut(&mut self, v: NodeId) -> &mut Spill {
        if self.spills.is_empty() {
            self.spills = std::iter::repeat_with(|| None)
                .take(self.num_nodes())
                .collect();
        }
        let idx = v as usize;
        if self.spills[idx].is_none() {
            let (s, e) = (self.offsets[idx] as usize, self.offsets[idx + 1] as usize);
            self.spills[idx] = Some(Box::new(Spill {
                neighbors: self.neighbors[s..e].to_vec(),
                reverse_ports: self.reverse_ports[s..e].to_vec(),
                dead: vec![false; e - s],
                edge_idx: (s as u32..e as u32).collect(),
            }));
        }
        self.spills[idx].as_mut().expect("just materialized")
    }

    /// The live port at `u` whose neighbor is `v`, if the edge exists.
    fn live_port_to(&self, u: NodeId, v: NodeId) -> Option<u32> {
        (0..self.degree(u) as u32).find(|&p| self.port_live(u, p) && self.neighbor_at(u, p) == v)
    }

    fn check_node(&self, v: NodeId) -> Result<(), SimError> {
        if v as usize >= self.num_nodes() {
            let n = self.num_nodes();
            return Err(SimError::InvalidTopology(format!(
                "topology event names node {v}, but there are only {n} nodes"
            )));
        }
        Ok(())
    }

    /// Inserts the undirected edge `u – v`, appending a fresh port at each
    /// endpoint (the new port index is the endpoint's previous port-space
    /// size). Returns the two new `(node, port)` halves as
    /// `[(u, pu), (v, pv)]`. `O(degree)` in the endpoints' degrees.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] if an endpoint is out of range or
    /// absent, `u == v`, or a live `u – v` edge already exists.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<[(NodeId, u32); 2], SimError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(SimError::InvalidTopology(format!(
                "cannot insert self-loop at node {u}"
            )));
        }
        for w in [u, v] {
            if !self.node_present(w) {
                return Err(SimError::InvalidTopology(format!(
                    "cannot insert edge {u}-{v}: node {w} is absent"
                )));
            }
        }
        if self.live_port_to(u, v).is_some() {
            return Err(SimError::InvalidTopology(format!(
                "edge {u}-{v} already exists"
            )));
        }
        let pu = self.degree(u) as u32;
        let pv = self.degree(v) as u32;
        let base = self.neighbors.len() as u32;
        let eu = base + self.ext_edges;
        let ev = base + self.ext_edges + 1;
        self.ext_edges += 2;
        let su = self.spill_mut(u);
        su.neighbors.push(v);
        su.reverse_ports.push(pv);
        su.dead.push(false);
        su.edge_idx.push(eu);
        let sv = self.spill_mut(v);
        sv.neighbors.push(u);
        sv.reverse_ports.push(pu);
        sv.dead.push(false);
        sv.edge_idx.push(ev);
        self.num_edges += 1;
        self.epoch += 1;
        Ok([(u, pu), (v, pv)])
    }

    /// Removes the live edge `u – v`, tombstoning its port at each
    /// endpoint (ports never shift). Returns the two dead `(node, port)`
    /// halves as `[(u, pu), (v, pv)]`. `O(degree)`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] if an endpoint is out of range or no
    /// live `u – v` edge exists.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<[(NodeId, u32); 2], SimError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let Some(pu) = self.live_port_to(u, v) else {
            return Err(SimError::InvalidTopology(format!(
                "cannot remove edge {u}-{v}: no such live edge"
            )));
        };
        let pv = self.reverse_port(u, pu);
        self.spill_mut(u).dead[pu as usize] = true;
        self.spill_mut(v).dead[pv as usize] = true;
        self.num_edges -= 1;
        self.epoch += 1;
        Ok([(u, pu), (v, pv)])
    }

    /// Removes node `v` from the network: marks it absent and tombstones
    /// every live port at `v` *and* the matching reverse port at each
    /// neighbor (a removed node loses its edges — unlike a
    /// [`CrashWindow`](crate::CrashWindow) fault, which keeps them).
    /// Returns every tombstoned `(node, port)` half, in `v`'s port order,
    /// each of `v`'s halves immediately followed by the neighbor's.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] if `v` is out of range or already
    /// absent.
    pub fn remove_node(&mut self, v: NodeId) -> Result<Vec<(NodeId, u32)>, SimError> {
        self.check_node(v)?;
        if !self.node_present(v) {
            return Err(SimError::InvalidTopology(format!(
                "cannot remove node {v}: already absent"
            )));
        }
        let mut dead = Vec::new();
        for p in 0..self.degree(v) as u32 {
            if !self.port_live(v, p) {
                continue;
            }
            let u = self.neighbor_at(v, p);
            let q = self.reverse_port(v, p);
            self.spill_mut(v).dead[p as usize] = true;
            self.spill_mut(u).dead[q as usize] = true;
            dead.push((v, p));
            dead.push((u, q));
            self.num_edges -= 1;
        }
        if self.absent.is_empty() {
            self.absent = vec![false; self.num_nodes()];
        }
        self.absent[v as usize] = true;
        self.epoch += 1;
        Ok(dead)
    }

    /// Re-joins the absent node `v` with *no* edges (connect it with
    /// subsequent [`Topology::insert_edge`] events). Its old ports stay
    /// tombstoned.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidTopology`] if `v` is out of range or currently
    /// present.
    pub fn join_node(&mut self, v: NodeId) -> Result<(), SimError> {
        self.check_node(v)?;
        if self.node_present(v) {
            return Err(SimError::InvalidTopology(format!(
                "cannot join node {v}: already present"
            )));
        }
        self.absent[v as usize] = false;
        self.epoch += 1;
        Ok(())
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
    fn fresh_view_reports_everything_live() {
        let t = Topology::from_adjacency(path3()).unwrap();
        assert_eq!(t.epoch(), 0);
        for v in 0..3u32 {
            assert!(t.node_present(v));
            assert_eq!(t.to_adjacency()[v as usize].len(), t.degree(v));
            for p in 0..t.degree(v) as u32 {
                assert!(t.port_live(v, p));
            }
        }
        assert_eq!(t.to_adjacency(), path3());
    }

    #[test]
    fn remove_edge_tombstones_without_shifting_ports() {
        let mut t = Topology::from_adjacency(path3()).unwrap();
        let dead = t.remove_edge(1, 0).unwrap();
        assert_eq!(dead, [(1, 0), (0, 0)]);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.num_edges(), 1);
        // Port space unchanged; port 1 of node 1 still reaches node 2.
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.to_adjacency()[1].len(), 1);
        assert!(!t.port_live(1, 0));
        assert!(t.port_live(1, 1));
        assert_eq!(t.neighbor_at(1, 1), 2);
        // The tombstone still resolves to its former neighbor.
        assert_eq!(t.neighbor_at(1, 0), 0);
        assert_eq!(t.to_adjacency(), vec![vec![], vec![2], vec![1]]);
        // Removing again fails: liveness is monotone.
        assert!(t.remove_edge(0, 1).is_err());
    }

    #[test]
    fn insert_edge_appends_fresh_ports_and_edge_indices() {
        let mut t = Topology::from_adjacency(path3()).unwrap();
        let base_2m = t.num_directed_edges();
        let added = t.insert_edge(0, 2).unwrap();
        assert_eq!(added, [(0, 1), (2, 1)]);
        assert_eq!(t.num_edges(), 3);
        assert_eq!(t.degree(0), 2);
        assert_eq!(t.neighbor_at(0, 1), 2);
        assert_eq!(t.reverse_port(0, 1), 1);
        assert_eq!(t.neighbor_at(2, 1), 0);
        // Fresh directed-edge indices, past the base range.
        assert_eq!(t.directed_edge_index(0, 1) as usize, base_2m);
        assert_eq!(t.directed_edge_index(2, 1) as usize, base_2m + 1);
        assert_eq!(t.num_directed_edges(), base_2m + 2);
        // Unmutated node 1 keeps its base indices.
        assert_eq!(t.directed_edge_index(1, 0), 1);
        assert!(t.insert_edge(0, 2).is_err(), "duplicate live edge");
        assert!(t.insert_edge(2, 0).is_err(), "duplicate, reversed");
        assert!(t.insert_edge(1, 1).is_err(), "self-loop");
    }

    #[test]
    fn reinserted_edge_gets_new_port_not_resurrection() {
        let mut t = Topology::from_adjacency(path3()).unwrap();
        t.remove_edge(0, 1).unwrap();
        let added = t.insert_edge(0, 1).unwrap();
        // Old port 0 stays dead; the edge returns on fresh ports.
        assert_eq!(added, [(0, 1), (1, 2)]);
        assert!(!t.port_live(0, 0));
        assert!(t.port_live(0, 1));
        assert_eq!(t.epoch(), 2);
        assert_eq!(t.to_adjacency(), vec![vec![1], vec![2, 0], vec![1]]);
    }

    #[test]
    fn remove_node_kills_both_sides_and_join_returns_isolated() {
        let mut t = Topology::from_adjacency(path3()).unwrap();
        let dead = t.remove_node(1).unwrap();
        assert_eq!(dead, vec![(1, 0), (0, 0), (1, 1), (2, 0)]);
        assert!(!t.node_present(1));
        assert_eq!(t.num_edges(), 0);
        assert_eq!(t.to_adjacency()[0].len(), 0);
        assert_eq!(t.to_adjacency(), vec![vec![], vec![], vec![]]);
        assert!(t.remove_node(1).is_err(), "already absent");
        assert!(t.insert_edge(0, 1).is_err(), "absent endpoint");
        assert!(t.join_node(0).is_err(), "node 0 is present");
        t.join_node(1).unwrap();
        assert!(t.node_present(1));
        assert_eq!(t.to_adjacency()[1].len(), 0, "joins with no edges");
        t.insert_edge(1, 2).unwrap();
        assert_eq!(t.to_adjacency(), vec![vec![], vec![2], vec![1]]);
    }

    #[test]
    fn churned_reverse_ports_round_trip() {
        let mut t = Topology::from_adjacency(vec![vec![2], vec![], vec![3, 0], vec![2]]).unwrap();
        t.insert_edge(1, 3).unwrap();
        t.remove_edge(2, 3).unwrap();
        t.insert_edge(0, 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for v in 0..t.num_nodes() as NodeId {
            for p in 0..t.degree(v) as u32 {
                assert!(seen.insert(t.directed_edge_index(v, p)), "index reused");
                if !t.port_live(v, p) {
                    continue;
                }
                let u = t.neighbor_at(v, p);
                let back = t.reverse_port(v, p);
                assert_eq!(t.neighbor_at(u, back), v);
                assert!(t.port_live(u, back), "liveness is symmetric");
            }
        }
        assert_eq!(
            t.to_adjacency(),
            vec![vec![2, 1], vec![3, 0], vec![0], vec![1]]
        );
    }
}
