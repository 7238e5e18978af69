//! The routing table — the paper's framing application (§1: link-state vs
//! distance-vector both exist to compute exactly these tables) — and
//! packet forwarding over it.
//!
//! A [`RouteTable`] is the one routing-table type of the workspace. It is
//! built once from an [`ApspResult`] (the initial epoch) or a
//! [`ChurnedResult`] (every republish after a topology change) and never
//! mutated afterwards — the `dapsp-serve` layer gets concurrency by
//! swapping whole tables, never by locking rows. Both `O(n²)` payloads are
//! flat `u32` arrays (next hop + hop count, row-major by source), so a
//! point query is two array reads and a batch walks contiguous memory.
//!
//! Every table carries the attribution trail of the run that produced it:
//! its topology **epoch**, the engine's [`TerminationCertificate`], the
//! run's [`RunStats`], and the [`RebuildPolicy`] that produced it (initial
//! build, kernel repair, or the adaptive full-recompute fallback). A
//! FNV-folded checksum over the query-visible payload lets stress tests
//! assert that every observed answer was internally consistent with
//! exactly one epoch.
//!
//! [`simulate_flows`] runs actual packet delivery over a table on the same
//! CONGEST network: each flow is a `(source, destination)` pair known
//! network-wide (like a traffic-engineering config), a packet is a `B`-bit
//! message carrying its flow id, and every edge forwards at most one
//! packet per direction per round — so *congestion is part of the
//! simulation*: flows sharing an edge queue up, and the delivery report
//! shows exactly how much each packet waited beyond its hop distance.

use std::collections::VecDeque;
use std::sync::Arc;

use dapsp_congest::{
    bits_for_id, Config, Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port, RunStats,
    TerminationCertificate, Topology,
};
use dapsp_graph::{Graph, INFINITY};

use crate::apsp::ApspResult;
use crate::churned::ChurnedResult;
use crate::error::CoreError;
use crate::runner::run_algorithm_on;

/// Flat-array sentinel for "no next hop" (`v == dst`, unreachable, or
/// absent endpoint).
const NO_HOP: u32 = u32::MAX;

/// How a snapshot's distances were (re)computed — part of the attribution
/// story a snapshot carries alongside its certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// The initial full Algorithm 1 run (epoch 0).
    Initial,
    /// A churn-track repair: the [`RepairKernel`](crate::kernel::RepairKernel)
    /// patched the converged computation in place.
    Repaired,
    /// The churn track ran, but the change batch crossed the adaptive
    /// threshold and nodes fell back to a full cache recompute.
    RecomputeFallback,
}

impl RebuildPolicy {
    /// Short label for logs and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            RebuildPolicy::Initial => "initial",
            RebuildPolicy::Repaired => "repair",
            RebuildPolicy::RecomputeFallback => "recompute",
        }
    }
}

/// The routing table: an immutable, queryable compaction of one converged
/// shortest-path computation. See the module docs for the design.
#[derive(Clone, Debug)]
pub struct RouteTable {
    n: usize,
    epoch: u64,
    /// `next_hop[s * n + d]` — neighbor id, or [`NO_HOP`].
    next_hop: Vec<u32>,
    /// `hops[s * n + d]` — hop distance, or [`INFINITY`].
    hops: Vec<u32>,
    /// Whether each node is part of the served topology.
    present: Vec<bool>,
    /// Per-node eccentricity over present nodes ([`INFINITY`] when the
    /// node is absent or cannot reach some present node).
    ecc: Vec<u32>,
    /// Present nodes of minimum (finite) eccentricity, ascending; empty
    /// when the served graph is disconnected.
    centers: Vec<u32>,
    /// The girth of the served graph (`None` for forests).
    girth: Option<u32>,
    policy: RebuildPolicy,
    stats: RunStats,
    certificate: Option<TerminationCertificate>,
    checksum: u64,
}

impl RouteTable {
    /// Compacts a finished APSP run into the epoch-`epoch` table,
    /// **consuming** the result: the distance matrix's buffer is moved in
    /// as is, and the next-hop rows are flattened once, each freed as it
    /// is read — no `O(n²)` clone at any point.
    pub fn from_apsp(result: ApspResult, epoch: u64) -> RouteTable {
        let n = result.distances.num_nodes();
        let mut next_hop = Vec::with_capacity(n * n);
        for row in result.next_hop {
            next_hop.extend(row.into_iter().map(|hop| hop.unwrap_or(NO_HOP)));
        }
        Self::assemble(
            n,
            epoch,
            next_hop,
            result.distances.into_vec(),
            vec![true; n],
            result.girth_candidate,
            RebuildPolicy::Initial,
            result.stats,
            result.certificate,
        )
    }

    /// Compacts a churn-repaired APSP run
    /// ([`apsp::run_churned`](crate::apsp::run_churned)) into the
    /// epoch-`epoch` table. `final_topo` must be the *post-churn* topology
    /// (see [`churned_topology`](dapsp_congest::churned_topology)): each
    /// node's parent port per root resolves to a neighbor id through it —
    /// ports stay stable across churn, so dead ports still resolve. Rows of
    /// absent nodes serve nothing. The girth is re-derived host-side from
    /// the repaired distances plus the live adjacency, since the repair
    /// kernel maintains distances, not wave-collision witnesses.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless the result maintains every
    /// root (`roots = 0..n`, the churned-APSP shape) and `final_topo` has
    /// matching size.
    pub fn from_churned(
        result: &ChurnedResult,
        final_topo: &Topology,
        epoch: u64,
    ) -> Result<RouteTable, CoreError> {
        let n = result.dist.len();
        if final_topo.num_nodes() != n {
            return Err(CoreError::InvalidParameter(format!(
                "topology covers {} nodes but the churned result has {n}",
                final_topo.num_nodes()
            )));
        }
        if result.roots.len() != n
            || result
                .roots
                .iter()
                .enumerate()
                .any(|(i, &r)| r as usize != i)
        {
            return Err(CoreError::InvalidParameter(
                "churned routing tables need all-pairs roots (0..n); run apsp::run_churned"
                    .to_string(),
            ));
        }
        let mut next_hop = vec![NO_HOP; n * n];
        let mut hops = vec![INFINITY; n * n];
        for v in 0..n {
            if !result.present[v] {
                // Absent nodes keep frozen kernel state; serve nothing.
                continue;
            }
            let row = v * n..(v + 1) * n;
            hops[row.clone()].copy_from_slice(&result.dist[v]);
            for (hop, port) in next_hop[row].iter_mut().zip(&result.parent_port[v]) {
                if let Some(p) = port {
                    *hop = final_topo.neighbor_at(v as u32, *p);
                }
            }
        }
        let girth = derive_girth(n, &hops, &final_topo.to_adjacency());
        let policy = if result.stats.recompute_fallbacks > 0 {
            RebuildPolicy::RecomputeFallback
        } else {
            RebuildPolicy::Repaired
        };
        Ok(Self::assemble(
            n,
            epoch,
            next_hop,
            hops,
            result.present.clone(),
            girth,
            policy,
            result.stats,
            result.certificate.clone(),
        ))
    }

    #[allow(clippy::too_many_arguments)] // one internal call site, field-per-arg
    fn assemble(
        n: usize,
        epoch: u64,
        next_hop: Vec<u32>,
        hops: Vec<u32>,
        present: Vec<bool>,
        girth: Option<u32>,
        policy: RebuildPolicy,
        stats: RunStats,
        certificate: Option<TerminationCertificate>,
    ) -> RouteTable {
        let ecc = derive_eccentricities(n, &hops, &present);
        let finite_min = ecc
            .iter()
            .zip(&present)
            .filter(|&(&e, &p)| p && e != INFINITY)
            .map(|(&e, _)| e)
            .min();
        // A disconnected served graph has no finite eccentricity at all
        // (every present node misses some other present node), so the
        // center is empty rather than arbitrary.
        let centers = match finite_min {
            Some(min) => (0..n as u32)
                .filter(|&v| present[v as usize] && ecc[v as usize] == min)
                .collect(),
            None => Vec::new(),
        };
        let mut table = RouteTable {
            n,
            epoch,
            next_hop,
            hops,
            present,
            ecc,
            centers,
            girth,
            policy,
            stats,
            certificate,
            checksum: 0,
        };
        table.checksum = table.compute_checksum();
        table
    }

    /// The number of nodes the table covers (including absent ones, which
    /// keep their ids but serve nothing).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The topology epoch this snapshot serves: 0 for the initial build,
    /// +1 per applied [`TopologyPlan`](dapsp_congest::TopologyPlan).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `v` is part of the served topology.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_present(&self, v: u32) -> bool {
        self.present[v as usize]
    }

    /// Hop distance from `s` to `d`, `None` when unreachable (or either
    /// endpoint is absent).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn dist(&self, s: u32, d: u32) -> Option<u32> {
        let h = self.hops[s as usize * self.n + d as usize];
        (h != INFINITY && self.present[d as usize]).then_some(h)
    }

    /// The neighbor `s` forwards to when routing toward `d` (`None` at
    /// `s == d` and for unroutable pairs).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn next_hop(&self, s: u32, d: u32) -> Option<u32> {
        let hop = self.next_hop[s as usize * self.n + d as usize];
        (hop != NO_HOP).then_some(hop)
    }

    /// Reconstructs the full shortest path from `s` to `d` (inclusive) by
    /// walking next-hop pointers; `None` when `d` is unreachable. The walk
    /// is bounded by the recorded hop count, so a corrupt table reads back
    /// as `None`, never a hang.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn path(&self, s: u32, d: u32) -> Option<Vec<u32>> {
        let budget = self.dist(s, d)?;
        let mut path = Vec::with_capacity(budget as usize + 1);
        path.push(s);
        let mut cur = s;
        for _ in 0..budget {
            cur = self.next_hop(cur, d)?;
            path.push(cur);
        }
        (cur == d).then_some(path)
    }

    /// Batched distance lookup: one pass over `pairs` against this single
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if any pair is out of range.
    pub fn dist_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<u32>> {
        pairs.iter().map(|&(s, d)| self.dist(s, d)).collect()
    }

    /// Eccentricity of `v` over the present nodes, `None` when `v` is
    /// absent or some present node is unreachable from it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn eccentricity(&self, v: u32) -> Option<u32> {
        let e = self.ecc[v as usize];
        (e != INFINITY).then_some(e)
    }

    /// The served graph's diameter (`None` when disconnected).
    pub fn diameter(&self) -> Option<u32> {
        let mut max = None;
        for (v, &p) in self.present.iter().enumerate() {
            if !p {
                continue;
            }
            match self.eccentricity(v as u32) {
                Some(e) => max = Some(max.map_or(e, |m: u32| m.max(e))),
                None => return None,
            }
        }
        max
    }

    /// The served graph's radius (`None` when disconnected).
    pub fn radius(&self) -> Option<u32> {
        self.centers.first().and_then(|&c| self.eccentricity(c))
    }

    /// Present nodes of minimum eccentricity, ascending (empty when the
    /// served graph is disconnected).
    pub fn centers(&self) -> &[u32] {
        &self.centers
    }

    /// The girth of the served graph (`None` for forests).
    pub fn girth(&self) -> Option<u32> {
        self.girth
    }

    /// How this snapshot's distances were computed.
    pub fn policy(&self) -> RebuildPolicy {
        self.policy
    }

    /// Round/message statistics of the run that produced this snapshot.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The engine's termination certificate for the producing run — why
    /// the computation was allowed to stop, per-node quiescence votes
    /// included, so every served answer is attributable.
    pub fn certificate(&self) -> Option<&TerminationCertificate> {
        self.certificate.as_ref()
    }

    /// The checksum stamped at construction over the query-visible payload
    /// (epoch, sizes, next hops, hop counts, presence, eccentricities,
    /// centers, girth).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the payload checksum and compares it against the stamp —
    /// the torn-read probe concurrency stress tests call on every loaded
    /// snapshot (an `Arc` swap can never tear, and this proves it).
    pub fn verify(&self) -> bool {
        self.compute_checksum() == self.checksum
    }

    fn compute_checksum(&self) -> u64 {
        let mut h = mix(0xcbf2_9ce4_8422_2325, self.epoch);
        h = mix(h, self.n as u64);
        for &x in &self.next_hop {
            h = mix(h, u64::from(x));
        }
        for &x in &self.hops {
            h = mix(h, u64::from(x));
        }
        for &p in &self.present {
            h = mix(h, u64::from(p));
        }
        for &e in &self.ecc {
            h = mix(h, u64::from(e));
        }
        for &c in &self.centers {
            h = mix(h, u64::from(c));
        }
        mix(h, self.girth.map_or(u64::MAX, u64::from))
    }
}

/// One deterministic 64-bit mixing step (FNV-fold plus a finalizing shift).
fn mix(h: u64, x: u64) -> u64 {
    let v = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    v ^ (v >> 31)
}

/// Per-node eccentricity over present destinations, [`INFINITY`] for
/// absent sources and for sources missing some present destination.
fn derive_eccentricities(n: usize, hops: &[u32], present: &[bool]) -> Vec<u32> {
    (0..n)
        .map(|v| {
            if !present[v] {
                return INFINITY;
            }
            let row = &hops[v * n..(v + 1) * n];
            let mut ecc = 0;
            for (u, &d) in row.iter().enumerate() {
                if !present[u] {
                    continue;
                }
                if d == INFINITY {
                    return INFINITY;
                }
                ecc = ecc.max(d);
            }
            ecc
        })
        .collect()
}

/// Exact girth from a hop-distance matrix plus the live adjacency — the
/// host-side analogue of the paper's Lemma 7 wave-collision witnesses,
/// used on republish where the repair kernel maintains distances only.
///
/// For every root `w`: an edge `(u, v)` with `d(w,u) = d(w,v)` witnesses
/// an odd closed walk of length `2·d(w,u) + 1` (an odd closed walk always
/// contains an odd cycle no longer than itself); a node `x` with two
/// distinct neighbors at depth `d(w,x) − 1` witnesses two distinct
/// shortest `w→x` paths, i.e. an even cycle of length at most `2·d(w,x)`.
/// Minimizing over all roots is exact: a root *on* a shortest cycle
/// realizes its length through one of the two cases (odd girth `2k+1` via
/// the opposite edge, even girth `2k` via the opposite node), and
/// distances between nodes of a shortest cycle equal their along-cycle
/// distances, or a shorter cycle would exist.
fn derive_girth(n: usize, hops: &[u32], adj: &[Vec<u32>]) -> Option<u32> {
    let mut best = INFINITY;
    for w in 0..n {
        let dw = &hops[w * n..(w + 1) * n];
        for (x, nbrs) in adj.iter().enumerate() {
            let dx = dw[x];
            if dx == INFINITY {
                continue;
            }
            let mut at_prev_depth = 0u32;
            for &u in nbrs {
                let du = dw[u as usize];
                if du == INFINITY {
                    continue;
                }
                // Odd witness: equal-depth edge (counted once per edge).
                if du == dx && (x as u32) < u && 2 * dx + 1 < best {
                    best = 2 * dx + 1;
                }
                if du + 1 == dx {
                    at_prev_depth += 1;
                }
            }
            // Even witness: two distinct parents in w's BFS layering.
            if at_prev_depth >= 2 && 2 * dx < best {
                best = 2 * dx;
            }
        }
    }
    (best != INFINITY).then_some(best)
}

/// One traffic demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flow {
    /// Injecting node.
    pub source: u32,
    /// Destination node.
    pub destination: u32,
}

/// A packet in flight: just its flow id (the flow list is network-wide
/// configuration, so `log₂ |flows|` bits suffice — comfortably within `B`).
#[derive(Clone, Debug)]
struct PacketMsg {
    flow: u32,
    num_flows: u32,
}

impl Message for PacketMsg {
    fn bit_size(&self) -> u32 {
        bits_for_id(self.num_flows as usize)
    }
}

struct RouterNode {
    num_flows: u32,
    flows: Arc<Vec<Flow>>,
    /// Port toward each flow's next hop from here (`None` = we are the
    /// destination).
    out_port: Vec<Option<Port>>,
    /// FIFO queue per port — one packet per edge-direction per round.
    queues: Vec<VecDeque<u32>>,
    /// Arrival round per flow terminating here.
    arrivals: Vec<Option<u64>>,
}

impl RouterNode {
    fn enqueue(&mut self, flow: u32, round: u64) {
        match self.out_port[flow as usize] {
            Some(p) => self.queues[p as usize].push_back(flow),
            None => self.arrivals[flow as usize] = Some(round),
        }
    }

    /// Transmits the head of every port queue (one packet per
    /// edge-direction per round).
    fn transmit(&mut self, out: &mut Outbox<PacketMsg>) {
        for (port, queue) in self.queues.iter_mut().enumerate() {
            if let Some(flow) = queue.pop_front() {
                out.send(
                    port as Port,
                    PacketMsg {
                        flow,
                        num_flows: self.num_flows,
                    },
                );
            }
        }
    }
}

impl NodeAlgorithm for RouterNode {
    type Message = PacketMsg;
    type Output = Vec<Option<u64>>;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<PacketMsg>) {
        let me = ctx.node_id();
        let flows = Arc::clone(&self.flows);
        for (idx, flow) in flows.iter().enumerate() {
            if flow.source == me {
                self.enqueue(idx as u32, 0);
            }
        }
        self.transmit(out);
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<PacketMsg>,
        out: &mut Outbox<PacketMsg>,
    ) {
        let round = ctx.round();
        for (_port, msg) in inbox.iter() {
            self.enqueue(msg.flow, round);
        }
        self.transmit(out);
    }

    fn is_active(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    fn into_output(self, _ctx: &NodeContext<'_>) -> Vec<Option<u64>> {
        self.arrivals
    }
}

/// Delivery record for one flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The flow.
    pub flow: Flow,
    /// Shortest-path hop distance (what the packet would take alone).
    pub hops: u32,
    /// Round the packet actually arrived.
    pub arrival_round: u64,
    /// Rounds spent queueing behind other flows (`arrival - hops`).
    pub queueing_delay: u64,
}

/// The outcome of a flow simulation.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Per-flow delivery records, in input order.
    pub deliveries: Vec<Delivery>,
    /// Simulation statistics.
    pub stats: RunStats,
}

impl FlowReport {
    /// The worst queueing delay over all flows.
    pub fn max_queueing_delay(&self) -> u64 {
        self.deliveries
            .iter()
            .map(|d| d.queueing_delay)
            .max()
            .unwrap_or(0)
    }
}

/// Injects one packet per flow and forwards them along the routing table
/// until every packet arrives, one packet per edge-direction per round.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] on an empty graph.
/// * [`CoreError::InvalidNode`] for out-of-range flow endpoints.
/// * [`CoreError::InvalidParameter`] when the table has no route for a
///   flow (its destination is unreachable or absent), or routes it over a
///   hop that is not an edge of `graph` — both rejected before the run.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::{apsp, routing};
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::grid(4, 4);
/// let table = routing::RouteTable::from_apsp(apsp::run(&g)?, 0);
/// let flows = vec![routing::Flow { source: 0, destination: 15 }];
/// let report = routing::simulate_flows(&g, &table, &flows)?;
/// assert_eq!(report.deliveries[0].arrival_round, 6); // = d(0, 15)
/// assert_eq!(report.deliveries[0].queueing_delay, 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate_flows(
    graph: &Graph,
    table: &RouteTable,
    flows: &[Flow],
) -> Result<FlowReport, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    if table.num_nodes() != n {
        return Err(CoreError::InvalidParameter(format!(
            "routing table covers {} nodes but the graph has {n}",
            table.num_nodes()
        )));
    }
    let topology = graph.to_topology();
    // Resolve every flow's route to ports before the run: `out_ports[v][f]`
    // is the port `v` forwards flow `f` on (`None` off the route and at the
    // destination, where the packet is recorded as arrived).
    let mut out_ports: Vec<Vec<Option<Port>>> = vec![vec![None; flows.len()]; n];
    let mut route_hops = Vec::with_capacity(flows.len());
    for (idx, f) in flows.iter().enumerate() {
        for node in [f.source, f.destination] {
            if node as usize >= n {
                return Err(CoreError::InvalidNode { node, num_nodes: n });
            }
        }
        let route = table.path(f.source, f.destination).ok_or_else(|| {
            CoreError::InvalidParameter(format!(
                "the routing table has no route for flow {} -> {}",
                f.source, f.destination
            ))
        })?;
        for hop in route.windows(2) {
            let port = topology
                .neighbors(hop[0])
                .iter()
                .position(|&u| u == hop[1])
                .ok_or_else(|| {
                    CoreError::InvalidParameter(format!(
                        "the routing table forwards {} -> {} but the graph has no such edge",
                        hop[0], hop[1]
                    ))
                })?;
            out_ports[hop[0] as usize][idx] = Some(port as Port);
        }
        route_hops.push(route.len() as u32 - 1);
    }
    let flows_arc = Arc::new(flows.to_vec());
    let config = Config::for_n(n.max(flows.len()));
    let report = run_algorithm_on(&topology, config, |ctx| RouterNode {
        num_flows: flows_arc.len() as u32,
        flows: Arc::clone(&flows_arc),
        out_port: std::mem::take(&mut out_ports[ctx.node_id() as usize]),
        queues: vec![VecDeque::new(); ctx.degree()],
        arrivals: vec![None; flows_arc.len()],
    })?;
    let deliveries = flows
        .iter()
        .zip(route_hops)
        .enumerate()
        .map(|(idx, (flow, hops))| {
            let arrival = report.outputs[flow.destination as usize][idx]
                .expect("a packet on a validated route reaches its destination");
            Delivery {
                flow: *flow,
                hops,
                arrival_round: arrival,
                queueing_delay: arrival - u64::from(hops),
            }
        })
        .collect();
    Ok(FlowReport {
        deliveries,
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp;
    use dapsp_graph::{generators, reference};

    fn table(g: &Graph) -> RouteTable {
        RouteTable::from_apsp(apsp::run(g).unwrap(), 0)
    }

    #[test]
    fn point_queries_match_the_oracle() {
        let g = generators::grid(4, 4);
        let t = table(&g);
        let oracle = reference::apsp(&g);
        for s in 0..16u32 {
            for d in 0..16u32 {
                assert_eq!(t.dist(s, d), oracle.get(s, d), "d({s}, {d})");
                let p = t.path(s, d).unwrap();
                assert_eq!(p.len() as u32 - 1, oracle.get(s, d).unwrap());
            }
        }
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.policy(), RebuildPolicy::Initial);
        assert!(t.certificate().is_some(), "snapshot lost its certificate");
    }

    #[test]
    fn derived_quantities_match_the_oracles() {
        for g in [
            generators::cycle(9),
            generators::grid(3, 4),
            generators::lollipop(5, 4),
            generators::balanced_tree(2, 3),
        ] {
            let t = table(&g);
            assert_eq!(t.diameter(), reference::diameter(&g));
            assert_eq!(t.radius(), reference::radius(&g));
            assert_eq!(Some(t.centers().to_vec()), reference::center(&g));
            assert_eq!(t.girth(), reference::girth(&g));
            for v in 0..g.num_nodes() as u32 {
                assert_eq!(
                    t.eccentricity(v),
                    reference::eccentricities(&g).map(|e| e[v as usize])
                );
            }
        }
    }

    #[test]
    fn derived_girth_matches_the_oracle_on_every_small_graph() {
        // `derive_girth` (the republish path) against the oracle on every
        // connected graph with <= 6 nodes: 141 isomorphism classes cover
        // odd/even girths, trees, and every troublesome local structure.
        for n in 1..=6 {
            for g in dapsp_graph::enumerate::connected_graphs(n) {
                let hops = apsp::run(&g).unwrap().distances.into_vec();
                let adj = g.to_topology().to_adjacency();
                assert_eq!(
                    derive_girth(n, &hops, &adj),
                    reference::girth(&g),
                    "girth mismatch on a {n}-node graph: {g:?}"
                );
            }
        }
    }

    #[test]
    fn checksum_verifies_and_pins_the_payload() {
        let g = generators::cycle(6);
        let t = table(&g);
        assert!(t.verify());
        let mut tampered = t.clone();
        tampered.hops[7] ^= 1;
        assert!(!tampered.verify(), "tampered payload must fail verify()");
        let mut reepoched = t.clone();
        reepoched.epoch += 1;
        assert!(!reepoched.verify(), "epoch is part of the checksum");
    }

    #[test]
    fn batch_lookup_matches_point_lookups() {
        let g = generators::grid(3, 3);
        let t = table(&g);
        let pairs: Vec<(u32, u32)> = (0..9u32).map(|i| (i, (i * 7 + 3) % 9)).collect();
        let batch = t.dist_batch(&pairs);
        for (i, &(s, d)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], t.dist(s, d));
        }
    }

    #[test]
    fn path_reconstruction_is_shortest_and_bounded() {
        let g = generators::grid(4, 4);
        let t = table(&g);
        for u in 0..16u32 {
            for v in 0..16u32 {
                let p = t.path(u, v).expect("connected graph");
                assert_eq!(Some(p.len() as u32 - 1), t.dist(u, v));
                assert_eq!(*p.first().unwrap(), u);
                assert_eq!(*p.last().unwrap(), v);
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn lone_packets_arrive_in_exactly_their_hop_distance() {
        let g = generators::grid(5, 5);
        let t = table(&g);
        for (s, d) in [(0u32, 24u32), (3, 20), (12, 12)] {
            let flows = vec![Flow {
                source: s,
                destination: d,
            }];
            let r = simulate_flows(&g, &t, &flows).unwrap();
            assert_eq!(
                u64::from(r.deliveries[0].hops),
                r.deliveries[0].arrival_round
            );
            assert_eq!(r.deliveries[0].queueing_delay, 0);
        }
    }

    #[test]
    fn self_flow_arrives_instantly() {
        let g = generators::path(4);
        let t = table(&g);
        let r = simulate_flows(
            &g,
            &t,
            &[Flow {
                source: 2,
                destination: 2,
            }],
        )
        .unwrap();
        assert_eq!(r.deliveries[0].arrival_round, 0);
    }

    #[test]
    fn contending_flows_queue_on_the_shared_edge() {
        // A star: every cross-leaf packet must traverse the hub, and the
        // hub can push one packet per leaf-edge per round. k flows to the
        // same destination serialize on the final edge.
        let g = generators::star(8);
        let t = table(&g);
        let flows: Vec<Flow> = (1..6)
            .map(|s| Flow {
                source: s,
                destination: 7,
            })
            .collect();
        let r = simulate_flows(&g, &t, &flows).unwrap();
        // All have hop distance 2; arrivals serialize: 2, 3, 4, 5, 6.
        let mut arrivals: Vec<u64> = r.deliveries.iter().map(|d| d.arrival_round).collect();
        arrivals.sort_unstable();
        assert_eq!(arrivals, vec![2, 3, 4, 5, 6]);
        assert_eq!(r.max_queueing_delay(), 4);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let g = generators::cycle(12);
        let t = table(&g);
        let flows = vec![
            Flow {
                source: 0,
                destination: 2,
            },
            Flow {
                source: 6,
                destination: 8,
            },
        ];
        let r = simulate_flows(&g, &t, &flows).unwrap();
        for d in &r.deliveries {
            assert_eq!(d.queueing_delay, 0);
        }
    }

    #[test]
    fn rejects_bad_endpoints() {
        let g = generators::path(3);
        let t = table(&g);
        assert!(matches!(
            simulate_flows(
                &g,
                &t,
                &[Flow {
                    source: 0,
                    destination: 9
                }]
            )
            .unwrap_err(),
            CoreError::InvalidNode { node: 9, .. }
        ));
    }

    #[test]
    fn rejects_a_table_that_does_not_match_the_graph() {
        // Same node count, different edges: the cycle's table routes 0 -> 5
        // over the closing edge the path does not have.
        let t = table(&generators::cycle(6));
        let err = simulate_flows(
            &generators::path(6),
            &t,
            &[Flow {
                source: 0,
                destination: 5,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter(_)), "{err:?}");
    }

    /// A packet names its flow out of at most `n²` demands (all pairs) —
    /// `⌈log₂ n²⌉ ≤ 2⌈log₂ n⌉` bits, within the budget.
    #[test]
    fn packet_width_fits_the_budget() {
        for n in [2usize, 100, 1 << 10] {
            let budget = Config::for_n(n).message_budget.unwrap();
            let num_flows = (n * n) as u32;
            let packet = PacketMsg {
                flow: num_flows - 1,
                num_flows,
            };
            assert!(packet.bit_size() <= budget, "n={n}");
        }
    }
}

#[cfg(test)]
mod churn_tests {
    //! Tables × churn: a table built from a *post-repair* run must serve
    //! the mutated graph's oracle, and packets forwarded over it on the
    //! *mutated* topology must still satisfy the queueing-delay invariants
    //! the static tests pin — the repaired next-hop tree is a real
    //! shortest-path forest on the new graph, not a stale copy of the old
    //! one.

    use super::*;
    use crate::{apsp, churned_graph};
    use dapsp_congest::{churned_topology, TopologyPlan};
    use dapsp_graph::{generators, reference};

    fn churned_table(g: &Graph, plan: &TopologyPlan) -> (RouteTable, Graph) {
        let topo = g.to_topology();
        let repaired = apsp::run_churned(g, plan).unwrap();
        let final_topo = churned_topology(&topo, plan).unwrap();
        let t = RouteTable::from_churned(&repaired, &final_topo, 1).unwrap();
        let mutated = churned_graph(g, plan).unwrap();
        (t, mutated)
    }

    #[test]
    fn post_repair_tables_match_the_mutated_oracle() {
        let g = generators::grid(4, 4);
        let plan = TopologyPlan::new()
            .with_remove(2, 0, 1)
            .with_insert(3, 0, 15);
        let (t, mutated) = churned_table(&g, &plan);
        let oracle = reference::apsp(&mutated);
        for s in 0..16u32 {
            for d in 0..16u32 {
                assert_eq!(t.dist(s, d), oracle.get(s, d), "hops({s}, {d})");
            }
        }
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.policy(), RebuildPolicy::Repaired);
    }

    #[test]
    fn lone_flows_on_the_repaired_table_arrive_at_hop_distance() {
        let g = generators::grid(4, 4);
        let plan = TopologyPlan::new()
            .with_remove(2, 0, 1)
            .with_insert(3, 0, 15);
        let (t, mutated) = churned_table(&g, &plan);
        let oracle = reference::apsp(&mutated);
        for (s, d) in [(0u32, 15u32), (1, 14), (3, 12), (5, 5)] {
            let r = simulate_flows(
                &mutated,
                &t,
                &[Flow {
                    source: s,
                    destination: d,
                }],
            )
            .unwrap();
            assert_eq!(
                r.deliveries[0].arrival_round,
                u64::from(oracle.get(s, d).unwrap()),
                "flow {s}->{d} took a non-shortest route post-repair"
            );
            assert_eq!(r.deliveries[0].queueing_delay, 0);
        }
    }

    #[test]
    fn contending_flows_on_the_repaired_table_keep_the_delay_bound() {
        // k single-destination flows forward along the repaired next-hop
        // tree toward the destination; each packet can be overtaken by
        // every other packet at most once, so queueing delay stays below k.
        let g = generators::grid(4, 4);
        let plan = TopologyPlan::new().with_remove(2, 5, 6);
        let (t, mutated) = churned_table(&g, &plan);
        let flows: Vec<Flow> = (0..6)
            .map(|s| Flow {
                source: s,
                destination: 15,
            })
            .collect();
        let r = simulate_flows(&mutated, &t, &flows).unwrap();
        assert_eq!(r.deliveries.len(), flows.len());
        for d in &r.deliveries {
            assert!(
                d.arrival_round >= u64::from(d.hops),
                "packet beat its own hop distance"
            );
            assert!(
                d.queueing_delay < flows.len() as u64,
                "flow {:?} queued {} rounds, more than the other {} packets \
                 could have caused",
                d.flow,
                d.queueing_delay,
                flows.len() - 1
            );
        }
    }

    #[test]
    fn severed_pairs_read_back_unroutable() {
        let g = generators::path(6);
        let plan = TopologyPlan::new().with_remove(2, 2, 3);
        let (t, _mutated) = churned_table(&g, &plan);
        assert_eq!(t.dist(0, 5), None);
        assert_eq!(t.next_hop(0, 5), None);
        assert_eq!(t.path(0, 5), None);
        assert_eq!(t.path(0, 2).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn flows_to_severed_destinations_are_rejected_before_the_run() {
        // Regression: the packet used to be booked as "arrived at round 0"
        // at its source and the delay computed as `0 - INFINITY` — a
        // subtract overflow in debug, garbage in release.
        let g = generators::path(6);
        let plan = TopologyPlan::new().with_remove(2, 2, 3);
        let (t, mutated) = churned_table(&g, &plan);
        let flows = [
            Flow {
                source: 0,
                destination: 2,
            },
            Flow {
                source: 0,
                destination: 5,
            },
        ];
        let err = simulate_flows(&mutated, &t, &flows).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter(_)), "{err:?}");
        // The routable flow alone still runs.
        let r = simulate_flows(&mutated, &t, &flows[..1]).unwrap();
        assert_eq!(r.deliveries[0].arrival_round, 2);
    }

    #[test]
    fn a_crashed_node_is_absent_and_serves_nothing() {
        let g = generators::grid(4, 4);
        let victim = 5u32;
        let plan = TopologyPlan::new().with_crash(2, victim);
        let (t, mutated) = churned_table(&g, &plan);
        assert!(t.verify());
        let oracle = reference::apsp(&mutated);
        let survivors: Vec<u32> = (0..16).filter(|&v| v != victim).collect();
        assert!(!t.is_present(victim));
        assert_eq!(t.eccentricity(victim), None);
        for v in 0..16u32 {
            assert_eq!(t.is_present(v), v != victim);
            for (s, d) in [(v, victim), (victim, v)] {
                assert_eq!(t.dist(s, d), None, "d({s}, {d})");
                assert_eq!(t.next_hop(s, d), None, "next_hop({s}, {d})");
                assert_eq!(t.path(s, d), None, "path({s}, {d})");
            }
        }
        // Every surviving pair serves the oracle on the mutated graph
        // (where the victim is isolated), routed around the hole.
        for &s in &survivors {
            for &d in &survivors {
                assert_eq!(t.dist(s, d), oracle.get(s, d), "d({s}, {d})");
                let p = t.path(s, d).expect("the survivors stay connected");
                assert!(!p.contains(&victim) && p.windows(2).all(|w| mutated.has_edge(w[0], w[1])));
            }
        }
        // Derived metrics range over the survivors only.
        let ecc = |s: u32| survivors.iter().map(|&d| oracle.get(s, d).unwrap()).max();
        for &s in &survivors {
            assert_eq!(t.eccentricity(s), ecc(s), "ecc({s})");
        }
        let radius = survivors.iter().filter_map(|&s| ecc(s)).min();
        assert_eq!(t.diameter(), survivors.iter().filter_map(|&s| ecc(s)).max());
        assert_eq!(t.radius(), radius);
        let centers: Vec<u32> = survivors
            .iter()
            .copied()
            .filter(|&s| ecc(s) == radius)
            .collect();
        assert_eq!(t.centers(), &centers[..]);
        assert_eq!(t.girth(), reference::girth(&mutated));
    }

    #[test]
    fn from_churned_rejects_partial_roots() {
        // A churned BFS maintains one root, not all pairs — no routing
        // table can be compacted from it.
        let g = generators::path(4);
        let plan = TopologyPlan::new();
        let r = crate::bfs::run_churned(&g, 0, &plan).unwrap();
        let topo = g.to_topology();
        assert!(matches!(
            RouteTable::from_churned(&r, &topo, 1).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }
}
