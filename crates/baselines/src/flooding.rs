//! Serialized link-state (OSPF-style) APSP: flood the topology, then solve
//! locally.
//!
//! Every node announces its incident edges; every received *new* edge
//! record is forwarded on all other ports, one record per edge per round
//! (a record is two node ids — exactly a `B`-bit message). Since in the end
//! every node must know all `m` records and an edge can deliver only one
//! per round, this takes `Θ(m + D)` rounds and `Θ(m²)` messages — the
//! serialized version of the paper's "link-state algorithms exchange
//! information about all edges" observation. The final all-pairs
//! computation is free local work (each node knows the whole graph).

use dapsp_congest::{
    bits_for_id, Config, Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port, Simulator,
};
use dapsp_graph::{Graph, INFINITY};

use dapsp_core::CoreError;

use crate::BaselineResult;

/// One edge record `(u, v)` with `u < v`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EdgeRecord {
    u: u32,
    v: u32,
    n: u32,
}

impl Message for EdgeRecord {
    fn bit_size(&self) -> u32 {
        2 * bits_for_id(self.n as usize)
    }
}

struct FloodNode {
    n: u32,
    known: std::collections::BTreeSet<(u32, u32)>,
    /// Per-port queues of records still to forward there.
    pending: Vec<std::collections::VecDeque<(u32, u32)>>,
}

impl FloodNode {
    fn learn(&mut self, record: (u32, u32), from: Option<Port>) {
        if self.known.insert(record) {
            for (p, queue) in self.pending.iter_mut().enumerate() {
                if Some(p as Port) != from {
                    queue.push_back(record);
                }
            }
        }
    }
}

impl NodeAlgorithm for FloodNode {
    type Message = EdgeRecord;
    type Output = std::collections::BTreeSet<(u32, u32)>;

    fn on_start(&mut self, ctx: &NodeContext<'_>, _out: &mut Outbox<EdgeRecord>) {
        let me = ctx.node_id();
        for &nb in ctx.neighbor_ids() {
            self.learn((me.min(nb), me.max(nb)), None);
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<EdgeRecord>,
        out: &mut Outbox<EdgeRecord>,
    ) {
        for (port, msg) in inbox.iter() {
            self.learn((msg.u, msg.v), Some(port));
        }
        for port in 0..ctx.degree() as Port {
            if let Some((u, v)) = self.pending[port as usize].pop_front() {
                out.send(port, EdgeRecord { u, v, n: self.n });
            }
        }
    }

    fn is_active(&self) -> bool {
        self.pending.iter().any(|queue| !queue.is_empty())
    }

    fn into_output(self, _ctx: &NodeContext<'_>) -> Self::Output {
        self.known
    }
}

/// Runs serialized link-state flooding to quiescence and computes APSP
/// locally at node 0 (all nodes hold the same topology; the matrix is
/// assembled once for the result).
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_baselines::link_state;
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::cycle(8);
/// let r = link_state(&g)?;
/// assert_eq!(r.distances, reference::apsp(&g));
/// # Ok(())
/// # }
/// ```
pub fn link_state(graph: &Graph) -> Result<BaselineResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let m = graph.num_edges() as u64;
    let report = Simulator::new(
        &graph.to_topology(),
        Config::for_n(n).with_max_rounds(4 * m + 16 * n as u64 + 100),
        |ctx| FloodNode {
            n: n as u32,
            known: Default::default(),
            pending: vec![Default::default(); ctx.degree()],
        },
    )
    .run()?;
    // Every node must have learned the full topology.
    for known in &report.outputs {
        if known.len() as u64 != m {
            return Err(CoreError::Disconnected);
        }
    }
    // Local computation (free in the model): rebuild and solve.
    let mut b = Graph::builder(n);
    for &(u, v) in &report.outputs[0] {
        b.add_edge(u, v).expect("records are valid edges");
    }
    let local = b.build();
    let distances = dapsp_graph::reference::apsp(&local);
    if (0..n as u32).any(|v| distances.row(v).contains(&INFINITY)) {
        return Err(CoreError::Disconnected);
    }
    Ok(BaselineResult {
        distances,
        rounds_to_converge: report.stats.rounds,
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    #[test]
    fn converges_to_oracle_distances() {
        for g in [
            generators::path(9),
            generators::cycle(8),
            generators::grid(3, 4),
            generators::complete(6),
            generators::erdos_renyi_connected(18, 0.2, 4),
        ] {
            let r = link_state(&g).unwrap();
            assert_eq!(r.distances, reference::apsp(&g));
        }
    }

    #[test]
    fn rounds_scale_with_edge_count() {
        // Dense graph: m = n(n-1)/2 records must cross every edge-cut of
        // small width... compare a sparse and a dense instance of equal n.
        let sparse = link_state(&generators::cycle(14)).unwrap();
        let dense = link_state(&generators::complete(14)).unwrap();
        // On the cycle, each edge-direction must carry roughly the m/2
        // records originating behind it: ~m/2 + D rounds.
        assert!(sparse.rounds_to_converge >= 7);
        // Messages explode quadratically in m for the dense case.
        assert!(dense.stats.messages > sparse.stats.messages * 10);
    }

    #[test]
    fn rejects_disconnected() {
        let g = dapsp_graph::Graph::builder(3).build();
        assert_eq!(link_state(&g).unwrap_err(), CoreError::Disconnected);
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// An edge record is two fixed-width node ids — within the budget.
    #[test]
    fn edge_record_width_fits_the_budget() {
        for n in [2usize, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let record = EdgeRecord {
                u: n as u32 - 2,
                v: n as u32 - 1,
                n: n as u32,
            };
            assert!(record.bit_size() <= budget, "n={n}");
        }
    }
}
