//! Event-driven ("triggered-update") distance-vector.
//!
//! Instead of cycling the whole table, a node only announces entries that
//! changed, smallest id first, one per edge per round. In a benign
//! synchronous start this behaves like `n` interleaved BFS floods and
//! converges in roughly `n + D` rounds — but unlike Algorithm 1 it has no
//! congestion guarantee: estimates can arrive out of order (a blocked
//! shortest route loses to a longer uncontended one), which triggers
//! re-announcements and extra message volume. The benchmarks compare both
//! its rounds and its messages against Algorithm 1.

use dapsp_congest::{
    bits_for_count, bits_for_id, Config, Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port,
    Simulator,
};
use dapsp_graph::{DistanceMatrix, Graph, INFINITY};

use dapsp_core::CoreError;

use crate::BaselineResult;

#[derive(Clone, Debug)]
struct Update {
    id: u32,
    dist: u32,
    n: u32,
}

impl Message for Update {
    fn bit_size(&self) -> u32 {
        // Fixed-width fields sized by their domains: charging by the
        // *current* distance value would be a variable-width encoding
        // with no delimiter, under-counting the wire cost.
        bits_for_id(self.n as usize) + bits_for_count(self.n as usize)
    }
}

struct EagerNode {
    n: u32,
    dist: Vec<u32>,
    /// Per-port sets of ids whose current distance still has to be
    /// announced on that port.
    pending: Vec<std::collections::BTreeSet<u32>>,
}

impl EagerNode {
    fn enqueue_everywhere_except(&mut self, id: u32, except: Option<Port>) {
        for (p, set) in self.pending.iter_mut().enumerate() {
            if Some(p as Port) != except {
                set.insert(id);
            }
        }
    }
}

impl NodeAlgorithm for EagerNode {
    type Message = Update;
    type Output = Vec<u32>;

    fn on_start(&mut self, ctx: &NodeContext<'_>, _out: &mut Outbox<Update>) {
        let me = ctx.node_id();
        self.dist[me as usize] = 0;
        self.enqueue_everywhere_except(me, None);
    }

    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Update>, out: &mut Outbox<Update>) {
        for (port, msg) in inbox.iter() {
            let via = msg.dist + 1;
            if via < self.dist[msg.id as usize] {
                self.dist[msg.id as usize] = via;
                // Triggered update: re-announce the improvement everywhere
                // except where it came from.
                self.enqueue_everywhere_except(msg.id, Some(port));
            }
        }
        for port in 0..ctx.degree() as Port {
            if let Some(&id) = self.pending[port as usize].iter().next() {
                self.pending[port as usize].remove(&id);
                out.send(
                    port,
                    Update {
                        id,
                        dist: self.dist[id as usize],
                        n: self.n,
                    },
                );
            }
        }
    }

    fn is_active(&self) -> bool {
        self.pending.iter().any(|set| !set.is_empty())
    }

    fn into_output(self, _ctx: &NodeContext<'_>) -> Vec<u32> {
        self.dist
    }
}

/// Runs the event-driven distance-vector protocol to quiescence.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_baselines::distance_vector_eager;
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::grid(3, 3);
/// let r = distance_vector_eager(&g)?;
/// assert_eq!(r.distances, reference::apsp(&g));
/// # Ok(())
/// # }
/// ```
pub fn distance_vector_eager(graph: &Graph) -> Result<BaselineResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let report = Simulator::new(
        &graph.to_topology(),
        Config::for_n(n).with_max_rounds(64 * (n as u64) * (n as u64) + 1000),
        |ctx| EagerNode {
            n: n as u32,
            dist: vec![INFINITY; n],
            pending: vec![std::collections::BTreeSet::new(); ctx.degree()],
        },
    )
    .run()?;
    let mut distances = DistanceMatrix::new(n);
    for (v, row) in report.outputs.iter().enumerate() {
        if row.contains(&INFINITY) {
            return Err(CoreError::Disconnected);
        }
        distances.set_row(v as u32, row);
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
            generators::path(12),
            generators::cycle(10),
            generators::complete(7),
            generators::grid(4, 4),
            generators::erdos_renyi_connected(24, 0.12, 5),
            generators::barbell(5, 3),
        ] {
            let r = distance_vector_eager(&g).unwrap();
            assert_eq!(r.distances, reference::apsp(&g));
        }
    }

    #[test]
    fn roughly_linear_rounds_but_more_messages_than_apsp() {
        let g = generators::erdos_renyi_connected(40, 0.1, 7);
        let eager = distance_vector_eager(&g).unwrap();
        let apsp = dapsp_core::apsp::run_on_obs(&g.to_topology(), dapsp_core::Obs::none()).unwrap();
        // Same answers...
        assert_eq!(eager.distances, apsp.distances);
        // ...but re-announcements cost messages: eager sends at least as
        // many as the congestion-free schedule, usually more.
        assert!(eager.stats.messages + 200 >= apsp.stats.messages);
    }

    #[test]
    fn rejects_disconnected() {
        let g = dapsp_graph::Graph::builder(2).build();
        assert_eq!(
            distance_vector_eager(&g).unwrap_err(),
            CoreError::Disconnected
        );
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// An update is a fixed-width id plus a fixed-width distance over
    /// `0..=n` — within the budget, and independent of the current value.
    #[test]
    fn update_width_fits_the_budget() {
        for n in [2usize, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let far = Update {
                id: n as u32 - 1,
                dist: n as u32 - 1,
                n: n as u32,
            };
            assert!(far.bit_size() <= budget, "n={n}");
            let near = Update { dist: 0, ..far };
            assert_eq!(
                near.bit_size(),
                far.bit_size(),
                "width must be domain-fixed"
            );
        }
    }
}
