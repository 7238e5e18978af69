//! Serialized round-robin distance-vector (RIP-style), `Θ(n·D)` rounds.
//!
//! Every node keeps a full routing table. Without a bandwidth limit it
//! would broadcast the whole table each round and converge in `D` rounds;
//! under CONGEST the table must be serialized, so each round each edge
//! carries the table's *next* entry in cyclic order. An entry therefore
//! crosses a given edge once every (known-table-size) rounds, and distance
//! information advances one hop per cycle — `Θ(n·D)` rounds overall. This
//! is the behaviour §3.1 of the paper predicts for serialized
//! distance-vector protocols.

use dapsp_congest::{
    bits_for_count, bits_for_id, Config, Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port,
    Simulator,
};
use dapsp_graph::{DistanceMatrix, Graph, INFINITY};

use dapsp_core::CoreError;

use crate::BaselineResult;

#[derive(Clone, Debug)]
struct Entry {
    id: u32,
    dist: u32,
    n: u32,
}

impl Message for Entry {
    fn bit_size(&self) -> u32 {
        bits_for_id(self.n as usize) + bits_for_count(self.n as usize)
    }
}

struct DvNode {
    n: u32,
    dist: Vec<u32>,
    /// Ids with a known (finite) distance, in insertion order — the
    /// serialized "table" each cursor walks.
    known: Vec<u32>,
    cursor: Vec<usize>,
    budget: u64,
    rounds_done: u64,
    last_change: u64,
}

impl NodeAlgorithm for DvNode {
    type Message = Entry;
    type Output = (Vec<u32>, u64);

    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Entry>, out: &mut Outbox<Entry>) {
        self.rounds_done += 1;
        for (_port, msg) in inbox.iter() {
            let via = msg.dist + 1;
            if via < self.dist[msg.id as usize] {
                if self.dist[msg.id as usize] == INFINITY {
                    self.known.push(msg.id);
                }
                self.dist[msg.id as usize] = via;
                self.last_change = self.rounds_done;
            }
        }
        if self.rounds_done <= self.budget && !self.known.is_empty() {
            for port in 0..ctx.degree() as Port {
                let c = self.cursor[port as usize] % self.known.len();
                self.cursor[port as usize] = c + 1;
                let id = self.known[c];
                out.send(
                    port,
                    Entry {
                        id,
                        dist: self.dist[id as usize],
                        n: self.n,
                    },
                );
            }
        }
    }

    fn is_active(&self) -> bool {
        self.rounds_done <= self.budget
    }

    fn into_output(self, _ctx: &NodeContext<'_>) -> (Vec<u32>, u64) {
        (self.dist, self.last_change)
    }
}

/// Runs the round-robin distance-vector protocol for `budget` rounds and
/// reports both the final tables and the convergence round (the last round
/// any table changed). A budget of `n · (n + 2) + 2n` is always sufficient (the host does not know `D`, so `D` is bounded by `n`):
/// information advances at least one hop per table cycle of length `<= n`.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_baselines::distance_vector;
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(8);
/// let r = distance_vector(&g)?;
/// assert_eq!(r.distances, reference::apsp(&g));
/// # Ok(())
/// # }
/// ```
pub fn distance_vector(graph: &Graph) -> Result<BaselineResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    // The protocol has no termination detection; give it a budget that is
    // provably enough and measure the actual convergence round.
    let budget = (n as u64) * (n as u64 + 2) + 2 * n as u64;
    let report = Simulator::new(
        &graph.to_topology(),
        Config::for_n(n).with_max_rounds(budget + 10),
        |ctx| {
            let me = ctx.node_id();
            let mut dist = vec![INFINITY; n];
            dist[me as usize] = 0;
            DvNode {
                n: n as u32,
                dist,
                known: vec![me],
                cursor: vec![0; ctx.degree()],
                budget,
                rounds_done: 0,
                last_change: 0,
            }
        },
    )
    .run()?;
    let mut distances = DistanceMatrix::new(n);
    let mut converged = 0;
    for (v, (row, last_change)) in report.outputs.iter().enumerate() {
        if row.contains(&INFINITY) {
            return Err(CoreError::Disconnected);
        }
        distances.set_row(v as u32, row);
        converged = converged.max(*last_change);
    }
    Ok(BaselineResult {
        distances,
        rounds_to_converge: converged,
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
            generators::path(10),
            generators::cycle(9),
            generators::star(8),
            generators::grid(3, 4),
            generators::erdos_renyi_connected(20, 0.15, 2),
        ] {
            let r = distance_vector(&g).unwrap();
            assert_eq!(r.distances, reference::apsp(&g));
        }
    }

    #[test]
    fn convergence_scales_like_n_times_d_on_paths() {
        // On a path, the farthest id needs ~n rounds per hop cycle once the
        // table is full; convergence should grow clearly superlinearly.
        let r16 = distance_vector(&generators::path(16)).unwrap();
        let r32 = distance_vector(&generators::path(32)).unwrap();
        assert!(
            r32.rounds_to_converge >= 3 * r16.rounds_to_converge,
            "n=16: {}, n=32: {} — expected ~quadratic growth",
            r16.rounds_to_converge,
            r32.rounds_to_converge
        );
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = dapsp_graph::Graph::builder(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        assert_eq!(
            distance_vector(&b.build()).unwrap_err(),
            CoreError::Disconnected
        );
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// A table entry is a fixed-width id plus a fixed-width distance —
    /// within the budget for all n.
    #[test]
    fn entry_width_fits_the_budget() {
        for n in [2usize, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let entry = Entry {
                id: n as u32 - 1,
                dist: n as u32 - 1,
                n: n as u32,
            };
            assert!(entry.bit_size() <= budget, "n={n}");
        }
    }
}
