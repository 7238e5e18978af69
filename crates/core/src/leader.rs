//! Minimum-id leader election by flooding — the primitive behind the
//! paper's "we assume there is a node with ID 1" (§2).
//!
//! The paper notes that finding the node with the smallest id and renaming
//! it to 1 "would not affect the asymptotic runtime". This module makes
//! that concrete: every node floods the smallest id it has seen; after
//! `O(D)` rounds all nodes agree on the global minimum and exactly one
//! node knows it is the leader. All other algorithms in this crate root
//! their trees at node 0 — precisely the node this election would select
//! under the crate's id scheme.

use dapsp_congest::{NodeContext, Port, RunStats, Topology, Width};

use crate::error::CoreError;
use crate::kernel::{run_phase, Protocol, Tx};
use crate::observe::Obs;

/// A flooded claim: the smallest id the sender has seen.
#[derive(Clone, Debug)]
struct Claim {
    id: u32,
}

/// One node of the flood: it re-floods every improvement of its best id.
struct ElectNode {
    n: usize,
    best: u32,
    /// The port of this round's last improvement, if any.
    improved_from: Option<Port>,
}

impl Protocol for ElectNode {
    type Payload = Claim;
    type Output = u32;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Claim>) {
        tx.send_to_all(ctx.degree(), Claim { id: self.best });
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        port: Port,
        claim: Claim,
        _tx: &mut Tx<Claim>,
    ) {
        if claim.id < self.best {
            self.best = claim.id;
            self.improved_from = Some(port);
        }
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Claim>) {
        if let Some(from) = self.improved_from.take() {
            for p in (0..ctx.degree() as Port).filter(|&p| p != from) {
                tx.send(p, Claim { id: self.best });
            }
        }
    }

    fn width(&self, _claim: &Claim) -> Width {
        Width::ZERO.id(self.n)
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> u32 {
        self.best
    }
}

/// The outcome of a leader election.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeaderResult {
    /// The elected leader (the globally smallest id).
    pub leader: u32,
    /// Round/message statistics (`O(D)` rounds, `O(D·m)` messages
    /// worst-case).
    pub stats: RunStats,
}

/// Elects the minimum-id node of `topology` by flooding, in `O(D)` rounds,
/// watched, faulted and executed as `obs` says.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] on an empty graph.
/// * [`CoreError::Disconnected`] if nodes disagree at quiescence (which on
///   a valid topology only happens when the graph is disconnected).
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::{leader, Obs};
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::cycle(9);
/// let r = leader::run_on_obs(&g.to_topology(), Obs::none())?;
/// assert_eq!(r.leader, 0);
/// # Ok(())
/// # }
/// ```
pub fn run_on_obs(topology: &Topology, obs: Obs<'_>) -> Result<LeaderResult, CoreError> {
    let n = topology.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    // The minimum id crosses at most n − 1 hops; padded for the reliable
    // horizon.
    let report = run_phase(topology, obs, "leader", n as u64 + 4, |ctx| ElectNode {
        n,
        best: ctx.node_id(),
        improved_from: None,
    })?;
    let leader = report.outputs[0];
    if report.outputs.iter().any(|&b| b != leader) {
        return Err(CoreError::Disconnected);
    }
    Ok(LeaderResult {
        leader,
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, Graph};

    fn elect(g: &Graph) -> Result<LeaderResult, CoreError> {
        run_on_obs(&g.to_topology(), Obs::none())
    }

    #[test]
    fn elects_minimum_id_everywhere() {
        for g in [
            generators::path(12),
            generators::cycle(10),
            generators::star(9),
            generators::grid(4, 4),
            generators::erdos_renyi_connected(25, 0.15, 6),
        ] {
            assert_eq!(elect(&g).unwrap().leader, 0);
        }
    }

    #[test]
    fn rounds_are_linear_in_diameter() {
        let g = generators::path(50);
        let r = elect(&g).unwrap();
        // Id 0 sits at one end; its claim needs 49 hops, plus quiescence.
        assert!(r.stats.rounds <= 49 + 3, "rounds={}", r.stats.rounds);
        let g = generators::star(50);
        let r = elect(&g).unwrap();
        assert!(r.stats.rounds <= 4, "rounds={}", r.stats.rounds);
    }

    #[test]
    fn detects_disconnection() {
        let mut b = dapsp_graph::Graph::builder(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        assert_eq!(elect(&b.build()).unwrap_err(), CoreError::Disconnected);
    }

    #[test]
    fn single_node_is_its_own_leader() {
        let g = dapsp_graph::Graph::builder(1).build();
        assert_eq!(elect(&g).unwrap().leader, 0);
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// A claim is one fixed-width node id — always within the bandwidth.
    #[test]
    fn claim_width_fits_the_budget() {
        for n in [2usize, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let node = ElectNode {
                n,
                best: 0,
                improved_from: None,
            };
            let claim = Claim { id: n as u32 - 1 };
            assert!(node.width(&claim).bits() <= budget, "n={n}");
        }
    }
}
