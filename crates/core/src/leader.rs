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

use dapsp_congest::{
    bits_for_id, Config, Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port, RunStats,
};
use dapsp_graph::Graph;

use crate::error::CoreError;
use crate::runner::run_algorithm_on;

#[derive(Clone, Debug)]
struct Claim {
    id: u32,
    n: u32,
}

impl Message for Claim {
    fn bit_size(&self) -> u32 {
        bits_for_id(self.n as usize)
    }
}

struct ElectNode {
    n: u32,
    best: u32,
}

impl NodeAlgorithm for ElectNode {
    type Message = Claim;
    type Output = u32;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Claim>) {
        self.best = ctx.node_id();
        out.send_to_all(
            0..ctx.degree() as Port,
            Claim {
                id: self.best,
                n: self.n,
            },
        );
    }

    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Claim>, out: &mut Outbox<Claim>) {
        let mut improved_from: Option<Port> = None;
        for (port, msg) in inbox.iter() {
            if msg.id < self.best {
                self.best = msg.id;
                improved_from = Some(port);
            }
        }
        if let Some(from) = improved_from {
            for p in 0..ctx.degree() as Port {
                if p != from {
                    out.send(
                        p,
                        Claim {
                            id: self.best,
                            n: self.n,
                        },
                    );
                }
            }
        }
    }

    fn into_output(self, _ctx: &NodeContext<'_>) -> u32 {
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

/// Elects the minimum-id node by flooding, in `O(D)` rounds.
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
/// use dapsp_core::leader;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::cycle(9);
/// let r = leader::elect(&g)?;
/// assert_eq!(r.leader, 0);
/// # Ok(())
/// # }
/// ```
pub fn elect(graph: &Graph) -> Result<LeaderResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let report = run_algorithm_on(&graph.to_topology(), Config::for_n(n), |ctx| ElectNode {
        n: n as u32,
        best: ctx.node_id(),
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
    use dapsp_graph::generators;

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

    /// A claim is one fixed-width node id — always within the budget.
    #[test]
    fn claim_width_fits_the_budget() {
        for n in [2usize, 100, 1 << 16] {
            let budget = Config::for_n(n).message_budget.unwrap();
            let claim = Claim {
                id: n as u32 - 1,
                n: n as u32,
            };
            assert!(claim.bit_size() <= budget, "n={n}");
        }
    }
}
