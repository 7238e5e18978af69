//! The churn track's data: the [`ChurnedResult`] that
//! [`apsp::run_churned_on`](crate::apsp::run_churned_on) — the one churned
//! run, the one `dapsp_serve::RouteService::apply` makes — returns, and
//! the [`churned_graph`] oracle helper conformance tests recompute
//! reference answers on (with [`graph_of`], its half that starts from a
//! topology already churned).
//!
//! A churned run hands the engine a
//! [`TopologyPlan`] next to the usual config; the engine applies each
//! event at its choke point, notifies affected nodes through
//! [`Protocol::on_topology`](crate::kernel::Protocol::on_topology), and the
//! repair kernel patches its distances in place (see the
//! [`kernel::repair`](crate::kernel::RepairKernel) docs for the policy).
//! When the run quiesces, every *present* node's distance row equals a
//! fresh BFS on the post-churn graph.

use dapsp_congest::{
    churned_topology, Port, RunStats, TerminationCertificate, Topology, TopologyPlan,
};
use dapsp_graph::Graph;

use crate::error::CoreError;
use crate::kernel::{Rows, SourceSlots};

/// The result of a churned APSP run: distances on the *post-churn* graph,
/// per node per root — every node is a root.
#[derive(Clone, Debug)]
pub struct ChurnedResult {
    /// `dist[v][r]` = hop distance from `v` to root `r` on the final
    /// (post-churn) graph; [`INFINITY`](dapsp_graph::INFINITY) when
    /// unreachable. Rows of removed nodes are frozen at their last
    /// pre-removal state — check [`present`](Self::present).
    pub dist: Rows<u32>,
    /// `parent_port[v][r]` = `v`'s port toward its parent in the repaired
    /// tree of root `r` (`u32::MAX` at the root and at unreached nodes).
    pub parent_port: Rows<Port>,
    /// Whether each node is still part of the final topology; removed
    /// nodes keep their last outputs but no guarantee covers them.
    pub present: Vec<bool>,
    /// Statistics of the run — `topo_events`, `repaired_node_rounds` and
    /// `recompute_fallbacks` tell how the adaptive policy played out.
    pub stats: RunStats,
    /// Why the repair run was allowed to stop: the engine's final
    /// quiescence poll, carried so snapshot layers (`dapsp-serve`) can
    /// attribute republished tables to a certified run.
    pub certificate: Option<TerminationCertificate>,
    /// The run's id → column map (root `r` ↦ column `r`).
    pub(crate) slots: SourceSlots,
}

impl ChurnedResult {
    /// Distance from `v` to `root` on the post-churn graph; `None` if
    /// either is not a node.
    pub fn dist_to(&self, v: u32, root: u32) -> Option<u32> {
        let i = self.slots.get(root)?;
        self.dist.get(v as usize).map(|row| row[i])
    }
}

/// The graph `graph` ends up as after every event of `plan` — the oracle
/// side of churn conformance: run the reference algorithms on this and
/// compare against a churned run's repaired outputs. Removed nodes stay in
/// the vertex set as isolated nodes (distances to them are
/// [`INFINITY`](dapsp_graph::INFINITY)).
///
/// # Errors
///
/// [`CoreError::Sim`] if the plan does not apply cleanly to the graph
/// (removing a missing edge, inserting a duplicate, …).
pub fn churned_graph(graph: &Graph, plan: &TopologyPlan) -> Result<Graph, CoreError> {
    Ok(graph_of(&churned_topology(&graph.to_topology(), plan)?))
}

/// The live graph of `topology` as a [`Graph`] on the same vertex set:
/// tombstoned ports contribute no edge and removed nodes stay as isolated
/// vertices — the inverse of [`Graph::to_topology`] for callers that
/// already hold the (churned) topology.
pub fn graph_of(topology: &Topology) -> Graph {
    let adj = topology.to_adjacency();
    let mut b = Graph::builder(adj.len());
    for (u, nbrs) in adj.iter().enumerate() {
        for &v in nbrs {
            if (u as u32) < v {
                b.add_edge(u as u32, v)
                    .expect("a topology's live edges are simple and in range");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apsp, Obs};
    use dapsp_graph::{generators, reference, INFINITY};

    fn run_churned(g: &Graph, plan: &TopologyPlan) -> Result<ChurnedResult, CoreError> {
        apsp::run_churned_on(&g.to_topology(), plan, Obs::none())
    }

    /// Repaired all-pairs distances must equal the oracle on the
    /// post-churn graph at every present node.
    fn assert_apsp_matches(g: &Graph, plan: &TopologyPlan) -> ChurnedResult {
        let r = run_churned(g, plan).unwrap();
        let oracle = reference::apsp(&churned_graph(g, plan).unwrap());
        let n = g.num_nodes() as u32;
        for v in (0..n).filter(|&v| r.present[v as usize]) {
            for root in 0..n {
                assert_eq!(
                    r.dist_to(v, root),
                    oracle.get(v, root).or(Some(INFINITY)),
                    "d({v}, {root}) after plan {plan:?}"
                );
            }
        }
        r
    }

    #[test]
    fn a_rejoined_node_is_repaired_back_into_every_table() {
        // Node 3 crashes, re-joins edgeless and gets its edge back: it must
        // thaw, and must not announce into the port it left with (a
        // tombstone — every send there is a `TopologyChange` drop).
        let g = generators::path(4);
        let plan = TopologyPlan::new()
            .with_crash(5, 3)
            .with_join(10, 3)
            .with_insert(12, 2, 3);
        assert_eq!(churned_graph(&g, &plan).unwrap(), g);
        let a = assert_apsp_matches(&g, &plan);
        assert_eq!(a.present, vec![true; 4]);
        assert_eq!((a.dist_to(0, 3), a.dist_to(3, 0)), (Some(3), Some(3)));
        assert_eq!(a.parent_port[3][0], 1, "via the new port");
        assert_eq!(a.stats.dropped, 0);
        // Crash and re-join in one batch: the node is told `joined` only.
        let plan = TopologyPlan::new()
            .with_crash(5, 3)
            .with_join(5, 3)
            .with_insert(7, 2, 3);
        let a = assert_apsp_matches(&g, &plan);
        assert_eq!((a.dist_to(0, 3), a.stats.dropped), (Some(3), 0));
    }

    #[test]
    fn churned_apsp_matches_oracle() {
        let g = generators::grid(3, 3);
        let plan = TopologyPlan::new()
            .with_remove(2, 0, 1)
            .with_insert(4, 0, 8);
        let r = assert_apsp_matches(&g, &plan);
        assert_eq!(r.stats.topo_events, 2);
        assert!(r.stats.repaired_node_rounds > 0);
        assert_eq!((r.dist.width(), r.dist[4][8]), (9, 2));
        assert_eq!(r.dist_to(4, 9), None, "root = n");
        assert_eq!(r.dist_to(9, 0), None, "v = n");
        assert_eq!(r.dist_to(u32::MAX, 8), None);
    }

    #[test]
    fn large_batches_trigger_the_adaptive_fallback() {
        // n = 9 → threshold max(4, 1) = 4; two removals in one round are 4
        // directed halves, so every notified node takes the full-recompute
        // branch and the counter records it.
        let g = generators::grid(3, 3);
        let plan = TopologyPlan::new()
            .with_remove(2, 0, 1)
            .with_remove(2, 4, 5);
        let r = assert_apsp_matches(&g, &plan);
        assert!(
            r.stats.recompute_fallbacks > 0,
            "batch of 4 halves must cross threshold 4"
        );
    }

    #[test]
    fn a_severed_path_retracts_every_cross_distance_through_the_clamp() {
        // High diameter: a path keeps ~n distance levels in play, and
        // cutting it makes every cross-cut distance count up to the clamp
        // level `n` before it retracts to INFINITY — mid-convergence and
        // after it, inside the `4n + 16` rounds the horizon allows.
        let n = 96;
        let g = generators::path(n);
        for round in [40, 200] {
            let plan = TopologyPlan::new().with_remove(round, 47, 48);
            let r = assert_apsp_matches(&g, &plan);
            assert_eq!(r.dist_to(0, 95), Some(INFINITY));
            assert_eq!(r.dist_to(48, 47), Some(INFINITY));
            assert!(
                r.stats.rounds <= round + 4 * n as u64 + 16,
                "cut at {round}: {} rounds",
                r.stats.rounds
            );
        }
    }

    #[test]
    fn an_insertion_that_halves_distances_requeues_half_the_slots() {
        // A chord across a cycle, and across a caterpillar's spine ends,
        // shortens about half of every node's slots at once: each moves to
        // a lower queue level while announcements for it are still queued.
        for (g, u, v) in [
            (generators::cycle(64), 0, 32),
            (generators::caterpillar(16, 2), 0, 15),
        ] {
            for round in [10, 120] {
                let plan = TopologyPlan::new().with_insert(round, u, v);
                let r = assert_apsp_matches(&g, &plan);
                assert_eq!(r.dist_to(u, v), Some(1));
                assert_eq!(r.stats.recompute_fallbacks, 0);
            }
        }
    }

    #[test]
    fn a_hub_repairs_like_the_oracle() {
        // Star + ring on 130 nodes: the hub's 129 ports cross both the
        // 64-port mark and two queue words per port, and share one level
        // index. A spoke goes at round 1 and returns (as port 129) at
        // round 40; the model cost is the one measured before the queues
        // were rebuilt around that index.
        let n = 130u32;
        let mut b = Graph::builder(n as usize);
        for v in 1..n {
            b.add_edge(0, v).unwrap();
            b.add_edge(v, v % (n - 1) + 1).unwrap();
        }
        let g = b.build();
        let plan = TopologyPlan::new()
            .with_remove(1, 0, 77)
            .with_insert(40, 0, 77);
        let r = assert_apsp_matches(&g, &plan);
        assert_eq!(r.parent_port[0][77], 129);
        let s = &r.stats;
        assert_eq!(
            (s.rounds, s.messages, s.bits, s.scheduled_node_rounds),
            (165, 49329, 789264, 16845)
        );
        assert_eq!(
            (s.repaired_node_rounds, s.recompute_fallbacks, s.dropped),
            (260, 0, 2)
        );
    }

    #[test]
    fn single_removals_stay_below_the_fallback() {
        // Mid-run on a grid, and two rounds after a small world converged.
        for (g, settled) in [
            (generators::grid(3, 3), false),
            (generators::watts_strogatz(48, 3, 0.02, 42), true),
        ] {
            let event_round = if settled {
                let quiet = run_churned(&g, &TopologyPlan::new()).unwrap();
                quiet.stats.rounds + 2
            } else {
                2
            };
            let plan = TopologyPlan::new().with_remove(event_round, 0, 1);
            let r = assert_apsp_matches(&g, &plan);
            assert_eq!(r.stats.recompute_fallbacks, 0, "2 halves < threshold");
            assert!(r.stats.repaired_node_rounds > 0);
            if settled {
                // Patching a converged table beats rebuilding it cold.
                let mutated = churned_graph(&g, &plan).unwrap();
                let cold = run_churned(&mutated, &TopologyPlan::new()).unwrap();
                assert!(
                    r.stats.rounds - event_round < cold.stats.rounds,
                    "repair took {} rounds, a cold build {}",
                    r.stats.rounds - event_round,
                    cold.stats.rounds
                );
            }
        }
    }

    #[test]
    fn churned_graph_applies_the_whole_plan() {
        let g = generators::path(4);
        let plan = TopologyPlan::new()
            .with_remove(1, 1, 2)
            .with_insert(2, 0, 3)
            .with_crash(3, 2);
        let mutated = churned_graph(&g, &plan).unwrap();
        assert_eq!(mutated.num_nodes(), 4);
        let d = reference::bfs(&mutated, 0);
        assert_eq!(d, vec![0, 1, INFINITY, 1]);
    }
}
