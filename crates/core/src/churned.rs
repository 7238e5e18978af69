//! Shared plumbing for churn-tolerant shortest-path runs: the
//! [`ChurnedResult`] all three `run_churned` entry points ([`bfs`](crate::bfs),
//! [`apsp`](crate::apsp), [`ssp`](crate::ssp)) return, the
//! [`RepairKernel`]-driving runner behind them, and the
//! [`churned_graph`] oracle helper conformance tests recompute reference
//! answers on (with [`graph_of`], its half that starts from a topology
//! already churned).
//!
//! A churned run hands the engine a
//! [`TopologyPlan`] next to the usual config; the engine applies each
//! event at its choke point, notifies affected nodes through
//! [`Protocol::on_topology`](crate::kernel::Protocol::on_topology), and the
//! repair kernel patches its distances in place (see the
//! [`kernel::repair`](crate::kernel::RepairKernel) docs for the policy).
//! When the run quiesces, every *present* node's distances equal a fresh
//! computation on the post-churn graph.

use dapsp_congest::{
    churned_topology, Config, Port, RunStats, TerminationCertificate, Topology, TopologyPlan,
};
use dapsp_graph::Graph;

use crate::error::CoreError;
use crate::kernel::{
    distance_rows, repair_threshold, run_protocol_on, Deal, RepairKernel, Rows, SourceSlots,
};
use crate::observe::Obs;

/// The result of a churn-tolerant shortest-path run: distances on the
/// *post-churn* graph, per node per requested root.
#[derive(Clone, Debug)]
pub struct ChurnedResult {
    /// The roots/sources distances were maintained for, in ascending id
    /// order.
    pub roots: Vec<u32>,
    /// `dist[v][i]` = hop distance from `v` to `roots[i]` on the final
    /// (post-churn) graph; [`INFINITY`](dapsp_graph::INFINITY) when
    /// unreachable. Rows of removed nodes are frozen at their last
    /// pre-removal state — check [`present`](Self::present).
    pub dist: Rows<u32>,
    /// `parent_port[v][i]` = `v`'s port toward its parent in the repaired
    /// tree of `roots[i]` (`u32::MAX` at the root and at unreached nodes).
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
    /// The run's id → column map (`roots[i]` ↦ `i`).
    slots: SourceSlots,
}

impl ChurnedResult {
    /// Distance from `v` to `root` on the post-churn graph; `None` if
    /// `root` was not in the maintained set or `v` is not a node.
    pub fn dist_to(&self, v: u32, root: u32) -> Option<u32> {
        let i = self.slots.get(root)?;
        self.dist.get(v as usize).map(|row| row[i])
    }
}

/// Which distances a churned run maintains.
pub(crate) enum RepairMode {
    /// One root (churned BFS).
    Single(u32),
    /// Every node (churned APSP).
    All,
    /// A source set (churned S-SP), its slots in ascending id order.
    Sources(SourceSlots),
}

/// Runs a [`RepairKernel`] under `plan`, each node writing its distance
/// and parent-port rows into the run's two matrices, which become the
/// [`ChurnedResult`]'s. The round limit is stretched past the plan's last
/// event by the `O(n)` a repair (or count-to-infinity retraction chain)
/// can take. An `obs` carrying a fault plan is rejected: the repair kernel
/// has no reliable transport.
pub(crate) fn run_repair(
    topology: &Topology,
    plan: &TopologyPlan,
    mode: RepairMode,
    obs: Obs<'_>,
    phase: &str,
) -> Result<ChurnedResult, CoreError> {
    obs.reject_faults(phase)?;
    let n = topology.num_nodes();
    let mut config = obs
        .apply(Config::for_n(n), phase)
        .with_topology(plan.clone());
    let horizon = plan.last_round().unwrap_or(0) + 4 * n as u64 + 16;
    config.max_rounds = config.max_rounds.max(horizon);
    let threshold = repair_threshold(n);
    let slots = match &mode {
        RepairMode::Single(root) => SourceSlots::new(n, &[*root])?,
        RepairMode::All => SourceSlots::new(n, &(0..n as u32).collect::<Vec<_>>())?,
        RepairMode::Sources(slots) => slots.clone(),
    };
    let (mut dist, mut parent_port) = distance_rows(n, slots.ids().len());
    let mut deal = Deal::new(&mut dist, &mut parent_port);
    let report = run_protocol_on(topology, config, |ctx| {
        let row = deal.row(ctx);
        match &mode {
            RepairMode::Single(root) => RepairKernel::single_root(ctx, *root, threshold, row),
            RepairMode::All => RepairKernel::all_roots(ctx, threshold, row),
            RepairMode::Sources(slots) => RepairKernel::sources(ctx, slots, threshold, row),
        }
    })?;
    let final_topo = churned_topology(topology, plan)?;
    let present = (0..n as u32).map(|v| final_topo.node_present(v)).collect();
    Ok(ChurnedResult {
        roots: slots.ids().to_vec(),
        dist,
        parent_port,
        present,
        stats: report.stats,
        certificate: report.certificate,
        slots,
    })
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
    use crate::{apsp, bfs, ssp};
    use dapsp_graph::{generators, reference, INFINITY};

    /// Repaired distances must equal a fresh reference BFS on the
    /// post-churn graph.
    fn assert_bfs_matches(g: &Graph, root: u32, plan: &TopologyPlan) {
        let r = bfs::run_churned(g, root, plan).unwrap();
        let oracle = reference::bfs(&churned_graph(g, plan).unwrap(), root);
        for (v, &want) in oracle.iter().enumerate() {
            if !r.present[v] {
                continue;
            }
            assert_eq!(
                r.dist[v][0], want,
                "node {v} after plan {plan:?}: got {}, oracle {want}",
                r.dist[v][0]
            );
        }
    }

    /// Repaired all-pairs distances must equal the oracle on the
    /// post-churn graph at every present node.
    fn assert_apsp_matches(g: &Graph, plan: &TopologyPlan) -> ChurnedResult {
        let r = apsp::run_churned(g, plan).unwrap();
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
    fn churned_bfs_repairs_a_removal() {
        let g = generators::cycle(8);
        assert_bfs_matches(&g, 0, &TopologyPlan::new().with_remove(2, 0, 1));
    }

    #[test]
    fn churned_bfs_uses_an_insertion() {
        let g = generators::path(8);
        let plan = TopologyPlan::new().with_insert(3, 0, 7);
        let r = bfs::run_churned(&g, 0, &plan).unwrap();
        assert_eq!(r.dist_to(7, 0), Some(1));
        assert_bfs_matches(&g, 0, &plan);
    }

    #[test]
    fn dist_to_answers_none_outside_the_table() {
        let g = generators::grid(3, 3);
        let plan = TopologyPlan::new().with_remove(3, 4, 5);
        let r = ssp::run_churned(&g, &[8, 0], &plan).unwrap();
        assert_eq!(r.roots, [0, 8], "columns in id order");
        assert_eq!((r.dist.width(), r.dist[4][1]), (2, 2));
        assert_eq!(r.dist_to(4, 8), Some(2));
        assert_eq!(r.dist_to(4, 5), None, "not a maintained root");
        assert_eq!(r.dist_to(9, 0), None, "v = n");
        assert_eq!(r.dist_to(u32::MAX, 8), None);
    }

    #[test]
    fn churned_bfs_retracts_when_disconnected() {
        // Removing the middle edge severs nodes 4..8 from the root; their
        // distances must retract to INFINITY (count-to-infinity clamp).
        let g = generators::path(8);
        let plan = TopologyPlan::new().with_remove(2, 3, 4);
        let r = bfs::run_churned(&g, 0, &plan).unwrap();
        for v in 4..8 {
            assert_eq!(r.dist[v][0], INFINITY, "node {v} must be unreachable");
        }
        assert_bfs_matches(&g, 0, &plan);
    }

    #[test]
    fn churned_bfs_handles_a_crash() {
        // Crashing node 2 of a cycle leaves a path; the survivors' repaired
        // distances match the oracle and the victim is flagged absent.
        let g = generators::cycle(6);
        let plan = TopologyPlan::new().with_crash(2, 2);
        let r = bfs::run_churned(&g, 0, &plan).unwrap();
        assert!(!r.present[2]);
        assert_bfs_matches(&g, 0, &plan);
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
        for root in [0, 3] {
            assert_bfs_matches(&g, root, &plan);
            let b = bfs::run_churned(&g, root, &plan).unwrap();
            assert_eq!((b.present[3], b.stats.dropped), (true, 0));
        }
        let s = ssp::run_churned(&g, &[0, 3], &plan).unwrap();
        let want: Vec<u32> = (0..4).flat_map(|v| [v, 3 - v]).collect();
        assert_eq!((s.dist.cells(), s.stats.dropped), (&want[..], 0));
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
    }

    #[test]
    fn churned_ssp_matches_oracle() {
        let g = generators::grid(3, 3);
        let sources = [0u32, 8];
        let plan = TopologyPlan::new().with_remove(3, 4, 5);
        let r = ssp::run_churned(&g, &sources, &plan).unwrap();
        let mutated = churned_graph(&g, &plan).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let oracle = reference::bfs(&mutated, s);
            for (v, &want) in oracle.iter().enumerate() {
                assert_eq!(r.dist[v][i], want, "d({v}, {s})");
            }
        }
        assert_eq!(r.roots, sources);
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
                let quiet = apsp::run_churned(&g, &TopologyPlan::new()).unwrap();
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
                let cold = apsp::run_churned(&mutated, &TopologyPlan::new()).unwrap();
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
