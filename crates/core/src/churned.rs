//! The churn track's data: the [`ChurnedResult`] that
//! [`apsp::run_churned_on`](crate::apsp::run_churned_on) — the one churned
//! run, the one `dapsp_serve::RouteService::apply` makes — returns, and
//! the [`churned_graph`] oracle helper conformance tests recompute
//! reference answers on (with [`graph_of`], its half that starts from a
//! topology already churned).
//!
//! Churn happens between runs, never inside one: a [`TopologyPlan`] is an
//! edit batch that [`churned_topology`] applies on the host, and the run
//! then sees one fixed network — the post-change one.
//! Every *present* node's distance row equals a fresh BFS on that graph.

use dapsp_congest::{
    churned_topology, Port, RunStats, TerminationCertificate, Topology, TopologyPlan,
};
use dapsp_graph::Graph;

use crate::error::CoreError;
use crate::kernel::Rows;

/// The result of a churned APSP run: distances on the post-change graph,
/// per node per root — every node is a root.
#[derive(Clone, Debug)]
pub struct ChurnedResult {
    /// `dist[v][r]` = hop distance from `v` to root `r` on the
    /// post-change graph; [`INFINITY`](dapsp_graph::INFINITY) when
    /// unreachable. A removed node ran as an isolated vertex — check
    /// [`present`](Self::present).
    pub dist: Rows<u32>,
    /// `parent_port[v][r]` = `v`'s port, in the post-change topology,
    /// toward its parent in the tree of root `r` (`u32::MAX` at the root
    /// and at unreached nodes).
    pub parent_port: Rows<Port>,
    /// Whether each node is part of the post-change topology; no
    /// guarantee covers the rows of the others.
    pub present: Vec<bool>,
    /// Statistics of the run; `topo_events` counts the plan's events.
    pub stats: RunStats,
    /// Why the run was allowed to stop: the engine's final
    /// quiescence poll, carried so snapshot layers (`dapsp-serve`) can
    /// attribute republished tables to a certified run.
    pub certificate: Option<TerminationCertificate>,
}

impl ChurnedResult {
    /// Distance from `v` to `root` on the post-change graph; `None` if
    /// either is not a node.
    pub fn dist_to(&self, v: u32, root: u32) -> Option<u32> {
        // Root `r` owns column `r`.
        let row = self.dist.get(v as usize)?;
        row.get(root as usize).copied()
    }
}

/// The graph `graph` ends up as after every event of `plan` — the oracle
/// side of churn conformance: run the reference algorithms on this and
/// compare against a churned run's outputs. Removed nodes stay in
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

/// The graph of `topology` as a [`Graph`] on the same vertex set, removed
/// nodes as isolated vertices — the inverse of [`Graph::to_topology`] for
/// callers that already hold the (churned) topology.
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

    /// All-pairs distances must equal the oracle on the post-change graph
    /// at every present node.
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
    fn a_rejoined_node_is_served_as_if_it_never_left() {
        // Node 3 crashes, re-joins edgeless and gets its edge back: the
        // run sees the original path, ports included.
        let g = generators::path(4);
        let quiet = run_churned(&g, &TopologyPlan::new()).unwrap();
        for join in [5, 10] {
            let plan = TopologyPlan::new()
                .with_crash(5, 3)
                .with_join(join, 3)
                .with_insert(12, 2, 3);
            assert_eq!(churned_graph(&g, &plan).unwrap(), g);
            let a = assert_apsp_matches(&g, &plan);
            assert_eq!(a.present, vec![true; 4]);
            assert_eq!(
                (a.dist, a.parent_port),
                (quiet.dist.clone(), quiet.parent_port.clone())
            );
            assert_eq!(a.stats.topo_events, 3);
        }
    }

    #[test]
    fn churned_apsp_matches_oracle() {
        let g = generators::grid(3, 3);
        let plan = TopologyPlan::new()
            .with_remove(2, 0, 1)
            .with_insert(4, 0, 8);
        let r = assert_apsp_matches(&g, &plan);
        assert_eq!(r.stats.topo_events, 2);
        assert_eq!((r.dist.width(), r.dist[4][8]), (9, 2));
        assert_eq!(r.dist_to(4, 9), None, "root = n");
        assert_eq!(r.dist_to(9, 0), None, "v = n");
        assert_eq!(r.dist_to(u32::MAX, 8), None);
    }

    #[test]
    fn a_severed_path_reads_infinity_across_the_cut() {
        let n = 96;
        let g = generators::path(n);
        let plan = TopologyPlan::new().with_remove(40, 47, 48);
        let r = assert_apsp_matches(&g, &plan);
        assert_eq!(r.dist_to(0, 95), Some(INFINITY));
        assert_eq!(r.dist_to(48, 47), Some(INFINITY));
        assert!(r.stats.rounds <= n as u64, "{} rounds", r.stats.rounds);
    }

    #[test]
    fn chords_across_a_cycle_and_a_caterpillar_match_the_oracle() {
        for (g, u, v) in [
            (generators::cycle(64), 0, 32),
            (generators::caterpillar(16, 2), 0, 15),
        ] {
            let plan = TopologyPlan::new().with_insert(10, u, v);
            let r = assert_apsp_matches(&g, &plan);
            assert_eq!(r.dist_to(u, v), Some(1));
        }
    }

    #[test]
    fn a_hub_matches_the_oracle() {
        // Star + ring on 130 nodes: the hub's 129 ports cross both the
        // 64-port mark and two queue words per port, and share one level
        // index. A spoke goes and returns in one plan, so the run sees the
        // original graph: the spoke keeps its sorted port, and the model
        // cost is the static distance vector's.
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
        assert_eq!(r.parent_port[0][77], 76);
        let s = &r.stats;
        assert_eq!(
            (s.rounds, s.messages, s.bits, s.scheduled_node_rounds),
            (129, 49455, 791280, 16772)
        );
        assert_eq!((s.topo_events, s.dropped), (2, 0));
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
