//! Distributed breadth-first search — the building block of everything else.
//!
//! One BFS from a root builds the paper's tree `T_v` (Definition 8) in
//! `O(ecc(v))` rounds: the wave expands one hop per round, every node adopts
//! the lowest-index port that delivered the wave first as its parent, and
//! reports back so parents learn their children. Nodes also count how often
//! the wave reached them; a count above one at any node witnesses a cycle,
//! which is exactly the paper's Claim 1 tree test.
//!
//! The state machine is the shared [`WaveKernel`] in single-root,
//! adoption-announcing configuration, writing into a one-column distance
//! and parent-port matrix; this module only validates input and folds the
//! matrices and the per-node [`WaveState`]s into a [`BfsResult`].

use dapsp_congest::Topology;
use dapsp_graph::INFINITY;

use crate::error::CoreError;
use crate::kernel::{distance_rows, fold_outputs, run_phase, Deal, Rows, WaveKernel, WaveState};
use crate::observe::Obs;
use crate::tree::TreeKnowledge;

/// The result of one distributed BFS.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// The root the search started from.
    pub root: u32,
    /// Hop distance from the root per node
    /// ([`INFINITY`] if unreached).
    pub dist: Vec<u32>,
    /// The tree structure (parents/children as node-local ports).
    pub tree: TreeKnowledge,
    /// True if some node received the wave more than once — by Claim 1 of
    /// the paper, this holds iff the graph is not a tree.
    pub cycle_detected: bool,
    /// Per-node wave receipt counts (the node-local Claim 1 evidence).
    pub receipts: Vec<u32>,
    /// Round/message statistics of the run.
    pub stats: dapsp_congest::RunStats,
}

impl BfsResult {
    /// True if the BFS reached every node.
    pub fn reached_all(&self) -> bool {
        self.dist.iter().all(|&d| d != INFINITY)
    }
}

/// Runs a distributed BFS from `root` over `topology`, as `obs` says,
/// and returns distances, the BFS tree `T_root`, and the Claim 1 cycle
/// flag. Takes `O(ecc(root))` rounds.
///
/// An attached observer sees the run as phase `"bfs"` (so a pipeline's
/// `T_1` shows up as its own phase); with a fault plan the run goes over
/// lossy links and returns the fault-free result.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] if the graph has no nodes.
/// * [`CoreError::InvalidNode`] if `root >= n`.
/// * [`CoreError::Sim`] on simulator-level failures; under faults, an
///   adversary no link can get a frame through (e.g. loss probability 1)
///   stalls the run into a round-limit error rather than returning
///   corrupted distances.
///
/// Note that a disconnected graph is *not* an error here: unreached nodes
/// simply keep infinite distance (check [`BfsResult::reached_all`]).
///
/// # Examples
///
/// ```
/// use dapsp_core::{bfs, Obs};
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(5);
/// let r = bfs::run_on_obs(&g.to_topology(), 0, Obs::none())?;
/// assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
/// assert!(!r.cycle_detected);
/// # Ok(())
/// # }
/// ```
pub fn run_on_obs(topology: &Topology, root: u32, obs: Obs<'_>) -> Result<BfsResult, CoreError> {
    let n = topology.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    if root as usize >= n {
        return Err(CoreError::InvalidNode {
            node: root,
            num_nodes: n,
        });
    }
    // Fault-free, the wave quiesces by ecc(root) + 3 ≤ n + 2 — the wave
    // front, one adopt round, one settle round.
    let (mut dist, mut parent) = distance_rows(n, 1);
    let mut deal = Deal::new(&mut dist, &mut parent);
    let report = run_phase(topology, obs, "bfs", n as u64 + 4, |ctx| {
        WaveKernel::single_root(ctx, root, deal.row(ctx))
    })?;
    Ok(fold_bfs(root, dist, &parent, report))
}

/// Folds the run's one-column matrices and per-node wave states into the
/// host-side [`BfsResult`]; the distance column becomes `dist` as it is.
fn fold_bfs(
    root: u32,
    dist: Rows<u32>,
    parent: &Rows<u32>,
    report: dapsp_congest::Report<WaveState>,
) -> BfsResult {
    let n = dist.len();
    let seed = BfsResult {
        root,
        dist: dist.into_cells(),
        tree: TreeKnowledge {
            root,
            parent_port: parent
                .cells()
                .iter()
                .map(|&p| (p != u32::MAX).then_some(p))
                .collect(),
            children_ports: Vec::with_capacity(n),
        },
        cycle_detected: false,
        receipts: Vec::with_capacity(n),
        stats: report.stats,
    };
    fold_outputs(report.outputs, seed, |acc, _, state| {
        acc.tree.children_ports.push(state.children_ports);
        acc.receipts.push(state.receipts);
        acc.cycle_detected |= state.receipts > 1;
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference, Graph};

    fn run(g: &Graph, root: u32) -> Result<BfsResult, CoreError> {
        run_on_obs(&g.to_topology(), root, Obs::none())
    }

    #[test]
    fn distances_match_oracle_on_zoo() {
        let zoo: Vec<Graph> = vec![
            generators::path(9),
            generators::cycle(8),
            generators::star(7),
            generators::grid(3, 4),
            generators::complete(6),
            generators::balanced_tree(2, 3),
            generators::erdos_renyi_connected(24, 0.15, 3),
        ];
        for g in &zoo {
            for root in [0u32, (g.num_nodes() / 2) as u32] {
                let r = run(g, root).unwrap();
                assert_eq!(r.dist, reference::bfs(g, root));
            }
        }
    }

    #[test]
    fn runs_in_eccentricity_plus_constant_rounds() {
        let g = generators::path(20);
        let r = run(&g, 0).unwrap();
        // Wave reaches depth 19 in 19 rounds; adopt takes one more; the
        // final quiescence check adds at most one.
        assert!(r.stats.rounds <= 19 + 3, "rounds={}", r.stats.rounds);
    }

    #[test]
    fn tree_structure_is_consistent() {
        let g = generators::grid(4, 4);
        let r = run(&g, 5).unwrap();
        let parents = r.tree.parent_ids(&g);
        // Exactly the root has no parent; every parent is one hop closer.
        for v in 0..16u32 {
            if v == 5 {
                assert_eq!(parents[v as usize], None);
            } else {
                let p = parents[v as usize].unwrap();
                assert_eq!(r.dist[p as usize] + 1, r.dist[v as usize]);
                assert!(g.has_edge(v, p));
            }
        }
        // Children lists mirror parents.
        let children = r.tree.children_ids(&g);
        for v in 0..16u32 {
            for &c in &children[v as usize] {
                assert_eq!(parents[c as usize], Some(v));
            }
        }
    }

    #[test]
    fn claim1_tree_check() {
        assert!(
            !run(&generators::balanced_tree(3, 3), 0)
                .unwrap()
                .cycle_detected
        );
        assert!(!run(&generators::path(6), 3).unwrap().cycle_detected);
        assert!(run(&generators::cycle(6), 0).unwrap().cycle_detected);
        assert!(run(&generators::complete(4), 0).unwrap().cycle_detected);
        assert!(run(&generators::lollipop(5, 6), 8).unwrap().cycle_detected);
    }

    #[test]
    fn disconnected_graph_leaves_infinities() {
        let mut b = Graph::builder(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        let r = run(&g, 0).unwrap();
        assert!(!r.reached_all());
        assert_eq!(r.dist[2], INFINITY);
    }

    #[test]
    fn invalid_root_is_rejected() {
        let g = generators::path(3);
        assert!(matches!(
            run(&g, 9).unwrap_err(),
            CoreError::InvalidNode { node: 9, .. }
        ));
    }

    /// The forwarding set in closed form: an adopting node re-sends to
    /// exactly the ports that did not deliver the wave, so `v` hears from
    /// every neighbour that is not farther than itself, and sends to every
    /// neighbour that is not one step closer (plus one `Adopt`). A node
    /// that forwards to a delivering port, or skips a non-delivering one,
    /// breaks one of the two counts.
    #[test]
    fn forwards_to_exactly_the_non_delivering_ports() {
        for g in [
            generators::barabasi_albert(64, 3, 7),
            generators::complete(7),
            generators::grid(5, 5),
        ] {
            let r = run(&g, 0).unwrap();
            let d = reference::bfs(&g, 0);
            let mut messages = g.degree(0);
            for v in 1..g.num_nodes() as u32 {
                // Neighbours are at distance d(v) − 1, d(v) or d(v) + 1.
                let dv = d[v as usize];
                let at_most = |bound: u32| {
                    let near = |&&u: &&u32| d[u as usize] <= bound;
                    g.neighbors(v).iter().filter(near).count()
                };
                assert_eq!(r.receipts[v as usize] as usize, at_most(dv), "node {v}");
                messages += g.degree(v) - at_most(dv - 1) + 1;
            }
            assert_eq!(r.receipts[0], 0, "nothing flows back to the root");
            assert_eq!(r.stats.messages, messages as u64);
        }
    }

    #[test]
    fn parent_is_lowest_port_among_first_arrivals() {
        // In a 4-cycle 0-1-2-3, node 2 hears the wave from both 1 and 3 in
        // the same round; it must adopt the lower port (neighbor 1).
        let g = generators::cycle(4);
        let r = run(&g, 0).unwrap();
        let parents = r.tree.parent_ids(&g);
        assert_eq!(parents[2], Some(1));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::kernel::ProtocolHost;
    use dapsp_congest::Config;
    use dapsp_graph::generators;

    /// The model assumes reliable links; under injected loss the BFS wave
    /// dies and the shortfall is *detectable* (unreached nodes), not
    /// silent.
    #[test]
    fn message_loss_is_detectable() {
        let g = generators::path(12);
        let topo = g.to_topology();
        let cfg = Config::for_n(12).with_loss(1.0, 3);
        let (mut dist, mut parent) = distance_rows(12, 1);
        let mut deal = Deal::new(&mut dist, &mut parent);
        let sim = dapsp_congest::Simulator::new(&topo, cfg, |ctx| {
            ProtocolHost::new(WaveKernel::single_root(ctx, 0, deal.row(ctx)))
        });
        let report = sim.run().unwrap();
        // The root knows itself; every downstream message was dropped.
        let reached = dist.cells().iter().filter(|&&d| d != INFINITY).count();
        assert_eq!(reached, 1);
        assert!(report.stats.dropped > 0);
    }

    /// Mild loss on a well-connected graph may still reach everyone via
    /// redundant paths — but distances can then be wrong; the receipts and
    /// stats expose that the run was lossy.
    #[test]
    fn lossy_runs_are_flagged_by_stats() {
        let g = generators::complete(10);
        let topo = g.to_topology();
        let cfg = Config::for_n(10).with_loss(0.3, 5);
        let (mut dist, mut parent) = distance_rows(10, 1);
        let mut deal = Deal::new(&mut dist, &mut parent);
        let sim = dapsp_congest::Simulator::new(&topo, cfg, |ctx| {
            ProtocolHost::new(WaveKernel::single_root(ctx, 0, deal.row(ctx)))
        });
        let report = sim.run().unwrap();
        assert!(report.stats.dropped > 0, "loss must be visible in stats");
    }
}
