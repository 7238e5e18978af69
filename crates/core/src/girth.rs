//! Exact girth in `O(n)` rounds (Lemma 7 and Claim 1 of the paper).
//!
//! Procedure, exactly as in the paper:
//!
//! 1. **Tree test (Claim 1), `O(D)` rounds:** run `BFS_1`; the graph is a
//!    tree iff no node receives the wave more than once. The per-node flags
//!    are OR-aggregated over `T_1`. If a tree, the girth is infinite
//!    (`None`).
//! 2. **Cycle detection during APSP, `O(n)` rounds:** while Algorithm 1's
//!    waves run (over the `T_1` of step 1, which is Algorithm 1's own
//!    phase A), a node `u` at depth `d_u` in `T_v` that hears `v`'s wave
//!    again from a non-parent neighbor `w` at depth `d_w` knows a cycle of
//!    length at most `d_u + d_w + 1` exists; from a root on a minimum cycle
//!    the bound is tight, so the minimum candidate over all nodes *is* the
//!    girth.
//! 3. **Min-aggregation, `O(D)` rounds:** the smallest candidate is folded
//!    up `T_1` and broadcast.

use dapsp_congest::RunStats;
use dapsp_graph::Graph;

use crate::aggregate::{self, AggOp};
use crate::apsp;
use crate::bfs;
use crate::error::CoreError;
use crate::observe::Obs;

/// The outcome of the distributed girth computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GirthResult {
    /// The girth, or `None` for a tree (the paper defines forest girth as
    /// infinity).
    pub girth: Option<u32>,
    /// Round/message statistics across all phases.
    pub stats: RunStats,
}

/// Computes the girth exactly in `O(n)` rounds (Lemma 7).
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on invalid
///   inputs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::girth;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// assert_eq!(girth::run(&generators::cycle(9))?.girth, Some(9));
/// assert_eq!(girth::run(&generators::balanced_tree(2, 3))?.girth, None);
/// # Ok(())
/// # }
/// ```
pub fn run(graph: &Graph) -> Result<GirthResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let topology = graph.to_topology();
    // Claim 1: BFS from node 0 doubles as the tree test.
    let t1 = bfs::run_on_obs(&topology, 0, Obs::none())?;
    if !t1.reached_all() {
        return Err(CoreError::Disconnected);
    }
    let mut stats = t1.stats;
    // OR-aggregate the per-node "received the wave twice" flags over T_1 so
    // every node learns whether the graph is a tree.
    let flags: Vec<u64> = t1.receipts.iter().map(|&r| u64::from(r > 1)).collect();
    let or = aggregate::run_on_obs(&topology, &t1.tree, &flags, AggOp::Or, Obs::none())?;
    stats.absorb_sequential(&or.stats);
    if or.value == 0 {
        return Ok(GirthResult { girth: None, stats });
    }
    // Not a tree: run Algorithm 1's waves over the T_1 just built and
    // min-aggregate the per-node cycle candidates. Sentinel for "no
    // candidate at this node" (`INFINITY`): anything above 2n + 1 works,
    // since every cycle candidate is at most 2D + 1 < 2n + 2.
    let apsp_result = apsp::waves(&topology, t1.tree, true, u32::MAX, Obs::none())?;
    stats.absorb_sequential(&apsp_result.stats);
    let sentinel = 2 * n as u64 + 2;
    let candidates: Vec<u64> = apsp_result
        .local_girth_candidates
        .iter()
        .map(|&c| u64::from(c).min(sentinel))
        .collect();
    let tree = &apsp_result.tree;
    let min = aggregate::run_on_obs(&topology, tree, &candidates, AggOp::Min, Obs::none())?;
    stats.absorb_sequential(&min.stats);
    debug_assert!(min.value < sentinel, "non-tree graph must have a cycle");
    Ok(GirthResult {
        girth: Some(min.value as u32),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    #[test]
    fn matches_oracle_on_zoo() {
        let zoo = vec![
            generators::cycle(3),
            generators::cycle(10),
            generators::complete(5),
            generators::grid(3, 4),
            generators::hypercube(3),
            generators::lollipop(6, 5),
            generators::tadpole(4, 15),
            generators::barbell(4, 3),
            generators::complete_bipartite(3, 3),
        ];
        for g in zoo {
            assert_eq!(run(&g).unwrap().girth, reference::girth(&g));
        }
    }

    #[test]
    fn trees_report_infinite_girth_quickly() {
        for g in [
            generators::path(20),
            generators::star(15),
            generators::balanced_tree(3, 3),
            generators::random_tree(25, 7),
        ] {
            let r = run(&g).unwrap();
            assert_eq!(r.girth, None);
            // Tree test is O(D), far below the O(n) full computation.
            let n = g.num_nodes() as u64;
            assert!(r.stats.rounds <= 4 * n, "rounds={}", r.stats.rounds);
        }
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::erdos_renyi_connected(24, 0.1, seed);
            assert_eq!(run(&g).unwrap().girth, reference::girth(&g), "seed={seed}");
        }
    }

    #[test]
    fn single_node_is_a_tree() {
        let g = Graph::builder(1).build();
        assert_eq!(run(&g).unwrap().girth, None);
    }

    use dapsp_graph::Graph;
}
