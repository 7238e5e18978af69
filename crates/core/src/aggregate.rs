//! Convergecast + broadcast aggregation over a rooted spanning tree.
//!
//! The paper repeatedly "aggregates the maximum/minimum using `T_1` in
//! additional time `O(D)`" (Lemmas 3–7). This module implements that
//! primitive distributedly: values flow up the tree (each node combines its
//! children's partial results with its own), the root learns the total, and
//! the total flows back down so *every* node knows it, as Definition 6
//! requires.

use dapsp_congest::{RunStats, Topology};

use crate::error::CoreError;
use crate::kernel::{run_phase, ConvergecastKernel};
use crate::observe::Obs;
use crate::tree::TreeKnowledge;

/// The associative, commutative operations supported by the aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Maximum of all values.
    Max,
    /// Minimum of all values.
    Min,
    /// Sum of all values (caller must ensure the total fits the bandwidth —
    /// counts up to `n` always do).
    Sum,
    /// Logical OR of 0/1 values.
    Or,
}

impl AggOp {
    /// The phase label this aggregation reports to observers
    /// (`"agg:max"`, `"agg:min"`, `"agg:sum"`, `"agg:or"`).
    pub fn phase_label(self) -> &'static str {
        match self {
            AggOp::Max => "agg:max",
            AggOp::Min => "agg:min",
            AggOp::Sum => "agg:sum",
            AggOp::Or => "agg:or",
        }
    }

    /// Combines two partial values.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Max => a.max(b),
            AggOp::Min => a.min(b),
            AggOp::Sum => a + b,
            AggOp::Or => a | b,
        }
    }
}

/// The outcome of a tree aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateResult {
    /// The combined value, known to every node at the end.
    pub value: u64,
    /// Round/message statistics (about `2 · depth(T)` rounds).
    pub stats: RunStats,
}

/// Aggregates `values[v]` over all nodes of `topology` with `op`, using
/// the rooted tree `tree`, run as `obs` says; every node learns the
/// result (convergecast + broadcast, `O(depth)` rounds). An attached
/// observer sees the run under the phase label [`AggOp::phase_label`];
/// with a fault plan it goes over lossy links and returns the exact
/// aggregate.
///
/// Values must be small enough that any partial combination fits the
/// `B`-bit bandwidth; all uses in this crate send counts/distances
/// `≤ O(n)`.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] on an empty graph.
/// * [`CoreError::InvalidParameter`] if `values.len() != n` or the tree is
///   not a rooted spanning tree of this graph (its ports out of range or
///   not reciprocal — e.g. a tree taken from another graph).
/// * [`CoreError::Sim`] on simulator failures (e.g. a value too large for
///   the bandwidth, or an unbeatable fault adversary).
///
/// # Examples
///
/// ```
/// use dapsp_core::{aggregate, bfs, Obs};
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(5);
/// let topology = g.to_topology();
/// let t1 = bfs::run_on_obs(&topology, 0, Obs::none())?;
/// let degrees: Vec<u64> = (0..5).map(|v| g.degree(v) as u64).collect();
/// let sum = aggregate::AggOp::Sum;
/// let total = aggregate::run_on_obs(&topology, &t1.tree, &degrees, sum, Obs::none())?;
/// assert_eq!(total.value, 8); // 2m
/// # Ok(())
/// # }
/// ```
pub fn run_on_obs(
    topology: &Topology,
    tree: &TreeKnowledge,
    values: &[u64],
    op: AggOp,
    obs: Obs<'_>,
) -> Result<AggregateResult, CoreError> {
    let n = topology.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    if values.len() != n {
        return Err(CoreError::InvalidParameter(format!(
            "got {} values for {} nodes",
            values.len(),
            n
        )));
    }
    tree.check_spans(topology)?;
    // Convergecast up plus broadcast down is 2·depth(T) + O(1) rounds
    // fault-free; depth ≤ n − 1.
    let report = run_phase(topology, obs, op.phase_label(), 2 * n as u64 + 4, |ctx| {
        ConvergecastKernel::new(ctx, tree, values[ctx.node_id() as usize], op)
    })?;
    let value = report.outputs[tree.root as usize];
    debug_assert!(
        report.outputs.iter().all(|&r| r == value),
        "all nodes must agree on the aggregate"
    );
    Ok(AggregateResult {
        value,
        stats: report.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use dapsp_graph::{generators, Graph};

    fn setup(g: &Graph) -> TreeKnowledge {
        bfs::run_on_obs(&g.to_topology(), 0, Obs::none())
            .unwrap()
            .tree
    }

    fn run(
        g: &Graph,
        tree: &TreeKnowledge,
        values: &[u64],
        op: AggOp,
    ) -> Result<AggregateResult, CoreError> {
        run_on_obs(&g.to_topology(), tree, values, op, Obs::none())
    }

    #[test]
    fn all_ops_on_a_path() {
        let g = generators::path(6);
        let t = setup(&g);
        let values: Vec<u64> = vec![3, 1, 4, 1, 5, 9];
        assert_eq!(run(&g, &t, &values, AggOp::Max).unwrap().value, 9);
        assert_eq!(run(&g, &t, &values, AggOp::Min).unwrap().value, 1);
        assert_eq!(run(&g, &t, &values, AggOp::Sum).unwrap().value, 23);
        let bits: Vec<u64> = vec![0, 0, 1, 0, 0, 0];
        assert_eq!(run(&g, &t, &bits, AggOp::Or).unwrap().value, 1);
        assert_eq!(run(&g, &t, &[0; 6], AggOp::Or).unwrap().value, 0);
    }

    #[test]
    fn rounds_are_linear_in_depth() {
        let g = generators::path(30); // depth 29 from node 0
        let t = setup(&g);
        let r = run(&g, &t, &vec![1; 30], AggOp::Sum).unwrap();
        assert_eq!(r.value, 30);
        assert!(r.stats.rounds <= 2 * 29 + 4, "rounds={}", r.stats.rounds);
    }

    #[test]
    fn works_on_bushy_trees_and_cliques() {
        let g = generators::complete(8);
        let t = setup(&g);
        let r = run(&g, &t, &(0..8u64).collect::<Vec<_>>(), AggOp::Max).unwrap();
        assert_eq!(r.value, 7);
        assert!(r.stats.rounds <= 6);
        let g = generators::balanced_tree(3, 3);
        let t = setup(&g);
        let n = g.num_nodes();
        let r = run(&g, &t, &vec![1; n], AggOp::Sum).unwrap();
        assert_eq!(r.value, n as u64);
    }

    #[test]
    fn single_node_aggregation() {
        let g = Graph::builder(1).build();
        let t = setup(&g);
        let r = run(&g, &t, &[42], AggOp::Max).unwrap();
        assert_eq!(r.value, 42);
        assert_eq!(r.stats.rounds, 0);
    }

    #[test]
    fn rejects_wrong_value_count_and_nonspanning_tree() {
        let g = generators::path(4);
        let t = setup(&g);
        assert!(matches!(
            run(&g, &t, &[1, 2], AggOp::Max).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
        let mut broken = t.clone();
        broken.parent_port[3] = None;
        assert!(matches!(
            run(&g, &broken, &[1, 2, 3, 4], AggOp::Max).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }

    #[test]
    fn rejects_a_tree_from_another_graph() {
        // The star's T_1 spans four nodes too, but its root's child ports
        // 1 and 2 do not exist at the path's endpoint 0.
        let path = generators::path(4);
        let star_tree = setup(&generators::star(4));
        assert!(matches!(
            run(&path, &star_tree, &[1, 2, 3, 4], AggOp::Max).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
        // In-range ports that are not reciprocal fail too: 1 lists 2 as
        // its child, but 2's parent port now leads to 3.
        let mut skewed = setup(&path);
        let other = skewed.parent_port[2].map(|p| 1 - p);
        skewed.parent_port[2] = other;
        assert!(matches!(
            run(&path, &skewed, &[1, 2, 3, 4], AggOp::Max).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
        assert_eq!(
            run(&path, &setup(&path), &[1, 2, 3, 4], AggOp::Max)
                .unwrap()
                .value,
            4
        );
    }
}
