//! Exact graph metrics from APSP (Lemmas 2–6 of the paper), all `O(n)`
//! rounds: eccentricities, diameter, radius, center, peripheral vertices.
//!
//! Two entry points, both costed end to end in CONGEST rounds:
//! [`from_apsp`] derives the whole [`MetricsBundle`] from one finished
//! [`apsp::run_on_obs`] with the paper's `O(D)` aggregations over `T_1`, and
//! [`diameter`] is the exact baseline the approximations are measured
//! against — Algorithm 1 plus one max-aggregation. The girth (Lemma 7)
//! needs no extra call: it is the run's
//! [`girth_candidate`](ApspResult::girth_candidate).

use dapsp_congest::RunStats;
use dapsp_graph::Graph;

use crate::aggregate::{self, AggOp};
use crate::apsp::{self, ApspResult};
use crate::error::CoreError;
use crate::observe::Obs;
use crate::tree::TreeKnowledge;

/// A single graph-wide value (diameter or radius) known to every node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScalarResult {
    /// The computed value.
    pub value: u32,
    /// Round/message statistics.
    pub stats: RunStats,
}

/// What each metric needs from a finished APSP run: the local
/// eccentricities (free local computation, Lemma 2). A row with an
/// infinite entry — which no `apsp` entry point returns, but a result
/// built by hand may hold — has no eccentricity.
fn local_eccentricities(apsp: &ApspResult) -> Result<Vec<u32>, CoreError> {
    let n = apsp.distances.num_nodes();
    (0..n as u32)
        .map(|v| {
            apsp.distances.eccentricity(v).ok_or_else(|| {
                CoreError::InvalidParameter(format!("APSP row {v} has an infinite distance"))
            })
        })
        .collect()
}

/// The five metrics of Lemmas 2–6, each known to every node: exact from
/// [`from_apsp`], Corollary 4's estimates from
/// [`approx::from_estimates`](crate::approx::from_estimates).
#[derive(Clone, Debug)]
pub struct MetricsBundle {
    /// Per-node eccentricities.
    pub eccentricities: Vec<u32>,
    /// The diameter.
    pub diameter: u32,
    /// The radius.
    pub radius: u32,
    /// Center membership per node.
    pub center: Vec<bool>,
    /// Peripheral-vertex membership per node.
    pub peripheral: Vec<bool>,
    /// Statistics including the run that fed it and both aggregations.
    pub stats: RunStats,
}

/// Computes the full metric bundle from an existing APSP run on `graph`:
/// the eccentricities are local (Lemma 2), the diameter and radius one
/// max- and one min-aggregation over the run's `T_1` (Lemmas 3–4), and
/// the center and periphery a local comparison against them (Lemmas 5–6).
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when `apsp` is not a run on `graph`
/// (its `T_1` is not a spanning tree of `graph`) or has an infinite
/// distance; otherwise propagates aggregation failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::{apsp, metrics, Obs};
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(5);
/// let bundle = metrics::from_apsp(&g, &apsp::run_on_obs(&g.to_topology(), Obs::none())?)?;
/// assert_eq!(bundle.eccentricities, vec![4, 3, 2, 3, 4]);
/// assert_eq!((bundle.diameter, bundle.radius), (4, 2));
/// assert_eq!(bundle.center, vec![false, false, true, false, false]);
/// # Ok(())
/// # }
/// ```
pub fn from_apsp(graph: &Graph, apsp: &ApspResult) -> Result<MetricsBundle, CoreError> {
    let ecc = local_eccentricities(apsp)?;
    bundle(graph, &apsp.tree, ecc, 0, apsp.stats)
}

/// The bundle from per-node eccentricity values `ecc` that are exact up to
/// `slack`: one max- and one min-aggregation over `tree` give the diameter
/// and radius, and a node is in the center iff `ecc ≤ radius + slack`, in
/// the periphery iff `ecc ≥ diameter − slack`. `stats` is the cost of
/// whatever produced `ecc`; both aggregations are charged on top.
pub(crate) fn bundle(
    graph: &Graph,
    tree: &TreeKnowledge,
    ecc: Vec<u32>,
    slack: u32,
    mut stats: RunStats,
) -> Result<MetricsBundle, CoreError> {
    let topology = graph.to_topology();
    let values: Vec<u64> = ecc.iter().map(|&e| u64::from(e)).collect();
    let max = aggregate::run_on_obs(&topology, tree, &values, AggOp::Max, Obs::none())?;
    let min = aggregate::run_on_obs(&topology, tree, &values, AggOp::Min, Obs::none())?;
    let diameter = max.value as u32;
    let radius = min.value as u32;
    let center = ecc.iter().map(|&e| e <= radius + slack).collect();
    let peripheral = ecc
        .iter()
        .map(|&e| e >= diameter.saturating_sub(slack))
        .collect();
    stats.absorb_sequential(&max.stats);
    stats.absorb_sequential(&min.stats);
    Ok(MetricsBundle {
        eccentricities: ecc,
        diameter,
        radius,
        center,
        peripheral,
        stats,
    })
}

/// Computes the diameter in `O(n)` rounds (Lemma 3): APSP + max-aggregation
/// over `T_1`.
///
/// # Errors
///
/// Propagates [`apsp::run_on_obs`] and aggregation errors.
///
/// # Examples
///
/// ```
/// use dapsp_core::metrics;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// assert_eq!(metrics::diameter(&generators::cycle(12))?.value, 6);
/// # Ok(())
/// # }
/// ```
pub fn diameter(graph: &Graph) -> Result<ScalarResult, CoreError> {
    let topology = graph.to_topology();
    let result = apsp::run_on_obs(&topology, Obs::none())?;
    let ecc = local_eccentricities(&result)?;
    let values: Vec<u64> = ecc.iter().map(|&e| u64::from(e)).collect();
    let agg = aggregate::run_on_obs(&topology, &result.tree, &values, AggOp::Max, Obs::none())?;
    let mut stats = result.stats;
    stats.absorb_sequential(&agg.stats);
    Ok(ScalarResult {
        value: agg.value as u32,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    fn run(g: &Graph) -> ApspResult {
        apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap()
    }

    fn zoo() -> Vec<Graph> {
        vec![
            generators::path(10),
            generators::cycle(9),
            generators::star(8),
            generators::complete(6),
            generators::grid(3, 4),
            generators::balanced_tree(2, 3),
            generators::lollipop(5, 6),
            generators::erdos_renyi_connected(22, 0.15, 5),
            generators::double_broom(18, 6),
        ]
    }

    #[test]
    fn bundle_matches_the_oracles() {
        for g in zoo() {
            let b = from_apsp(&g, &run(&g)).unwrap();
            let ids = |m: &[bool]| (0..m.len() as u32).filter(|&v| m[v as usize]).collect();
            assert_eq!(Some(b.eccentricities), reference::eccentricities(&g));
            assert_eq!(Some(b.diameter), reference::diameter(&g));
            assert_eq!(Some(b.radius), reference::radius(&g));
            assert_eq!(Some(ids(&b.center)), reference::center(&g));
            assert_eq!(Some(ids(&b.peripheral)), reference::peripheral_vertices(&g));
            assert_eq!(Some(diameter(&g).unwrap().value), reference::diameter(&g));
        }
    }

    #[test]
    fn a_run_on_another_graph_is_rejected() {
        // Same node count: the star's distances are finite everywhere, so
        // only its T_1 — whose root ports do not exist on the path — tells
        // the two apart. Unchecked, this returned the star's metrics.
        let path = generators::path(4);
        let star_run = run(&generators::star(4));
        assert!(matches!(
            from_apsp(&path, &star_run).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }

    #[test]
    fn a_truncated_run_is_rejected() {
        // No entry point hands out a truncated run any more; build one from
        // the crate-private wave phase. Rows of a 1-BFS on a path hold
        // infinite entries: no eccentricity.
        let g = generators::path(6);
        let topology = g.to_topology();
        let t1 = crate::bfs::run_on_obs(&topology, 0, Obs::none()).unwrap();
        let truncated = apsp::waves(&topology, t1.tree, true, 1, Obs::none()).unwrap();
        assert!(matches!(
            from_apsp(&g, &truncated).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }

    #[test]
    fn bundle_is_internally_consistent() {
        let g = generators::grid(4, 4);
        let a = run(&g);
        let b = from_apsp(&g, &a).unwrap();
        assert!(b.radius <= b.diameter && b.diameter <= 2 * b.radius);
        assert!(b.center.iter().any(|&c| c));
        assert!(b.peripheral.iter().any(|&p| p));
        for v in 0..16 {
            assert_eq!(b.center[v], b.eccentricities[v] == b.radius);
            assert_eq!(b.peripheral[v], b.eccentricities[v] == b.diameter);
        }
    }

    #[test]
    fn rounds_stay_linear_including_aggregation() {
        let g = generators::cycle(30);
        let r = diameter(&g).unwrap();
        // APSP (~3n) plus one BFS-depth aggregation (~2D <= n) and slack.
        assert!(r.stats.rounds <= 5 * 30 + 10, "rounds={}", r.stats.rounds);
    }
}
