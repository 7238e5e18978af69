//! The unmodified classical approach: one BFS per node, run sequentially.
//!
//! "In the distributed model considered in this paper, this approach (if
//! not modified) takes time `O(n·D)`" (§3.1). Each BFS costs `O(D)` rounds
//! and they run back to back — this is precisely the schedule Algorithm 1's
//! pebble compresses to `O(n)` by overlapping the searches without
//! congestion.

use dapsp_graph::{DistanceMatrix, Graph};

use dapsp_core::{bfs, CoreError, Obs};

use crate::BaselineResult;

/// Runs `n` breadth-first searches one after another and assembles the
/// distance matrix. `Θ(n·D)` rounds.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_baselines::sequential_bfs;
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::star(7);
/// let r = sequential_bfs(&g)?;
/// assert_eq!(r.distances, reference::apsp(&g));
/// # Ok(())
/// # }
/// ```
pub fn sequential_bfs(graph: &Graph) -> Result<BaselineResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let mut distances = DistanceMatrix::new(n);
    let mut stats = dapsp_congest::RunStats::default();
    let topology = graph.to_topology();
    for root in 0..n as u32 {
        let r = bfs::run_on_obs(&topology, root, Obs::none())?;
        if !r.reached_all() {
            return Err(CoreError::Disconnected);
        }
        distances.set_row(root, &r.dist);
        stats.absorb_sequential(&r.stats);
    }
    Ok(BaselineResult {
        distances,
        rounds_to_converge: stats.rounds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    #[test]
    fn matches_oracle() {
        for g in [
            generators::path(10),
            generators::grid(3, 4),
            generators::erdos_renyi_connected(20, 0.15, 9),
        ] {
            let r = sequential_bfs(&g).unwrap();
            assert_eq!(r.distances, reference::apsp(&g));
        }
    }

    #[test]
    fn costs_n_times_d_on_paths_where_apsp_is_linear() {
        let g = generators::path(40);
        let seq = sequential_bfs(&g).unwrap();
        let apsp = dapsp_core::apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap();
        assert_eq!(seq.distances, apsp.distances);
        // Sequential: sum of eccentricities ≈ n·D/ 1.5; Algorithm 1: ~3n.
        assert!(
            seq.stats.rounds > 4 * apsp.stats.rounds,
            "sequential {} vs pebbled {}",
            seq.stats.rounds,
            apsp.stats.rounds
        );
    }

    #[test]
    fn rejects_disconnected() {
        let g = dapsp_graph::Graph::builder(2).build();
        assert_eq!(sequential_bfs(&g).unwrap_err(), CoreError::Disconnected);
    }
}
