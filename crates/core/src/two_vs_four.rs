//! Algorithm 3 of the paper (a.k.a. "2-vs-4", Theorem 7): distinguish
//! graphs of diameter 2 from graphs of diameter 4 in `O(√(n·log n))`
//! rounds.
//!
//! With `s := √(n·log n)`, split nodes into the low-degree set
//! `L(V) = {u : deg(u) < s}` and the high-degree set `H(V)`:
//!
//! * if some low-degree node `v` exists, BFS from every vertex of `N₁(v)`
//!   (at most `s` searches);
//! * otherwise every node joins a sample `DOM` with probability
//!   `√(log n / n)`; by Remark 6 this is a dominating set for `H(V) = V`
//!   with high probability, of size `Θ(√(n·log n))`.
//!
//! The diameter is 2 iff every started BFS tree has depth at most 2 — if
//! `D = 4`, some probed vertex sits within one hop of an endpoint of a
//! distance-4 pair and must have eccentricity at least 3. The searches are
//! run with Algorithm 2 (S-SP), which is never slower than the paper's
//! sequential BFS schedule, and the depth test is one OR-aggregation.
//!
//! The answer is only meaningful under the promise `D ∈ {2, 4}` — that
//! restriction is the point of the theorem, since distinguishing 2 from 3
//! needs `Ω(n/B)` rounds (Theorem 6).

use dapsp_congest::{RunStats, Topology};
use dapsp_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::aggregate::{self, AggOp};
use crate::error::CoreError;
use crate::kernel::SourceSlots;
use crate::observe::Obs;
use crate::ssp;

/// Which branch of Algorithm 3 ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// A low-degree node `v` existed; probed `N₁(v)`.
    LowDegreeNeighborhood {
        /// The chosen low-degree node.
        chosen: u32,
    },
    /// All degrees were at least `s`; probed a random sample.
    RandomDominatingSample,
}

/// The verdict of Algorithm 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwoVsFourResult {
    /// The claimed diameter: 2 or 4 (valid under the promise `D ∈ {2, 4}`).
    pub claimed_diameter: u32,
    /// Which branch ran.
    pub strategy: Strategy,
    /// How many BFS sources were probed.
    pub probed_sources: usize,
    /// Round/message statistics.
    pub stats: RunStats,
}

/// The degree threshold `s = ⌈√(n·log₂ n)⌉` of the algorithm.
pub fn degree_threshold(n: usize) -> usize {
    let logn = (n.max(2) as f64).log2();
    (n as f64 * logn).sqrt().ceil() as usize
}

/// Elects the smallest-id low-degree node (or falls back to random
/// sampling when none exists) and derives the probe set. Charges its
/// min-aggregation to `stats`.
fn select_probes(
    topology: &Topology,
    t1: &crate::tree::TreeKnowledge,
    seed: u64,
    stats: &mut RunStats,
) -> Result<(Vec<u32>, Strategy), CoreError> {
    let n = topology.num_nodes();
    let s = degree_threshold(n);
    // The sentinel n means "no low-degree node"; the broadcast tells
    // everyone the winner, so its neighbors know they are sources without
    // extra rounds.
    let candidate_ids: Vec<u64> = (0..n as u32)
        .map(|v| {
            if topology.degree(v) < s {
                u64::from(v)
            } else {
                n as u64
            }
        })
        .collect();
    let min = aggregate::run_on_obs(topology, t1, &candidate_ids, AggOp::Min, Obs::none())?;
    stats.absorb_sequential(&min.stats);
    Ok(if (min.value as usize) < n {
        let chosen = min.value as u32;
        let mut srcs = vec![chosen];
        srcs.extend_from_slice(topology.neighbors(chosen));
        srcs.sort_unstable();
        (srcs, Strategy::LowDegreeNeighborhood { chosen })
    } else {
        // Everyone is high-degree: independent sampling with probability
        // sqrt(log n / n), plus node 0 as a deterministic fallback so the
        // source set is never empty (extra probes only help).
        let p = ((n.max(2) as f64).log2() / n as f64).sqrt().min(1.0);
        let srcs: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                v == 0 || ChaCha8Rng::seed_from_u64(seed ^ (u64::from(v) << 20)).gen_bool(p)
            })
            .collect();
        (srcs, Strategy::RandomDominatingSample)
    })
}

/// Runs Algorithm 3. `seed` drives the (public-randomness) sampling branch.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::two_vs_four;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// // A star has diameter 2; a length-4 double broom has diameter 4.
/// assert_eq!(two_vs_four::run(&generators::star(20), 1)?.claimed_diameter, 2);
/// assert_eq!(two_vs_four::run(&generators::double_broom(20, 4), 1)?.claimed_diameter, 4);
/// # Ok(())
/// # }
/// ```
pub fn run(graph: &Graph, seed: u64) -> Result<TwoVsFourResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let topology = graph.to_topology();
    // T_1 for the probe election and the depth test, and the D₀ the
    // probes' S-SP would otherwise build a second time.
    let pre = ssp::preamble(&topology, Obs::none())?;
    let mut stats = pre.stats;
    let (sources, strategy) = select_probes(&topology, &pre.tree, seed, &mut stats)?;
    let slots = SourceSlots::new(n, &sources)?;
    let sp = ssp::grow(&topology, slots, pre.tree, pre.d0, Obs::none())?;
    stats.absorb_sequential(&sp.stats);
    // Depth test: does any node sit deeper than 2 in any probed tree?
    let deep: Vec<u64> = (0..n)
        .map(|v| u64::from(sp.dist[v].iter().any(|&d| d > 2)))
        .collect();
    let or = aggregate::run_on_obs(&topology, &sp.tree, &deep, AggOp::Or, Obs::none())?;
    stats.absorb_sequential(&or.stats);
    Ok(TwoVsFourResult {
        claimed_diameter: if or.value == 1 { 4 } else { 2 },
        strategy,
        probed_sources: sources.len(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, lowerbound, reference};

    #[test]
    fn diameter_two_instances_answer_two() {
        for g in [
            generators::star(15),
            generators::complete_bipartite(5, 6),
            generators::complete(8),
        ] {
            let d = reference::diameter(&g).unwrap();
            assert!(d <= 2);
            assert_eq!(run(&g, 7).unwrap().claimed_diameter, 2);
        }
        // The lower-bound family's disjoint branch has diameter exactly 2.
        let (a, b) = lowerbound::canonical_inputs(8, false);
        let inst = lowerbound::two_vs_three(8, &a, &b);
        assert_eq!(run(&inst.graph, 7).unwrap().claimed_diameter, 2);
    }

    #[test]
    fn diameter_four_instances_answer_four() {
        for g in [
            generators::double_broom(20, 4),
            generators::path(5),
            generators::grid(3, 3), // D = 4
        ] {
            assert_eq!(reference::diameter(&g), Some(4));
            assert_eq!(run(&g, 7).unwrap().claimed_diameter, 4);
        }
    }

    #[test]
    fn high_degree_branch_on_dense_promise_graphs() {
        // Complete bipartite K_{a,a} with a large: every degree = a >= s.
        let g = generators::complete_bipartite(30, 30);
        let s = degree_threshold(60);
        assert!(30 >= s, "test premise: all degrees high (s={s})");
        let r = run(&g, 3).unwrap();
        assert_eq!(r.strategy, Strategy::RandomDominatingSample);
        assert_eq!(r.claimed_diameter, 2);
    }

    #[test]
    fn sublinear_rounds_versus_exact_diameter() {
        // On a large diameter-2 instance the probe count is ~√(n log n),
        // so rounds stay well below the exact O(n) computation.
        let (a, b) = lowerbound::canonical_inputs(60, false);
        let inst = lowerbound::two_vs_three(60, &a, &b); // n = 122
        let quick = run(&inst.graph, 5).unwrap();
        let exact = crate::metrics::diameter(&inst.graph).unwrap();
        assert_eq!(quick.claimed_diameter, 2);
        assert!(
            quick.stats.rounds < exact.stats.rounds / 2,
            "2-vs-4 {} rounds, exact {}",
            quick.stats.rounds,
            exact.stats.rounds
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::complete_bipartite(20, 20);
        let a = run(&g, 11).unwrap();
        let b = run(&g, 11).unwrap();
        assert_eq!(a.probed_sources, b.probed_sources);
        assert_eq!(a.claimed_diameter, b.claimed_diameter);
    }

    #[test]
    fn threshold_grows_like_sqrt_n_log_n() {
        assert!(degree_threshold(100) >= 25);
        assert!(degree_threshold(100) <= 27);
        assert!(degree_threshold(10_000) > degree_threshold(100) * 5);
    }
}
