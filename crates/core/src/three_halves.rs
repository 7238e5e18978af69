//! The `(×, 3/2)` diameter approximation of Corollary 1.
//!
//! Corollary 1 combines two algorithms and takes whichever is faster for
//! the instance at hand:
//!
//! * the `(×, 1+ε)` approximation of Corollary 4 with `ε = 1/2`, in
//!   `O(n/D + D)` rounds — wins when `D` is large;
//! * an Aingworth-style sampled estimator in the spirit of the independent
//!   `O(D·√n)` algorithm of Peleg, Roditty & Tal (ICALP 2012) — wins when
//!   `D` is small. (The verbatim ICALP algorithm is not in this paper's
//!   text; this module implements the standard distributed adaptation: see
//!   DESIGN.md. Its estimate `ℓ` satisfies `⌊2D/3⌋ ≤ ℓ ≤ D` w.h.p., so
//!   `⌈3ℓ/2⌉ ∈ [D, 3D/2]` up to rounding.)
//!
//! Since `min{D·√n, n/D + D} = O(n^{3/4} + D)`, the combination runs in
//! `O(n^{3/4} + D)` rounds.
//!
//! ## The sampled estimator
//!
//! 1. sample `S` with per-node probability `√(log n / n)` (plus node 0);
//! 2. run `S`-SP; aggregate `ℓ₁ = max_{u∈S} ecc(u)`;
//! 3. find the node `w` farthest from `S` (argmax aggregation);
//! 4. probe `N₁(w)` (capped at the `√(n·log n)` degree threshold) with a
//!    second S-SP; aggregate `ℓ₂` the same way;
//! 5. return `ℓ = max(ℓ₁, ℓ₂)`.

use dapsp_congest::{RunStats, Topology};
use dapsp_graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::aggregate::{self, AggOp};
use crate::approx;
use crate::error::CoreError;
use crate::kernel::SourceSlots;
use crate::observe::Obs;
use crate::ssp::{self, Preamble};
use crate::two_vs_four::degree_threshold;

/// Which branch Corollary 1 chose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// The sampled `Õ(D·√n)` estimator.
    Sampled,
    /// The `O(n/D + D)` dominating-set approximation with `ε = 1/2`.
    DominatingSet,
}

/// Result of the `(×, 3/2)` diameter approximation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreeHalvesResult {
    /// The diameter estimate, in `[D, ⌈3D/2⌉]` (w.h.p. for the sampled
    /// branch).
    pub estimate: u32,
    /// The branch that produced it.
    pub branch: Branch,
    /// Round/message statistics.
    pub stats: RunStats,
}

/// The sampled estimator over `T_1` and `D₀`, whose cost `pre` carries:
/// both S-SP runs grow from them, and every aggregation runs over `T_1`.
fn sampled(
    graph: &Graph,
    topology: &Topology,
    pre: Preamble,
    seed: u64,
) -> Result<(u32, RunStats), CoreError> {
    let n = topology.num_nodes();
    let mut stats = pre.stats;
    // 1. Sample.
    let p = ((n.max(2) as f64).log2() / n as f64).sqrt().min(1.0);
    let sample: Vec<u32> = (0..n as u32)
        .filter(|&v| v == 0 || ChaCha8Rng::seed_from_u64(seed ^ (u64::from(v) << 20)).gen_bool(p))
        .collect();
    // 2. S-SP from the sample; every node's max distance to the sample is
    //    exactly max_{u∈S} at that node, so one max-aggregation yields
    //    max_{u∈S} ecc(u).
    let slots = SourceSlots::new(n, &sample)?;
    let sp = ssp::grow(topology, slots, pre.tree, pre.d0, Obs::none())?;
    stats.absorb_sequential(&sp.stats);
    let per_node_max: Vec<u64> = (0..n)
        .map(|v| u64::from(*sp.dist[v].iter().max().expect("nonempty sample")))
        .collect();
    let l1 = aggregate::run_on_obs(topology, &sp.tree, &per_node_max, AggOp::Max, Obs::none())?;
    stats.absorb_sequential(&l1.stats);
    // 3. The node farthest from the sample (ties broken toward larger id),
    //    via an encoded (distance, id) max-aggregation.
    let encoded: Vec<u64> = (0..n)
        .map(|v| {
            let dmin = u64::from(*sp.dist[v].iter().min().expect("nonempty sample"));
            dmin * n as u64 + v as u64
        })
        .collect();
    let far = aggregate::run_on_obs(topology, &sp.tree, &encoded, AggOp::Max, Obs::none())?;
    stats.absorb_sequential(&far.stats);
    let w = (far.value % n as u64) as u32;
    // 4. Probe w and its neighborhood (capped to the usual √(n log n)).
    let mut probes = vec![w];
    probes.extend(graph.neighbors(w).iter().copied().take(degree_threshold(n)));
    probes.sort_unstable();
    probes.dedup();
    let slots = SourceSlots::new(n, &probes)?;
    let sp2 = ssp::grow(topology, slots, sp.tree, pre.d0, Obs::none())?;
    stats.absorb_sequential(&sp2.stats);
    let per_node_max2: Vec<u64> = (0..n)
        .map(|v| u64::from(*sp2.dist[v].iter().max().expect("nonempty probes")))
        .collect();
    let l2 = aggregate::run_on_obs(topology, &sp2.tree, &per_node_max2, AggOp::Max, Obs::none())?;
    stats.absorb_sequential(&l2.stats);
    Ok((l1.value.max(l2.value) as u32, stats))
}

/// Corollary 1: a `(×, 3/2)` diameter estimate in `O(n^{3/4} + D)` rounds.
///
/// The branch is picked from the `O(D)`-round `(×, 2)` bound `D₀`:
/// the sampled branch costs about `D·√n` rounds and the dominating-set
/// branch about `n/D + D`, so the sampled branch runs iff
/// `D₀·√n ≤ n/D₀ + D₀`.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::three_halves;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::double_broom(50, 16); // D = 16
/// let r = three_halves::run(&g, 3)?;
/// assert!(r.estimate >= 16 && r.estimate <= 24);
/// # Ok(())
/// # }
/// ```
pub fn run(graph: &Graph, seed: u64) -> Result<ThreeHalvesResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    // O(D): the (×,2) estimate D₀ decides the branch, and its T_1 serves
    // whichever branch runs.
    let topology = graph.to_topology();
    let pre = ssp::preamble(&topology, Obs::none())?;
    let d0 = f64::from(pre.d0.max(1));
    let nf = n as f64;
    if d0 * nf.sqrt() <= nf / d0 + d0 {
        let (l, stats) = sampled(graph, &topology, pre, seed)?;
        Ok(ThreeHalvesResult {
            // ⌊2D/3⌋ <= l <= D, so ⌊3l/2⌋ + 2 lands in [D, 3D/2 + 2]
            // (the +2 absorbs both floors).
            estimate: (3 * l) / 2 + 2,
            branch: Branch::Sampled,
            stats,
        })
    } else {
        let ecc = approx::estimate_from(&topology, pre, 0.5, Obs::none())?;
        let approx = approx::diameter_from(&topology, ecc)?;
        Ok(ThreeHalvesResult {
            estimate: approx.value,
            branch: Branch::DominatingSet,
            stats: approx.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    fn check(g: &Graph, seed: u64) -> ThreeHalvesResult {
        let r = run(g, seed).unwrap();
        let d = reference::diameter(g).unwrap();
        assert!(r.estimate >= d, "estimate {} below D={d}", r.estimate);
        assert!(
            f64::from(r.estimate) <= 1.5 * f64::from(d) + 2.0,
            "estimate {} above 1.5·{d}",
            r.estimate
        );
        r
    }

    #[test]
    fn small_diameter_uses_sampled_branch() {
        // star(300): D = 2, so D0·√n = 4·17.3 << n/D0 + D0 = 152.
        let g = generators::star(300);
        let r = check(&g, 5);
        assert_eq!(r.branch, Branch::Sampled);
    }

    #[test]
    fn large_diameter_uses_dominating_branch() {
        let g = generators::double_broom(80, 40);
        let r = check(&g, 5);
        assert_eq!(r.branch, Branch::DominatingSet);
    }

    #[test]
    fn estimate_within_bounds_on_zoo() {
        check(&generators::grid(5, 5), 2);
        check(&generators::cycle(20), 2);
        check(&generators::star(12), 2);
        check(&generators::hypercube(4), 2);
        for seed in 0..4 {
            check(&generators::erdos_renyi_connected(30, 0.15, seed), seed);
        }
    }

    #[test]
    fn sampled_estimator_is_a_lower_bound_side_estimate() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_connected(40, 0.1, seed);
            let d = reference::diameter(&g).unwrap();
            let topology = g.to_topology();
            let pre = ssp::preamble(&topology, Obs::none()).unwrap();
            let (l, _) = sampled(&g, &topology, pre, seed).unwrap();
            assert!(l <= d, "l={l} exceeds D={d}");
            assert!(3 * l + 2 >= 2 * d, "l={l} below 2D/3 (D={d})");
        }
    }

    use dapsp_graph::Graph;
}
