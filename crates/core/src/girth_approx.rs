//! Theorem 5: a `(×, 1+ε)` girth approximation in
//! `O(min{n/g + D·log(D/g), n})` rounds.
//!
//! The scheme from the paper (proof in the full version): maintain a girth
//! upper bound `ĝ`, initially `2·D₀ + 1` (every non-tree graph contains a
//! cycle of length at most `2D + 1`). Repeatedly build a k-dominating set
//! with `k = ⌊ĝ/4⌋` and run `DOM`-SP — its growth only, since `T_1` and
//! `D₀` are built once, up front, and no round counts `|DOM|` (every node
//! knows Lemma 10's bound). During the simultaneous growth every
//! repeated arrival closes a cycle: a dominator within distance `k` of a
//! shortest cycle detects a candidate of length at most `g + 2k ≤ g + ĝ/2`,
//! so each iteration at least halves the gap between `ĝ` and `2g` — after
//! `O(log(D/g))` iterations `ĝ ≤ 2g + O(1)`. A final pass with
//! `k = ⌊ε·ĝ/8⌋` tightens the estimate to `(1+ε)·g`. The iteration with
//! estimate `ĝ` costs `O(n/ĝ + D)` rounds, and the sum telescopes to the
//! theorem's bound.

use dapsp_congest::{RunStats, Topology};
use dapsp_graph::{Graph, INFINITY};

use crate::aggregate::{self, AggOp};
use crate::dominating;
use crate::error::CoreError;
use crate::kernel::SourceSlots;
use crate::observe::Obs;
use crate::ssp;
use crate::tree::TreeKnowledge;

/// Result of the girth approximation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GirthApproxResult {
    /// The estimate, with `g <= estimate <= (1+ε)·g` (`None` for trees).
    pub estimate: Option<u32>,
    /// Number of refinement iterations executed (the `log(D/g)` factor).
    pub iterations: u32,
    /// Round/message statistics over all phases.
    pub stats: RunStats,
}

/// One probe: dominating set with radius `k`, DOM-SP grown from `T_1`
/// and `D₀`, min-aggregate the cycle candidates. Returns the smallest
/// candidate seen (`None` if none) and hands `T_1` back.
fn probe(
    topology: &Topology,
    tree: TreeKnowledge,
    d0: u32,
    k: u32,
    stats: &mut RunStats,
) -> Result<(Option<u32>, TreeKnowledge), CoreError> {
    let n = topology.num_nodes();
    let dom = dominating::run_on_obs(topology, &tree, k, Obs::none())?;
    stats.absorb_sequential(&dom.stats);
    let slots = SourceSlots::new(n, &dom.member_ids())?;
    let sp = ssp::grow(topology, slots, tree, d0, Obs::none())?;
    stats.absorb_sequential(&sp.stats);
    let sentinel = 2 * n as u64 + 2;
    let candidates: Vec<u64> = sp
        .local_girth_candidates
        .iter()
        .map(|&c| {
            if c == INFINITY {
                sentinel
            } else {
                u64::from(c)
            }
        })
        .collect();
    let min = aggregate::run_on_obs(topology, &sp.tree, &candidates, AggOp::Min, Obs::none())?;
    stats.absorb_sequential(&min.stats);
    let found = (min.value < sentinel).then_some(min.value as u32);
    Ok((found, sp.tree))
}

/// Runs the Theorem 5 girth approximation.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] for non-positive `eps`.
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::girth_approx;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::tadpole(8, 40);
/// let r = girth_approx::run(&g, 0.5)?;
/// let est = r.estimate.unwrap();
/// assert!(est >= 8 && f64::from(est) <= 1.5 * 8.0);
/// # Ok(())
/// # }
/// ```
pub fn run(graph: &Graph, eps: f64) -> Result<GirthApproxResult, CoreError> {
    if eps <= 0.0 || !eps.is_finite() {
        return Err(CoreError::InvalidParameter(format!(
            "epsilon must be positive and finite, got {eps}"
        )));
    }
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let topology = graph.to_topology();
    // T_1 and D0, shared by the tree test and every probe's DOM-SP.
    let pre = ssp::preamble(&topology, Obs::none())?;
    let mut stats = pre.stats;
    // Claim 1 tree test, as in the exact algorithm.
    let flags: Vec<u64> = pre.receipts.iter().map(|&r| u64::from(r > 1)).collect();
    let or = aggregate::run_on_obs(&topology, &pre.tree, &flags, AggOp::Or, Obs::none())?;
    stats.absorb_sequential(&or.stats);
    if or.value == 0 {
        return Ok(GirthApproxResult {
            estimate: None,
            iterations: 0,
            stats,
        });
    }
    // The initial loose bound ĝ = 2·D0 + 1 >= 2·D + 1 >= g.
    let d0 = pre.d0;
    let mut tree = pre.tree;
    let mut g_hat = 2 * d0 + 1;
    // Refinement: the gap to 2g at least halves per iteration, so
    // ceil(log2(ĝ₀)) + 1 iterations certainly reach the fixed point.
    let max_iters = (32 - g_hat.leading_zeros()) + 1;
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let k = g_hat / 4;
        let found;
        (found, tree) = probe(&topology, tree, d0, k, &mut stats)?;
        let new_hat = found
            .expect("a non-tree graph always yields a candidate")
            .min(g_hat);
        if k == 0 {
            // DOM = V: the probe was a full APSP-equivalent, hence exact.
            return Ok(GirthApproxResult {
                estimate: Some(new_hat),
                iterations,
                stats,
            });
        }
        if new_hat >= g_hat {
            g_hat = new_hat;
            break; // converged
        }
        g_hat = new_hat;
    }
    // Final precision pass: k = ⌊ε·ĝ/8⌋ gives estimate <= g + 2k <= (1+ε)g.
    // Past k = ĝ, g + 2k exceeds the ĝ the estimate is capped at anyway,
    // so a larger ε would only widen the messages.
    let k = ((eps * f64::from(g_hat) / 8.0).floor() as u32).min(g_hat);
    let (found, _) = probe(&topology, tree, d0, k, &mut stats)?;
    let found = found.expect("a non-tree graph always yields a candidate");
    Ok(GirthApproxResult {
        estimate: Some(found.min(g_hat)),
        iterations,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    fn check(g: &Graph, eps: f64) -> GirthApproxResult {
        let r = run(g, eps).unwrap();
        let truth = reference::girth(g);
        match truth {
            None => assert_eq!(r.estimate, None),
            Some(girth) => {
                let est = r.estimate.expect("cycle exists");
                assert!(est >= girth, "estimate {est} below girth {girth}");
                assert!(
                    f64::from(est) <= (1.0 + eps) * f64::from(girth) + 1e-9,
                    "estimate {est} above (1+{eps})·{girth}"
                );
            }
        }
        r
    }

    #[test]
    fn guarantee_on_cycles_and_tadpoles() {
        for eps in [0.25, 0.5, 1.0] {
            check(&generators::cycle(6), eps);
            check(&generators::cycle(17), eps);
            check(&generators::tadpole(5, 25), eps);
            check(&generators::tadpole(9, 30), eps);
            check(&generators::lollipop(4, 12), eps);
        }
    }

    #[test]
    fn guarantee_on_dense_and_random_graphs() {
        check(&generators::complete(7), 0.5);
        check(&generators::grid(4, 5), 0.5);
        check(&generators::hypercube(4), 0.5);
        for seed in 0..4 {
            check(&generators::erdos_renyi_connected(26, 0.12, seed), 0.5);
        }
    }

    #[test]
    fn trees_short_circuit() {
        let r = check(&generators::balanced_tree(2, 4), 0.5);
        assert_eq!(r.iterations, 0);
        let n = 31u64;
        assert!(r.stats.rounds <= 4 * n, "rounds={}", r.stats.rounds);
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        let g = generators::tadpole(4, 60);
        let r = check(&g, 0.5);
        // ĝ starts at 2·D0+1 <= 4n; log2 of that is < 9 here.
        assert!(r.iterations <= 10, "iterations={}", r.iterations);
    }

    #[test]
    fn rejects_bad_epsilon() {
        let g = generators::cycle(5);
        assert!(matches!(
            run(&g, 0.0).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }

    /// A huge but finite ε is valid: the final pass's k stops at ĝ, and the
    /// dominating set at n − 1, so its messages fit the bandwidth.
    #[test]
    fn large_epsilon_stays_within_the_bandwidth() {
        for eps in [64.0, 1e3, 1e12, f64::MAX] {
            assert_eq!(check(&generators::cycle(40), eps).estimate, Some(40));
            check(&generators::tadpole(6, 30), eps);
        }
    }

    use dapsp_graph::Graph;
}

/// Corollary 2: a `(×, 2 − 1/g)` girth approximation.
///
/// The paper obtains this ratio by combining Theorem 5 with the
/// independent Peleg–Roditty–Tal girth algorithm (`Õ(D + √(g·n))`
/// rounds, from the companion ICALP 2012 paper whose algorithm is not in
/// this paper's text). Since `2 − 1/g ≥ 3/2` for every `g ≥ 2`, running
/// this paper's own Theorem 5 machinery at `ε = 1/2` already achieves the
/// promised ratio; that is what this function does, in
/// `O(min{n/g + D·log(D/g), n})` rounds (see DESIGN.md on the
/// substitution).
///
/// # Errors
///
/// Same as [`run`].
///
/// # Examples
///
/// ```
/// use dapsp_core::girth_approx;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::hairy_cycle(12, 60);
/// let est = girth_approx::corollary2(&g)?.estimate.unwrap();
/// assert!(est >= 12);
/// assert!(f64::from(est) <= (2.0 - 1.0 / 12.0) * 12.0);
/// # Ok(())
/// # }
/// ```
pub fn corollary2(graph: &Graph) -> Result<GirthApproxResult, CoreError> {
    run(graph, 0.5)
}

#[cfg(test)]
mod corollary2_tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    #[test]
    fn ratio_is_within_two_minus_one_over_g() {
        for g in [
            generators::cycle(9),
            generators::hairy_cycle(8, 40),
            generators::tadpole(5, 20),
            generators::complete(6),
        ] {
            let truth = reference::girth(&g).unwrap();
            let est = corollary2(&g).unwrap().estimate.unwrap();
            assert!(est >= truth);
            let ratio = 2.0 - 1.0 / f64::from(truth);
            assert!(
                f64::from(est) <= ratio * f64::from(truth) + 1e-9,
                "est {est} vs ({ratio})·{truth}"
            );
        }
    }
}
