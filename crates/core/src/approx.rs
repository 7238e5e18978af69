//! `(×, 1+ε)`-approximations in `O(n/D + D)` rounds (Theorem 4 and
//! Corollary 4 of the paper), and the `O(D)`-round `(×, 2)` bounds of
//! Remarks 1 and 2.
//!
//! Theorem 4's pipeline, with each phase's honest round cost:
//!
//! 1. `BFS_1` + max-aggregation → `D₀ = 2·ecc(1)`, a `(×,2)` diameter
//!    bound (Fact 1) — `O(D)`;
//! 2. `k := min(⌊ε·D₀/4⌋, D₀)` (any node is within `D ≤ D₀` of all
//!    others, so a larger radius changes nothing); build a k-dominating
//!    set `DOM` of size at most
//!    `max{1, ⌊n/(k+1)⌋} = O(n/(εD))` — `O(D)`, one convergecast; every
//!    node knows that bound from `n` and `k`, so no round counts `|DOM|`;
//! 3. solve `DOM`-SP with Algorithm 2, whose own `T_1` and `D₀` are
//!    phase 1's, so only its growth runs — `O(|DOM| + D) = O(n/(εD) + D)`;
//! 4. every node `v` sets `ecc̃(v) := k + max_{u ∈ DOM} d(v, u)`, which
//!    satisfies `ecc(v) ≤ ecc̃(v) ≤ (1+ε)·ecc(v)`.
//!
//! The entry points:
//!
//! * [`eccentricities`] / [`eccentricities_observed`] — phases 1–4;
//! * [`from_estimates`] — Corollary 4's bundle from those estimates: one
//!   max- and one min-aggregation over their `T_1`, `O(D)`, give the
//!   diameter and radius estimates; the center is `{v : ecc̃(v) ≤ rad̃ + k}`
//!   and the periphery `{v : ecc̃(v) ≥ D̃ − k}` (every true member is kept;
//!   any extra member's true eccentricity is within `2k ≤ ε·D₀/2` of the
//!   threshold);
//! * [`diameter`] — Corollary 4's diameter alone, phases 1–4 plus one
//!   max-aggregation: the counterpart of [`metrics::diameter`];
//! * [`diameter_times_two`] — Remark 1's whole `(×, 2)` bundle from phase 1
//!   alone.
//!
//! Remark 1's `(×, 2)` radius is `diameter_times_two(g)?.value / 2 =
//! ecc(1)`, since `rad ≤ ecc(1) ≤ 2·rad`. Remark 2's `(×, 2)` center and
//! periphery cost zero rounds: both are `V` itself, since every node is
//! within `rad ≤ ecc(c)` of any center vertex `c`.

use dapsp_congest::{ObserverHandle, RunStats, Topology};
use dapsp_graph::Graph;

use crate::aggregate::{self, AggOp};
use crate::dominating;
use crate::error::CoreError;
use crate::kernel::SourceSlots;
use crate::metrics::{self, MetricsBundle};
use crate::observe::Obs;
use crate::ssp;
use crate::tree::TreeKnowledge;

/// Result of the `(×, 1+ε)` eccentricity approximation (Theorem 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApproxEccResult {
    /// `estimates[v]` with `ecc(v) <= estimates[v] <= (1+ε)·ecc(v)`.
    pub estimates: Vec<u32>,
    /// The dominating-set radius `k = min(⌊ε·D₀/4⌋, D₀)` used.
    pub k: u32,
    /// The size of the dominating set (the `|S|` of the S-SP call),
    /// counted by the host; no node learns it.
    pub dom_size: u64,
    /// Round/message statistics over all phases.
    pub stats: RunStats,
    /// `T_1`, the tree every phase ran on, for follow-up aggregations.
    pub tree: TreeKnowledge,
}

/// Result of the approximate diameter of Corollary 4.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApproxScalarResult {
    /// The estimate (`D <= value <= (1+ε)·D`).
    pub value: u32,
    /// The dominating-set radius used.
    pub k: u32,
    /// The size of the dominating set.
    pub dom_size: u64,
    /// Round/message statistics.
    pub stats: RunStats,
}

/// Remark 1's `(×, 2)` bounds, all from `BFS_1` and one max-aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimesTwoResult {
    /// `D₀ = 2·ecc(1)`, with `D <= value <= 2·D` (Fact 1).
    pub value: u32,
    /// `estimates[v] = max(d(v, 1), ecc(1))`, with
    /// `ecc(v)/2 <= estimates[v] <= 2·ecc(v)` (Fact 1 and the triangle
    /// inequality).
    pub estimates: Vec<u32>,
    /// Round/message statistics of both phases.
    pub stats: RunStats,
}

fn validate_eps(eps: f64) -> Result<(), CoreError> {
    if eps <= 0.0 || !eps.is_finite() {
        return Err(CoreError::InvalidParameter(format!(
            "epsilon must be positive and finite, got {eps}"
        )));
    }
    Ok(())
}

/// Phases 1–4 on a fresh topology, which is handed back with the
/// estimates so a follow-up aggregation need not rebuild it.
fn estimate_eccentricities(
    graph: &Graph,
    eps: f64,
    obs: Obs<'_>,
) -> Result<(ApproxEccResult, Topology), CoreError> {
    validate_eps(eps)?;
    if graph.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let topology = graph.to_topology();
    // Phase 1: T_1 and D0 = 2·ecc(1).
    let pre = ssp::preamble(&topology, obs)?;
    let ecc = estimate_from(&topology, pre, eps, obs)?;
    Ok((ecc, topology))
}

/// Phases 2–4 over the `T_1` and `D₀` of phase 1, whose cost `pre`
/// carries and the result charges once: the DOM-SP of phase 3 grows from
/// them instead of building its own.
pub(crate) fn estimate_from(
    topology: &Topology,
    pre: ssp::Preamble,
    eps: f64,
    obs: Obs<'_>,
) -> Result<ApproxEccResult, CoreError> {
    let n = topology.num_nodes();
    let mut stats = pre.stats;
    // Phase 2: k-dominating set. Past k = D₀ every node dominates the
    // whole graph, so a larger ε buys nothing but wider messages.
    let k = ((eps * f64::from(pre.d0) / 4.0).floor() as u32).min(pre.d0);
    let dom = dominating::run_on_obs(topology, &pre.tree, k, obs)?;
    stats.absorb_sequential(&dom.stats);
    // Phase 3: DOM-SP, growth only.
    let slots = SourceSlots::new(n, &dom.member_ids())?;
    let sp = ssp::grow(topology, slots, pre.tree, pre.d0, obs)?;
    stats.absorb_sequential(&sp.stats);
    // Phase 4: local estimates.
    let estimates: Vec<u32> = (0..n)
        .map(|v| k + sp.dist[v].iter().copied().max().expect("nonempty DOM"))
        .collect();
    Ok(ApproxEccResult {
        estimates,
        k,
        dom_size: dom.size,
        stats,
        tree: sp.tree,
    })
}

/// Theorem 4: every node learns a `(×, 1+ε)` estimate of its own
/// eccentricity in `O(n/D + D)` rounds.
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
/// use dapsp_core::approx;
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::double_broom(40, 16);
/// let r = approx::eccentricities(&g, 0.5)?;
/// let exact = reference::eccentricities(&g).unwrap();
/// for v in 0..40 {
///     assert!(exact[v] <= r.estimates[v]);
///     assert!(f64::from(r.estimates[v]) <= 1.5 * f64::from(exact[v]));
/// }
/// # Ok(())
/// # }
/// ```
pub fn eccentricities(graph: &Graph, eps: f64) -> Result<ApproxEccResult, CoreError> {
    estimate_eccentricities(graph, eps, Obs::none()).map(|(r, _)| r)
}

/// Like [`eccentricities`], streaming round/message/timing events of every
/// phase to `observer` — the phases report as `"bfs"`, `"agg:max"`,
/// `"dom:select"`, then `"ssp:growth"`, matching Theorem 4's pipeline
/// structure: the S-SP grows from phase 1's `T_1` and `D₀` instead of
/// repeating `"bfs"` and `"agg:max"`, and no `"agg:sum"` counts `|DOM|`,
/// since every node takes Lemma 10's bound as the growth's `|S|`.
///
/// # Errors
///
/// Same as [`eccentricities`].
pub fn eccentricities_observed(
    graph: &Graph,
    eps: f64,
    observer: &ObserverHandle,
) -> Result<ApproxEccResult, CoreError> {
    estimate_eccentricities(graph, eps, Obs::watching(observer)).map(|(r, _)| r)
}

/// Corollary 4: the diameter, radius, center and periphery estimates of
/// `ecc`, a Theorem 4 run on `graph`, in one max- and one min-aggregation
/// over its `T_1` — `O(D)` rounds on top of the run, whose cost the bundle
/// carries.
///
/// `D <= diameter <= (1+ε)·D` and `rad <= radius <= (1+ε)·rad`. Every true
/// center vertex is in `center`, and every member has
/// `ecc(v) <= rad + 2k` with `k <= ε·rad`; every true peripheral vertex is
/// in `peripheral`, and every member has `ecc(v) >= D − 2k`.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] when `ecc` is not a run on `graph` (its
/// `T_1` is not a spanning tree of `graph`, or it has the wrong number of
/// estimates); otherwise propagates aggregation failures.
///
/// # Examples
///
/// ```
/// use dapsp_core::approx;
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::double_broom(30, 10);
/// let bundle = approx::from_estimates(&g, &approx::eccentricities(&g, 0.5)?)?;
/// assert!(bundle.diameter >= 10 && bundle.diameter <= 15);
/// for c in reference::center(&g).unwrap() {
///     assert!(bundle.center[c as usize]);
/// }
/// # Ok(())
/// # }
/// ```
pub fn from_estimates(graph: &Graph, ecc: &ApproxEccResult) -> Result<MetricsBundle, CoreError> {
    metrics::bundle(graph, &ecc.tree, ecc.estimates.clone(), ecc.k, ecc.stats)
}

/// Corollary 4: a `(×, 1+ε)` diameter estimate in `O(n/D + D)` rounds —
/// [`eccentricities`] plus one max-aggregation.
///
/// # Errors
///
/// Same as [`eccentricities`].
///
/// # Examples
///
/// ```
/// use dapsp_core::approx;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::double_broom(60, 20);
/// let r = approx::diameter(&g, 0.25)?;
/// assert!(r.value >= 20 && f64::from(r.value) <= 1.25 * 20.0);
/// # Ok(())
/// # }
/// ```
pub fn diameter(graph: &Graph, eps: f64) -> Result<ApproxScalarResult, CoreError> {
    let (ecc, topology) = estimate_eccentricities(graph, eps, Obs::none())?;
    diameter_from(&topology, ecc)
}

/// The diameter estimate of `ecc`: one max-aggregation over its `T_1`.
pub(crate) fn diameter_from(
    topology: &Topology,
    ecc: ApproxEccResult,
) -> Result<ApproxScalarResult, CoreError> {
    let values: Vec<u64> = ecc.estimates.iter().map(|&e| u64::from(e)).collect();
    let max = aggregate::run_on_obs(topology, &ecc.tree, &values, AggOp::Max, Obs::none())?;
    let mut stats = ecc.stats;
    stats.absorb_sequential(&max.stats);
    Ok(ApproxScalarResult {
        value: max.value as u32,
        k: ecc.k,
        dom_size: ecc.dom_size,
        stats,
    })
}

/// Remark 1: `(×, 2)` estimates of the diameter — `D₀ = 2·ecc(1)` — and of
/// every node's eccentricity — `max(d(v, 1), ecc(1))` — in `O(D)` rounds:
/// one BFS from node 1 and one max-aggregation of its depths.
///
/// # Errors
///
/// Same as [`eccentricities`], minus the parameter check.
pub fn diameter_times_two(graph: &Graph) -> Result<TimesTwoResult, CoreError> {
    if graph.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let pre = ssp::preamble(&graph.to_topology(), Obs::none())?;
    let ecc1 = pre.d0 / 2;
    Ok(TimesTwoResult {
        value: pre.d0,
        estimates: pre.dist.iter().map(|&d| d.max(ecc1)).collect(),
        stats: pre.stats,
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix notation
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    fn guarantee_holds(g: &Graph, eps: f64) {
        let r = eccentricities(g, eps).unwrap();
        let exact = reference::eccentricities(g).unwrap();
        for v in 0..g.num_nodes() {
            assert!(
                exact[v] <= r.estimates[v],
                "estimate below truth at {v}: {} < {}",
                r.estimates[v],
                exact[v]
            );
            assert!(
                f64::from(r.estimates[v]) <= (1.0 + eps) * f64::from(exact[v]) + 1e-9,
                "estimate too high at {v}: {} vs (1+{eps})·{}",
                r.estimates[v],
                exact[v]
            );
        }
    }

    #[test]
    fn eccentricity_guarantee_on_zoo() {
        for eps in [0.1, 0.5, 1.0] {
            guarantee_holds(&generators::path(30), eps);
            guarantee_holds(&generators::cycle(24), eps);
            guarantee_holds(&generators::double_broom(40, 12), eps);
            guarantee_holds(&generators::grid(5, 6), eps);
            guarantee_holds(&generators::erdos_renyi_connected(30, 0.12, 3), eps);
        }
    }

    #[test]
    fn diameter_and_radius_guarantees() {
        for g in [
            generators::path(40),
            generators::double_broom(50, 20),
            generators::cycle(30),
        ] {
            let d = reference::diameter(&g).unwrap();
            let rad = reference::radius(&g).unwrap();
            for eps in [0.2, 0.7] {
                let rd = diameter(&g, eps).unwrap();
                assert!(rd.value >= d && f64::from(rd.value) <= (1.0 + eps) * f64::from(d) + 1e-9);
                let b = from_estimates(&g, &eccentricities(&g, eps).unwrap()).unwrap();
                assert_eq!(b.diameter, rd.value);
                assert!(
                    b.radius >= rad && f64::from(b.radius) <= (1.0 + eps) * f64::from(rad) + 1e-9
                );
            }
        }
    }

    #[test]
    fn bundle_keeps_true_members_and_stays_close() {
        for g in [
            generators::path(25),
            generators::double_broom(30, 10),
            generators::grid(4, 6),
        ] {
            let ecc = eccentricities(&g, 0.5).unwrap();
            let b = from_estimates(&g, &ecc).unwrap();
            let exact = reference::eccentricities(&g).unwrap();
            let (d, rad) = (
                reference::diameter(&g).unwrap(),
                reference::radius(&g).unwrap(),
            );
            for c in reference::center(&g).unwrap() {
                assert!(b.center[c as usize], "true center {c} missing");
            }
            for p in reference::peripheral_vertices(&g).unwrap() {
                assert!(b.peripheral[p as usize], "true peripheral {p} missing");
            }
            for v in 0..g.num_nodes() {
                if b.center[v] {
                    assert!(exact[v] <= rad + 2 * ecc.k, "spurious center {v}");
                }
                if b.peripheral[v] {
                    assert!(exact[v] + 2 * ecc.k >= d, "spurious peripheral {v}");
                }
            }
            assert_eq!(b.eccentricities, ecc.estimates);
            assert!(b.stats.rounds > ecc.stats.rounds);
        }
    }

    #[test]
    fn estimates_of_another_graph_are_rejected() {
        // Same node count; only the star's T_1 tells the two apart.
        let star = eccentricities(&generators::star(4), 0.5).unwrap();
        assert!(matches!(
            from_estimates(&generators::path(4), &star).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }

    #[test]
    fn speedup_over_exact_on_large_diameter_graphs() {
        // Theorem 4's point: O(n/D + D) beats O(n) when n/D is large and
        // D is big enough that the k-dominating set is small.
        let g = generators::double_broom(400, 40);
        let approx = diameter(&g, 0.5).unwrap();
        let exact = crate::metrics::diameter(&g).unwrap();
        assert!(
            approx.stats.rounds < exact.stats.rounds,
            "approx {} !< exact {}",
            approx.stats.rounds,
            exact.stats.rounds
        );
        assert_eq!(exact.value, 40);
    }

    #[test]
    fn tiny_eps_degrades_to_exact() {
        let g = generators::grid(4, 4);
        let r = eccentricities(&g, 1e-6).unwrap();
        assert_eq!(r.k, 0);
        assert_eq!(
            Some(r.estimates),
            reference::eccentricities(&g),
            "k = 0 means DOM = V and exact answers"
        );
    }

    #[test]
    fn times_two_bounds_are_two_sided() {
        for g in [
            generators::path(20),
            generators::cycle(14),
            generators::double_broom(25, 9),
            generators::erdos_renyi_connected(22, 0.15, 8),
            generators::star(11),
        ] {
            let r = diameter_times_two(&g).unwrap();
            let exact = reference::eccentricities(&g).unwrap();
            let (d, rad) = (
                reference::diameter(&g).unwrap(),
                reference::radius(&g).unwrap(),
            );
            assert!(r.value >= d && r.value <= 2 * d);
            assert!(
                r.value / 2 >= rad && r.value / 2 <= 2 * rad,
                "Remark 1 radius"
            );
            for v in 0..g.num_nodes() {
                assert!(2 * r.estimates[v] >= exact[v], "lower side at {v}");
                assert!(r.estimates[v] <= 2 * exact[v], "upper side at {v}");
            }
            // O(D) rounds, far below O(n) for compact graphs.
            assert!(r.stats.rounds <= 4 * u64::from(exact[0]) + 8);
        }
    }

    #[test]
    fn rejects_bad_epsilon() {
        let g = generators::path(4);
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                eccentricities(&g, eps).unwrap_err(),
                CoreError::InvalidParameter(_)
            ));
        }
    }

    /// A huge but finite ε is valid: k stops at D₀, where one dominator
    /// already covers the graph, so the dominating set's messages stay
    /// within the bandwidth and `k + max d` cannot overflow.
    #[test]
    fn large_epsilon_clamps_k_to_d0() {
        let g = generators::path(40);
        for eps in [64.0, 1e3, 1e12, f64::MAX] {
            let r = eccentricities(&g, eps).unwrap();
            assert_eq!((r.k, r.dom_size), (78, 1), "eps = {eps}: k = D₀ = 2·39");
            guarantee_holds(&g, eps);
        }
        let r = eccentricities(&generators::path(5), 1e10).unwrap();
        assert_eq!(r.k, 8);
    }

    /// S-SP reuses phase 1's `T_1` and `D₀`: one `"bfs"` and one
    /// `"agg:max"` run per pipeline, not one more of each for the growth.
    #[test]
    fn observed_pipeline_builds_t1_and_d0_once() {
        use dapsp_congest::{PhaseProfiler, SharedObserver};
        let g = generators::grid(6, 6);
        let shared = SharedObserver::new(PhaseProfiler::new());
        let r = eccentricities_observed(&g, 1.0, &shared.observer()).unwrap();
        let phases: Vec<String> =
            shared.with(|p| p.profiles().iter().map(|p| p.phase.clone()).collect());
        assert_eq!(phases, ["bfs", "agg:max", "dom:select", "ssp:growth"]);
        assert_eq!(r, eccentricities(&g, 1.0).unwrap());
    }

    #[test]
    fn single_node() {
        let g = Graph::builder(1).build();
        let r = eccentricities(&g, 0.5).unwrap();
        assert_eq!(r.estimates, vec![0]);
    }

    use dapsp_graph::Graph;
}
