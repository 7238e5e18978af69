//! `(×, 1+ε)`-approximations in `O(n/D + D)` rounds (Theorem 4 and
//! Corollary 4 of the paper).
//!
//! The pipeline, with each phase's honest round cost:
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
//!    satisfies `ecc(v) ≤ ecc̃(v) ≤ (1+ε)·ecc(v)`;
//! 5. diameter/radius estimates are one more `O(D)` aggregation; center and
//!    peripheral membership fall out by comparing against the broadcast
//!    threshold with a `2k` slack (every true member is kept; any extra
//!    member's true eccentricity is within `2k ≤ ε·D₀/2` of the threshold).

use dapsp_congest::{ObserverHandle, RunStats, Topology};
use dapsp_graph::Graph;

use crate::aggregate::{self, AggOp};
use crate::dominating;
use crate::error::CoreError;
use crate::kernel::SourceSlots;
use crate::metrics::MembershipResult;
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
}

/// Result of an approximate scalar (diameter/radius) computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApproxScalarResult {
    /// The estimate (`OPT <= value <= (1+ε)·OPT`).
    pub value: u32,
    /// The dominating-set radius used.
    pub k: u32,
    /// The size of the dominating set.
    pub dom_size: u64,
    /// Round/message statistics.
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

/// Shared phases 1–4; returns per-node estimates plus bookkeeping, the
/// tree `T_1`, and the topology all phases ran on, so follow-up
/// aggregations need not rebuild either.
fn estimate_eccentricities(
    graph: &Graph,
    eps: f64,
    obs: Obs<'_>,
) -> Result<(ApproxEccResult, TreeKnowledge, Topology), CoreError> {
    validate_eps(eps)?;
    if graph.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let topology = graph.to_topology();
    // Phase 1: T_1 and D0 = 2·ecc(1).
    let pre = ssp::preamble(&topology, obs)?;
    let (ecc, tree) = estimate_from(&topology, pre, eps, obs)?;
    Ok((ecc, tree, topology))
}

/// Phases 2–4 over the `T_1` and `D₀` of phase 1, whose cost `pre`
/// carries and the result charges once: the DOM-SP of phase 3 grows from
/// them instead of building its own. Hands `T_1` back for follow-up
/// aggregations.
pub(crate) fn estimate_from(
    topology: &Topology,
    pre: ssp::Preamble,
    eps: f64,
    obs: Obs<'_>,
) -> Result<(ApproxEccResult, TreeKnowledge), CoreError> {
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
    Ok((
        ApproxEccResult {
            estimates,
            k,
            dom_size: dom.size,
            stats,
        },
        sp.tree,
    ))
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
    estimate_eccentricities(graph, eps, Obs::none()).map(|(r, _, _)| r)
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
    estimate_eccentricities(graph, eps, Obs::watching(observer)).map(|(r, _, _)| r)
}

/// Corollary 4: a `(×, 1+ε)` diameter estimate in `O(n/D + D)` rounds.
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
    let (ecc, t1, topology) = estimate_eccentricities(graph, eps, Obs::none())?;
    scalar_from_estimates(&topology, ecc, &t1, AggOp::Max)
}

/// Corollary 4: a `(×, 1+ε)` radius estimate in `O(n/D + D)` rounds.
///
/// # Errors
///
/// Same as [`eccentricities`].
pub fn radius(graph: &Graph, eps: f64) -> Result<ApproxScalarResult, CoreError> {
    let (ecc, t1, topology) = estimate_eccentricities(graph, eps, Obs::none())?;
    scalar_from_estimates(&topology, ecc, &t1, AggOp::Min)
}

pub(crate) fn scalar_from_estimates(
    topology: &Topology,
    ecc: ApproxEccResult,
    t1: &TreeKnowledge,
    op: AggOp,
) -> Result<ApproxScalarResult, CoreError> {
    // One more O(D) aggregation over the already-built T_1.
    let values: Vec<u64> = ecc.estimates.iter().map(|&e| u64::from(e)).collect();
    let agg = aggregate::run_on(topology, t1, &values, op)?;
    let mut stats = ecc.stats;
    stats.absorb_sequential(&agg.stats);
    Ok(ApproxScalarResult {
        value: agg.value as u32,
        k: ecc.k,
        dom_size: ecc.dom_size,
        stats,
    })
}

/// Corollary 4: an approximate center in `O(n/D + D)` rounds.
///
/// Guarantees: every true center vertex is included, and every included
/// vertex has `ecc(v) <= rad + 2k` where `k = ⌊ε·D₀/4⌋ <= ε·rad`, i.e. the
/// output is a `(+, 2k)`-approximation of the center in the sense of
/// Definition 5 (equivalently `(×, 1+2ε)` on the eccentricity threshold).
///
/// # Errors
///
/// Same as [`eccentricities`].
pub fn center(graph: &Graph, eps: f64) -> Result<MembershipResult, CoreError> {
    let (ecc, t1, topology) = estimate_eccentricities(graph, eps, Obs::none())?;
    let values: Vec<u64> = ecc.estimates.iter().map(|&e| u64::from(e)).collect();
    let min = aggregate::run_on(&topology, &t1, &values, AggOp::Min)?;
    let threshold = min.value as u32 + ecc.k;
    let members = ecc.estimates.iter().map(|&e| e <= threshold).collect();
    let mut stats = ecc.stats;
    stats.absorb_sequential(&min.stats);
    Ok(MembershipResult {
        members,
        threshold,
        stats,
    })
}

/// Corollary 4: approximate peripheral vertices in `O(n/D + D)` rounds.
///
/// Guarantees: every true peripheral vertex is included, and every included
/// vertex has `ecc(v) >= D - 2k`.
///
/// # Errors
///
/// Same as [`eccentricities`].
pub fn peripheral_vertices(graph: &Graph, eps: f64) -> Result<MembershipResult, CoreError> {
    let (ecc, t1, topology) = estimate_eccentricities(graph, eps, Obs::none())?;
    let values: Vec<u64> = ecc.estimates.iter().map(|&e| u64::from(e)).collect();
    let max = aggregate::run_on(&topology, &t1, &values, AggOp::Max)?;
    let threshold = (max.value as u32).saturating_sub(ecc.k);
    let members = ecc.estimates.iter().map(|&e| e >= threshold).collect();
    let mut stats = ecc.stats;
    stats.absorb_sequential(&max.stats);
    Ok(MembershipResult {
        members,
        threshold,
        stats,
    })
}

/// Remark 1: a `(×, 2)` estimate of the diameter — just `2·ecc(1)` — in
/// `O(D)` rounds.
///
/// # Errors
///
/// Same as [`eccentricities`], minus the parameter check.
pub fn diameter_times_two(graph: &Graph) -> Result<ApproxScalarResult, CoreError> {
    if graph.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let pre = ssp::preamble(&graph.to_topology(), Obs::none())?;
    Ok(ApproxScalarResult {
        value: pre.d0,
        k: 0,
        dom_size: 1,
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
                let rr = radius(&g, eps).unwrap();
                assert!(
                    rr.value >= rad && f64::from(rr.value) <= (1.0 + eps) * f64::from(rad) + 1e-9
                );
            }
        }
    }

    #[test]
    fn center_includes_true_center_and_stays_close() {
        for g in [
            generators::path(25),
            generators::double_broom(30, 10),
            generators::grid(4, 6),
        ] {
            let r = center(&g, 0.5).unwrap();
            let truth = reference::center(&g).unwrap();
            let exact = reference::eccentricities(&g).unwrap();
            let rad = reference::radius(&g).unwrap();
            for &c in &truth {
                assert!(r.members[c as usize], "true center {c} missing");
            }
            let ecc_approx = eccentricities(&g, 0.5).unwrap();
            for (v, &m) in r.members.iter().enumerate() {
                if m {
                    assert!(
                        exact[v] <= rad + 2 * ecc_approx.k,
                        "spurious member {v}: ecc {} rad {rad} k {}",
                        exact[v],
                        ecc_approx.k
                    );
                }
            }
        }
    }

    #[test]
    fn peripheral_includes_true_peripherals() {
        for g in [generators::path(25), generators::double_broom(30, 10)] {
            let r = peripheral_vertices(&g, 0.5).unwrap();
            let truth = reference::peripheral_vertices(&g).unwrap();
            for &p in &truth {
                assert!(r.members[p as usize], "true peripheral {p} missing");
            }
        }
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
    fn times_two_estimate() {
        let g = generators::cycle(20);
        let r = diameter_times_two(&g).unwrap();
        let d = reference::diameter(&g).unwrap();
        assert!(r.value >= d && r.value <= 2 * d);
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

/// Remark 1: a `(×, 2)`-style estimate of every node's eccentricity from a
/// single BFS, in `O(D)` rounds.
///
/// Node `v` estimates `ẽcc(v) := max(d(v, 1), ecc(1))`; both quantities
/// come out of one BFS from node 1 plus one aggregation. The guarantee is
/// two-sided: `ecc(v)/2 <= ẽcc(v) <= 2·ecc(v)` (by Fact 1 and the triangle
/// inequality), which is the factor-2 knowledge Remark 1 refers to.
///
/// # Errors
///
/// Same as [`diameter_times_two`].
pub fn eccentricities_times_two(graph: &Graph) -> Result<ApproxEccResult, CoreError> {
    if graph.num_nodes() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let pre = ssp::preamble(&graph.to_topology(), Obs::none())?;
    let ecc0 = pre.d0 / 2;
    Ok(ApproxEccResult {
        estimates: pre.dist.iter().map(|&d| d.max(ecc0)).collect(),
        k: 0,
        dom_size: 1,
        stats: pre.stats,
    })
}

/// Remark 1: a `(×, 2)` radius estimate — just `ecc(1)` — in `O(D)`
/// rounds (`rad <= ecc(1) <= 2·rad`).
///
/// # Errors
///
/// Same as [`diameter_times_two`].
pub fn radius_times_two(graph: &Graph) -> Result<ApproxScalarResult, CoreError> {
    let r = diameter_times_two(graph)?;
    Ok(ApproxScalarResult {
        value: r.value / 2, // diameter_times_two returns 2·ecc(1)
        ..r
    })
}

/// Remark 2: the trivial `(×, 2)`-approximation of the center — the whole
/// vertex set — in **zero** rounds: `center ⊆ V ⊆ N_rad(center)` because
/// every node is within `rad <= ecc(c)` of any center vertex `c`.
///
/// # Errors
///
/// [`CoreError::EmptyGraph`] on an empty graph.
pub fn center_times_two(graph: &Graph) -> Result<MembershipResult, CoreError> {
    trivial_membership(graph)
}

/// Remark 2: the trivial `(×, 2)`-approximation of the peripheral
/// vertices — the whole vertex set — in **zero** rounds.
///
/// # Errors
///
/// [`CoreError::EmptyGraph`] on an empty graph.
pub fn peripheral_times_two(graph: &Graph) -> Result<MembershipResult, CoreError> {
    trivial_membership(graph)
}

fn trivial_membership(graph: &Graph) -> Result<MembershipResult, CoreError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    Ok(MembershipResult {
        members: vec![true; n],
        threshold: 0,
        stats: RunStats::default(),
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod remark_tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    #[test]
    fn times_two_eccentricities_are_two_sided() {
        for g in [
            generators::path(20),
            generators::cycle(14),
            generators::double_broom(25, 9),
            generators::erdos_renyi_connected(22, 0.15, 8),
        ] {
            let r = eccentricities_times_two(&g).unwrap();
            let exact = reference::eccentricities(&g).unwrap();
            for v in 0..g.num_nodes() {
                assert!(2 * r.estimates[v] >= exact[v], "lower side at {v}");
                assert!(r.estimates[v] <= 2 * exact[v], "upper side at {v}");
            }
            // O(D) rounds, far below O(n) for compact graphs.
            assert!(r.stats.rounds <= 4 * u64::from(exact[0]) + 8);
        }
    }

    #[test]
    fn times_two_radius_brackets() {
        for g in [generators::path(21), generators::star(11)] {
            let rad = reference::radius(&g).unwrap();
            let r = radius_times_two(&g).unwrap();
            assert!(r.value >= rad && r.value <= 2 * rad);
        }
    }

    #[test]
    fn remark_2_sets_are_free_supersets() {
        let g = generators::grid(4, 5);
        let c = center_times_two(&g).unwrap();
        assert_eq!(c.stats.rounds, 0);
        for v in reference::center(&g).unwrap() {
            assert!(c.members[v as usize]);
        }
        let p = peripheral_times_two(&g).unwrap();
        assert_eq!(p.stats.rounds, 0);
        for v in reference::peripheral_vertices(&g).unwrap() {
            assert!(p.members[v as usize]);
        }
    }
}
