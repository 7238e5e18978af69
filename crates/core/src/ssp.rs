//! Algorithm 2 of the paper: S-Shortest-Paths in `O(|S| + D)` rounds
//! (Theorem 3) — `|S|` BFS trees, all grown **simultaneously**.
//!
//! Every source `v ∈ S` starts a BFS at the same time. When two searches
//! contend for an edge in the same round, the *smaller id wins* and the
//! larger is delayed; a delayed id waits in the per-port queue `L_i` until
//! it is transmitted successfully. The paper proves each search is delayed
//! at most once per smaller id, so after `|S| + D₀` rounds (where
//! `D₀ = 2·ecc(1)` is the broadcast diameter upper bound from Fact 1) every
//! node knows its distance to every source.
//!
//! Phases, with their honest round costs:
//!
//! 1. `BFS_1` builds `T_1` — `O(D)`;
//! 2. max-aggregation of depths over `T_1` computes and broadcasts
//!    `D₀ = 2·ecc(1)` (lines 7–12 of Algorithm 2) — `O(D)`;
//! 3. the simultaneous growth — `O(|S| + D)`, run by the [`GrowthKernel`]'s
//!    S-SP rule: each message carries the sender's distance, and a node
//!    keeps the best claim per id and lists an improvement on every port
//!    but the one it came in by. The paper runs the growth for a fixed
//!    `|S| + D₀` rounds; the simulator instead stops at quiescence (all
//!    lists drained, nothing in flight), which is exact by a standard
//!    relaxation argument, and reports the paper's budget alongside the
//!    measured rounds (see `SspResult::budget` and DESIGN.md §5's
//!    repaired-rule deviation).
//!
//! Phases 1 and 2 are the same `T_1` and `D₀` that the approximations
//! (Theorems 4 and 5, Corollary 1, Algorithm 3) build for themselves, as
//! the paper's phase 1 hands its `D₀` to the DOM-SP of phase 3. A
//! composite that already holds `T_1` and `D₀` runs phase 3 only; the
//! public entry point here runs and charges all three.
//!
//! As in Algorithm 1, nodes opportunistically record cycle candidates from
//! repeated arrivals; the girth approximation (Theorem 5) feeds on them.

use dapsp_congest::{Report, RunStats, Topology};
use dapsp_graph::INFINITY;

use crate::aggregate::{self, AggOp};
use crate::bfs;
use crate::error::CoreError;
use crate::kernel::{
    distance_rows, fold_outputs, run_phase, Deal, GrowthKernel, Rows, SourceSlots, WaveState,
};
use crate::observe::Obs;
use crate::tree::TreeKnowledge;

/// What phases 1 and 2 leave behind: `T_1`, what `BFS_1` measured on the
/// way, and `D₀ = 2·ecc(1)`.
pub(crate) struct Preamble {
    /// `T_1`, rooted at node 0.
    pub(crate) tree: TreeKnowledge,
    /// `d(1, v)` per node, the depths in `T_1`.
    pub(crate) dist: Vec<u32>,
    /// How often `BFS_1` reached each node (Claim 1's evidence).
    pub(crate) receipts: Vec<u32>,
    /// `D₀ = 2·ecc(1)`, a `(×, 2)` bound on the diameter (Fact 1).
    pub(crate) d0: u32,
    /// The cost of both phases.
    pub(crate) stats: RunStats,
}

/// Phases 1 and 2 of Algorithm 2, the one place a pipeline builds `T_1`
/// and `D₀`: `BFS_1`, then a max-aggregation of its depths over `T_1`,
/// both run as `obs` says.
///
/// # Errors
///
/// [`CoreError::Disconnected`] if `BFS_1` does not reach every node;
/// [`CoreError::EmptyGraph`] and [`CoreError::Sim`] as the phases report
/// them.
pub(crate) fn preamble(topology: &Topology, obs: Obs<'_>) -> Result<Preamble, CoreError> {
    let t1 = bfs::run_on_obs(topology, 0, obs)?;
    if !t1.reached_all() {
        return Err(CoreError::Disconnected);
    }
    let depths: Vec<u64> = t1.dist.iter().map(|&d| u64::from(d)).collect();
    let agg = aggregate::run_on_obs(topology, &t1.tree, &depths, AggOp::Max, obs)?;
    let mut stats = t1.stats;
    stats.absorb_sequential(&agg.stats);
    Ok(Preamble {
        tree: t1.tree,
        dist: t1.dist,
        receipts: t1.receipts,
        d0: 2 * agg.value as u32,
        stats,
    })
}

/// Phase 3 alone: the simultaneous growth from `slots`' sources, run to
/// quiescence, for a pipeline that already holds `T_1` and `D₀` from
/// [`preamble`]. The result hands `tree` back and carries the growth's
/// statistics only, so the caller charges the preamble once however many
/// growths it runs.
///
/// # Errors
///
/// [`CoreError::Sim`] on simulator failures.
pub(crate) fn grow(
    topology: &Topology,
    slots: SourceSlots,
    tree: TreeKnowledge,
    d0: u32,
    obs: Obs<'_>,
) -> Result<SspResult, CoreError> {
    // Theorem 3 bounds the fault-free growth by |S| + D₀ ≤ |S| + 2(n−1)
    // rounds; the reliable horizon pads that.
    let n = topology.num_nodes();
    let horizon = 2 * n as u64 + slots.ids().len() as u64 + 8;
    let (mut dist, mut parent) = distance_rows(n, slots.ids().len());
    let mut deal = Deal::new(&mut dist, &mut parent);
    let report = run_phase(topology, obs, "ssp:growth", horizon, |ctx| {
        GrowthKernel::ssp(ctx, &slots, deal.row(ctx))
    })?;
    Ok(assemble(topology, slots, tree, d0, dist, parent, report))
}

/// The result of an S-SP computation.
#[derive(Clone, Debug)]
pub struct SspResult {
    /// The source set, as given.
    pub sources: Vec<u32>,
    /// `dist[v][i]` = `d(v, sources[i])`.
    pub dist: Rows<u32>,
    /// `next_hop[v][i]` = `v`'s parent in `T_{sources[i]}` (`u32::MAX` at the
    /// source itself).
    pub next_hop: Rows<u32>,
    /// The broadcast diameter bound `D₀ = 2·ecc(1)` (the paper's
    /// self-termination horizon `|S| + D₀`; see [`SspResult::budget`]).
    pub d0: u32,
    /// The paper's round budget `|S| + D₀` for the main loop. The
    /// simulator terminates the loop by quiescence instead, which is
    /// usually earlier; both are reported so Theorem 3's accounting can be
    /// checked.
    pub budget: u64,
    /// Per-node smallest cycle candidates observed during the growth
    /// ([`INFINITY`] = none) — used by Theorem 5.
    pub local_girth_candidates: Vec<u32>,
    /// Total distance relaxations across all nodes — how often an early
    /// claim was improved by a later, shorter one (rare under the
    /// `(dist, id)` send priority).
    pub relaxations: u64,
    /// The tree `T_1`, reusable for subsequent aggregations.
    pub tree: TreeKnowledge,
    /// Combined statistics of all three phases.
    pub stats: RunStats,
    /// The id → column map (`sources[i]` ↦ `i`), kept so a read is one
    /// look-up instead of a scan of `sources`.
    slots: SourceSlots,
}

impl SspResult {
    /// Distance from `v` to source `s`; `None` if `s` was not in the
    /// source set or `v` is not a node.
    pub fn dist_to(&self, v: u32, s: u32) -> Option<u32> {
        // `i < width`, so the cell index is in range exactly when `v` is.
        let i = self.slots.get(s)?;
        let cell = (v as usize)
            .checked_mul(self.dist.width())?
            .checked_add(i)?;
        self.dist.cells().get(cell).copied()
    }
}

/// Runs Algorithm 2 over `topology`, as `obs` says: exact shortest paths
/// from every node to every source in `O(|S| + D)` rounds.
///
/// An attached observer sees `"bfs"` and `"agg:max"` for the `D₀`
/// estimate, then `"ssp:growth"` for the simultaneous growth itself.
/// Since the growth's announcements carry their source id as
/// [`stream_id`](dapsp_congest::Message::stream_id), a
/// [`TraceRecorder`](dapsp_congest::TraceRecorder) attached here keeps the
/// growth's first arrivals — its last run — and its
/// [`max_delay`](dapsp_congest::TraceRecorder::max_delay) verifies the
/// paper's Lemma 8 delay bound directly. With a fault plan, all three
/// phases run on the reliable transport, and the distances and next hops
/// are *bit-identical* to the fault-free run for any loss rate below one.
///
/// # Errors
///
/// * [`CoreError::EmptySourceSet`] if `sources` is empty.
/// * [`CoreError::InvalidNode`] for out-of-range sources, and
///   [`CoreError::InvalidParameter`] for duplicated sources.
/// * [`CoreError::EmptyGraph`] / [`CoreError::Disconnected`] on bad graphs.
/// * [`CoreError::Sim`] on simulator failures; under faults, an
///   unbeatable adversary (a severed link) fails loudly with a round-limit
///   error.
///
/// # Examples
///
/// ```
/// use dapsp_core::{ssp, Obs};
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(8);
/// let r = ssp::run_on_obs(&g.to_topology(), &[0, 7], Obs::none())?;
/// assert_eq!(r.dist_to(3, 0), Some(3));
/// assert_eq!(r.dist_to(3, 7), Some(4));
/// # Ok(())
/// # }
/// ```
pub fn run_on_obs(
    topology: &Topology,
    sources: &[u32],
    obs: Obs<'_>,
) -> Result<SspResult, CoreError> {
    let n = topology.num_nodes();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    let slots = SourceSlots::new(n, sources)?;
    let pre = preamble(topology, obs)?;
    let mut sp = grow(topology, slots, pre.tree, pre.d0, obs)?;
    sp.stats.absorb_sequential(&pre.stats);
    Ok(sp)
}

/// Folds the growth phase — its matrices, one column per source in
/// `slots`' (id) order, and the per-node wave states — into the
/// [`SspResult`], with the growth's statistics only. The matrices' columns
/// move to the order the sources were given (in place, and only if that
/// was not id order), then the parent ports become next hops in place.
fn assemble(
    topology: &Topology,
    slots: SourceSlots,
    tree: TreeKnowledge,
    d0: u32,
    mut dist: Rows<u32>,
    mut parent: Rows<u32>,
    report: Report<WaveState>,
) -> SspResult {
    let n = topology.num_nodes();
    let slots = slots.into_given_order(&mut [&mut dist, &mut parent]);
    let sources = slots.ids().to_vec();
    let budget = sources.len() as u64 + u64::from(d0);
    let seed = (Vec::with_capacity(n), 0u64);
    let (local_girth_candidates, relaxations) =
        fold_outputs(report.outputs, seed, |acc, _, state| {
            acc.0.push(state.girth_candidate);
            acc.1 += state.relaxations;
        });
    debug_assert!(
        dist.cells().iter().all(|&d| d != INFINITY),
        "quiescence implies every source was learned on a connected graph"
    );
    SspResult {
        sources,
        dist,
        next_hop: parent.into_next_hops(topology),
        d0,
        budget,
        local_girth_candidates,
        relaxations,
        tree,
        stats: report.stats,
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference, Graph};

    fn run(g: &Graph, sources: &[u32]) -> Result<SspResult, CoreError> {
        run_on_obs(&g.to_topology(), sources, Obs::none())
    }

    fn check(g: &Graph, sources: &[u32]) -> SspResult {
        let r = run(g, sources).unwrap();
        let oracle = reference::s_shortest_paths(g, sources);
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..g.num_nodes() as u32 {
                assert_eq!(
                    r.dist[v as usize][i], oracle[i][v as usize],
                    "d({v}, {s}) wrong"
                );
            }
        }
        r
    }

    #[test]
    fn matches_oracle_on_zoo() {
        check(&generators::path(12), &[0, 6, 11]);
        check(&generators::cycle(10), &[2, 7]);
        check(&generators::star(9), &[0, 3, 4, 5]);
        check(&generators::complete(6), &[1, 2]);
        check(&generators::grid(4, 4), &[0, 5, 15]);
        check(&generators::balanced_tree(2, 3), &[0, 7, 14]);
        check(&generators::lollipop(5, 6), &[0, 10]);
    }

    #[test]
    fn matches_oracle_on_random_graphs_with_many_sources() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_connected(26, 0.12, seed);
            let sources: Vec<u32> = (0..26).step_by(3).collect();
            check(&g, &sources);
        }
    }

    /// Slots follow ids during the run, and the result's columns and map
    /// are put back in the given order afterwards, so a source list out of
    /// id order exercises that reordering: on a grid, at a hub with more
    /// ports than a bitset word has bits, and with more sources than two
    /// words hold. The run itself is its sorted twin's, so it costs what
    /// that one costs.
    #[test]
    fn unsorted_source_lists_match_the_oracle() {
        for (g, count) in [
            (generators::grid(8, 8), 24u32),
            (generators::star(70), 70),
            (generators::path(140), 130),
        ] {
            let n = g.num_nodes() as u32;
            let descending: Vec<u32> = (0..n).rev().take(count as usize).collect();
            // 27 is coprime to 64, 70 and 140: the ids stay distinct.
            let shuffled: Vec<u32> = (0..count).map(|i| (i * 27 + 5) % n).collect();
            for mut sources in [descending, shuffled] {
                assert!(!sources.is_sorted());
                let r = check(&g, &sources);
                assert_eq!((r.dist.len(), r.dist[0].len()), (n as usize, sources.len()));
                sources.sort_unstable();
                let by_id = check(&g, &sources);
                assert_eq!((r.stats, r.relaxations), (by_id.stats, by_id.relaxations));
            }
        }
    }

    #[test]
    fn all_nodes_as_sources_is_apsp() {
        let g = generators::grid(3, 3);
        let sources: Vec<u32> = (0..9).collect();
        let r = check(&g, &sources);
        let apsp = reference::apsp(&g);
        for v in 0..9u32 {
            for (i, &s) in r.sources.iter().enumerate() {
                assert_eq!(Some(r.dist[v as usize][i]), apsp.get(v, s));
            }
        }
    }

    #[test]
    fn theorem3_round_bound() {
        // rounds <= BFS (ecc+2) + aggregation (2·ecc+3) + |S| + D0 + 1.
        for (g, s_count) in [
            (generators::path(30), 4usize),
            (generators::cycle(30), 10),
            (generators::erdos_renyi_connected(30, 0.15, 2), 15),
        ] {
            let sources: Vec<u32> = (0..s_count as u32).collect();
            let r = run(&g, &sources).unwrap();
            let ecc0 = reference::bfs(&g, 0).iter().copied().max().unwrap() as u64;
            let bound = (ecc0 + 2) + (2 * ecc0 + 4) + sources.len() as u64 + 2 * ecc0 + 2;
            assert!(
                r.stats.rounds <= bound,
                "rounds={} bound={bound}",
                r.stats.rounds
            );
        }
    }

    #[test]
    fn priority_contention_on_a_path_still_yields_exact_distances() {
        // All sources at one end: maximal contention on the single path.
        let g = generators::path(16);
        let sources: Vec<u32> = (0..8).collect();
        check(&g, &sources);
    }

    #[test]
    fn d0_is_twice_root_eccentricity() {
        let g = generators::double_broom(20, 8);
        let r = run(&g, &[0]).unwrap();
        let ecc0 = reference::bfs(&g, 0).iter().copied().max().unwrap();
        assert_eq!(r.d0, 2 * ecc0);
    }

    #[test]
    fn input_validation() {
        let g = generators::path(4);
        assert_eq!(run(&g, &[]).unwrap_err(), CoreError::EmptySourceSet);
        assert!(matches!(
            run(&g, &[9]).unwrap_err(),
            CoreError::InvalidNode { node: 9, .. }
        ));
        assert!(matches!(
            run(&g, &[1, 1]).unwrap_err(),
            CoreError::InvalidParameter(_)
        ));
    }

    /// `dist_to` answers through the run's id → column map: sources given
    /// out of id order read their own column, and a non-source, a source
    /// id outside the network and a node id outside it all read `None`.
    #[test]
    fn dist_to_answers_none_outside_the_table() {
        let sources = [7u32, 0, 4];
        let r = run(&generators::path(8), &sources).unwrap();
        for v in 0..8u32 {
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(r.dist_to(v, s), Some(r.dist[v as usize][i]));
            }
        }
        assert_eq!(r.dist_to(3, 7), Some(4));
        assert_eq!(r.dist_to(3, 5), None, "not a source");
        assert_eq!(r.dist_to(3, 8), None, "s = n");
        assert_eq!(r.dist_to(3, u32::MAX), None);
        assert_eq!(r.dist_to(8, 0), None, "v = n");
        assert_eq!(r.dist_to(u32::MAX, 7), None);
    }

    #[test]
    fn next_hops_point_one_step_closer() {
        let g = generators::grid(4, 4);
        let r = run(&g, &[0, 15]).unwrap();
        for v in 0..16u32 {
            for (i, &s) in r.sources.iter().enumerate() {
                if v == s {
                    assert_eq!(r.next_hop[v as usize][i], u32::MAX);
                } else {
                    let h = r.next_hop[v as usize][i];
                    assert_eq!(r.dist[h as usize][i] + 1, r.dist[v as usize][i]);
                    assert!(g.has_edge(v, h));
                }
            }
        }
    }

    #[test]
    fn girth_candidates_on_cycles() {
        let g = generators::cycle(9);
        let r = run(&g, &(0..9).collect::<Vec<_>>()).unwrap();
        let min = r.local_girth_candidates.iter().min().copied().unwrap();
        assert_eq!(min, 9);
    }
}
