//! Algorithm 1 of the paper: exact APSP in `O(n)` rounds (Theorem 1).
//!
//! The algorithm first builds the BFS tree `T_1` rooted at the node with the
//! smallest id, then sends a *pebble* on a depth-first traversal of `T_1`.
//! Each time the pebble enters a node `v` for the first time it **waits one
//! time slot** and then starts a full breadth-first search `BFS_v`. The wait
//! plus the pebble's travel time guarantee (Lemma 1) that no node is ever
//! active for two BFS waves in the same round, so no edge ever needs to
//! carry two wave messages at once and every wave runs at full speed.
//!
//! Total rounds: `O(D)` to build `T_1`, `O(n)` for the traversal (each tree
//! edge is crossed twice, each first visit holds the pebble one slot), and
//! `O(D)` for the last wave to finish — `O(n)` overall since `D < n`.
//!
//! The simulator *checks* Lemma 1 as a side effect: were two waves ever to
//! collide on an edge, the run would abort with a duplicate-send error.
//!
//! Following Remark 4, every node records its distance to each root, so the
//! result is the full distance matrix: stored distributedly in the model,
//! and in the simulator each node's row *is* its row of the run's one
//! [`DistanceMatrix`] — the kernels write there, and nothing assembles a
//! copy. Shortest-path trees are kept as per-root parent ports, turned into
//! next-hop ids in place once the run ends. As a by-product the nodes
//! also record *cycle candidates* (two wave receipts for the same root),
//! which is exactly what Lemma 7 needs to compute the girth.

use dapsp_congest::{churned_topology, RunStats, TerminationCertificate, Topology, TopologyPlan};
use dapsp_graph::{DistanceMatrix, Graph, INFINITY};

use crate::bfs;
use crate::churned::ChurnedResult;
use crate::error::CoreError;
use crate::kernel::{
    distance_rows, run_phase, Deal, GrowthKernel, PebbleKernel, PebbleWaves, Rows, SourceSlots,
    WaveKernel, WaveState,
};
use crate::observe::Obs;
use crate::routing::check_table_size;
use crate::tree::TreeKnowledge;

/// The next-hop matrix of an APSP run: one flat row-major `n × n` buffer
/// of neighbor ids, `u32::MAX` where there is none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextHopMatrix {
    n: usize,
    data: Vec<u32>,
}

impl NextHopMatrix {
    /// The matrix dimension `n`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The neighbor `v` forwards to on a shortest path toward `r` (its
    /// parent in `T_r`), or `None` at `v == r`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `r >= n`.
    pub fn get(&self, v: u32, r: u32) -> Option<u32> {
        let (v, r) = (v as usize, r as usize);
        assert!(v < self.n && r < self.n, "({v}, {r}) out of range");
        let hop = self.data[v * self.n + r];
        (hop != u32::MAX).then_some(hop)
    }

    /// Consumes the matrix into its row-major buffer (`u32::MAX` = none) —
    /// the routing table packs its cells into it in place.
    pub(crate) fn into_vec(self) -> Vec<u32> {
        self.data
    }
}

/// What every all-pairs entry point checks before its first round and
/// before any `n²` allocation.
fn check_size(n: usize) -> Result<(), CoreError> {
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    check_table_size(n)
}

/// The result of a distributed APSP computation.
#[derive(Clone, Debug)]
pub struct ApspResult {
    /// The full hop-distance matrix (`distances.get(u, v)` = `d(u, v)`).
    pub distances: DistanceMatrix,
    /// `next_hop.get(v, r)` is the neighbor `v` forwards to on a shortest
    /// path toward `r`.
    pub next_hop: NextHopMatrix,
    /// The smallest cycle candidate any node observed, i.e. the girth, or
    /// `None` if no wave ever hit a node twice (the graph is a tree).
    pub girth_candidate: Option<u32>,
    /// Each node's own smallest cycle candidate
    /// ([`INFINITY`] if it saw none) — the local
    /// values that Lemma 7 min-aggregates.
    pub local_girth_candidates: Vec<u32>,
    /// The tree `T_1` built in phase A — reused by the `O(D)` aggregations
    /// of Lemmas 3–7.
    pub tree: TreeKnowledge,
    /// Combined statistics of both phases (`T_1` construction + waves).
    pub stats: RunStats,
    /// Why the wave phase was allowed to stop — the engine's auditable
    /// quiescence record, carried so downstream consumers (the
    /// `dapsp-serve` snapshot layer) can attribute every answer to a
    /// certified run.
    pub certificate: Option<TerminationCertificate>,
}

/// Runs Algorithm 1 over `topology`, as `obs` says: exact all-pairs
/// shortest paths in `O(n)` rounds.
///
/// An attached observer sees the `T_1` phase as `"bfs"` and the pebble +
/// wave phase as `"apsp:waves"` (attach a
/// [`TraceRecorder`](dapsp_congest::TraceRecorder) to check Lemma 1 on a
/// live run, as below).
/// With a fault plan, both phases run on the reliable transport: for any
/// loss rate `p < 1` the distance matrix, next hops and girth candidates
/// are *bit-identical* to the fault-free run, at ≈ 2× the rounds
/// fault-free and ≈ 2/(1−p)× under loss `p`.
///
/// # Errors
///
/// * [`CoreError::EmptyGraph`] on an empty graph.
/// * [`CoreError::Disconnected`] if the graph is not connected (the model
///   assumes a connected network).
/// * [`CoreError::TableTooLarge`] past
///   [`MAX_NODES`](crate::routing::MAX_NODES) nodes — checked before the
///   first round and before any `n²` allocation, here and in every other
///   all-pairs entry point of this module.
/// * [`CoreError::Sim`] on simulator failures — which would indicate a
///   violation of Lemma 1; under faults, an adversary no retransmission
///   budget can beat (e.g. a permanently severed link) fails loudly with
///   a round-limit error instead of returning corrupted distances.
///
/// # Examples
///
/// ```
/// use dapsp_congest::{SharedObserver, TraceRecorder};
/// use dapsp_core::{apsp, Obs};
/// use dapsp_graph::{generators, reference};
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::cycle(8);
/// let recorder = SharedObserver::new(TraceRecorder::new());
/// let handle = recorder.observer();
/// let result = apsp::run_on_obs(&g.to_topology(), Obs::watching(&handle))?;
/// assert_eq!(result.distances, reference::apsp(&g));
/// recorder.with(|r| {
///     // Lemma 1: no two waves first reach a node in the same round.
///     assert!(r.node_collisions().is_empty());
///     let recorded: u64 = r.kernels().values().map(|k| k.messages).sum();
///     assert_eq!(recorded, result.stats.messages);
/// });
/// # Ok(())
/// # }
/// ```
pub fn run_on_obs(topology: &Topology, obs: Obs<'_>) -> Result<ApspResult, CoreError> {
    run_phases(topology, true, u32::MAX, obs)
}

/// Computes **all k-BFS trees** (Definition 7 of the paper): every node
/// learns its distance to every node within `k` hops, via the Algorithm 1
/// schedule with waves truncated at depth `k`. `O(n)` rounds.
///
/// Entries beyond distance `k` read back as `None`/[`INFINITY`] in the
/// matrix; [`KbfsResult::neighborhood_sizes`] gives each node's
/// `|N_k(v)|`, the quantity §8's Theorem 8 reduction asks about (all
/// `|N_2(v)| = n` iff the diameter is at most 2).
///
/// # Errors
///
/// Same as [`run_on_obs`].
///
/// # Examples
///
/// ```
/// use dapsp_core::apsp;
/// use dapsp_graph::generators;
///
/// # fn main() -> Result<(), dapsp_core::CoreError> {
/// let g = generators::path(6);
/// let r = apsp::run_truncated(&g, 2)?;
/// assert_eq!(r.distances.get(0, 2), Some(2));
/// assert_eq!(r.distances.get(0, 3), None); // beyond depth 2
/// assert_eq!(r.neighborhood_sizes(), vec![3, 4, 5, 5, 4, 3]);
/// # Ok(())
/// # }
/// ```
pub fn run_truncated(graph: &Graph, k: u32) -> Result<KbfsResult, CoreError> {
    let result = run_phases(&graph.to_topology(), true, k, Obs::none())?;
    Ok(KbfsResult {
        k,
        distances: result.distances,
        stats: result.stats,
    })
}

/// The outcome of a truncated (k-BFS) run; see [`run_truncated`].
///
/// It is deliberately not an [`ApspResult`]: its rows stop at depth `k`,
/// so a consumer of full tables — a served
/// [`RouteTable`](crate::routing::RouteTable), which would read the
/// missing entries as "unreachable" — cannot be handed one:
///
/// ```compile_fail
/// use dapsp_core::{apsp, routing::RouteTable};
/// use dapsp_graph::generators;
///
/// let truncated = apsp::run_truncated(&generators::path(6), 1).unwrap();
/// let table = RouteTable::from_apsp(truncated.result, 0);
/// ```
#[derive(Clone, Debug)]
pub struct KbfsResult {
    /// The truncation depth `k`.
    pub k: u32,
    /// `d(u, v)` wherever it is at most `k`; entries beyond `k` are absent.
    pub distances: DistanceMatrix,
    /// Combined statistics of both phases.
    pub stats: RunStats,
}

impl KbfsResult {
    /// `|N_k(v)|` per node: how many nodes (including `v`) lie within `k`
    /// hops. Row `v` of the matrix holds `d(v, u)` for exactly those `u`.
    pub fn neighborhood_sizes(&self) -> Vec<u32> {
        let n = self.distances.num_nodes();
        (0..n as u32)
            .map(|v| {
                self.distances
                    .row(v)
                    .iter()
                    .filter(|&&d| d != INFINITY)
                    .count() as u32
            })
            .collect()
    }

    /// True iff every node's k-neighborhood is the whole graph — i.e. the
    /// diameter is at most `k` (the §8 / Theorem 8 predicate).
    pub fn covers_everything(&self) -> bool {
        let n = self.distances.num_nodes() as u32;
        self.neighborhood_sizes().iter().all(|&c| c == n)
    }
}

/// The Lemma 1 ablation: Algorithm 1 **without** the one-slot wait at
/// first visits.
///
/// The paper's wait is what spaces consecutive BFS starts far enough apart
/// that waves never contend for an edge. Without it the simulator's
/// bandwidth discipline detects the collision and the run fails with a
/// duplicate-send [`CoreError::Sim`] error on any graph where two waves
/// meet — demonstrating that the wait is load-bearing, not cosmetic.
///
/// # Errors
///
/// Usually [`CoreError::Sim`] with
/// [`SimError::DuplicateSend`](dapsp_congest::SimError::DuplicateSend);
/// same input validation as [`run_on_obs`].
pub fn run_without_wait(graph: &Graph) -> Result<ApspResult, CoreError> {
    run_phases(&graph.to_topology(), false, u32::MAX, Obs::none())
}

/// All-pairs distances on the graph `plan` leaves `topology` as: the plan
/// is applied on the host first ([`churned_topology`] — the network never
/// changes inside a run), then the distance vector — the
/// [`GrowthKernel`]'s Algorithm 2 growth with every node a source — runs
/// once, statically, on exactly that topology, writing every node's row
/// into the run's two matrices, which become the returned
/// [`ChurnedResult`]'s. `stats.topo_events` counts the plan's events. An
/// attached observer sees the run as `"apsp:churn"`. This is the run
/// behind `dapsp_serve::RouteService::apply`; with an empty plan it is
/// that distance vector on `topology` itself.
///
/// Unlike the static [`run_on_obs`], the distance vector needs neither
/// `T_1` nor the pebble schedule, so a disconnected post-change graph is
/// fine: unreachable pairs report [`INFINITY`]. A fault plan in `obs`
/// wraps the kernel in the reliable transport through the same
/// `run_phase` as every static phase, with S-SP's horizon at `|S| = n`.
///
/// # Errors
///
/// Same as [`run_on_obs`] minus the connectivity requirement;
/// additionally a plan that does not apply cleanly surfaces as
/// [`CoreError::Sim`] before the run.
pub fn run_churned_on(
    topology: &Topology,
    plan: &TopologyPlan,
    obs: Obs<'_>,
) -> Result<ChurnedResult, CoreError> {
    let n = topology.num_nodes();
    check_size(n)?;
    let after = churned_topology(topology, plan)?;
    let all: Vec<u32> = (0..n as u32).collect();
    let slots = SourceSlots::new(n, &all)?;
    let (mut dist, mut parent_port) = distance_rows(n, n);
    let mut deal = Deal::new(&mut dist, &mut parent_port);
    let horizon = 3 * n as u64 + 8;
    let report = run_phase(&after, obs, "apsp:churn", horizon, |ctx| {
        GrowthKernel::distance_vector(ctx, &slots, deal.row(ctx))
    })?;
    Ok(ChurnedResult {
        dist,
        parent_port,
        present: (0..n as u32).map(|v| after.node_present(v)).collect(),
        stats: RunStats {
            topo_events: plan.events().len() as u64,
            ..report.stats
        },
        certificate: report.certificate,
    })
}

/// The shared two-phase pipeline behind every Algorithm 1 variant:
/// phase A builds `T_1`, phase B runs the pebble + (possibly truncated)
/// waves. Both phases share the caller's topology.
fn run_phases(
    topology: &Topology,
    wait_one_slot: bool,
    max_depth: u32,
    obs: Obs<'_>,
) -> Result<ApspResult, CoreError> {
    check_size(topology.num_nodes())?;
    // Phase A: build T_1 (BFS from node 0, the smallest id).
    let t1 = bfs::run_on_obs(topology, 0, obs)?;
    if !t1.reached_all() {
        return Err(CoreError::Disconnected);
    }
    let mut result = waves(topology, t1.tree, wait_one_slot, max_depth, obs)?;
    result.stats.absorb_sequential(&t1.stats);
    Ok(result)
}

/// Phase B alone: the pebble traversal of `tree` (which must be `T_1`)
/// plus one BFS wave per node, for a pipeline that already built `T_1`.
/// The result hands `tree` back and carries phase B's statistics only.
///
/// # Errors
///
/// Same as [`run_on_obs`], minus the connectivity check.
pub(crate) fn waves(
    topology: &Topology,
    tree: TreeKnowledge,
    wait_one_slot: bool,
    max_depth: u32,
    obs: Obs<'_>,
) -> Result<ApspResult, CoreError> {
    let n = topology.num_nodes();
    check_size(n)?;
    let (mut dist, mut parent) = distance_rows(n, n);
    let mut deal = Deal::new(&mut dist, &mut parent);
    // Theorem 1 bounds the fault-free pebble + wave phase by 4n + 10
    // rounds; the reliable horizon pads that.
    let report = run_phase(topology, obs, "apsp:waves", 4 * n as u64 + 16, |ctx| {
        PebbleWaves::new(
            PebbleKernel::new(ctx, &tree, wait_one_slot),
            WaveKernel::all_roots(ctx, max_depth, deal.row(ctx)),
        )
    })?;
    Ok(assemble(topology, tree, dist, parent, report))
}

/// The host-side result of the wave phase: the distance matrix the
/// kernels wrote is the result's, the parent-port matrix becomes the
/// next-hop matrix by one in-place pass, and the per-node outputs add the
/// girth candidates — no `n²` buffer is allocated or copied here.
fn assemble(
    topology: &Topology,
    tree: TreeKnowledge,
    dist: Rows<u32>,
    parent: Rows<u32>,
    report: dapsp_congest::Report<WaveState>,
) -> ApspResult {
    let n = topology.num_nodes();
    let next_hop = parent.into_next_hops(topology).into_cells();
    let local_girth_candidates: Vec<u32> = report
        .outputs
        .iter()
        .map(|state| state.girth_candidate)
        .collect();
    let girth_candidate = local_girth_candidates.iter().copied().min();
    ApspResult {
        distances: DistanceMatrix::from_row_major(n, dist.into_cells()),
        next_hop: NextHopMatrix { n, data: next_hop },
        girth_candidate: girth_candidate.filter(|&g| g != INFINITY),
        local_girth_candidates,
        tree,
        stats: report.stats,
        certificate: report.certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapsp_graph::{generators, reference};

    pub(super) fn run(g: &Graph) -> Result<ApspResult, CoreError> {
        run_on_obs(&g.to_topology(), Obs::none())
    }

    fn check_against_oracle(g: &Graph) -> ApspResult {
        let result = run(g).unwrap();
        assert_eq!(result.distances, reference::apsp(g));
        result
    }

    #[test]
    fn matches_oracle_on_zoo() {
        check_against_oracle(&generators::path(12));
        check_against_oracle(&generators::cycle(11));
        check_against_oracle(&generators::star(9));
        check_against_oracle(&generators::complete(7));
        check_against_oracle(&generators::grid(4, 5));
        check_against_oracle(&generators::balanced_tree(3, 3));
        check_against_oracle(&generators::hypercube(4));
        check_against_oracle(&generators::lollipop(5, 7));
        check_against_oracle(&generators::barbell(5, 4));
        check_against_oracle(&generators::double_broom(20, 7));
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::erdos_renyi_connected(30, 0.12, seed);
            check_against_oracle(&g);
        }
    }

    #[test]
    fn single_node() {
        let g = Graph::builder(1).build();
        let r = run(&g).unwrap();
        assert_eq!(r.distances.get(0, 0), Some(0));
        assert_eq!(r.girth_candidate, None);
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = Graph::builder(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        assert_eq!(run(&b.build()).unwrap_err(), CoreError::Disconnected);
    }

    #[test]
    fn theorem1_linear_round_bound() {
        // rounds <= T1 (ecc+2) + traversal (2(n-1) tree-edge hops + n holds)
        // + last wave (<= D) + slack. A generous linear cap: 4n + 10.
        for g in [
            generators::path(40),
            generators::cycle(40),
            generators::erdos_renyi_connected(40, 0.1, 1),
            generators::star(40),
        ] {
            let n = g.num_nodes() as u64;
            let r = run(&g).unwrap();
            assert!(
                r.stats.rounds <= 4 * n + 10,
                "rounds={} n={n}",
                r.stats.rounds
            );
        }
    }

    #[test]
    fn girth_candidates_match_oracle_girth() {
        for g in [
            generators::cycle(9),
            generators::complete(6),
            generators::grid(3, 4),
            generators::lollipop(7, 5),
            generators::hypercube(3),
        ] {
            let r = run(&g).unwrap();
            assert_eq!(r.girth_candidate, reference::girth(&g));
        }
        // Trees produce no candidate at all.
        let r = run(&generators::balanced_tree(2, 4)).unwrap();
        assert_eq!(r.girth_candidate, None);
    }

    #[test]
    fn next_hop_paths_are_shortest() {
        // Every next hop is a neighbor exactly one step closer, so any walk
        // along the pointers is a shortest path.
        let g = generators::grid(4, 4);
        let r = run(&g).unwrap();
        for u in 0..16u32 {
            assert_eq!(r.next_hop.get(u, u), None);
            for v in (0..16u32).filter(|&v| v != u) {
                let hop = r.next_hop.get(u, v).expect("connected graph");
                assert!(g.has_edge(u, hop));
                assert_eq!(
                    r.distances.get(hop, v).unwrap() + 1,
                    r.distances.get(u, v).unwrap()
                );
            }
        }
    }

    #[test]
    fn message_volume_is_order_n_times_m() {
        // Each wave crosses each edge at most once per direction, plus the
        // pebble's 2(n-1) hops and T1 construction.
        let g = generators::grid(5, 5);
        let (n, m) = (g.num_nodes() as u64, g.num_edges() as u64);
        let r = run(&g).unwrap();
        assert!(r.stats.messages <= 2 * m * n + 2 * (n - 1) + 4 * m);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::tests::run;
    use super::*;
    use dapsp_congest::SimError;
    use dapsp_graph::generators;

    /// The one-slot wait is load-bearing: without it, the forwarded wave of
    /// an earlier root and the freshly started wave collide on an edge, and
    /// the simulator's bandwidth discipline catches it.
    #[test]
    fn removing_the_wait_violates_lemma_1() {
        for g in [
            generators::path(8),
            generators::cycle(9),
            generators::grid(3, 3),
            generators::erdos_renyi_connected(16, 0.2, 4),
        ] {
            match run_without_wait(&g) {
                Err(CoreError::Sim(SimError::DuplicateSend { .. })) => {}
                other => panic!("expected a duplicate-send violation, got {other:?}"),
            }
        }
    }

    /// Control: with the wait, the same instances run clean.
    #[test]
    fn with_the_wait_the_same_instances_run_clean() {
        for g in [
            generators::path(8),
            generators::cycle(9),
            generators::grid(3, 3),
            generators::erdos_renyi_connected(16, 0.2, 4),
        ] {
            assert!(run(&g).is_ok());
        }
    }
}

#[cfg(test)]
mod kbfs_tests {
    use super::tests::run;
    use super::*;
    use dapsp_graph::{generators, lowerbound, reference};

    #[test]
    fn truncated_distances_match_oracle_within_k() {
        for g in [
            generators::grid(4, 4),
            generators::cycle(11),
            generators::erdos_renyi_connected(24, 0.12, 5),
        ] {
            let oracle = reference::apsp(&g);
            for k in [0u32, 1, 2, 3] {
                let r = run_truncated(&g, k).unwrap();
                for u in 0..g.num_nodes() as u32 {
                    for v in 0..g.num_nodes() as u32 {
                        let want = oracle.get(u, v).filter(|&d| d <= k);
                        assert_eq!(r.distances.get(u, v), want, "k={k} u={u} v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn neighborhood_census_matches_oracle() {
        let g = generators::barabasi_albert(30, 2, 4);
        let oracle = reference::apsp(&g);
        let r = run_truncated(&g, 2).unwrap();
        let counts = r.neighborhood_sizes();
        for v in 0..30u32 {
            let want = (0..30u32)
                .filter(|&u| oracle.get(v, u).is_some_and(|d| d <= 2))
                .count() as u32;
            assert_eq!(counts[v as usize], want, "v={v}");
        }
    }

    /// The Theorem 8 / §8 reduction: all |N_2(v)| = n iff diameter <= 2,
    /// exercised on the hard family whose dichotomy encodes disjointness.
    #[test]
    fn theorem8_predicate_decides_the_hard_family() {
        for intersecting in [false, true] {
            let (a, b) = lowerbound::canonical_inputs(10, intersecting);
            let inst = lowerbound::girth3_two_bfs_hard(10, &a, &b);
            let r = run_truncated(&inst.graph, 2).unwrap();
            assert_eq!(
                r.covers_everything(),
                inst.expected_diameter <= 2,
                "intersecting={intersecting}"
            );
        }
    }

    #[test]
    fn truncation_saves_rounds_when_k_is_small() {
        // The schedule (pebble traversal) dominates the rounds either way,
        // but truncation never costs extra and the message volume
        // collapses: each wave wets <= 2 hops of edges instead of D.
        let g = generators::path(80);
        let full = run(&g).unwrap();
        let trunc = run_truncated(&g, 2).unwrap();
        assert!(trunc.stats.rounds <= full.stats.rounds);
        assert!(trunc.stats.messages * 4 < full.stats.messages);
    }

    #[test]
    fn k_zero_knows_only_itself() {
        let g = generators::complete(5);
        let r = run_truncated(&g, 0).unwrap();
        assert_eq!(r.neighborhood_sizes(), vec![1; 5]);
        assert!(!r.covers_everything());
    }
}
