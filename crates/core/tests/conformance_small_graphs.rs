//! Exhaustive small-graph conformance: every distributed algorithm against
//! its sequential oracle on *every* connected graph with at most
//! [`MAX_ENUMERATED_NODES`](enumerate::MAX_ENUMERATED_NODES) nodes.
//!
//! Randomized and zoo tests sample the graph space; this suite covers it.
//! All 996 isomorphism classes of connected graphs on 1–7 nodes (OEIS
//! A001349) pass through APSP, S-SP, girth, and the eccentricity /
//! diameter / radius pipeline, and every answer must match the sequential
//! reference exactly — not approximately, not probabilistically. The 143
//! classes on at most 6 nodes also run over a lossy, crashing network on
//! the reliable transport, which must change no answer, and through a
//! churn plan applied before the run.

use dapsp_congest::{churned_topology, ExecutorKind, FaultPlan, RunStats, TopologyPlan};
use dapsp_core::aggregate::{self, AggOp};
use dapsp_core::routing::RouteTable;
use dapsp_core::{
    apsp, bfs, churned_graph, dominating, girth, leader, metrics, ssp, ssp_paper, ChurnedResult,
    Obs,
};
use dapsp_graph::enumerate::{self, MAX_ENUMERATED_NODES};
use dapsp_graph::{reference, Graph, INFINITY};

/// Every enumerated connected graph, tagged with its size.
fn all_graphs() -> impl Iterator<Item = (usize, Graph)> {
    (1..=MAX_ENUMERATED_NODES).flat_map(|n| {
        enumerate::connected_graphs(n)
            .into_iter()
            .map(move |g| (n, g))
    })
}

#[test]
fn apsp_matches_oracle_on_every_small_connected_graph() {
    for (n, g) in all_graphs() {
        let r = apsp::run_on_obs(&g.to_topology(), Obs::none())
            .unwrap_or_else(|e| panic!("apsp failed on n={n} {g:?}: {e}"));
        assert_eq!(r.distances, reference::apsp(&g), "distances wrong on {g:?}");
        // The packed table reads back the run's two matrices pair for pair
        // (n = 3, 5, 7 leave an odd tail cell for the checksum).
        let table = RouteTable::from_apsp(r.clone(), 0);
        assert!(table.verify(), "checksum wrong on {g:?}");
        // Next hops must step exactly one unit closer to each root.
        for v in 0..n as u32 {
            for root in 0..n as u32 {
                assert_eq!(table.dist(v, root), r.distances.get(v, root), "{g:?}");
                assert_eq!(table.next_hop(v, root), r.next_hop.get(v, root), "{g:?}");
                match r.next_hop.get(v, root) {
                    None => assert_eq!(v, root, "only the root lacks a next hop: {g:?}"),
                    Some(h) => {
                        assert!(g.has_edge(v, h), "next hop off-graph on {g:?}");
                        assert_eq!(
                            r.distances.get(h, root).unwrap() + 1,
                            r.distances.get(v, root).unwrap(),
                            "next hop not on a shortest path on {g:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ssp_matches_oracle_on_every_small_connected_graph() {
    for (n, g) in all_graphs() {
        // Every other node as a source: exercises contention without
        // degenerating into the APSP case (except at n = 1, 2).
        let sources: Vec<u32> = (0..n as u32).step_by(2).collect();
        let r = ssp::run_on_obs(&g.to_topology(), &sources, Obs::none())
            .unwrap_or_else(|e| panic!("ssp failed on n={n} {g:?}: {e}"));
        let oracle = reference::s_shortest_paths(&g, &sources);
        for (i, dists) in oracle.iter().enumerate() {
            for (v, &d) in dists.iter().enumerate() {
                assert_eq!(
                    r.dist[v][i], d,
                    "d({v}, source {}) wrong on {g:?}",
                    sources[i]
                );
            }
        }
    }
}

#[test]
fn girth_matches_oracle_on_every_small_connected_graph() {
    for (_, g) in all_graphs() {
        let r = girth::run(&g).unwrap_or_else(|e| panic!("girth failed on {g:?}: {e}"));
        assert_eq!(r.girth, reference::girth(&g), "girth wrong on {g:?}");
    }
}

#[test]
fn metrics_match_oracles_on_every_small_connected_graph() {
    for (_, g) in all_graphs() {
        let r = apsp::run_on_obs(&g.to_topology(), Obs::none())
            .unwrap_or_else(|e| panic!("apsp failed on {g:?}: {e}"));
        let b =
            metrics::from_apsp(&g, &r).unwrap_or_else(|e| panic!("metrics failed on {g:?}: {e}"));
        let ids = |m: &[bool]| (0..m.len() as u32).filter(|&v| m[v as usize]).collect();
        assert_eq!(
            Some(b.eccentricities),
            reference::eccentricities(&g),
            "eccentricities wrong on {g:?}"
        );
        assert_eq!(
            Some(b.diameter),
            reference::diameter(&g),
            "diameter wrong on {g:?}"
        );
        assert_eq!(
            Some(b.radius),
            reference::radius(&g),
            "radius wrong on {g:?}"
        );
        assert_eq!(
            Some(ids(&b.center)),
            reference::center(&g),
            "center wrong on {g:?}"
        );
        assert_eq!(
            Some(ids(&b.peripheral)),
            reference::peripheral_vertices(&g),
            "peripheral vertices wrong on {g:?}"
        );
        assert_eq!(
            r.girth_candidate,
            reference::girth(&g),
            "apsp girth wrong on {g:?}"
        );
    }
}

/// The largest graphs the fault sweep covers: the 853 seven-node classes
/// would take it from ≈ 1 s to ≈ 10 s in a debug build.
const FAULTY_MAX_NODES: usize = 6;

/// The reliable transport gives the paper its reliable links back: on
/// every connected graph with at most [`FAULTY_MAX_NODES`] nodes (all
/// 143), a pipeline whose [`Obs`]
/// carries 20 % loss plus a crash window returns the fault-free result bit
/// for bit — `bfs` from node 0, `ssp` and the verbatim `ssp_paper` from
/// the first ⌈n/2⌉ ids, `leader`, `apsp`, `aggregate` with each operation
/// over `T₁`, and `dominating` with k ∈ {1, 2} over `T₁` — and its horizon
/// never truncates a send. Churned APSP composes with the same adversary: under
/// the churn sweep's plan it returns the post-change graph's oracle and
/// the fault-free run's rows.
#[test]
fn faulty_runs_equal_fault_free_runs_on_every_small_connected_graph() {
    let mut dropped = 0;
    for (seed, (n, g)) in all_graphs()
        .take_while(|&(n, _)| n <= FAULTY_MAX_NODES)
        .enumerate()
    {
        let topo = g.to_topology();
        let faults = FaultPlan::uniform_loss(0.2, seed as u64).with_crash(n as u32 - 1, 3, 9);
        let faulty = Obs::none().with_faults(&faults);
        let mut check = |stats: &RunStats, what: &str| {
            assert_eq!(
                stats.transport.truncated_sends, 0,
                "{what}: horizon too short on {g:?}"
            );
            dropped += stats.dropped;
        };

        let (clean, lossy) = (
            bfs::run_on_obs(&topo, 0, Obs::none()).unwrap(),
            bfs::run_on_obs(&topo, 0, faulty).unwrap(),
        );
        check(&lossy.stats, "bfs");
        assert_eq!(
            (
                &lossy.dist,
                &lossy.tree,
                &lossy.receipts,
                lossy.cycle_detected
            ),
            (
                &clean.dist,
                &clean.tree,
                &clean.receipts,
                clean.cycle_detected
            ),
            "bfs on {g:?}"
        );

        let sources: Vec<u32> = (0..n.div_ceil(2) as u32).collect();
        let (clean_sp, lossy_sp) = (
            ssp::run_on_obs(&topo, &sources, Obs::none()).unwrap(),
            ssp::run_on_obs(&topo, &sources, faulty).unwrap(),
        );
        check(&lossy_sp.stats, "ssp");
        let fields = |r: &ssp::SspResult| {
            (
                r.dist.clone(),
                r.next_hop.clone(),
                r.d0,
                r.local_girth_candidates.clone(),
                r.relaxations,
                r.tree.clone(),
            )
        };
        assert_eq!(fields(&lossy_sp), fields(&clean_sp), "ssp on {g:?}");

        let (clean_paper, lossy_paper) = (
            ssp_paper::run_on_obs(&topo, &sources, Obs::none()).unwrap(),
            ssp_paper::run_on_obs(&topo, &sources, faulty).unwrap(),
        );
        check(&lossy_paper.stats, "ssp:paper");
        assert_eq!(
            (
                &lossy_paper.dist,
                lossy_paper.unresolved,
                lossy_paper.budget
            ),
            (
                &clean_paper.dist,
                clean_paper.unresolved,
                clean_paper.budget
            ),
            "verbatim ssp on {g:?}"
        );

        let (clean_leader, lossy_leader) = (
            leader::run_on_obs(&topo, Obs::none()).unwrap(),
            leader::run_on_obs(&topo, faulty).unwrap(),
        );
        check(&lossy_leader.stats, "leader");
        assert_eq!(lossy_leader.leader, clean_leader.leader, "leader on {g:?}");

        let (clean_ap, lossy_ap) = (
            apsp::run_on_obs(&topo, Obs::none()).unwrap(),
            apsp::run_on_obs(&topo, faulty).unwrap(),
        );
        check(&lossy_ap.stats, "apsp");
        let fields = |r: &apsp::ApspResult| {
            (
                r.distances.clone(),
                r.next_hop.clone(),
                r.girth_candidate,
                r.local_girth_candidates.clone(),
                r.tree.clone(),
            )
        };
        assert_eq!(fields(&lossy_ap), fields(&clean_ap), "apsp on {g:?}");

        let spread: Vec<u64> = (0..n as u64).map(|v| (v * 5 + 3) % 7).collect();
        let bits: Vec<u64> = (0..n as u64)
            .map(|v| u64::from(v == n as u64 - 1))
            .collect();
        for (op, values) in [
            (AggOp::Max, &spread),
            (AggOp::Min, &spread),
            (AggOp::Sum, &spread),
            (AggOp::Or, &bits),
        ] {
            let clean_agg =
                aggregate::run_on_obs(&topo, &clean.tree, values, op, Obs::none()).unwrap();
            let lossy_agg = aggregate::run_on_obs(&topo, &clean.tree, values, op, faulty).unwrap();
            check(&lossy_agg.stats, op.phase_label());
            assert_eq!(lossy_agg.value, clean_agg.value, "{op:?} on {g:?}");
        }

        for k in [1, 2] {
            let (clean_dom, lossy_dom) = (
                dominating::run_on_obs(&topo, &clean.tree, k, Obs::none()).unwrap(),
                dominating::run_on_obs(&topo, &clean.tree, k, faulty).unwrap(),
            );
            check(&lossy_dom.stats, "dom:select");
            assert_eq!(
                (&lossy_dom.members, lossy_dom.size, lossy_dom.k),
                (&clean_dom.members, clean_dom.size, clean_dom.k),
                "dominating k = {k} on {g:?}"
            );
        }

        let Some(plan) = churn_plan(seed + 1, &g) else {
            continue;
        };
        let (clean_ch, lossy_ch) = (
            apsp::run_churned_on(&topo, &plan, Obs::none()).unwrap(),
            apsp::run_churned_on(&topo, &plan, faulty).unwrap(),
        );
        check(&lossy_ch.stats, "apsp:churn");
        let oracle = reference::apsp(&churned_graph(&g, &plan).unwrap());
        for v in 0..n as u32 {
            for root in 0..n as u32 {
                assert_eq!(
                    lossy_ch.dist_to(v, root),
                    oracle.get(v, root).or(Some(INFINITY)),
                    "churned d({v}, {root}) on {g:?} with {plan:?}"
                );
            }
        }
        assert_eq!(
            (&lossy_ch.dist, &lossy_ch.parent_port),
            (&clean_ch.dist, &clean_ch.parent_port),
            "churned apsp on {g:?} with {plan:?}"
        );
    }
    assert!(dropped > 0, "the adversary never fired");
}

/// The packed table of a churned run must read back exactly what the run
/// reported — for every pair of present nodes its distance and the
/// neighbour behind its parent port, for a pair with an absent endpoint
/// nothing.
fn assert_table_packs_the_run(g: &Graph, plan: &TopologyPlan, result: &ChurnedResult, ctx: &str) {
    let final_topo = churned_topology(&g.to_topology(), plan).unwrap();
    let table = RouteTable::from_churned(result, &final_topo, 1).unwrap();
    assert!(table.verify(), "checksum wrong on {ctx}");
    let n = g.num_nodes();
    for s in 0..n {
        for d in 0..n {
            let (dist, hop) = if result.present[s] && result.present[d] {
                (
                    Some(result.dist[s][d]).filter(|&h| h != INFINITY),
                    Some(result.parent_port[s][d])
                        .filter(|&p| p != u32::MAX)
                        .map(|p| final_topo.neighbor_at(s as u32, p)),
                )
            } else {
                (None, None)
            };
            assert_eq!(table.dist(s as u32, d as u32), dist, "d({s}, {d}) on {ctx}");
            assert_eq!(
                table.next_hop(s as u32, d as u32),
                hop,
                "next_hop({s}, {d}) on {ctx}"
            );
        }
    }
}

/// A deterministic pseudo-random pick keyed by the graph's index in the
/// enumeration — stable across runs without an RNG dependency.
fn pick(seed: usize, len: usize) -> usize {
    seed.wrapping_mul(2654435761) % len
}

/// The churn sweep's plan for the `idx`-th graph `g`: a single-edge delete
/// at round 2 and (where one exists) a single-edge insert at round 3;
/// `None` on an edgeless graph.
fn churn_plan(idx: usize, g: &Graph) -> Option<TopologyPlan> {
    let n = g.num_nodes() as u32;
    let edges: Vec<(u32, u32)> = g.edges().collect();
    if edges.is_empty() {
        return None;
    }
    let (ru, rv) = edges[pick(idx, edges.len())];
    let non_edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .collect();
    let mut plan = TopologyPlan::new().with_remove(2, ru, rv);
    if !non_edges.is_empty() {
        let (iu, iv) = non_edges[pick(idx + 1, non_edges.len())];
        plan = plan.with_insert(3, iu, iv);
    }
    Some(plan)
}

/// `plan` with every event moved to round 1, in plan order.
fn at_round_one(plan: &TopologyPlan) -> TopologyPlan {
    plan.events()
        .iter()
        .fold(TopologyPlan::new(), |moved, &(_, event)| moved.at(1, event))
}

/// The churn sweep: every connected graph on up to 6 nodes, a single-edge
/// delete and (where one exists) a single-edge insert applied before the
/// run. The APSP answers must equal the sequential oracle on the mutated
/// graph — even when the deletion disconnects it — the serial and
/// work-stealing pool engines must agree bit for bit, stats included, and
/// the plan's rounds must not matter: the same events at round 1 give the
/// same result.
#[test]
fn churned_runs_match_oracles_on_every_small_connected_graph() {
    let mut idx = 0usize;
    for (n, g) in all_graphs() {
        if n > 6 {
            break;
        }
        idx += 1;
        let Some(plan) = churn_plan(idx, &g) else {
            continue;
        };
        let mutated = churned_graph(&g, &plan)
            .unwrap_or_else(|e| panic!("plan {plan:?} must apply to {g:?}: {e}"));

        // Churned APSP equals the oracle, on both engines, bit for bit.
        let serial = apsp::run_churned_on(&g.to_topology(), &plan, Obs::none())
            .unwrap_or_else(|e| panic!("churned apsp failed on {g:?} with {plan:?}: {e}"));
        let pool = apsp::run_churned_on(
            &g.to_topology(),
            &plan,
            Obs::none().with_executor(ExecutorKind::Pool { workers: 2 }),
        )
        .unwrap_or_else(|e| panic!("pooled churned apsp failed on {g:?} with {plan:?}: {e}"));
        let oracle = reference::apsp(&mutated);
        for v in 0..n as u32 {
            for root in 0..n as u32 {
                assert_eq!(
                    serial.dist_to(v, root),
                    oracle.get(v, root).or(Some(INFINITY)),
                    "apsp d({v}, {root}) wrong on {g:?} with {plan:?}"
                );
            }
        }
        assert_table_packs_the_run(&g, &plan, &serial, &format!("{g:?} with {plan:?}"));
        assert_eq!(serial.dist, pool.dist, "engine distance mismatch on {g:?}");
        assert_eq!(
            serial.parent_port, pool.parent_port,
            "engine parent mismatch on {g:?}"
        );
        assert_eq!(
            serial.stats, pool.stats,
            "engine stats mismatch on {g:?} with {plan:?}"
        );
        let early = apsp::run_churned_on(&g.to_topology(), &at_round_one(&plan), Obs::none())
            .unwrap_or_else(|e| panic!("round-1 churned apsp failed on {g:?}: {e}"));
        assert_eq!(
            (&early.dist, &early.parent_port, &early.stats),
            (&serial.dist, &serial.parent_port, &serial.stats),
            "round-1 events differ on {g:?} with {plan:?}"
        );
    }
    assert!(idx > 100, "sweep must actually cover the enumeration");
}

/// The re-join sweep: every connected graph on up to 5 nodes, every node
/// `v` — crash `v`, re-join it edgeless three rounds later, and give it
/// its original edges back, once in the join's own round and once a round
/// after it. The final graph is the original, so the table must equal the
/// *original* graph's oracle with `v` present, serial vs pool bit for bit;
/// a crash alone leaves `v` absent and serving nothing.
#[test]
fn rejoined_nodes_are_repaired_back_on_every_small_connected_graph() {
    let mut runs = 0usize;
    for (n, g) in all_graphs() {
        if n > 5 {
            break;
        }
        let oracle = reference::apsp(&g);
        for v in 0..n as u32 {
            let crash_only = TopologyPlan::new().with_crash(3, v);
            let crashed = apsp::run_churned_on(&g.to_topology(), &crash_only, Obs::none()).unwrap();
            assert!(!crashed.present[v as usize]);
            assert_table_packs_the_run(&g, &crash_only, &crashed, &format!("{g:?} minus {v}"));
            for insert_round in [6, 7] {
                let plan = g.neighbors(v).iter().fold(
                    TopologyPlan::new().with_crash(3, v).with_join(6, v),
                    |plan, &u| plan.with_insert(insert_round, v, u),
                );
                let ctx = format!("{g:?}, node {v} back at round {insert_round}");
                assert_eq!(churned_graph(&g, &plan).unwrap(), g, "{ctx}");

                let serial = apsp::run_churned_on(&g.to_topology(), &plan, Obs::none())
                    .unwrap_or_else(|e| panic!("churned apsp failed on {ctx}: {e}"));
                assert_eq!(serial.present, vec![true; n], "{ctx}");
                assert_table_packs_the_run(&g, &plan, &serial, &ctx);
                for a in 0..n as u32 {
                    for b in 0..n as u32 {
                        assert_eq!(
                            serial.dist_to(a, b),
                            oracle.get(a, b),
                            "d({a}, {b}) on {ctx}"
                        );
                    }
                }
                let pool = apsp::run_churned_on(
                    &g.to_topology(),
                    &plan,
                    Obs::none().with_executor(ExecutorKind::Pool { workers: 2 }),
                )
                .unwrap_or_else(|e| panic!("pooled churned apsp failed on {ctx}: {e}"));
                assert_eq!(
                    (&serial.dist, &serial.parent_port, &serial.stats),
                    (&pool.dist, &pool.parent_port, &pool.stats),
                    "engine mismatch on {ctx}"
                );
                runs += 1;
            }
        }
    }
    assert!(runs > 200, "sweep must actually cover the enumeration");
}

/// Lemma 10's size bound is the `|S|` every node takes for the DOM-SP
/// horizon, so it must hold on every input, not only sampled ones: every
/// connected graph on up to 6 nodes, `T_1` from node 0, every `k < n`.
#[test]
fn dominating_sets_cover_within_the_size_bound_on_every_small_connected_graph() {
    let mut runs = 0usize;
    for (n, g) in all_graphs() {
        if n > 6 {
            break;
        }
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        for k in 0..n as u32 {
            let ids = dominating::run_on_obs(&g.to_topology(), &t1.tree, k, Obs::none())
                .unwrap_or_else(|e| panic!("dominating set failed on {g:?}, k = {k}: {e}"))
                .member_ids();
            assert!(
                reference::is_k_dominating_set(&g, &ids, k),
                "not {k}-dominating on {g:?}: {ids:?}"
            );
            let bound = 1.max(n / (k as usize + 1));
            assert!(
                ids.len() <= bound,
                "|DOM| = {} > {bound} on {g:?}, k = {k}",
                ids.len()
            );
            runs += 1;
        }
    }
    let want: usize = (1..=6)
        .map(|n| n * enumerate::CONNECTED_GRAPH_COUNTS[n])
        .sum();
    assert_eq!(runs, want, "sweep must cover every graph and k");
}

#[test]
fn local_girth_candidates_never_undershoot_on_small_graphs() {
    // Lemma 7's soundness half, exhaustively: no node ever claims a cycle
    // shorter than the girth, and on non-trees some node claims it exactly.
    for (_, g) in all_graphs() {
        let r = apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap();
        let oracle = reference::girth(&g);
        let min = r.local_girth_candidates.iter().copied().min().unwrap();
        match oracle {
            None => assert_eq!(min, INFINITY, "cycle claimed on a tree: {g:?}"),
            Some(girth) => assert_eq!(min, girth, "girth candidate wrong on {g:?}"),
        }
    }
}
