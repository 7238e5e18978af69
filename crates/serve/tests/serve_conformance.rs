//! Exhaustive serve-layer conformance on every connected graph with at
//! most 7 nodes (996 instances): the published [`RouteTable`] must agree
//! with the Floyd–Warshall oracle pair by pair, and — the part no matrix
//! check covers — *walking* the next-hop pointers from every source must
//! actually arrive at every destination in exactly `hops(s, d)` steps,
//! each step over an edge of the served graph.
//! A second sweep applies a deterministic churn plan to every graph and
//! holds the republished snapshot to the mutated-graph oracle.

use dapsp_congest::TopologyPlan;
use dapsp_graph::{enumerate, reference, Graph};
use dapsp_serve::{RouteService, RouteTable};

/// Walks next-hop pointers from `s` to `d` step by step (no trust in
/// `RouteTable::path`'s own bookkeeping) and checks arrival in exactly
/// `want` hops, every hop an edge of `g` and every prefix geodesic.
fn walk(
    table: &RouteTable,
    g: &Graph,
    oracle: &dapsp_graph::DistanceMatrix,
    s: u32,
    d: u32,
    want: u32,
) {
    let mut cur = s;
    for step in 0..want {
        let hop = table
            .next_hop(cur, d)
            .unwrap_or_else(|| panic!("no hop at {cur} toward {d} (from {s}, step {step})"));
        // A packet can only be handed to a neighbour: a non-neighbour at
        // the right distance passes the geodesic check below.
        assert!(
            g.has_edge(cur, hop),
            "hop {cur}->{hop} toward {d} is not an edge"
        );
        // Each hop must make geodesic progress on the oracle metric.
        assert_eq!(
            oracle.get(hop, d),
            Some(want - step - 1),
            "hop {cur}->{hop} toward {d} is not on a shortest path"
        );
        cur = hop;
    }
    assert_eq!(cur, d, "walk from {s} ended at {cur}, not {d}");
    assert_eq!(
        table.next_hop(d, d),
        None,
        "arrived nodes must not keep forwarding"
    );
}

/// `table` answers exactly like the Floyd–Warshall oracle on `g`, for
/// distances, walks, and the derived metrics.
fn assert_conforms(table: &RouteTable, g: &Graph) {
    let n = g.num_nodes() as u32;
    let oracle = reference::floyd_warshall(g);
    for s in 0..n {
        for d in 0..n {
            let want = oracle.get(s, d);
            assert_eq!(table.dist(s, d), want, "d({s}, {d}) on {g:?}");
            match want {
                Some(h) => {
                    walk(table, g, &oracle, s, d, h);
                    let path = table.path(s, d).expect("reachable pair must have a path");
                    assert_eq!(path.len() as u32, h + 1);
                    assert_eq!(path[0], s);
                    assert_eq!(*path.last().unwrap(), d);
                }
                None => {
                    assert_eq!(table.next_hop(s, d), None);
                    assert_eq!(table.path(s, d), None);
                }
            }
        }
    }
    assert_eq!(
        table.diameter(),
        reference::diameter(g),
        "diameter on {g:?}"
    );
    assert_eq!(table.radius(), reference::radius(g), "radius on {g:?}");
    let centers = reference::center(g).unwrap_or_default();
    assert_eq!(table.centers(), &centers[..], "centers on {g:?}");
    assert_eq!(table.girth(), reference::girth(g), "girth on {g:?}");
    assert!(table.verify(), "published checksum must verify on {g:?}");
}

#[test]
fn every_small_graph_serves_the_oracle() {
    let mut count = 0;
    for n in 1..=7 {
        for g in enumerate::connected_graphs(n) {
            let service = RouteService::build(&g).unwrap();
            let table = service.handle().load();
            assert_eq!(table.epoch(), 0);
            assert!(
                table.certificate().is_some(),
                "epoch-0 snapshot must carry its termination certificate"
            );
            assert_conforms(&table, &g);
            count += 1;
        }
    }
    assert_eq!(count, 996, "the n<=7 connected census has 996 graphs");
}

/// A deterministic churn plan for `g`: remove its first edge, insert its
/// first non-edge (when one exists). Covers disconnections, shortcuts,
/// and girth changes across the whole census.
fn churn_plan(g: &Graph) -> TopologyPlan {
    let (u, v) = g.edges().next().expect("connected n>=2 graphs have edges");
    let mut plan = TopologyPlan::new().with_remove(1, u, v);
    let n = g.num_nodes() as u32;
    'outer: for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(a, b) {
                plan = plan.with_insert(2, a, b);
                break 'outer;
            }
        }
    }
    plan
}

#[test]
fn every_small_graph_republishes_the_mutated_oracle() {
    use dapsp_core::churned_graph;

    let mut republished = 0;
    for n in 2..=7 {
        for g in enumerate::connected_graphs(n) {
            let mut service = RouteService::build(&g).unwrap();
            let handle = service.handle();
            let plan = churn_plan(&g);
            let epoch0 = handle.load();
            service.apply(&plan).unwrap();
            let table = handle.load();
            assert_eq!(table.epoch(), 1);
            assert_conforms(&table, &churned_graph(&g, &plan).unwrap());
            // The retained pre-churn snapshot is still the old epoch,
            // still valid.
            assert_eq!(epoch0.epoch(), 0);
            assert_conforms(&epoch0, &g);
            republished += 1;
        }
    }
    assert_eq!(republished, 995, "the 2<=n<=7 connected census");
}
