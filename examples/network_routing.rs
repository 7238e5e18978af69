//! The paper's framing scenario: routing-table computation in an ISP-like
//! network — link-state vs distance-vector vs the paper's APSP.
//!
//! Builds a hierarchical topology (a core ring of backbone routers, each
//! serving a star of access routers, with a few redundant cross-links),
//! computes full routing tables three ways, and compares round and message
//! costs under the same B-bit CONGEST constraints.
//!
//! ```text
//! cargo run --release --example network_routing
//! ```

use dapsp::baselines;
use dapsp::core::{apsp, routing};
use dapsp::graph::Graph;

/// `cores` backbone routers in a ring; each with `leaves` access routers;
/// cross-links every third core pair for redundancy.
fn isp_topology(cores: usize, leaves: usize) -> Graph {
    let n = cores * (1 + leaves);
    let mut b = Graph::builder(n);
    let core = |i: usize| (i % cores) as u32;
    for i in 0..cores {
        b.add_edge(core(i), core(i + 1)).expect("ring edge");
        if i % 3 == 0 && cores > 4 {
            b.add_edge(core(i), core(i + cores / 2))
                .expect("cross link");
        }
        for l in 0..leaves {
            let leaf = (cores + i * leaves + l) as u32;
            b.add_edge(core(i), leaf).expect("access link");
        }
    }
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = isp_topology(12, 6);
    println!(
        "ISP topology: {} routers, {} links\n",
        network.num_nodes(),
        network.num_edges()
    );

    // The paper's algorithm.
    let a = apsp::run(&network)?;
    // Distance-vector (eager, triggered updates) and link-state, serialized
    // to B-bit messages as in §3.1 of the paper.
    let dv = baselines::distance_vector_eager(&network)?;
    let dv_rr = baselines::distance_vector(&network)?;
    let ls = baselines::link_state(&network)?;
    assert_eq!(a.distances, dv.distances);
    assert_eq!(a.distances, ls.distances);
    assert_eq!(a.distances, dv_rr.distances);

    println!(
        "{:<28} {:>8} {:>10} {:>12}",
        "algorithm", "rounds", "messages", "bits"
    );
    for (name, rounds, stats) in [
        ("APSP (Algorithm 1)", a.stats.rounds, &a.stats),
        ("distance-vector (eager)", dv.rounds_to_converge, &dv.stats),
        (
            "distance-vector (rnd-robin)",
            dv_rr.rounds_to_converge,
            &dv_rr.stats,
        ),
        ("link-state flooding", ls.rounds_to_converge, &ls.stats),
    ] {
        println!(
            "{:<28} {:>8} {:>10} {:>12}",
            name, rounds, stats.messages, stats.bits
        );
    }

    // A concrete routing table: next hops from access router 20.
    let table = routing::RouteTable::from_apsp(a, 0);
    let src = 20u32;
    println!("\nrouting table at node {src} (first 8 destinations):");
    for dst in 0..8u32 {
        if dst == src {
            continue;
        }
        println!(
            "  to {:>2}: next hop {:?}, {} hops",
            dst,
            table.next_hop(src, dst).expect("connected"),
            table.dist(src, dst).expect("connected")
        );
    }

    // Now actually route traffic over that table: every access router in
    // region 0 sends to the same server, so the final link serializes.
    let server = 13u32; // an access router behind core 1
    let flows: Vec<routing::Flow> = (0..6)
        .map(|l| routing::Flow {
            source: 12 + 12 * l, // one access router per region
            destination: server,
        })
        .collect();
    let traffic = routing::simulate_flows(&network, &table, &flows)?;
    println!("\ntraffic to server {server} (shared-link congestion is visible):");
    for d in &traffic.deliveries {
        println!(
            "  {:>3} -> {server}: {} hops, arrived round {} (queued {})",
            d.flow.source, d.hops, d.arrival_round, d.queueing_delay
        );
    }
    Ok(())
}
