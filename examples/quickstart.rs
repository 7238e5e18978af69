//! Quickstart: build a network, compute APSP distributedly, inspect the
//! result and the CONGEST round cost.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dapsp::core::routing::RouteTable;
use dapsp::core::{apsp, metrics, Obs};
use dapsp::graph::{generators, Graph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4×4 grid network: 16 routers, 24 links.
    let network = generators::grid(4, 4);
    println!(
        "network: {} nodes, {} edges",
        network.num_nodes(),
        network.num_edges()
    );

    // Algorithm 1: all pairs shortest paths in O(n) CONGEST rounds.
    let result = apsp::run_on_obs(&network.to_topology(), Obs::none())?;
    println!(
        "APSP finished in {} rounds ({} messages, {} bits) — Theorem 1 bound: O(n) = O(16)",
        result.stats.rounds, result.stats.messages, result.stats.bits
    );

    // The Lemma 3–6 metrics from the same APSP run.
    let bundle = metrics::from_apsp(&network, &result)?;
    println!(
        "diameter = {}, radius = {}, center = {:?}",
        bundle.diameter,
        bundle.radius,
        bundle
            .center
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(v, _)| v)
            .collect::<Vec<_>>()
    );

    // Compact the run into the routing table (consuming it): distances and
    // actual routes between opposite corners.
    let table = RouteTable::from_apsp(result, 0);
    let (a, b) = (0u32, 15u32);
    println!(
        "d({a}, {b}) = {} via {:?}",
        table.dist(a, b).expect("connected"),
        table.path(a, b).expect("connected")
    );

    // You can build any topology by hand, too.
    let mut custom = Graph::builder(4);
    custom.add_edge(0, 1)?;
    custom.add_edge(1, 2)?;
    custom.add_edge(2, 3)?;
    custom.add_edge(3, 0)?;
    let ring = custom.build();
    let r = apsp::run_on_obs(&ring.to_topology(), Obs::none())?;
    println!(
        "custom 4-ring: d(0,2) = {}, computed in {} rounds",
        r.distances.get(0, 2).expect("connected"),
        r.stats.rounds
    );
    Ok(())
}
