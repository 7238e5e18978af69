//! Whole-network analysis of small-world and scale-free topologies: the
//! §3.5 application story end to end.
//!
//! Generates a Watts–Strogatz small world and a Barabási–Albert scale-free
//! network, elects a leader (the paper's "node with ID 1" assumption, made
//! executable), runs Algorithm 1 once, derives every Lemma 2–7 quantity
//! from that one run, and prints the structural profile of each network
//! plus an edge-list export sample.
//!
//! ```text
//! cargo run --release --example smallworld_analysis
//! ```

use dapsp::core::{apsp, leader, metrics, Obs};
use dapsp::graph::{generators, io, properties, Graph};

fn profile(name: &str, g: &Graph) -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "== {name}: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );
    let deg = properties::degree_stats(g);
    println!(
        "   degrees: min {} / mean {:.2} / max {}; density {:.4}; bipartite: {}",
        deg.min,
        deg.mean,
        deg.max,
        properties::density(g),
        properties::is_bipartite(g)
    );

    let led = leader::elect(g)?;
    println!(
        "   leader election: node {} in {} rounds",
        led.leader, led.stats.rounds
    );

    let run = apsp::run_on_obs(&g.to_topology(), Obs::none())?;
    let m = metrics::from_apsp(g, &run)?;
    let ids = |set: &[bool]| (0..set.len()).filter(|&v| set[v]).collect::<Vec<_>>();
    let (center, peripheral) = (ids(&m.center), ids(&m.peripheral));
    println!(
        "   diameter {} / radius {} / girth {} — {} rounds total",
        m.diameter,
        m.radius,
        run.girth_candidate.map_or("∞".into(), |v| v.to_string()),
        m.stats.rounds
    );
    println!(
        "   center: {:?} ({} nodes); peripheral: {} nodes",
        &center[..center.len().min(8)],
        center.len(),
        peripheral.len()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small_world = generators::watts_strogatz(80, 3, 0.15, 11);
    profile("Watts–Strogatz small world", &small_world)?;

    let scale_free = generators::barabasi_albert(80, 2, 11);
    profile("Barabási–Albert scale-free", &scale_free)?;

    // Interop: round-trip through the edge-list format real datasets use.
    let exported = io::to_edge_list(&scale_free);
    let reimported = io::from_edge_list(&exported)?;
    assert_eq!(reimported, scale_free);
    println!(
        "\nedge-list export round-trips ({} bytes); first lines:\n{}",
        exported.len(),
        exported.lines().take(4).collect::<Vec<_>>().join("\n")
    );
    Ok(())
}
