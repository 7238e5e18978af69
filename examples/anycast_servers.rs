//! An S-SP application: anycast routing. A handful of replica servers are
//! placed in a network; every client must learn its distance and next hop
//! to *each* replica. That is exactly the S-Shortest-Paths problem, solved
//! by Algorithm 2 in `O(|S| + D)` rounds — far faster than full APSP when
//! the replica set is small.
//!
//! ```text
//! cargo run --release --example anycast_servers
//! ```

use dapsp::core::{apsp, ssp, Obs};
use dapsp::graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A metro network: 12×12 grid of switches.
    let network = generators::grid(12, 12);
    let n = network.num_nodes();
    // Four replicas, roughly one per quadrant.
    let servers = vec![13u32, 22, 121, 130];
    println!("network: {} switches; replicas at {:?}\n", n, servers);

    let r = ssp::run_on_obs(&network.to_topology(), &servers, Obs::none())?;
    println!(
        "S-SP finished in {} rounds (D0 = {}, |S| = {}) — Theorem 3 budget |S| + D0 = {}",
        r.stats.rounds,
        r.d0,
        servers.len(),
        servers.len() as u32 + r.d0
    );

    // Each client picks its closest replica.
    let mut load = vec![0usize; servers.len()];
    for v in 0..n {
        let (best_idx, _) = r.dist[v]
            .iter()
            .enumerate()
            .min_by_key(|(_, &d)| d)
            .expect("nonempty server set");
        load[best_idx] += 1;
    }
    for (i, &s) in servers.iter().enumerate() {
        println!("replica {s}: serves {} clients", load[i]);
    }

    // A sample client's anycast table.
    let client = 77u32;
    println!("\nanycast table at switch {client}:");
    for (i, &s) in servers.iter().enumerate() {
        let hop = r.next_hop[client as usize][i];
        assert_ne!(hop, u32::MAX, "client is not a server");
        println!(
            "  replica {s}: {} hops, next hop {hop}",
            r.dist[client as usize][i]
        );
    }

    // Contrast with full APSP: same distances, many more rounds.
    let full = apsp::run_on_obs(&network.to_topology(), Obs::none())?;
    for (i, &s) in servers.iter().enumerate() {
        for v in 0..n as u32 {
            assert_eq!(Some(r.dist[v as usize][i]), full.distances.get(v, s));
        }
    }
    println!(
        "\nfull APSP would need {} rounds for the same information ({}x more)",
        full.stats.rounds,
        full.stats.rounds / r.stats.rounds
    );
    Ok(())
}
