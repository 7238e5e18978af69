//! The paper's §3.5 motivation: centers of social networks are
//! "celebrities", peripheral vertices matter for spam detection — both
//! computable distributedly.
//!
//! Builds a synthetic social graph (dense communities bridged by a few
//! connectors), then finds the center and peripheral vertices exactly
//! (Lemmas 5 and 6) and with the `(×, 1+ε)` approximation (Corollary 4),
//! comparing answers and round costs.
//!
//! ```text
//! cargo run --release --example social_center
//! ```

use dapsp::core::{approx, apsp, metrics, Obs};
use dapsp::graph::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `communities` groups of `size` members each (dense within), chained by
/// connector members, with a celebrity following into every community.
fn social_graph(communities: usize, size: usize, seed: u64) -> Graph {
    let n = communities * size + 1; // +1 celebrity
    let celebrity = (n - 1) as u32;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = Graph::builder(n);
    let member = |c: usize, i: usize| (c * size + i) as u32;
    for c in 0..communities {
        for i in 0..size {
            for j in (i + 1)..size {
                if rng.gen_bool(0.5) {
                    b.add_edge(member(c, i), member(c, j)).expect("edge");
                }
            }
        }
        // Chain connector: last member of c knows first member of c+1.
        if c + 1 < communities {
            b.add_edge(member(c, size - 1), member(c + 1, 0))
                .expect("edge");
        }
        // The celebrity knows one member of each community.
        b.add_edge(celebrity, member(c, 0)).expect("edge");
        // Make sure every member is connected inside the community.
        for i in 1..size {
            b.add_edge(member(c, 0), member(c, i)).expect("edge");
        }
    }
    b.build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = social_graph(6, 12, 7);
    println!(
        "social graph: {} people, {} ties",
        g.num_nodes(),
        g.num_edges()
    );
    let celebrity = g.num_nodes() as u32 - 1;

    // One Algorithm 1 run yields both sets (Lemmas 5 and 6).
    let exact = metrics::from_apsp(&g, &apsp::run_on_obs(&g.to_topology(), Obs::none())?)?;
    let ids = |set: &[bool]| {
        (0..set.len() as u32)
            .filter(|&v| set[v as usize])
            .collect::<Vec<_>>()
    };
    let center = ids(&exact.center);
    println!(
        "exact ({} rounds): radius {}, center {:?}",
        exact.stats.rounds, exact.radius, center
    );
    println!(
        "exact: diameter {}, peripheral vertices {:?}",
        exact.diameter,
        ids(&exact.peripheral)
    );
    println!(
        "the celebrity (node {celebrity}) is{} in the center",
        if exact.center[celebrity as usize] {
            ""
        } else {
            " not"
        }
    );

    // Approximate center: must contain the exact one (Corollary 4).
    let estimate = approx::from_estimates(&g, &approx::eccentricities(&g, 0.5)?)?;
    assert!(center.iter().all(|&c| estimate.center[c as usize]));
    println!(
        "approx ({} rounds): candidate center {:?} — a superset of the exact center",
        estimate.stats.rounds,
        ids(&estimate.center)
    );
    Ok(())
}
