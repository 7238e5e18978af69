//! A network that changes between computations — and an all-pairs answer
//! recomputed on the network as it now is.
//!
//! A [`TopologyPlan`] is an edit batch: edge inserts, edge removals, node
//! crashes and joins. It is applied on the host, between runs; the CONGEST
//! run itself always sees one fixed network. This example drives one grid
//! network through three stages, each asserted **exact** against the
//! sequential oracle on the mutated graph:
//!
//! 1. `apsp::run_churned_on` — the call a serving layer's republish makes
//!    — under a remove + insert; the plan's rounds only order its events,
//!    so the same events at round 1 give the same run;
//! 2. a node crash via the plan — every route through the lost node is
//!    retracted;
//! 3. churn composed with a [`FaultPlan`]: 20 % message loss plus a crash
//!    *window* (the node keeps its edges and returns), which the reliable
//!    transport hides — the answer is the fault-free one.
//!
//! ```text
//! cargo run --release --example churn_network
//! ```

use dapsp::congest::{FaultPlan, TopologyPlan};
use dapsp::core::{apsp, churned_graph, ChurnedResult, Obs};
use dapsp::graph::{generators, reference, Graph, INFINITY};

/// Asserts that every present pair of `result` reads the oracle of the
/// graph `plan` leaves `network` as; returns how many pairs differ from
/// the original graph's distances.
fn assert_exact(network: &Graph, plan: &TopologyPlan, result: &ChurnedResult) -> usize {
    let n = network.num_nodes() as u32;
    let before = reference::apsp(network);
    let oracle = reference::apsp(&churned_graph(network, plan).expect("the plan applies"));
    let mut moved = 0;
    for v in (0..n).filter(|&v| result.present[v as usize]) {
        for r in (0..n).filter(|&r| result.present[r as usize]) {
            let d = result.dist_to(v, r);
            assert_eq!(d, oracle.get(v, r).or(Some(INFINITY)), "d({v},{r})");
            moved += usize::from(d != before.get(v, r).or(Some(INFINITY)));
        }
    }
    moved
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = generators::grid(6, 6);
    let n = network.num_nodes();
    let topo = network.to_topology();
    println!("6x6 grid, all-pairs distances after each change\n");

    // -- 1. a remove + insert -----------------------------------------------
    println!("-- apsp::run_churned_on: remove (0,1), insert (0,35) --");
    let plan = TopologyPlan::new()
        .with_remove(3, 0, 1)
        .with_insert(4, 0, 35);
    let result = apsp::run_churned_on(&topo, &plan, Obs::none())?;
    let moved = assert_exact(&network, &plan, &result);
    // The insert put the far corner one hop away; the oracle agrees.
    assert_eq!(result.dist_to(35, 0), Some(1));
    let at_one = TopologyPlan::new()
        .with_remove(1, 0, 1)
        .with_insert(1, 0, 35);
    let again = apsp::run_churned_on(&topo, &at_one, Obs::none())?;
    assert_eq!((&again.dist, &again.stats), (&result.dist, &result.stats));
    println!("exact on all {n}² pairs ({moved} moved); {}", result.stats);

    // -- 2. a node crash via the plan ---------------------------------------
    println!("\n-- node 14 leaves the network --");
    let plan = TopologyPlan::new().with_crash(1, 14);
    let result = apsp::run_churned_on(&topo, &plan, Obs::none())?;
    assert!(!result.present[14], "the crashed node left the network");
    let moved = assert_exact(&network, &plan, &result);
    println!(
        "exact on the surviving {} nodes; {moved} pairwise distances lengthened",
        n - 1
    );

    // -- 3. churn composes with faults --------------------------------------
    println!("\n-- the same crash under 20% loss and a crash window on node 15 --");
    let faults = FaultPlan::uniform_loss(0.2, 11).with_crash(15, 2, 6);
    let lossy = apsp::run_churned_on(&topo, &plan, Obs::none().with_faults(&faults))?;
    assert_exact(&network, &plan, &lossy);
    assert_eq!(lossy.dist, result.dist, "the transport hides every loss");
    assert!(lossy.stats.dropped > 0, "the adversary was live");
    println!(
        "same answer; {} sends dropped, {} retransmitted",
        lossy.stats.dropped, lossy.stats.transport.retransmissions
    );

    println!("\nChurn is an input between runs: the plan edits the network, one");
    println!("static run answers on the result, and exactness is asserted, not hoped for.");
    Ok(())
}
