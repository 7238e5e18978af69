//! A network that changes underneath a running computation — and a repair
//! protocol that patches the answer instead of starting over.
//!
//! A [`TopologyPlan`] is a scheduled churn script: edge inserts, edge
//! removals, node crashes and joins, each taking effect at the start of a
//! named round on every engine identically. This example drives one grid
//! network through four stages:
//!
//! 1. `apsp::run_churned_on` — the call a serving layer's republish makes
//!    — against a remove + insert mid-run: the repair wave only revisits
//!    the nodes the damage actually moved, asserted **exact** against the
//!    sequential oracle on the mutated graph;
//! 2. a node crash via the plan — every route through the lost node is
//!    retracted, again exactly;
//! 3. a churn batch past the adaptive threshold — the kernel gives up on
//!    surgical repair, falls back to a full recompute, and *says so* in
//!    the run statistics (still exact either way);
//! 4. a [`FaultPlan`] crash **window** composed with a plan removal on the
//!    same node, demonstrating the precedence rule: a crashed node keeps
//!    its edges and returns when the window closes; a removed edge is
//!    gone for good (removal wins over the crash window on the shared
//!    rounds).
//!
//! ```text
//! cargo run --release --example churn_network
//! ```

use dapsp::congest::{Config, FaultPlan, Simulator, TopologyPlan};
use dapsp::core::{apsp, churned_graph, Obs};
use dapsp::graph::{generators, reference, INFINITY};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let network = generators::grid(6, 6);
    let n = network.num_nodes();
    let topo = network.to_topology();

    // -- 1. repair after a remove + insert ----------------------------------
    println!("6x6 grid, all-pairs distances while the topology shifts underfoot\n");
    println!("-- apsp::run_churned_on: remove (0,1) at round 3, insert (0,35) at round 4 --");
    let plan = TopologyPlan::new()
        .with_remove(3, 0, 1)
        .with_insert(4, 0, 35);
    let repaired = apsp::run_churned_on(&topo, &plan, Obs::none())?;
    let oracle = reference::apsp(&churned_graph(&network, &plan)?);
    for v in 0..n as u32 {
        for r in 0..n as u32 {
            assert_eq!(
                repaired.dist_to(v, r),
                oracle.get(v, r),
                "repaired d({v},{r}) must match the oracle on the mutated graph"
            );
        }
    }
    // The insert put the far corner one hop away; the oracle agrees.
    assert_eq!(repaired.dist_to(35, 0), Some(1));
    println!(
        "exact on all {n}² pairs; {} topology events, {} node-rounds of repair work, \
         {} full-recompute fallbacks",
        repaired.stats.topo_events,
        repaired.stats.repaired_node_rounds,
        repaired.stats.recompute_fallbacks
    );

    // -- 2. a node crash via the plan ---------------------------------------
    println!("\n-- node 14 crashes out of the network at round 3 --");
    let plan = TopologyPlan::new().with_crash(3, 14);
    let repaired = apsp::run_churned_on(&topo, &plan, Obs::none())?;
    let mutated = churned_graph(&network, &plan)?;
    let oracle = reference::apsp(&mutated);
    assert!(!repaired.present[14], "the crashed node left the network");
    let mut retracted = 0;
    for v in 0..n as u32 {
        for r in 0..n as u32 {
            if !repaired.present[v as usize] || !repaired.present[r as usize] {
                continue;
            }
            let d = repaired.dist_to(v, r);
            assert_eq!(
                d,
                oracle.get(v, r).or(Some(INFINITY)),
                "repaired d({v},{r}) must match the oracle without node 14"
            );
            if d != reference::apsp(&network).get(v, r).or(Some(INFINITY)) {
                retracted += 1;
            }
        }
    }
    println!(
        "exact on the surviving {} nodes; {retracted} pairwise distances lengthened \
         and every one was retracted correctly",
        n - 1
    );

    // -- 3. the adaptive fallback -------------------------------------------
    println!("\n-- a churn batch past the threshold: repair yields to recompute --");
    // Five removals in one round is ten directed port halves — past the
    // max(4, n/8) threshold, so every node abandons surgical repair.
    let plan = TopologyPlan::new()
        .with_remove(3, 0, 1)
        .with_remove(3, 2, 3)
        .with_remove(3, 7, 13)
        .with_remove(3, 20, 26)
        .with_remove(3, 33, 34);
    let repaired = apsp::run_churned_on(&topo, &plan, Obs::none())?;
    assert!(
        repaired.stats.recompute_fallbacks > 0,
        "a batch this large must trip the adaptive fallback"
    );
    let oracle = reference::apsp(&churned_graph(&network, &plan)?);
    for v in 0..n as u32 {
        for r in 0..n as u32 {
            assert_eq!(repaired.dist_to(v, r), oracle.get(v, r).or(Some(INFINITY)));
        }
    }
    println!(
        "{} nodes fell back to a full recompute — and the answer is still exact",
        repaired.stats.recompute_fallbacks
    );

    // -- 4. crash windows compose with removals; removal wins ---------------
    println!("\n-- FaultPlan crash window x TopologyPlan removal on the same node --");
    // Node 1 is dark for delivery rounds 2..6 (a *window*: it keeps its
    // edges and comes back). Its edge to node 0 is removed at round 4 (for
    // good). On rounds where both apply, removal wins: the drop is
    // attributed to the topology change, not the crash.
    let faults = FaultPlan::new(11).with_crash(1, 2, 6);
    let plan = TopologyPlan::new().with_remove(4, 0, 1);
    let cfg = Config::for_n(n)
        .with_faults(faults)
        .with_topology(plan.clone());
    let report = Simulator::new(&topo, cfg, |_| flood::Flood::default()).run()?;
    let reached = report.outputs.iter().filter(|r| r.is_some()).count();
    // The window closed and node 1 still has three other grid edges, so the
    // flood reaches everyone — but only via the surviving links.
    assert_eq!(reached, n, "every node is reachable once the window closes");
    assert!(report.stats.dropped > 0, "the window and removal were live");
    assert_eq!(report.stats.topo_events, 1);
    println!(
        "flood reached {reached}/{n} nodes; {} sends died at the dark node or the \
         severed edge ({} crashed node-rounds)",
        report.stats.dropped, report.stats.crashed
    );

    println!("\nChurn is a first-class input: every engine applies the plan at the");
    println!("same round boundary, repair touches only what moved, the fallback is");
    println!("deterministic, and exactness is asserted, not hoped for.");
    Ok(())
}

mod flood {
    use dapsp::congest::{Inbox, Message, NodeAlgorithm, NodeContext, Outbox, Port};

    #[derive(Clone, Debug)]
    pub struct Token;
    impl Message for Token {
        fn bit_size(&self) -> u32 {
            1
        }
    }

    /// Floods for a fixed horizon after first contact — long enough to
    /// outlive any crash window, so a temporarily dark node still hears
    /// its neighbors once the window closes.
    #[derive(Default)]
    pub struct Flood {
        seen: Option<u64>,
        ttl: u32,
    }

    impl NodeAlgorithm for Flood {
        type Message = Token;
        type Output = Option<u64>;
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
            if ctx.node_id() == 0 {
                self.seen = Some(0);
                self.ttl = 12;
                out.send_to_all(0..ctx.degree() as Port, Token);
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<Token>,
            out: &mut Outbox<Token>,
        ) {
            if !inbox.is_empty() && self.seen.is_none() {
                self.seen = Some(ctx.round());
                self.ttl = 12;
            }
            if self.ttl > 0 {
                out.send_to_all(0..ctx.degree() as Port, Token);
                self.ttl -= 1;
            }
        }
        fn is_active(&self) -> bool {
            self.ttl > 0
        }
        fn into_output(self, _ctx: &NodeContext<'_>) -> Option<u64> {
            self.seen
        }
    }
}
