//! Per-message bandwidth enforcement, end to end.
//!
//! `Config::for_n` sets the bandwidth `B = 2⌈log₂ n⌉ + 8`, and the engine
//! refuses **every** message whose `bit_size()` exceeds it with
//! [`SimError::BandwidthExceeded`] — on the serial and the pool executor
//! alike, in every build profile. Running every algorithm in this crate
//! here therefore turns any overweight message type into a test failure:
//! these tests assert success, and the engine's check does the
//! per-message work.

use dapsp_congest::{bits_for_id, Config, ExecutorKind, SimError};
use dapsp_core::kernel::{distance_rows, run_protocol_on, Deal, WaveKernel};
use dapsp_core::{
    aggregate, approx, apsp, bfs, dominating, girth, girth_approx, leader, metrics, ssp, ssp_paper,
    three_halves, two_vs_four, Obs,
};
use dapsp_graph::{generators, Graph};

fn zoo() -> Vec<Graph> {
    vec![
        generators::path(10),
        generators::cycle(9),
        generators::grid(3, 4),
        generators::complete(7),
        generators::lollipop(4, 5),
        generators::erdos_renyi_connected(20, 0.2, 11),
    ]
}

/// The default bandwidth is the paper's `B = O(log n)`: two node ids
/// plus a constant.
#[test]
fn default_budget_is_two_ids_plus_constant() {
    for n in [2usize, 10, 1000, 1 << 20] {
        assert_eq!(Config::for_n(n).bandwidth_bits, 2 * bits_for_id(n) + 8);
    }
}

/// Wave traffic: single-root BFS, Algorithm 1's pebble + waves
/// (full and truncated), and Algorithm 2's queued growth.
#[test]
fn wave_protocols_respect_the_budget() {
    for g in zoo() {
        let n = g.num_nodes() as u32;
        bfs::run_on_obs(&g.to_topology(), 0, Obs::none()).unwrap();
        apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap();
        apsp::run_truncated(&g, 3).unwrap();
        ssp::run_on_obs(&g.to_topology(), &[0, n - 1], Obs::none()).unwrap();
        ssp_paper::run_on_obs(&g.to_topology(), &[0, n - 1], Obs::none()).unwrap();
    }
}

/// Convergecast traffic, including the largest partials this crate ever
/// aggregates (sums of per-node counts `≤ n`).
#[test]
fn aggregation_respects_the_budget() {
    for g in zoo() {
        let n = g.num_nodes();
        let t1 = bfs::run_on_obs(&g.to_topology(), 0, Obs::none())
            .unwrap()
            .tree;
        let counts: Vec<u64> = (0..n as u64).collect();
        for op in [
            aggregate::AggOp::Max,
            aggregate::AggOp::Min,
            aggregate::AggOp::Sum,
            aggregate::AggOp::Or,
        ] {
            aggregate::run_on_obs(&g.to_topology(), &t1, &counts, op, Obs::none()).unwrap();
        }
        dominating::run_on_obs(&g.to_topology(), &t1, 2, Obs::none()).unwrap();
    }
}

/// The composite pipelines (metrics, girth, approximations, Algorithm 3)
/// and the remaining message type (leader claims).
#[test]
fn composite_pipelines_respect_the_budget() {
    for g in zoo() {
        metrics::diameter(&g).unwrap();
        girth::run(&g).unwrap();
        girth_approx::run(&g, 0.5).unwrap();
        approx::diameter(&g, 0.5).unwrap();
        three_halves::run(&g, 7).unwrap();
        two_vs_four::run(&g, 7).unwrap();
        leader::run_on_obs(&g.to_topology(), Obs::none()).unwrap();
    }
}

/// The pool executor runs the same budget check as the serial one:
/// kernel traffic must pass it on worker threads too.
#[test]
fn pool_executor_checks_kernel_envelopes() {
    for workers in [2usize, 4] {
        let g = generators::erdos_renyi_connected(24, 0.2, 3);
        let topo = g.to_topology();
        let config = Config::for_n(24).with_executor(ExecutorKind::Pool { workers });
        let (mut dist, mut parent) = distance_rows(24, 1);
        let mut deal = Deal::new(&mut dist, &mut parent);
        run_protocol_on(&topo, config, |ctx| {
            WaveKernel::single_root(ctx, 0, deal.row(ctx))
        })
        .unwrap();
        assert!(dist.cells().iter().all(|&d| d != u32::MAX));
    }
}

/// The reliable transport's worst frame fits the budget exactly. A frame
/// spends 5 bits of overhead (data-presence + frame parity +
/// payload-presence + ack-presence + ack parity) around its payload; the
/// widest payload any pipeline ships is Algorithm 1's pebble +
/// wave (two presence tags, a root id, a depth count). At power-of-two `n`
/// that sum lands on `B` with zero bits to spare — this pins the
/// arithmetic so a future field on any layer fails here first.
#[test]
fn worst_case_reliable_frame_is_exactly_the_budget() {
    use dapsp_congest::{bits_for_count, Width};
    for n in [4usize, 8, 16, 64, 1 << 10, 1 << 16] {
        let budget = Config::for_n(n).bandwidth_bits;
        let frame_overhead = Width::ZERO.tag().tag().tag().tag().tag().bits();
        assert_eq!(frame_overhead, 5);
        // Stacked APSP wave payload: pebble tag + wave tag + root id +
        // depth counter (depths reach n − 1, encoded as count(n)).
        let stacked_wave = Width::ZERO.tag().tag().id(n).count(n).bits();
        assert!(
            frame_overhead + stacked_wave <= budget,
            "n={n}: frame {frame_overhead}+{stacked_wave} exceeds budget {budget}"
        );
        if n.is_power_of_two() && bits_for_count(n) == bits_for_id(n) {
            assert_eq!(
                frame_overhead + stacked_wave,
                budget,
                "n={n}: the worst frame should use the whole budget"
            );
        }
    }
}

/// End-to-end: the reliable pipelines' frames — acks, retransmissions,
/// piggybacked data — all pass the engine's bandwidth check. Loss forces retransmissions, so the retransmit path is
/// exercised, not just the happy path.
#[test]
fn reliable_pipelines_respect_the_budget_under_loss() {
    use dapsp_congest::FaultPlan;
    for g in zoo() {
        let n = g.num_nodes() as u32;
        let plan = FaultPlan::uniform_loss(0.15, 77);
        let (topo, obs) = (g.to_topology(), Obs::none().with_faults(&plan));
        bfs::run_on_obs(&topo, 0, obs).unwrap();
        apsp::run_on_obs(&topo, obs).unwrap();
        ssp::run_on_obs(&topo, &[0, n - 1], obs).unwrap();
    }
}

/// An over-budget *ack* frame is refused: wrap a kernel whose payload
/// alone fills the whole bandwidth, so the reliable frame around it
/// (parity + presence + ack bits) must overflow. The typed error proves
/// ack overhead is charged against `B`, not smuggled past it.
#[test]
fn over_budget_ack_frame_is_refused() {
    use dapsp_congest::{NodeContext, Port, Width};
    use dapsp_core::kernel::{Protocol, ReliableKernel, Tx};
    use dapsp_core::CoreError;

    /// A kernel whose single payload is declared exactly as wide as the
    /// bandwidth — legal bare, too heavy once framed.
    struct FullWidth {
        budget: u32,
    }
    impl Protocol for FullWidth {
        type Payload = ();
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<()>) {
            if ctx.node_id() == 0 {
                tx.send(0, ());
            }
        }
        fn on_message(&mut self, _: &NodeContext<'_>, _: Port, _: (), _: &mut Tx<()>) {}
        fn width(&self, _: &()) -> Width {
            Width::ZERO.raw(self.budget)
        }
        fn finish(self, _: &NodeContext<'_>) {}
    }

    let g = generators::path(2);
    let topo = g.to_topology();
    let budget = Config::for_n(2).bandwidth_bits;
    let err = run_protocol_on(&topo, Config::for_n(2), |_| {
        ReliableKernel::new(FullWidth { budget }, 2, 3)
    })
    .unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Sim(SimError::BandwidthExceeded {
                node: 0,
                round: 0,
                message_bits,
                bandwidth_bits,
                ..
            }) if message_bits > bandwidth_bits && bandwidth_bits == budget
        ),
        "{err:?}"
    );
}
