//! Property tests for the observer layer: the recorded per-round metric
//! stream must be an *exact decomposition* of [`RunStats`] — column sums
//! reproduce the run totals with no event lost or double-counted — on both
//! engines and at every thread count, with and without message loss.

use proptest::prelude::*;

use dapsp_congest::obs::RoundMetrics;
use dapsp_congest::{
    Config, Inbox, Message, MetricsRecorder, NodeAlgorithm, NodeContext, Outbox, Port,
    ReferenceSimulator, Report, RunStats, SharedObserver, Simulator, Topology,
};

/// A gossip token: (origin id, hop count), tagged with its origin stream.
#[derive(Clone, Debug)]
struct Token {
    origin: u32,
    hops: u32,
}
impl Message for Token {
    fn bit_size(&self) -> u32 {
        16
    }
    fn stream_id(&self) -> Option<u32> {
        Some(self.origin)
    }
}

/// All-to-all gossip (the engine-equivalence workload): every node floods
/// its id; newly-learned origins are re-flooded one per round.
struct Gossip {
    first_heard: Vec<Option<(u64, u32)>>,
    queue: std::collections::VecDeque<Token>,
}
impl NodeAlgorithm for Gossip {
    type Message = Token;
    type Output = Vec<Option<(u64, u32)>>;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
        self.first_heard[ctx.node_id() as usize] = Some((0, 0));
        out.send_to_all(
            0..ctx.degree() as Port,
            Token {
                origin: ctx.node_id(),
                hops: 1,
            },
        );
    }

    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Token>, out: &mut Outbox<Token>) {
        for (_, msg) in inbox.iter() {
            let o = msg.origin as usize;
            if self.first_heard[o].is_none() {
                self.first_heard[o] = Some((ctx.round(), msg.hops));
                self.queue.push_back(Token {
                    origin: msg.origin,
                    hops: msg.hops + 1,
                });
            }
        }
        if let Some(t) = self.queue.pop_front() {
            out.send_to_all(0..ctx.degree() as Port, t);
        }
    }

    fn is_active(&self) -> bool {
        !self.queue.is_empty()
    }

    fn into_output(self, _: &NodeContext<'_>) -> Vec<Option<(u64, u32)>> {
        self.first_heard
    }
}

/// Random connected topology: random-attachment tree plus extra edges.
fn random_connected_adj(n: usize, seed: u64, extra_per_node: usize) -> Vec<Vec<u32>> {
    let mut edges = std::collections::BTreeSet::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for v in 1..n as u64 {
        let p = next() % v;
        edges.insert((p.min(v) as u32, p.max(v) as u32));
    }
    for _ in 0..extra_per_node * n {
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let mut adj = vec![vec![]; n];
    for (a, b) in edges {
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    adj
}

fn base_config(n: usize, loss: Option<(f64, u64)>) -> Config {
    let base = Config::for_n(n);
    let bw = base.bandwidth_bits.max(16);
    let config = base.with_bandwidth_bits(bw).with_phase("gossip");
    match loss {
        Some((p, seed)) => config.with_loss(p, seed),
        None => config,
    }
}

/// A gossip run's report next to its recorded metric stream.
type Observed = (Report<Vec<Option<(u64, u32)>>>, Vec<RoundMetrics>);

/// Runs the gossip workload with a recorder attached; returns the report
/// and the recorded stream.
fn run_observed(
    topo: &Topology,
    engine: &str,
    threads: usize,
    loss: Option<(f64, u64)>,
) -> Observed {
    let n = topo.num_nodes();
    let recorder = SharedObserver::new(MetricsRecorder::new());
    let config = base_config(n, loss)
        .with_threads(threads)
        .with_observer(recorder.observer());
    let init = |_: &NodeContext<'_>| Gossip {
        first_heard: vec![None; n],
        queue: std::collections::VecDeque::new(),
    };
    let report = match engine {
        "seed" => ReferenceSimulator::new(topo, config, init)
            .run()
            .expect("seed engine runs"),
        _ => Simulator::new(topo, config, init)
            .run()
            .expect("optimized engine runs"),
    };
    (report, recorder.with(|r| r.stream().to_vec()))
}

/// The decomposition invariant: stream column sums == `RunStats` totals.
fn assert_decomposes(stream: &[RoundMetrics], stats: &RunStats, tag: &str) {
    assert_eq!(
        stream.len() as u64,
        stats.rounds + 1,
        "{tag}: one row per round plus the on_start row"
    );
    let messages: u64 = stream.iter().map(|m| m.messages).sum();
    let bits: u64 = stream.iter().map(|m| m.bits).sum();
    let dropped: u64 = stream.iter().map(|m| m.dropped).sum();
    assert_eq!(messages, stats.messages, "{tag}: messages");
    assert_eq!(bits, stats.bits, "{tag}: bits");
    assert_eq!(dropped, stats.dropped, "{tag}: dropped");
    // Row r counts commits during round r, all delivered in round r + 1,
    // so the per-round delivery peak equals the per-row commit peak.
    let peak = stream.iter().map(|m| m.messages).max().unwrap_or(0);
    assert_eq!(peak, stats.max_messages_per_round, "{tag}: peak");
    // The scheduled column decomposes the active-set accounting the same
    // way: row 0 carries the on_start count, later rows the per-round
    // schedule sizes.
    let scheduled: u64 = stream.iter().map(|m| m.scheduled_nodes).sum();
    assert_eq!(
        scheduled, stats.scheduled_node_rounds,
        "{tag}: scheduled node-rounds"
    );
    let sched_peak = stream.iter().map(|m| m.scheduled_nodes).max().unwrap_or(0);
    assert_eq!(
        sched_peak, stats.max_scheduled_per_round,
        "{tag}: scheduled peak"
    );
    for m in stream {
        assert_eq!(&*m.phase, "gossip", "{tag}: phase label");
    }
    // The quiescence-vote decomposition: each row's three vote columns
    // tally exactly the nodes polled in that round's termination check —
    // everyone after on_start (row 0), the scheduled set afterwards. The
    // crash-free workloads here make row 0's scheduled count n itself, so
    // one invariant covers both cases.
    for m in stream {
        assert_eq!(
            m.votes_active + m.votes_passive + m.votes_shutdown,
            m.scheduled_nodes,
            "{tag}: row {} vote tally != polled nodes",
            m.round
        );
    }
    // The run terminated, so the final poll saw no active node.
    let last = stream.last().expect("nonempty stream");
    assert_eq!(last.votes_active, 0, "{tag}: final row has active voters");
}

/// Pins the `dropped` column to a run that demonstrably loses messages,
/// so the lossy decomposition checks below can't pass vacuously.
#[test]
fn fixed_lossy_run_exercises_the_dropped_column() {
    let adj = random_connected_adj(24, 0xC0FFEE, 2);
    let topo = Topology::from_adjacency(adj).expect("valid");
    let (report, stream) = run_observed(&topo, "optimized", 1, Some((0.3, 7)));
    assert!(
        report.stats.dropped > 0,
        "expected the 0.3 loss plan to drop at least one of {} messages",
        report.stats.messages + report.stats.dropped
    );
    assert_decomposes(&stream, &report.stats, "fixed-lossy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite invariant: on random connected graphs, the recorded
    /// stream decomposes `RunStats` exactly for the seed engine and for
    /// the optimized engine at 1, 2, and 4 threads — and all four streams
    /// are identical row-for-row (timing fields excluded by
    /// `RoundMetrics`'s `PartialEq`).
    #[test]
    fn stream_decomposes_stats_across_engines_and_threads(
        n in 2usize..28,
        seed in any::<u64>(),
        extra in 0usize..2,
    ) {
        let adj = random_connected_adj(n, seed, extra);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let mut streams: Vec<Vec<RoundMetrics>> = Vec::new();
        for (engine, threads) in [("seed", 1usize), ("optimized", 1), ("optimized", 2), ("optimized", 4)] {
            let (report, stream) = run_observed(&topo, engine, threads, None);
            assert_decomposes(&stream, &report.stats, &format!("{engine}/t{threads}"));
            streams.push(stream);
        }
        for s in &streams[1..] {
            prop_assert_eq!(&streams[0], s, "streams identical across engines/threads");
        }
    }

    /// Same decomposition under deterministic message loss: dropped events
    /// land in the stream's `dropped` column, delivered ones in
    /// `messages`, and the two never double-count.
    #[test]
    fn lossy_streams_decompose_and_stay_deterministic(
        n in 2usize..20,
        seed in any::<u64>(),
    ) {
        let adj = random_connected_adj(n, seed, 1);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let loss = Some((0.3, seed));
        let (sequential, s_stream) = run_observed(&topo, "optimized", 1, loss);
        assert_decomposes(&s_stream, &sequential.stats, "lossy/opt/t1");
        for (engine, threads) in [("seed", 1usize), ("optimized", 4)] {
            let (other, o_stream) = run_observed(&topo, engine, threads, loss);
            assert_decomposes(&o_stream, &other.stats, &format!("lossy/{engine}/t{threads}"));
            prop_assert_eq!(&s_stream, &o_stream, "lossy stream identical, {}/t{}", engine, threads);
        }
    }
}
