//! Property tests for the round engine's determinism guarantees: a
//! `k`-threaded run must be bit-for-bit identical to the sequential run —
//! same outputs, same statistics, same typed event trace (per-round
//! delivery counts included) — and the optimized engine must agree with the
//! independent dense oracle ([`ReferenceSimulator`]).

use proptest::prelude::*;

use dapsp_congest::{
    Config, ExecutorKind, FaultPlan, Inbox, LossRule, Message, NodeAlgorithm, NodeContext, Outbox,
    Port, Quiescence, ReferenceSimulator, Report, RunStats, SharedObserver, Simulator,
    TerminationReason, Topology, TraceEvent, TraceRecorder,
};

/// A gossip token: (origin id, hop count). Sized like a real CONGEST
/// message so bandwidth checks run on the same path as production code.
#[derive(Clone, Debug)]
struct Token {
    origin: u32,
    hops: u32,
}
impl Message for Token {
    fn bit_size(&self) -> u32 {
        16
    }
}

/// Every node floods its own id and records, per known origin, the round
/// it first heard it and the hop count it arrived with. Newly-learned
/// origins are queued and re-flooded one per round (a port accepts only one
/// message per round), so all-to-all traffic keeps every edge busy for many
/// rounds — the interesting regime for the commit-order guarantee.
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
        // Adopt in port order; queue each newly-learned origin for one
        // forward. Port order is deterministic, so the queue order is too.
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

/// A single wave from node 0, forwarded exactly once per node: the
/// frontier-sparse regime the active-set scheduler targets. Purely
/// reactive (`is_active` stays `false`), so after the wave passes a node
/// it never reappears on the schedule.
#[derive(Clone)]
struct Wavefront {
    forwarded: bool,
    heard: Option<u64>,
}
impl NodeAlgorithm for Wavefront {
    type Message = Token;
    type Output = Option<u64>;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
        if ctx.node_id() == 0 {
            self.heard = Some(0);
            self.forwarded = true;
            out.send_to_all(0..ctx.degree() as Port, Token { origin: 0, hops: 1 });
        }
    }

    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Token>, out: &mut Outbox<Token>) {
        if inbox.is_empty() {
            return;
        }
        if self.heard.is_none() {
            self.heard = Some(ctx.round());
        }
        if !self.forwarded {
            self.forwarded = true;
            let hops = inbox.iter().map(|(_, m)| m.hops).min().unwrap_or(0);
            out.send_to_all(
                0..ctx.degree() as Port,
                Token {
                    origin: 0,
                    hops: hops + 1,
                },
            );
        }
    }

    fn into_output(self, _: &NodeContext<'_>) -> Option<u64> {
        self.heard
    }
}

/// A node that idles `ticks` rounds (awake, sending nothing), counting how
/// often the engine steps it; with `ticks == 0` it is fully passive.
struct IdleTimer {
    ticks: u64,
    steps: u64,
}
impl NodeAlgorithm for IdleTimer {
    type Message = Token;
    type Output = u64;

    fn on_round(&mut self, _: &NodeContext<'_>, _: &Inbox<Token>, _: &mut Outbox<Token>) {
        self.steps += 1;
        if self.ticks > 0 {
            self.ticks -= 1;
        }
    }

    fn is_active(&self) -> bool {
        self.ticks > 0
    }

    fn into_output(self, _: &NodeContext<'_>) -> u64 {
        self.steps
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

fn gossip_config(n: usize) -> Config {
    // 16-bit tokens need a floor on B for tiny n.
    let base = Config::for_n(n);
    let bw = base.bandwidth_bits.max(16);
    base.with_bandwidth_bits(bw)
}

/// Runs gossip under a [`TraceRecorder`] and returns the report next to the
/// recorded event stream (every delivery, drop and round boundary, with
/// per-round delivery counts) as JSONL — so comparing two runs covers every
/// observable the engine produces.
fn run_with(
    topo: &Topology,
    config: Config,
) -> (Report<<Gossip as NodeAlgorithm>::Output>, String) {
    let n = topo.num_nodes();
    let rec = SharedObserver::new(TraceRecorder::new());
    let report = Simulator::new(topo, config.with_observer(rec.observer()), |_| Gossip {
        first_heard: vec![None; n],
        queue: std::collections::VecDeque::new(),
    })
    .run()
    .expect("gossip runs");
    (report, rec.with(|t| t.events_jsonl()))
}

/// What a tightly bounded [`TraceRecorder`] kept of one parity run: the
/// stored events as JSONL, the overflow count, and the exact event total.
type TraceDigest = (String, u64, u64);

/// The `observed` mode of the four-way parity tests: a trace recorder
/// whose ring is far smaller than the run — which keeps the
/// stored/overflowed split itself part of the comparison.
fn observe(config: Config) -> (Config, SharedObserver<TraceRecorder>) {
    let trace = SharedObserver::new(TraceRecorder::with_capacity(48, 16));
    (config.with_observer(trace.observer()), trace)
}

fn digest(trace: SharedObserver<TraceRecorder>) -> TraceDigest {
    trace.with(|t| (t.events_jsonl(), t.overflow(), t.total_events()))
}

/// The active-set regression the sparse engine exists for: a protocol in
/// which one node idles on a timer and everyone else is passive performs
/// O(1) engine work per round — exactly one node is stepped — instead of
/// the dense engine's n steps. Verified by counting actual `on_round`
/// invocations and the scheduled-node accounting, on every executor, and
/// cross-checked for bit-identity against the dense seed engine (which
/// steps everyone but books the same scheduled counts).
#[test]
fn mostly_idle_protocol_steps_one_node_per_round() {
    const N: usize = 64;
    const TICKS: u64 = 50;
    let adj = random_connected_adj(N, 9, 1);
    let topo = Topology::from_adjacency(adj).expect("valid");
    let init = |ctx: &NodeContext<'_>| IdleTimer {
        ticks: if ctx.node_id() == 0 { TICKS } else { 0 },
        steps: 0,
    };
    let dense = ReferenceSimulator::new(&topo, Config::for_n(N), init)
        .run()
        .expect("reference runs");
    for executor in [
        ExecutorKind::Serial,
        ExecutorKind::Pool { workers: 2 },
        ExecutorKind::Pool { workers: 4 },
    ] {
        let report = Simulator::new(&topo, Config::for_n(N).with_executor(executor), init)
            .run()
            .expect("runs");
        assert_eq!(report.stats.rounds, TICKS, "{executor:?}: rounds");
        // Total on_round invocations across all nodes: one per round, not
        // n per round. (The dense engine steps everyone, so its own
        // outputs differ by design — stepping an inactive node with an
        // empty inbox is unobservable only for honest no-op on_rounds,
        // which the step counter deliberately is not.)
        let total_steps: u64 = report.outputs.iter().sum();
        assert_eq!(total_steps, TICKS, "{executor:?}: steps");
        assert_eq!(
            report.stats.scheduled_node_rounds,
            N as u64 + TICKS,
            "{executor:?}: scheduled node-rounds"
        );
        assert_eq!(
            report.stats.max_scheduled_per_round, N as u64,
            "{executor:?}: round-0 peak"
        );
        assert_eq!(report.stats, dense.stats, "{executor:?}: stats vs dense");
    }
}

/// A fully-passive protocol quiesces without executing a single round, on
/// every executor and on the dense reference engine alike.
#[test]
fn fully_idle_protocol_quiesces_at_round_zero() {
    const N: usize = 16;
    let adj = random_connected_adj(N, 3, 0);
    let topo = Topology::from_adjacency(adj).expect("valid");
    let init = |_: &NodeContext<'_>| IdleTimer { ticks: 0, steps: 0 };
    let dense = ReferenceSimulator::new(&topo, Config::for_n(N), init)
        .run()
        .expect("reference runs");
    assert_eq!(dense.stats.rounds, 0);
    for executor in [ExecutorKind::Serial, ExecutorKind::Pool { workers: 4 }] {
        let report = Simulator::new(&topo, Config::for_n(N).with_executor(executor), init)
            .run()
            .expect("runs");
        assert_eq!(report.stats.rounds, 0, "{executor:?}");
        assert!(report.outputs.iter().all(|&s| s == 0), "{executor:?}");
        assert_eq!(report.stats.scheduled_node_rounds, N as u64, "{executor:?}");
        assert_eq!(report.stats, dense.stats, "{executor:?}");
    }
}

/// Nodes 0 and 1 bounce one token until each has received it `hits`
/// times; node 2 never hears anything. Every node votes `Shutdown` once it
/// has taken part — node 2 from the start — and none is ever active.
struct PingPong {
    received: u64,
    hits: u64,
}
impl NodeAlgorithm for PingPong {
    type Message = Token;
    type Output = u64;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
        if ctx.node_id() == 0 {
            out.send(0, Token { origin: 0, hops: 0 });
        }
    }

    fn on_round(&mut self, _: &NodeContext<'_>, inbox: &Inbox<Token>, out: &mut Outbox<Token>) {
        for (port, msg) in inbox.iter() {
            self.received += 1;
            if self.received < self.hits {
                out.send(port, msg.clone());
            }
        }
    }

    fn quiescence(&self) -> Quiescence {
        if self.received > 0 || self.hits == 0 {
            Quiescence::Shutdown
        } else {
            Quiescence::Passive
        }
    }

    fn into_output(self, _: &NodeContext<'_>) -> u64 {
        self.received
    }
}

/// The termination rule as `Quiescence` documents it: a unanimous
/// `Shutdown` needs every node *polled* after the round to vote it. Idle
/// node 2 votes `Shutdown` but is never polled after round 0, so it counts
/// as `Passive` and vetoes; the path(3) run ends only when the ping-pong
/// drains, after round 5 — not after round 2, when all three current votes
/// first read `Shutdown`. Same on serial, pool(2) and the reference engine.
#[test]
fn an_unpolled_shutdown_vote_vetoes_a_unanimous_shutdown() {
    let topo = Topology::from_adjacency(vec![vec![1], vec![0, 2], vec![1]]).expect("valid");
    let init = |ctx: &NodeContext<'_>| PingPong {
        received: 0,
        hits: if ctx.node_id() == 2 { 0 } else { 3 },
    };
    let config = gossip_config(3);
    let reports = [
        Simulator::new(&topo, config.clone(), init).run(),
        Simulator::new(
            &topo,
            config
                .clone()
                .with_executor(ExecutorKind::Pool { workers: 2 }),
            init,
        )
        .run(),
        ReferenceSimulator::new(&topo, config, init).run(),
    ];
    for report in reports {
        let report = report.expect("runs");
        let cert = report.certificate.expect("certificate");
        assert_eq!(cert.reason, TerminationReason::PassiveDrained);
        assert_eq!((cert.round, report.stats.rounds), (5, 5));
        assert_eq!(cert.votes_shutdown, 3, "every final vote is Shutdown");
        assert_eq!(report.outputs, [2, 3, 0]);
    }
}

/// Checks one run's event stream against the order documented on
/// [`Observer`](dapsp_congest::Observer):
///
/// ```text
/// RunStart (Message|Drop)* QuiescenceVotes(0)
///     ( RoundStart Crash* (Message|Drop)* RoundEnd QuiescenceVotes )*
///     EarlyTermination? RunEnd
/// ```
///
/// with consecutive round numbers and every round-stamped event carrying
/// its round, and that the stream decomposes `stats` exactly: the
/// `Message` / `Drop` / `Crash` / `RoundStart` counts and the summed
/// `bits` are the totals, the busiest send round's `Message` count is
/// `max_messages_per_round`, `RunStart.started` plus every
/// `RoundStart.scheduled` sums to `scheduled_node_rounds` (their maximum
/// is `max_scheduled_per_round`), every vote tally counts the nodes its
/// poll saw — all `nodes` after `on_start`, the round's schedule after —
/// and the final poll has no active voter. Returns the first violation.
fn check_stream(events: &[TraceEvent], stats: &RunStats) -> Result<(), String> {
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum At {
        Begin,
        Boot,
        Between,
        Open,
        Crashes,
        Sealed,
        Terminated,
        Done,
    }
    let mut at = At::Begin;
    let mut round = 0u64;
    let [mut messages, mut dropped, mut crashed, mut rounds, mut bits] = [0u64; 5];
    // This round's sends, the busiest round's, and the scheduling totals.
    let [mut sent, mut peak] = [0u64; 2];
    let [mut scheduled, mut scheduled_peak] = [0u64; 2];
    // The nodes the next poll must tally, and the last poll's active count.
    let [mut polled, mut last_active] = [0u64; 2];
    for (i, ev) in events.iter().enumerate() {
        let next = match (at, ev) {
            (At::Begin, TraceEvent::RunStart { nodes, started, .. }) => {
                polled = *nodes;
                scheduled = *started;
                scheduled_peak = *started;
                At::Boot
            }
            (
                At::Boot | At::Open | At::Crashes,
                TraceEvent::Message {
                    round: r, bits: b, ..
                },
            ) if *r == round => {
                messages += 1;
                bits += u64::from(*b);
                sent += 1;
                peak = peak.max(sent);
                if at == At::Boot {
                    At::Boot
                } else {
                    At::Open
                }
            }
            (At::Boot | At::Open | At::Crashes, TraceEvent::Drop { round: r, .. })
                if *r == round =>
            {
                dropped += 1;
                if at == At::Boot {
                    At::Boot
                } else {
                    At::Open
                }
            }
            (At::Boot, TraceEvent::QuiescenceVotes { round: 0, .. }) => At::Between,
            (
                At::Between,
                TraceEvent::RoundStart {
                    round: r,
                    scheduled: s,
                    ..
                },
            ) if *r == round + 1 => {
                round = *r;
                rounds += 1;
                sent = 0;
                polled = *s;
                scheduled += *s;
                scheduled_peak = scheduled_peak.max(*s);
                At::Crashes
            }
            (At::Crashes, TraceEvent::Crash { round: r, .. }) if *r == round => {
                crashed += 1;
                At::Crashes
            }
            (At::Crashes | At::Open, TraceEvent::RoundEnd { round: r }) if *r == round => {
                At::Sealed
            }
            (At::Sealed, TraceEvent::QuiescenceVotes { round: r, .. }) if *r == round => {
                At::Between
            }
            (At::Between, TraceEvent::EarlyTermination { round: r, .. }) if *r == round => {
                At::Terminated
            }
            (At::Between | At::Terminated, TraceEvent::RunEnd { .. }) => At::Done,
            _ => return Err(format!("event {i} {ev:?} out of order after {at:?}")),
        };
        if let TraceEvent::QuiescenceVotes {
            active,
            passive,
            shutdown,
            ..
        } = ev
        {
            if active + passive + shutdown != polled {
                return Err(format!("event {i} {ev:?} does not tally {polled} polled"));
            }
            last_active = *active;
        }
        at = next;
    }
    if at != At::Done {
        return Err(format!("stream stops at {at:?}"));
    }
    if last_active != 0 {
        return Err(format!("the final poll saw {last_active} active voters"));
    }
    let counted = [messages, dropped, crashed, rounds, bits, peak];
    let booked = [
        stats.messages,
        stats.dropped,
        stats.crashed,
        stats.rounds,
        stats.bits,
        stats.max_messages_per_round,
    ];
    if counted != booked {
        return Err(format!(
            "[Message, Drop, Crash, RoundStart, bits, peak] counts {counted:?} != stats {booked:?}"
        ));
    }
    let schedule = [scheduled, scheduled_peak];
    let booked = [stats.scheduled_node_rounds, stats.max_scheduled_per_round];
    if schedule != booked {
        return Err(format!(
            "[started + scheduled, peak] {schedule:?} != stats {booked:?}"
        ));
    }
    Ok(())
}

/// Pins a run that demonstrably loses messages, so the lossy stream
/// decompositions [`check_stream`] makes can't pass vacuously.
#[test]
fn fixed_lossy_run_drops_and_decomposes() {
    let n = 24;
    let topo = Topology::from_adjacency(random_connected_adj(n, 0xC0FFEE, 2)).expect("valid");
    let rec = SharedObserver::new(TraceRecorder::new());
    let config = gossip_config(n)
        .with_loss(0.3, 7)
        .with_observer(rec.observer());
    let report = Simulator::new(&topo, config, |_| Gossip {
        first_heard: vec![None; n],
        queue: std::collections::VecDeque::new(),
    })
    .run()
    .expect("gossip runs");
    assert!(
        report.stats.dropped > 0,
        "expected the 0.3 loss plan to drop at least one of {} messages",
        report.stats.messages + report.stats.dropped
    );
    let events: Vec<TraceEvent> = rec.with(|r| {
        assert_eq!(r.overflow(), 0, "the ring holds the whole run");
        r.events().cloned().collect()
    });
    assert_eq!(check_stream(&events, &report.stats), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee: for k ∈ {2, 4}, a k-threaded run is
    /// indistinguishable from the sequential run — outputs, stats
    /// (wall-time excluded by `RunStats`'s `PartialEq`), round counts, and
    /// the full event trace (per-round delivery counts included) all match.
    #[test]
    fn threaded_runs_match_sequential(n in 2usize..40, seed in any::<u64>(), extra in 0usize..3) {
        let adj = random_connected_adj(n, seed, extra);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let (sequential, seq_trace) = run_with(&topo, gossip_config(n));
        for k in [2usize, 4] {
            let (threaded, trace) = run_with(&topo, gossip_config(n).with_executor(ExecutorKind::Pool { workers: k }));
            prop_assert_eq!(&sequential.outputs, &threaded.outputs, "outputs, k={}", k);
            prop_assert_eq!(sequential.stats, threaded.stats, "stats, k={}", k);
            prop_assert_eq!(&seq_trace, &trace, "trace, k={}", k);
        }
    }

    /// Oversubscription (more threads than nodes) and loss injection keep
    /// the same guarantee: the loss plan keys on (round, sender, port), all
    /// of which are thread-count independent.
    #[test]
    fn threads_and_loss_stay_deterministic(n in 2usize..24, seed in any::<u64>()) {
        let adj = random_connected_adj(n, seed, 1);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let lossy = |executor: ExecutorKind| {
            run_with(&topo, gossip_config(n).with_loss(0.3, seed).with_executor(executor))
        };
        let (sequential, seq_trace) = lossy(ExecutorKind::Serial);
        for k in [3usize, 64] {
            let (threaded, trace) = lossy(ExecutorKind::Pool { workers: k });
            prop_assert_eq!(&sequential.outputs, &threaded.outputs, "outputs, k={}", k);
            prop_assert_eq!(sequential.stats, threaded.stats, "stats, k={}", k);
            prop_assert_eq!(&seq_trace, &trace, "trace, k={}", k);
        }
    }

    /// Four-way executor parity under every observability mode: Serial vs
    /// Pool(2) vs Pool(4) vs the seed-verbatim `ReferenceSimulator`, on
    /// random graphs × loss plans × observer attached/detached. Asserts
    /// identical `RunStats` and, when observed, identical (truncated)
    /// trace rings — the tight capacity keeps the stored/counted-overflow
    /// split itself part of the comparison. (That a whole stream
    /// decomposes the stats is [`check_stream`]'s job.)
    #[test]
    fn executors_match_reference_under_observation(
        n in 2usize..24,
        seed in any::<u64>(),
        lossy in any::<bool>(),
        observed in any::<bool>(),
    ) {
        let adj = random_connected_adj(n, seed, 1);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let make_config = || {
            let mut c = gossip_config(n).with_phase("parity");
            if lossy {
                c = c.with_loss(0.25, seed);
            }
            c
        };
        let init = |_: &NodeContext<'_>| Gossip {
            first_heard: vec![None; n],
            queue: std::collections::VecDeque::new(),
        };
        // `reference: true` ignores the executor and runs the seed engine.
        let run_one = |executor: ExecutorKind, reference: bool| {
            let mut config = make_config().with_executor(executor);
            let mut trace = None;
            if observed {
                let (watched, rec) = observe(config);
                config = watched;
                trace = Some(rec);
            }
            let report = if reference {
                ReferenceSimulator::new(&topo, config, init).run().expect("reference runs")
            } else {
                Simulator::new(&topo, config, init).run().expect("pipeline runs")
            };
            (report, trace.map(digest))
        };
        let (baseline, base_trace) = run_one(ExecutorKind::Serial, false);
        let candidates = [
            (ExecutorKind::Pool { workers: 2 }, false),
            (ExecutorKind::Pool { workers: 4 }, false),
            (ExecutorKind::Serial, true),
        ];
        for (executor, reference) in candidates {
            let (other, other_trace) = run_one(executor, reference);
            let label = if reference { "reference".into() } else { format!("{executor:?}") };
            prop_assert_eq!(&baseline.outputs, &other.outputs, "outputs vs {}", label);
            prop_assert_eq!(baseline.stats, other.stats, "stats vs {}", label);
            // The stored ring, overflow count and event total all match.
            prop_assert_eq!(&base_trace, &other_trace, "observers vs {}", label);
        }
    }

    /// Sparse-vs-dense bit-identity on a workload whose frontier really is
    /// sparse: a single wave expands from node 0 and each node forwards
    /// exactly once, so most rounds schedule only the wavefront. The
    /// active-set engines (serial, pool-2, pool-4) must agree with the
    /// dense seed engine — which steps every node every round — on
    /// outputs, stats (including the scheduled-node columns) and traces,
    /// across loss × observer modes.
    #[test]
    fn sparse_frontier_matches_dense_reference(
        n in 2usize..32,
        seed in any::<u64>(),
        lossy in any::<bool>(),
        observed in any::<bool>(),
    ) {
        let adj = random_connected_adj(n, seed, 0);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let make_config = || {
            let mut c = gossip_config(n).with_phase("sparse");
            if lossy {
                c = c.with_loss(0.2, seed);
            }
            c
        };
        let init = |_: &NodeContext<'_>| Wavefront { forwarded: false, heard: None };
        let run_one = |executor: ExecutorKind, reference: bool| {
            let mut config = make_config().with_executor(executor);
            let mut trace = None;
            if observed {
                let (watched, rec) = observe(config);
                config = watched;
                trace = Some(rec);
            }
            let report = if reference {
                ReferenceSimulator::new(&topo, config, init).run().expect("reference runs")
            } else {
                Simulator::new(&topo, config, init).run().expect("pipeline runs")
            };
            (report, trace.map(digest))
        };
        let (dense, dense_trace) = run_one(ExecutorKind::Serial, true);
        // The wavefront keeps the schedule strictly sparse on any graph
        // with more than a couple of nodes: once the wave has passed, a
        // node never reappears on the schedule.
        prop_assert!(dense.stats.scheduled_node_rounds <= (n as u64) * 3 + dense.stats.messages + dense.stats.dropped);
        for executor in [
            ExecutorKind::Serial,
            ExecutorKind::Pool { workers: 2 },
            ExecutorKind::Pool { workers: 4 },
        ] {
            let (sparse, sparse_trace) = run_one(executor, false);
            let label = format!("{executor:?}");
            prop_assert_eq!(&dense.outputs, &sparse.outputs, "outputs vs {}", label);
            prop_assert_eq!(dense.stats, sparse.stats, "stats vs {}", label);
            prop_assert_eq!(&dense_trace, &sparse_trace, "observers vs {}", label);
        }
    }

    /// The structured trace contract: the typed event stream recorded by
    /// [`TraceRecorder`] renders to bit-identical JSONL on Serial, Pool(2),
    /// Pool(4) and the seed reference engine, under loss × trace-attached
    /// runs — and the termination certificate every engine attaches to its
    /// report is equal too, with internally consistent vote tallies.
    #[test]
    fn trace_streams_and_certificates_match_four_ways(
        n in 2usize..24,
        seed in any::<u64>(),
        lossy in any::<bool>(),
    ) {
        let adj = random_connected_adj(n, seed, 1);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let init = |_: &NodeContext<'_>| Gossip {
            first_heard: vec![None; n],
            queue: std::collections::VecDeque::new(),
        };
        let run_one = |executor: ExecutorKind, reference: bool| {
            let mut config = gossip_config(n).with_phase("trace").with_executor(executor);
            if lossy {
                config = config.with_loss(0.25, seed);
            }
            let rec = SharedObserver::new(TraceRecorder::new());
            let config = config.with_observer(rec.observer());
            let report = if reference {
                ReferenceSimulator::new(&topo, config, init).run().expect("reference runs")
            } else {
                Simulator::new(&topo, config, init).run().expect("pipeline runs")
            };
            let (jsonl, total) = rec.with(|r| (r.events_jsonl(), r.total_events()));
            (report, jsonl, total)
        };
        let (base_report, base_jsonl, base_total) = run_one(ExecutorKind::Serial, false);
        // Certificate invariants: present on success, every node votes,
        // the tallies decompose n, and the final poll saw no active node.
        let cert = base_report.certificate.as_ref().expect("success carries a certificate");
        prop_assert_eq!(cert.node_votes.len(), n, "one vote per node");
        prop_assert_eq!(
            cert.votes_active + cert.votes_passive + cert.votes_shutdown,
            n as u64,
            "vote tallies decompose n"
        );
        prop_assert_eq!(cert.votes_active, 0, "terminated with an active voter");
        prop_assert_eq!(cert.round, base_report.stats.rounds, "certificate round");
        if cert.reason == TerminationReason::PassiveDrained {
            prop_assert_eq!(cert.in_flight, 0, "passive-drained with messages in flight");
        } else {
            prop_assert_eq!(cert.votes_shutdown, n as u64, "shutdown-unanimous tally");
        }
        for (executor, reference) in [
            (ExecutorKind::Pool { workers: 2 }, false),
            (ExecutorKind::Pool { workers: 4 }, false),
            (ExecutorKind::Serial, true),
        ] {
            let (other_report, other_jsonl, other_total) = run_one(executor, reference);
            let label = if reference { "reference".into() } else { format!("{executor:?}") };
            prop_assert_eq!(&base_jsonl, &other_jsonl, "trace JSONL vs {}", label);
            prop_assert_eq!(base_total, other_total, "trace totals vs {}", label);
            prop_assert_eq!(
                &base_report.certificate, &other_report.certificate,
                "certificate vs {}", label
            );
        }
    }

    /// The documented event order holds on every engine under every
    /// adversity: Serial, Pool(2) and the seed reference engine, on random
    /// graphs × loss × crash windows, each emit one stream matching
    /// [`check_stream`]'s grammar that decomposes the run's `RunStats` —
    /// and the three streams are equal.
    #[test]
    fn event_streams_follow_the_documented_order(
        n in 3usize..16,
        seed in any::<u64>(),
        lossy in any::<bool>(),
        crash_window in any::<bool>(),
    ) {
        let adj = random_connected_adj(n, seed, 1);
        let topo = Topology::from_adjacency(adj.clone()).expect("valid");
        let mut faults = FaultPlan::new(seed);
        if lossy {
            faults = faults.with_rule(LossRule::Uniform { probability: 0.2 });
        }
        if crash_window {
            faults = faults.with_crash((seed % n as u64) as u32, 1, 3);
        }
        let config = gossip_config(n).with_phase("order").with_faults(faults);
        let init = |_: &NodeContext<'_>| Gossip {
            first_heard: vec![None; n],
            queue: std::collections::VecDeque::new(),
        };
        let mut streams = Vec::new();
        for (executor, reference) in [
            (ExecutorKind::Serial, false),
            (ExecutorKind::Pool { workers: 2 }, false),
            (ExecutorKind::Serial, true),
        ] {
            let rec = SharedObserver::new(TraceRecorder::new());
            let config = config.clone().with_executor(executor).with_observer(rec.observer());
            let report = if reference {
                ReferenceSimulator::new(&topo, config, init).run().expect("reference runs")
            } else {
                Simulator::new(&topo, config, init).run().expect("pipeline runs")
            };
            let events: Vec<TraceEvent> = rec.with(|r| {
                assert_eq!(r.overflow(), 0, "the ring holds the whole run");
                r.events().cloned().collect()
            });
            let label = if reference { "reference".into() } else { format!("{executor:?}") };
            prop_assert_eq!(check_stream(&events, &report.stats), Ok(()), "{}", label);
            streams.push(events);
        }
        prop_assert_eq!(&streams[0], &streams[1], "serial vs pool");
        prop_assert_eq!(&streams[0], &streams[2], "serial vs reference");
    }

    /// The optimized engine agrees with the verbatim seed engine on every
    /// observable — the buffer recycling and skip-sort paths change nothing.
    #[test]
    fn optimized_engine_matches_seed_engine(n in 2usize..32, seed in any::<u64>(), extra in 0usize..2) {
        let adj = random_connected_adj(n, seed, extra);
        let topo = Topology::from_adjacency(adj).expect("valid");
        let (optimized, trace) = run_with(&topo, gossip_config(n));
        let rec = SharedObserver::new(TraceRecorder::new());
        let config = gossip_config(n).with_observer(rec.observer());
        let reference = ReferenceSimulator::new(&topo, config, |_| Gossip {
            first_heard: vec![None; n],
            queue: std::collections::VecDeque::new(),
        })
        .run()
        .expect("reference runs");
        prop_assert_eq!(&optimized.outputs, &reference.outputs);
        prop_assert_eq!(optimized.stats, reference.stats);
        prop_assert_eq!(trace, rec.with(|t| t.events_jsonl()));
    }
}

/// A node that sends a token on port 0 every round for `rounds` rounds —
/// a steady message source for the drop-attribution test.
struct Pinger {
    remaining: u64,
}
impl NodeAlgorithm for Pinger {
    type Message = Token;
    type Output = ();

    fn on_round(&mut self, ctx: &NodeContext<'_>, _: &Inbox<Token>, out: &mut Outbox<Token>) {
        if self.remaining > 0 && ctx.degree() > 0 {
            self.remaining -= 1;
            out.send(
                0,
                Token {
                    origin: ctx.node_id(),
                    hops: 0,
                },
            );
        }
    }

    fn is_active(&self) -> bool {
        self.remaining > 0
    }

    fn into_output(self, _: &NodeContext<'_>) {}
}

/// A crash window never touches the topology: the node resumes with all
/// its edges when the window closes, and every drop is attributed to the
/// crash.
#[test]
fn crash_windows_keep_edges() {
    let topo = Topology::from_adjacency(vec![vec![1], vec![0]]).expect("valid");
    // Node 1 is crashed for rounds 1–3 (windows are half-open). A send in
    // round R delivers in round R+1, and the crash check keys on the
    // delivery round: sends of rounds 1–2 drop, everything later lands.
    let faults = FaultPlan::new(7).with_crash(1, 1, 4);
    let config = Config::for_n(2).with_bandwidth_bits(16).with_faults(faults);
    let rec = SharedObserver::new(TraceRecorder::new());
    let config = config.with_observer(rec.observer());
    let report = Simulator::new(&topo, config, |ctx| Pinger {
        remaining: if ctx.node_id() == 0 { 5 } else { 0 },
    })
    .run()
    .expect("runs");
    let jsonl = rec.with(|t| t.events_jsonl());
    assert_eq!(jsonl.matches("\"reason\":\"ReceiverCrashed\"").count(), 2);
    assert_eq!(report.stats.dropped, 2);
    assert_eq!(report.stats.messages, 3, "post-window pings deliver");
}

/// A fault plan that names a node the network does not have, or whose
/// loss probability is NaN or outside `[0, 1]`, is refused before round 0
/// by both engines with one typed error — not run with a phantom crash
/// booked every round, or with a NaN that silently drops nothing. The
/// same plans on a network that has the node, with a probability in
/// range, run.
#[test]
fn fault_plans_that_cannot_apply_are_refused_by_both_engines() {
    let topo = Topology::from_adjacency(vec![vec![1], vec![0]]).expect("valid");
    let bad = [
        FaultPlan::uniform_loss(0.0, 1).with_crash(2, 0, 1_000_000),
        FaultPlan::uniform_loss(f64::NAN, 1),
        FaultPlan::uniform_loss(1.5, 1),
        FaultPlan::uniform_loss(-0.1, 1),
        FaultPlan::new(1).with_rule(LossRule::Burst {
            probability: f64::NAN,
            period: 4,
            len: 2,
        }),
    ];
    let good = [
        FaultPlan::uniform_loss(0.0, 1).with_crash(1, 0, 3),
        FaultPlan::uniform_loss(1.0, 1),
    ];
    let pinger = |ctx: &NodeContext<'_>| Pinger {
        remaining: if ctx.node_id() == 0 { 3 } else { 0 },
    };
    for (plan, refused) in bad
        .iter()
        .map(|p| (p, true))
        .chain(good.iter().map(|p| (p, false)))
    {
        let config = || {
            let rec = SharedObserver::new(TraceRecorder::new());
            let config = Config::for_n(2)
                .with_bandwidth_bits(16)
                .with_faults(plan.clone())
                .with_observer(rec.observer());
            (config, rec)
        };
        let (fast, fast_rec) = config();
        let (dense, dense_rec) = config();
        let runs = [
            Simulator::new(&topo, fast, pinger).run().map(|r| r.stats),
            ReferenceSimulator::new(&topo, dense, pinger)
                .run()
                .map(|r| r.stats),
        ];
        for (run, rec) in runs.iter().zip([fast_rec, dense_rec]) {
            if refused {
                assert!(
                    matches!(run, Err(dapsp_congest::SimError::InvalidFaultPlan(_))),
                    "{plan:?}: {run:?}"
                );
                assert_eq!(
                    rec.with(|t| t.total_events()),
                    0,
                    "{plan:?}: refused before round 0"
                );
            } else {
                assert!(run.is_ok(), "{plan:?}: {run:?}");
            }
        }
    }
}
