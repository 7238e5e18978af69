//! Targeted regression tests for the phase-pipeline/executor split:
//! worker-pool lifecycle (threads spawn once per run, never per round),
//! per-outbox duplicate-send stamps, error and partial-accounting parity
//! between executors, and the active-set schedule staying sparse at scale.

use std::sync::{Mutex, MutexGuard};

use dapsp_congest::{
    pool_workers_spawned, Config, ExecutorKind, Inbox, Message, NodeAlgorithm, NodeContext,
    Observer, Outbox, Port, SharedObserver, SimError, Simulator, Topology, TraceEvent,
};

/// `pool_workers_spawned` is process-wide, and the test harness runs this
/// binary's tests in parallel — every test that creates a pool takes this
/// gate so spawn-count deltas can't interleave.
static SPAWN_GATE: Mutex<()> = Mutex::new(());

fn spawn_gate() -> MutexGuard<'static, ()> {
    SPAWN_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn path(n: usize) -> Topology {
    let adj = (0..n)
        .map(|v| {
            let mut a = vec![];
            if v > 0 {
                a.push(v as u32 - 1);
            }
            if v + 1 < n {
                a.push(v as u32 + 1);
            }
            a
        })
        .collect();
    Topology::from_adjacency(adj).unwrap()
}

#[derive(Clone, Debug)]
struct Tick;
impl Message for Tick {
    fn bit_size(&self) -> u32 {
        1
    }
}

/// Every node sends on every port for `rounds` rounds — maximal legal
/// same-round commit pressure (every node's outbox is non-empty in every
/// round, so every shard commits concurrently under the pool).
struct Chatter {
    rounds: u64,
    received: u64,
}
impl NodeAlgorithm for Chatter {
    type Message = Tick;
    type Output = u64;
    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Tick>) {
        out.send_to_all(0..ctx.degree() as Port, Tick);
    }
    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Tick>, out: &mut Outbox<Tick>) {
        self.received += inbox.len() as u64;
        if ctx.round() < self.rounds {
            out.send_to_all(0..ctx.degree() as Port, Tick);
        }
    }
    fn into_output(self, _: &NodeContext<'_>) -> u64 {
        self.received
    }
}

/// The pool must create its worker threads exactly once per run: the
/// process-wide spawn counter's delta equals the worker count minus one
/// (the engine thread steps shard 0 itself) no matter how many rounds the
/// run takes. A per-round-spawn regression (what the pre-pipeline engine
/// did with `thread::scope`) multiplies the delta by the round count and
/// fails here.
#[test]
fn pool_spawns_workers_once_per_run_not_per_round() {
    let _gate = spawn_gate();
    let topo = path(16);
    for workers in [2usize, 4] {
        let before = pool_workers_spawned();
        let report = Simulator::new(
            &topo,
            Config::for_n(16).with_executor(ExecutorKind::Pool { workers }),
            |_| Chatter {
                rounds: 50,
                received: 0,
            },
        )
        .run()
        .unwrap();
        assert!(
            report.stats.rounds >= 50,
            "enough rounds to expose per-round spawns"
        );
        assert_eq!(
            pool_workers_spawned() - before,
            workers as u64 - 1,
            "exactly {} spawned threads for a {}-round run",
            workers - 1,
            report.stats.rounds
        );
    }
}

/// Regression for the `used_stamp` sharing hazard: duplicate-send
/// detection is per-outbox scratch, reset for every outbox, so two nodes
/// committing in the same round can never alias stamps. Nodes 0
/// and 2 of a path both send on their port 0 in the same rounds; with a
/// shared stamp (or a stamp not reset per outbox) one of them would be
/// falsely rejected as a duplicate.
#[test]
fn same_round_commits_cannot_alias_duplicate_stamps() {
    let _gate = spawn_gate();
    let topo = path(3);
    for executor in [
        ExecutorKind::Serial,
        ExecutorKind::Pool { workers: 2 },
        ExecutorKind::Pool { workers: 3 },
    ] {
        let report = Simulator::new(&topo, Config::for_n(3).with_executor(executor), |_| {
            Chatter {
                rounds: 4,
                received: 0,
            }
        })
        .run()
        .unwrap_or_else(|e| panic!("{executor:?}: false duplicate? {e}"));
        // Sends happen in rounds 0..=3, so the middle node hears both
        // neighbors in each of 4 delivery rounds.
        assert_eq!(report.outputs[1], 2 * 4, "{executor:?}");
        assert_eq!(report.outputs[0], 4, "{executor:?}");
    }
}

/// A *real* duplicate send must still be caught, with the same error the
/// serial engine reports, on every executor.
struct DoubleAtTwo;
impl NodeAlgorithm for DoubleAtTwo {
    type Message = Tick;
    type Output = ();
    fn on_round(&mut self, ctx: &NodeContext<'_>, _: &Inbox<Tick>, out: &mut Outbox<Tick>) {
        if ctx.node_id() == 2 && ctx.round() == 1 {
            out.send(0, Tick);
            out.send(0, Tick);
        }
    }
    fn is_active(&self) -> bool {
        true // keep the clock running to round 1
    }
    fn into_output(self, _: &NodeContext<'_>) {}
}

#[test]
fn duplicate_detection_fires_on_every_executor() {
    let _gate = spawn_gate();
    let topo = path(4);
    let mut errors = vec![];
    for executor in [
        ExecutorKind::Serial,
        ExecutorKind::Pool { workers: 2 },
        ExecutorKind::Pool { workers: 4 },
    ] {
        let err = Simulator::new(&topo, Config::for_n(4).with_executor(executor), |_| {
            DoubleAtTwo
        })
        .run()
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::DuplicateSend {
                    node: 2,
                    port: 0,
                    round: 1
                }
            ),
            "{executor:?}: {err:?}"
        );
        errors.push(err);
    }
    assert_eq!(errors[0], errors[1]);
    assert_eq!(errors[0], errors[2]);
}

/// Every node sends on every port each round; node 20 sends twice on its
/// port 0 in round 2. On a 40-node path the whole network is scheduled
/// every round, which the pool cuts into three chunks of at most 16 nodes:
/// node 20 sits mid-chunk, after chunk 0 and four of chunk 1's outboxes.
struct DoubleMidChunk;
impl NodeAlgorithm for DoubleMidChunk {
    type Message = Tick;
    type Output = ();
    fn on_round(&mut self, ctx: &NodeContext<'_>, _: &Inbox<Tick>, out: &mut Outbox<Tick>) {
        out.send_to_all(0..ctx.degree() as Port, Tick);
        if ctx.node_id() == 20 && ctx.round() == 2 {
            out.send(0, Tick);
        }
    }
    fn is_active(&self) -> bool {
        true
    }
    fn into_output(self, _: &NodeContext<'_>) {}
}

/// Records every event of a run, so the accounting booked before an abort
/// can be compared.
struct Log(Vec<TraceEvent>);
impl Observer for Log {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.0.push(ev.clone());
    }
}

/// A pool run whose outbox fails validation in mid-chunk aborts with the
/// serial run's error, after exactly the serial run's partial accounting:
/// the engine thread commits every outbox, in node-id order, through one
/// path.
#[test]
fn a_mid_chunk_abort_books_what_serial_books() {
    let _gate = spawn_gate();
    let topo = path(40);
    let mut runs = vec![];
    for executor in [
        ExecutorKind::Serial,
        ExecutorKind::Pool { workers: 2 },
        ExecutorKind::Pool { workers: 4 },
    ] {
        let log = SharedObserver::new(Log(Vec::new()));
        let config = Config::for_n(40)
            .with_executor(executor)
            .with_observer(log.observer());
        let err = Simulator::new(&topo, config, |_| DoubleMidChunk)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::DuplicateSend {
                node: 20,
                port: 0,
                round: 2
            },
            "{executor:?}"
        );
        let events = log.with(|l| std::mem::take(&mut l.0));
        let booked = |round: u64| {
            events
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::Message { round: r, .. } if *r == round))
                .count()
        };
        // Round 2 booked nodes 0..20 (one send from node 0, two from each
        // of the next nineteen) and node 20's two sends before its
        // duplicate.
        assert_eq!(booked(2), 1 + 2 * 19 + 2, "{executor:?}");
        runs.push(events);
    }
    assert_eq!(runs[0], runs[1], "serial vs pool(2)");
    assert_eq!(runs[0], runs[2], "serial vs pool(4)");
}

/// Oversubscribed pools (more workers than nodes) clamp instead of
/// spawning idle threads, and still replay commits in node-id order.
/// With 3 nodes the pool clamps to 3 workers, two of them spawned (the
/// engine thread owns shard 0).
#[test]
fn oversubscribed_pool_clamps_workers_to_nodes() {
    let _gate = spawn_gate();
    let topo = path(3);
    let before = pool_workers_spawned();
    let report = Simulator::new(
        &topo,
        Config::for_n(3).with_executor(ExecutorKind::Pool { workers: 64 }),
        |_| Chatter {
            rounds: 2,
            received: 0,
        },
    )
    .run()
    .unwrap();
    assert_eq!(pool_workers_spawned() - before, 2);
    assert_eq!(report.outputs, vec![2, 4, 2]);
}

/// One wave from node 0: a node forwards the first arrival on every port
/// and then goes quiet, so per round only the wave front has work.
struct Flood {
    reached: bool,
}
impl NodeAlgorithm for Flood {
    type Message = Tick;
    type Output = bool;
    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Tick>) {
        if ctx.node_id() == 0 {
            self.reached = true;
            out.send_to_all(0..ctx.degree() as Port, Tick);
        }
    }
    fn on_round(&mut self, ctx: &NodeContext<'_>, inbox: &Inbox<Tick>, out: &mut Outbox<Tick>) {
        if !self.reached && !inbox.is_empty() {
            self.reached = true;
            out.send_to_all(0..ctx.degree() as Port, Tick);
        }
    }
    fn is_active(&self) -> bool {
        false
    }
    fn into_output(self, _: &NodeContext<'_>) -> bool {
        self.reached
    }
}

/// The engine steps only nodes with work: all `n` once at start, then a
/// node only in a round it receives something. On a 20 000-node ring with
/// 40 seeded chords the wave front is a vanishing fraction of the network
/// for hundreds of rounds, so a return to dense per-node scheduling
/// (`n` steps per round) overshoots both bounds by more than an order of
/// magnitude.
#[test]
fn schedule_stays_sparse_on_a_large_frontier_sparse_flood() {
    const N: usize = 20_000;
    let mut adj: Vec<Vec<u32>> = (0..N)
        .map(|v| vec![((v + N - 1) % N) as u32, ((v + 1) % N) as u32])
        .collect();
    let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
    let mut draw = || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) as usize % N
    };
    let mut chords = 0;
    while chords < 40 {
        let (u, v) = (draw(), draw());
        if u != v && !adj[u].contains(&(v as u32)) {
            adj[u].push(v as u32);
            adj[v].push(u as u32);
            chords += 1;
        }
    }
    let topo = Topology::from_adjacency(adj).unwrap();
    let report = Simulator::new(&topo, Config::for_n(N), |_| Flood { reached: false })
        .run()
        .unwrap();
    assert!(
        report.outputs.iter().all(|&r| r),
        "the wave reached everyone"
    );
    let stats = report.stats;
    assert!(
        stats.scheduled_node_rounds <= N as u64 + stats.messages,
        "stepped {} node-rounds for {} messages",
        stats.scheduled_node_rounds,
        stats.messages
    );
    let density = stats.scheduled_node_rounds as f64 / (N as u64 * stats.rounds) as f64;
    assert!(
        density < 0.05,
        "schedule density {density:.3} over {} rounds",
        stats.rounds
    );
}
