//! Targeted regression tests for the phase-pipeline/executor split:
//! worker-pool lifecycle (threads spawn once per run, never per round),
//! shard-safe duplicate-send stamps, and error parity between executors.

use std::sync::{Mutex, MutexGuard};

use dapsp_congest::{
    pool_workers_spawned, Config, ExecutorKind, Inbox, Message, NodeAlgorithm, NodeContext, Outbox,
    Port, SimError, Simulator, Topology,
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
/// detection is per-outbox scratch, and each pool worker owns its own, so
/// two nodes committing in the same round can never alias stamps. Nodes 0
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
/// serial engine reports, even when the faulty node lives in a later
/// worker's shard.
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
fn duplicate_detection_is_shard_local_but_still_fires() {
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
