//! The synchronous round engine: an event-driven (active-set) three-phase
//! pipeline over pluggable executors.
//!
//! Every round first builds a **schedule** — the sorted set of nodes that
//! either have messages arriving this round (the engine's *wake list*,
//! populated at the previous commit) or declared themselves
//! [`awake`](NodeAlgorithm::is_active) after their last step — and then
//! runs `deliver → step → commit` over *only those nodes*:
//!
//! 1. **deliver** — the arrivals staged last round are carved into
//!    per-node inbox slices (read in place by the serial executor; a
//!    frontier dispatch for the pool, each chunk taking its contiguous
//!    range of the arena);
//! 2. **step** — [`NodeAlgorithm::on_round`] runs on every scheduled
//!    node, filling outboxes (node-local work, the only phase that
//!    parallelizes). Skipped nodes are inactive with empty inboxes, so
//!    skipping them is unobservable;
//! 3. **commit** — every scheduled node's outbox is validated and booked
//!    **in node-id order**: bandwidth/duplicate/port checks, fault
//!    decisions, observer events, statistics, and next-round inboxes (which populate the next wake list).
//!
//! Per-round cost therefore tracks the frontier, not `n`: a BFS wave on a
//! 10⁶-node graph touches only the wavefront each round. Termination is
//! governed by the per-node [`Quiescence`] votes (see that type).
//!
//! The pipeline itself lives in [`Simulator::run`]; *how* each phase
//! executes is delegated to an [`Executor`]. Two implementations exist:
//! [`serial::SerialExecutor`] (everything in place on the calling thread;
//! the default) and [`pool::PoolExecutor`] (a persistent worker pool
//! created once per run, whose workers only step — see that module for
//! the protocol). Because every outbox is committed through one path,
//! `Core::commit_outbox`, in node-id order on the engine thread, every
//! executor yields bit-for-bit identical [`Report`]s and observer event
//! streams; the equivalence proptests in
//! `tests/engine_equivalence.rs` pin this against
//! [`ReferenceSimulator`](crate::ReferenceSimulator), a naive dense engine
//! that shares none of this module's code.
//!
//! Phase wall-clock timing ([`RoundTiming`]) is measured here, around the
//! executor calls, and reported through
//! [`Observer::on_round_timing`](crate::Observer::on_round_timing) —
//! executors never touch the clock.

use crate::algorithm::{NodeAlgorithm, Quiescence};
use crate::config::{Config, ExecutorKind};
use crate::error::SimError;
use crate::node::{Inbox, NodeContext, NodeId, Outbox, Port};
use crate::obs::RoundTiming;
use crate::stats::RunStats;
use crate::topology::Topology;
use crate::trace::TraceEvent;

mod commit;
mod pool;
mod serial;
pub(crate) mod store;

use commit::DupScratch;
use pool::PoolExecutor;
use serial::SerialExecutor;
use store::{BitSet, InboxArena, NodeStore};

/// Process-wide count of pool worker threads spawned so far. The delta
/// across a run equals the clamped worker count minus one (the engine
/// thread works deque 0 itself) — threads are spawned once per run,
/// never per round — which benches and tests assert to keep the
/// per-round-spawn regression of the pre-pipeline engine from coming back.
#[doc(hidden)]
pub fn pool_workers_spawned() -> u64 {
    pool::workers_spawned()
}

/// The result of a completed simulation.
#[derive(Debug)]
pub struct Report<O> {
    /// Per-node outputs, indexed by node id.
    pub outputs: Vec<O>,
    /// Aggregate round/message/bit statistics.
    pub stats: RunStats,
    /// Why the run was allowed to stop: the final quiescence vote of every
    /// node, polled once at the moment the termination condition became
    /// terminal. Present on every successful run (the only terminating
    /// path); a run aborted by the round horizon returns an error and
    /// carries no report at all.
    pub certificate: Option<TerminationCertificate>,
}

/// The termination condition a run's final votes satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationReason {
    /// Every node voted [`Quiescence::Shutdown`] — the run stops even
    /// with messages still in flight.
    ShutdownUnanimous,
    /// No node voted [`Quiescence::Active`] and the network was silent
    /// (zero messages in flight).
    PassiveDrained,
}

/// An auditable record of *why* a run terminated: the round it stopped
/// after, the in-flight message count at that instant, and every node's
/// final [`Quiescence`] vote (polled once, deterministically, when the
/// engine's termination check succeeded).
///
/// The per-node votes are re-polled over **all** nodes — including nodes
/// that were off the final round's schedule (whose vote the engine
/// inferred as `Passive` by contract) — so the certificate stands on its
/// own: `votes_active`/`votes_passive`/`votes_shutdown` sum to `n` and
/// are consistent with `reason`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TerminationCertificate {
    /// The last round executed before the run stopped.
    pub round: u64,
    /// Messages still in flight when the run stopped (nonzero only under
    /// [`TerminationReason::ShutdownUnanimous`]).
    pub in_flight: u64,
    /// Which termination condition fired.
    pub reason: TerminationReason,
    /// Nodes whose final vote was [`Quiescence::Active`].
    pub votes_active: u64,
    /// Nodes whose final vote was [`Quiescence::Passive`].
    pub votes_passive: u64,
    /// Nodes whose final vote was [`Quiescence::Shutdown`].
    pub votes_shutdown: u64,
    /// Every node's final vote, in node-id order.
    pub node_votes: Vec<(NodeId, Quiescence)>,
}

impl TerminationCertificate {
    /// Builds a certificate from the triggering aggregate state and the
    /// full final vote poll, tallying the per-kind counts.
    pub(crate) fn from_votes(
        round: u64,
        in_flight: u64,
        state: QuiescenceState,
        node_votes: Vec<(NodeId, Quiescence)>,
    ) -> Self {
        let mut votes_active = 0u64;
        let mut votes_passive = 0u64;
        let mut votes_shutdown = 0u64;
        for &(_, q) in &node_votes {
            match q {
                Quiescence::Active => votes_active += 1,
                Quiescence::Passive => votes_passive += 1,
                Quiescence::Shutdown => votes_shutdown += 1,
            }
        }
        TerminationCertificate {
            round,
            in_flight,
            reason: if state.shutdown {
                TerminationReason::ShutdownUnanimous
            } else {
                TerminationReason::PassiveDrained
            },
            votes_active,
            votes_passive,
            votes_shutdown,
            node_votes,
        }
    }
}

/// Engine state shared by every executor: the network, the run's
/// bookkeeping, and the accounting sinks (stats, trace, profile). The
/// executor owns everything node-local (states, inboxes-in-flight,
/// outboxes); the `Core` owns everything observable.
pub(crate) struct Core<'t, M> {
    pub(crate) topology: &'t Topology,
    pub(crate) config: Config,
    /// Messages to be delivered next round, staged flat in commit order;
    /// the deliver phase carves them in place into per-node slices, which
    /// the step phase reads without moving them (see [`InboxArena`]).
    pub(crate) arrivals: InboxArena<M>,
    /// Node ids with at least one staged arrival — the arrival component
    /// of next round's schedule. Deduplicated via `woken` marks; unsorted
    /// until [`Core::sorted_wake`] drains it.
    pub(crate) wake: Vec<NodeId>,
    /// Bit `v` marks that `v` is already on the wake list.
    pub(crate) woken: BitSet,
    /// Duplicate-send stamps of the outbox being committed.
    pub(crate) dup: DupScratch,
    pub(crate) in_flight: u64,
    pub(crate) round: u64,
    pub(crate) stats: RunStats,
}

impl<M> Core<'_, M> {
    /// Puts the wake list in ascending order, clears the dedup marks, and
    /// hands the caller the sorted ids; the caller merges them with its
    /// awake list and must clear the list afterwards (see
    /// [`Core::clear_wake`]).
    pub(crate) fn sorted_wake(&mut self) -> &[NodeId] {
        if self.wake.len() * 64 >= self.topology.num_nodes() {
            // A dense round — at least one woken node per 64-bit word of
            // marks: reading the marks back in word order yields the ids
            // already ascending, for less than sorting them costs.
            self.wake.clear();
            self.woken.drain_ascending(&mut self.wake);
        } else {
            self.wake.sort_unstable();
            for &v in &self.wake {
                self.woken.clear(v as usize);
            }
        }
        &self.wake
    }

    /// Empties the wake list (capacity kept) once a schedule absorbed it.
    pub(crate) fn clear_wake(&mut self) {
        self.wake.clear();
    }

    /// How many nodes run `on_start` in round 0 — everyone not inside a
    /// crash window at round 0.
    pub(crate) fn started_nodes(&self) -> u64 {
        let n = self.topology.num_nodes();
        match &self.config.faults {
            Some(f) if f.has_crashes() => {
                (0..n).filter(|&v| !f.crashed(0, v as NodeId)).count() as u64
            }
            _ => n as u64,
        }
    }
}

/// The executor's aggregated termination signal after `start` or the most
/// recent `step`, combining every node's [`Quiescence`] vote. Alongside
/// the two decision bits it tallies how many *polled* nodes cast each
/// vote kind — the decomposition
/// [`TraceEvent::QuiescenceVotes`] reports (counts sum to `n` after
/// `start` and to the scheduled count after each round).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct QuiescenceState {
    /// No node votes [`Quiescence::Active`]. (Nodes off the awake list
    /// are inactive and thus vote `Passive` by contract.)
    pub(crate) passive: bool,
    /// Every node votes [`Quiescence::Shutdown`].
    pub(crate) shutdown: bool,
    /// Polled nodes voting [`Quiescence::Active`].
    pub(crate) votes_active: u64,
    /// Polled nodes voting [`Quiescence::Passive`].
    pub(crate) votes_passive: u64,
    /// Polled nodes voting [`Quiescence::Shutdown`].
    pub(crate) votes_shutdown: u64,
}

impl QuiescenceState {
    /// Whether the run may end now given the in-flight message count.
    pub(crate) fn terminal(self, in_flight: u64) -> bool {
        self.shutdown || (self.passive && in_flight == 0)
    }

    /// Folds one node's vote into the aggregate.
    pub(crate) fn vote(&mut self, q: Quiescence) {
        self.passive &= q != Quiescence::Active;
        self.shutdown &= q == Quiescence::Shutdown;
        match q {
            Quiescence::Active => self.votes_active += 1,
            Quiescence::Passive => self.votes_passive += 1,
            Quiescence::Shutdown => self.votes_shutdown += 1,
        }
    }

    /// The tally as the observer event for the poll after `round`.
    pub(crate) fn event(self, round: u64) -> TraceEvent {
        TraceEvent::QuiescenceVotes {
            round,
            active: self.votes_active,
            passive: self.votes_passive,
            shutdown: self.votes_shutdown,
        }
    }

    /// Folds another partial aggregate (one pool chunk's) into this one:
    /// decision bits AND together, counts add.
    pub(crate) fn absorb(&mut self, other: QuiescenceState) {
        self.passive &= other.passive;
        self.shutdown &= other.shutdown;
        self.votes_active += other.votes_active;
        self.votes_passive += other.votes_passive;
        self.votes_shutdown += other.votes_shutdown;
    }

    /// The identity for [`QuiescenceState::vote`] folds over `total`
    /// nodes, of which `voting` will actually be polled: if some nodes are
    /// off the awake list they are inactive (`Passive`), which keeps
    /// `passive` but vetoes `shutdown`. Counts start at zero — they tally
    /// polled nodes only.
    pub(crate) fn fold_start(voting: usize, total: usize) -> Self {
        QuiescenceState {
            passive: true,
            shutdown: voting == total,
            votes_active: 0,
            votes_passive: 0,
            votes_shutdown: 0,
        }
    }
}

/// One phase-pipeline backend. The pipeline calls `start` once, then per
/// round `schedule` followed by `deliver`/`step`/`commit` in that order,
/// then `into_outputs` once; `quiescence` is polled between rounds for
/// the termination check.
pub(crate) trait Executor<A: NodeAlgorithm> {
    /// Round 0: run every node's [`NodeAlgorithm::on_start`] and commit
    /// the queued sends in node-id order, then seed the awake list with
    /// every node reporting [`NodeAlgorithm::is_active`].
    fn start(&mut self, core: &mut Core<'_, A::Message>) -> Result<(), SimError>;
    /// Builds the round's schedule — the sorted union of the core's wake
    /// list (nodes with pending arrivals) and the executor's awake list —
    /// and returns its size. Called once per round, after `core.round`
    /// advances and before any phase runs.
    fn schedule(&mut self, core: &mut Core<'_, A::Message>) -> u64;
    /// Phase 1 — carve the arrivals staged in `core.arrivals` into
    /// per-node inbox slices for the round `core.round` (and, for the
    /// pool, enqueue the round's frontier chunks).
    fn deliver(&mut self, core: &mut Core<'_, A::Message>);
    /// Phase 2 — run [`NodeAlgorithm::on_round`] on every scheduled node
    /// and rebuild the awake list from their post-step
    /// [`is_active`](NodeAlgorithm::is_active) answers.
    fn step(&mut self, core: &mut Core<'_, A::Message>);
    /// Phase 3 — validate and book every scheduled node's outbox in
    /// node-id order.
    fn commit(&mut self, core: &mut Core<'_, A::Message>) -> Result<(), SimError>;
    /// The aggregated termination votes after the most recent
    /// `start`/`step`.
    fn quiescence(&self) -> QuiescenceState;
    /// Polls every node's current [`Quiescence`] vote, in node-id order —
    /// called exactly once, after the termination check succeeds and
    /// before `into_outputs`, to build the run's
    /// [`TerminationCertificate`]. `quiescence()` (the per-node method) is
    /// a pure function of node state, so this re-poll is deterministic.
    fn final_votes(&mut self) -> Vec<(NodeId, Quiescence)>;
    /// Scheduler telemetry for the round just committed: `(chunks
    /// stepped, chunks stolen)`, accumulated into [`RunStats`]; always
    /// `(0, 0)` for executors without a chunk scheduler.
    fn round_telemetry(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Tears the executor down and extracts outputs in node-id order.
    fn into_outputs(self, final_round: u64) -> Vec<A::Output>;
}

/// Merges two sorted id lists — the wake list (pending arrivals) and the
/// awake list (self-declared active) — into `out`, deduplicating: the
/// round's schedule, in ascending node-id order.
pub(crate) fn merge_schedule(wake: &[NodeId], awake: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    out.reserve(wake.len() + awake.len());
    let (mut i, mut j) = (0, 0);
    while i < wake.len() && j < awake.len() {
        let (a, b) = (wake[i], awake[j]);
        match a.cmp(&b) {
            std::cmp::Ordering::Less => {
                out.push(a);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&wake[i..]);
    out.extend_from_slice(&awake[j..]);
}

/// Round 0, the same on every executor: runs [`NodeAlgorithm::on_start`]
/// on every node that boots, in id order on the engine thread, committing
/// each outbox as it goes, then seeds the awake list and the termination
/// votes with one full scan — the only O(n) sweep after construction.
pub(crate) fn start_nodes<A: NodeAlgorithm>(
    core: &mut Core<'_, A::Message>,
    store: &mut NodeStore<A>,
) -> Result<QuiescenceState, SimError> {
    let n = store.len();
    let topology = core.topology;
    let mut outbox = Outbox::new();
    {
        // One observer lock for the whole sweep; `None` when unobserved.
        let handle = core.config.observer.clone();
        let mut observer = handle.as_ref().map(|h| h.lock());
        for v in 0..n as NodeId {
            // A node already inside a crash window at round 0 never boots;
            // it restarts with its frozen initial state.
            if core.config.faults.as_ref().is_some_and(|f| f.crashed(0, v)) {
                continue;
            }
            let ctx = NodeContext {
                node_id: v,
                num_nodes: n,
                neighbor_ids: topology.neighbors(v),
                round: 0,
            };
            store.state_mut(v).on_start(&ctx, &mut outbox);
            core.commit_outbox(&mut observer, v, &mut outbox.items)?;
        }
    }
    // Crashed-at-0 nodes vote with their frozen initial state, exactly as
    // the dense reference engine polls them.
    Ok(store.seed_awake_and_votes())
}

/// Runs `on_round` for one node over its slice of the carved arrivals,
/// read in place through a borrowed [`Inbox`] (sorted by port on the
/// slice, only when the messages arrived out of port order).
///
/// This is the only work that pool workers execute: it touches nothing but
/// the node's own state and buffers.
pub(crate) fn step_node<A: NodeAlgorithm>(
    topology: &Topology,
    n: usize,
    round: u64,
    v: NodeId,
    node: &mut Option<A>,
    arrivals: &mut [(Port, A::Message)],
    outbox: &mut Outbox<A::Message>,
) {
    let inbox = Inbox::sorted(arrivals);
    let ctx = NodeContext {
        node_id: v,
        num_nodes: n,
        neighbor_ids: topology.neighbors(v),
        round,
    };
    node.as_mut()
        .expect("node state present")
        .on_round(&ctx, &inbox, outbox);
}

/// Drives one [`NodeAlgorithm`] instance per node in synchronous lock-step.
///
/// The simulator delivers messages sent in round `t` at the beginning of
/// round `t+1`, calls [`NodeAlgorithm::on_round`] each round on every node
/// with arriving messages or reporting
/// [`is_active`](NodeAlgorithm::is_active) (so nodes can run local timers
/// by staying active), enforces the `B`-bit-per-edge-direction bandwidth
/// constraint, and stops when the per-node [`Quiescence`] votes allow it —
/// by default, when the network is silent and no node is active.
///
/// Execution is fully deterministic for every [`ExecutorKind`]: inboxes are
/// sorted by port, and every outbox is committed (delivered, traced,
/// counted) in node-id order on the engine thread — see this module's
/// source docs for the pipeline and executor contract.
///
/// # Steady-state allocation
///
/// All per-round buffers (inboxes, outboxes, pool chunks, the
/// duplicate-send scratch) are recycled between rounds, so once message
/// volume peaks the engine runs allocation-free. The kernel layer hosted
/// in the step phase keeps the same discipline: its distance kernels
/// borrow their rows of run-level matrices through `init` (which is why
/// `init` runs in id order, and why a node state may hold borrows that
/// outlive the simulator's construction but not its run), so a node owns
/// only per-port scratch. The claim is defended end to end:
/// `dapsp-core`'s `tests/alloc_budget.rs` counts the allocation calls of
/// whole Algorithm 1 runs and fails when they grow with the message count
/// instead of the node count, and tracks the live heap's high-water mark
/// of a cold build.
pub struct Simulator<'t, A: NodeAlgorithm> {
    core: Core<'t, A::Message>,
    nodes: Vec<Option<A>>,
}

impl<'t, A: NodeAlgorithm> Simulator<'t, A> {
    /// Creates a simulator, instantiating one algorithm state per node via
    /// `init` (called with each node's context, in id order).
    pub fn new<F>(topology: &'t Topology, config: Config, mut init: F) -> Self
    where
        F: FnMut(&NodeContext<'_>) -> A,
    {
        let n = topology.num_nodes();
        let nodes = (0..n)
            .map(|v| {
                let ctx = NodeContext {
                    node_id: v as NodeId,
                    num_nodes: n,
                    neighbor_ids: topology.neighbors(v as NodeId),
                    round: 0,
                };
                Some(init(&ctx))
            })
            .collect();
        Simulator {
            core: Core {
                topology,
                config,
                arrivals: InboxArena::new(n),
                wake: Vec::new(),
                woken: BitSet::new(n),
                dup: DupScratch::new(),
                in_flight: 0,
                round: 0,
                stats: RunStats::default(),
            },
            nodes,
        }
    }

    /// The number of rounds executed so far.
    pub fn round(&self) -> u64 {
        self.core.round
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RunStats {
        &self.core.stats
    }

    /// Runs to quiescence and extracts every node's output.
    ///
    /// The `Send` bounds exist so the pool executor can move node states
    /// and messages to its workers; they are trivially satisfied by states
    /// and messages made of plain data.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] before round 0 for a fault
    /// plan that cannot apply to the network, propagates any
    /// bandwidth/port violation committed by a node, and returns
    /// [`SimError::RoundLimitExceeded`] if the run does not quiesce within
    /// [`Config::max_rounds`].
    pub fn run(mut self) -> Result<Report<A::Output>, SimError>
    where
        A: Send,
        A::Message: Send,
    {
        if let Some(plan) = &self.core.config.faults {
            plan.check(self.core.topology.num_nodes())?;
        }
        let started = std::time::Instant::now();
        if let Some(obs) = &self.core.config.observer {
            obs.lock().on_event(&TraceEvent::RunStart {
                phase: self.core.config.phase.clone(),
                nodes: self.core.topology.num_nodes() as u64,
                edges: self.core.topology.num_directed_edges() as u64,
                started: self.core.started_nodes(),
            });
        }
        let store = NodeStore::new(std::mem::take(&mut self.nodes));
        match self.core.config.executor {
            ExecutorKind::Serial => {
                let executor = SerialExecutor::new(self.core.topology, store);
                self.drive(executor, started)
            }
            ExecutorKind::Pool { workers } => {
                // The scope spans the whole run: workers are spawned once
                // by `PoolExecutor::new` and live until `drive` returns
                // (dropping the executor's channels shuts them down before
                // the scope's implicit join).
                let topology = self.core.topology;
                let faults = self.core.config.faults.clone();
                std::thread::scope(move |scope| {
                    let executor = PoolExecutor::new(scope, topology, faults, store, workers);
                    self.drive(executor, started)
                })
            }
        }
    }

    /// The pipeline: `start`, then rounds of timed
    /// `deliver → step → commit` until quiescence, then output extraction
    /// and observer teardown. Identical for every executor — all
    /// executor-specific behavior lives behind the [`Executor`] calls.
    fn drive<E: Executor<A>>(
        mut self,
        mut executor: E,
        started: std::time::Instant,
    ) -> Result<Report<A::Output>, SimError> {
        executor.start(&mut self.core)?;
        // Round 0 schedules every node that boots (runs `on_start`).
        let started_nodes = self.core.started_nodes();
        self.core.stats.scheduled_node_rounds += started_nodes;
        self.core.stats.max_scheduled_per_round =
            self.core.stats.max_scheduled_per_round.max(started_nodes);
        if let Some(obs) = &self.core.config.observer {
            obs.lock().on_event(&executor.quiescence().event(0));
        }
        // Termination: no messages in flight and no node voting `Active`,
        // or every node voting `Shutdown` (see `Quiescence`). The votes
        // are aggregated by the executor over the awake list only.
        while !executor.quiescence().terminal(self.core.in_flight) {
            if self.core.round >= self.core.config.max_rounds {
                return Err(SimError::RoundLimitExceeded {
                    limit: self.core.config.max_rounds,
                });
            }
            self.step_round(&mut executor)?;
        }
        if let Some(obs) = &self.core.config.observer {
            obs.lock().on_event(&TraceEvent::EarlyTermination {
                round: self.core.round,
                in_flight: self.core.in_flight,
            });
        }
        let certificate = Some(TerminationCertificate::from_votes(
            self.core.round,
            self.core.in_flight,
            executor.quiescence(),
            executor.final_votes(),
        ));
        let outputs = executor.into_outputs(self.core.round);
        self.core.stats.wall_time = started.elapsed();
        if let Some(obs) = &self.core.config.observer {
            obs.lock().on_event(&TraceEvent::RunEnd {
                rounds: self.core.stats.rounds,
                messages: self.core.stats.messages,
            });
        }
        Ok(Report {
            outputs,
            stats: self.core.stats,
            certificate,
        })
    }

    /// Executes one communication round through the three pipeline phases,
    /// timing each around the executor call when observed.
    fn step_round<E: Executor<A>>(&mut self, executor: &mut E) -> Result<(), SimError> {
        let core = &mut self.core;
        core.round += 1;
        core.stats.rounds = core.round;
        core.stats.max_messages_per_round = core.stats.max_messages_per_round.max(core.in_flight);
        let delivered = core.in_flight;
        core.in_flight = 0;
        let scheduled = executor.schedule(core);
        core.stats.scheduled_node_rounds += scheduled;
        core.stats.max_scheduled_per_round = core.stats.max_scheduled_per_round.max(scheduled);
        // Wall-clock phase timing exists only while observed: with no
        // observer the `watch` checks below are the entire cost.
        let watch = core.config.observer.is_some();
        let mut timing = RoundTiming::default();
        if let Some(obs) = &core.config.observer {
            obs.lock().on_event(&TraceEvent::RoundStart {
                round: core.round,
                delivered,
                scheduled,
            });
        }
        // Crash windows are booked here, on the engine thread, before the
        // pipeline phases run — in node-id order, so the observer stream
        // and the crashed counter are identical for every executor.
        if let Some(plan) = &core.config.faults {
            if plan.has_crashes() {
                let down = plan.crashed_nodes(core.round);
                core.stats.crashed += down.len() as u64;
                if let Some(obs) = &core.config.observer {
                    let mut obs = obs.lock();
                    for &node in &down {
                        obs.on_event(&TraceEvent::Crash {
                            round: core.round,
                            node,
                        });
                    }
                }
            }
        }
        let clock = watch.then(std::time::Instant::now);
        executor.deliver(core);
        if let Some(t) = clock {
            timing.deliver = t.elapsed();
        }
        let clock = watch.then(std::time::Instant::now);
        executor.step(core);
        if let Some(t) = clock {
            timing.step = t.elapsed();
        }
        let clock = watch.then(std::time::Instant::now);
        executor.commit(core)?;
        if let Some(t) = clock {
            timing.commit = t.elapsed();
        }
        // Chunk-scheduler accounting for the round: totals are exact and
        // deterministic; the steal split is timing-dependent and therefore
        // excluded from the stats equality contract.
        let (chunks, steals) = executor.round_telemetry();
        core.stats.chunks_stepped += chunks;
        core.stats.steals += steals;
        if let Some(obs) = &core.config.observer {
            let mut obs = obs.lock();
            obs.on_round_timing(core.round, &timing);
            obs.on_event(&TraceEvent::RoundEnd { round: core.round });
            // Vote decomposition after the round seals — the reference
            // engine polls its votes after `RoundEnd`, so this event must
            // sit there on every engine for streams to be identical.
            obs.on_event(&executor.quiescence().event(core.round));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{bits_for_id, Message};

    /// Flood fill: node 0 emits a token; everyone forwards it once.
    #[derive(Clone, Debug)]
    struct Token;
    impl Message for Token {
        fn bit_size(&self) -> u32 {
            1
        }
    }

    struct Flood {
        seen_round: Option<u64>,
    }
    impl NodeAlgorithm for Flood {
        type Message = Token;
        type Output = Option<u64>;
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
            if ctx.node_id() == 0 {
                self.seen_round = Some(0);
                out.send_to_all(0..ctx.degree() as u32, Token);
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<Token>,
            out: &mut Outbox<Token>,
        ) {
            if !inbox.is_empty() && self.seen_round.is_none() {
                self.seen_round = Some(ctx.round());
                out.send_to_all(0..ctx.degree() as u32, Token);
            }
        }
        fn into_output(self, _ctx: &NodeContext<'_>) -> Option<u64> {
            self.seen_round
        }
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

    #[test]
    fn flood_reaches_everyone_in_distance_rounds() {
        let topo = path(6);
        let sim = Simulator::new(&topo, Config::for_n(6), |_| Flood { seen_round: None });
        let report = sim.run().unwrap();
        for (v, round) in report.outputs.iter().enumerate() {
            assert_eq!(*round, Some(v as u64), "node {v}");
        }
        assert_eq!(report.stats.rounds, 6);
    }

    #[test]
    fn flood_is_identical_under_the_pool_executor() {
        let topo = path(6);
        for workers in [2, 4, 16] {
            let cfg = Config::for_n(6).with_executor(ExecutorKind::Pool { workers });
            let report = Simulator::new(&topo, cfg, |_| Flood { seen_round: None })
                .run()
                .unwrap();
            for (v, round) in report.outputs.iter().enumerate() {
                assert_eq!(*round, Some(v as u64), "workers {workers}, node {v}");
            }
            assert_eq!(report.stats.rounds, 6);
        }
    }

    #[test]
    fn message_and_bit_counts() {
        let topo = path(4);
        let sim = Simulator::new(&topo, Config::for_n(4), |_| Flood { seen_round: None });
        let report = sim.run().unwrap();
        // Node 0 sends 1, nodes 1 and 2 send 2 each, node 3 sends 1.
        assert_eq!(report.stats.messages, 6);
        assert_eq!(report.stats.bits, 6);
        assert_eq!(report.stats.max_message_bits, 1);
    }

    /// An algorithm that violates the bandwidth limit on purpose.
    #[derive(Clone, Debug)]
    struct Fat;
    impl Message for Fat {
        fn bit_size(&self) -> u32 {
            10_000
        }
    }
    struct Blaster;
    impl NodeAlgorithm for Blaster {
        type Message = Fat;
        type Output = ();
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Fat>) {
            if ctx.node_id() == 0 {
                out.send(0, Fat);
            }
        }
        fn on_round(&mut self, _: &NodeContext<'_>, _: &Inbox<Fat>, _: &mut Outbox<Fat>) {}
        fn into_output(self, _: &NodeContext<'_>) {}
    }

    #[test]
    fn oversized_message_is_rejected() {
        let topo = path(2);
        let sim = Simulator::new(&topo, Config::for_n(2), |_| Blaster);
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { node: 0, .. }));
    }

    struct DoubleSender;
    impl NodeAlgorithm for DoubleSender {
        type Message = Token;
        type Output = ();
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
            if ctx.node_id() == 0 {
                out.send(0, Token);
                out.send(0, Token);
            }
        }
        fn on_round(&mut self, _: &NodeContext<'_>, _: &Inbox<Token>, _: &mut Outbox<Token>) {}
        fn into_output(self, _: &NodeContext<'_>) {}
    }

    #[test]
    fn duplicate_send_is_rejected() {
        let topo = path(2);
        let sim = Simulator::new(&topo, Config::for_n(2), |_| DoubleSender);
        let err = sim.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::DuplicateSend {
                node: 0,
                port: 0,
                ..
            }
        ));
    }

    struct BadPort;
    impl NodeAlgorithm for BadPort {
        type Message = Token;
        type Output = ();
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
            if ctx.node_id() == 0 {
                out.send(9, Token);
            }
        }
        fn on_round(&mut self, _: &NodeContext<'_>, _: &Inbox<Token>, _: &mut Outbox<Token>) {}
        fn into_output(self, _: &NodeContext<'_>) {}
    }

    #[test]
    fn invalid_port_is_rejected() {
        let topo = path(2);
        let sim = Simulator::new(&topo, Config::for_n(2), |_| BadPort);
        let err = sim.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidPort {
                node: 0,
                port: 9,
                degree: 1
            }
        ));
    }

    /// Two nodes ping-pong forever; the round limit must fire.
    struct PingPong;
    impl NodeAlgorithm for PingPong {
        type Message = Token;
        type Output = u64;
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
            if ctx.node_id() == 0 {
                out.send(0, Token);
            }
        }
        fn on_round(&mut self, _: &NodeContext<'_>, inbox: &Inbox<Token>, out: &mut Outbox<Token>) {
            if !inbox.is_empty() {
                out.send(0, Token);
            }
        }
        fn into_output(self, ctx: &NodeContext<'_>) -> u64 {
            ctx.round()
        }
    }

    #[test]
    fn round_limit_fires_on_livelock() {
        let topo = path(2);
        for executor in [ExecutorKind::Serial, ExecutorKind::Pool { workers: 2 }] {
            let cfg = Config::for_n(2).with_max_rounds(25).with_executor(executor);
            let sim = Simulator::new(&topo, cfg, |_| PingPong);
            let err = sim.run().unwrap_err();
            assert_eq!(err, SimError::RoundLimitExceeded { limit: 25 });
        }
    }

    /// A silent node that stays active for 5 rounds, then sends once. Tests
    /// that `is_active` keeps the clock running without traffic.
    struct Timer {
        fired: bool,
    }
    impl NodeAlgorithm for Timer {
        type Message = Token;
        type Output = bool;
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<Token>,
            out: &mut Outbox<Token>,
        ) {
            if ctx.node_id() == 0 && ctx.round() == 5 {
                self.fired = true;
                out.send(0, Token);
            }
            if !inbox.is_empty() {
                self.fired = true;
            }
        }
        fn is_active(&self) -> bool {
            !self.fired
        }
        fn into_output(self, _: &NodeContext<'_>) -> bool {
            self.fired
        }
    }

    #[test]
    fn timers_run_without_traffic() {
        let topo = path(2);
        for executor in [ExecutorKind::Serial, ExecutorKind::Pool { workers: 2 }] {
            let cfg = Config::for_n(2).with_executor(executor);
            let sim = Simulator::new(&topo, cfg, |_| Timer { fired: false });
            let report = sim.run().unwrap();
            assert_eq!(report.outputs, vec![true, true]);
            assert_eq!(report.stats.rounds, 6); // fired in round 5, delivered in 6
        }
    }

    #[test]
    fn trace_records_deliveries() {
        let topo = path(3);
        let rec = crate::SharedObserver::new(crate::TraceRecorder::new());
        let cfg = Config::for_n(3).with_observer(rec.observer());
        let sim = Simulator::new(&topo, cfg, |_| Flood { seen_round: None });
        let report = sim.run().unwrap();
        let deliveries: Vec<(u64, NodeId, NodeId)> = rec.with(|r| {
            r.events()
                .filter_map(|e| match *e {
                    TraceEvent::Message {
                        round, from, to, ..
                    } => Some((round + 1, from, to)),
                    _ => None,
                })
                .collect()
        });
        assert_eq!(deliveries.len() as u64, report.stats.messages);
        assert_eq!(deliveries[0], (1, 0, 1));
    }

    #[test]
    fn empty_network_quiesces_immediately() {
        let topo = Topology::from_adjacency(vec![vec![]]).unwrap();
        for executor in [ExecutorKind::Serial, ExecutorKind::Pool { workers: 4 }] {
            let cfg = Config::for_n(1).with_executor(executor);
            let sim = Simulator::new(&topo, cfg, |_| Flood { seen_round: None });
            let report = sim.run().unwrap();
            assert_eq!(report.stats.rounds, 0);
        }
    }

    #[test]
    fn bits_helper_consistency() {
        // A message carrying two ids must fit the default config.
        let n = 1000;
        assert!(2 * bits_for_id(n) <= Config::for_n(n).bandwidth_bits);
    }

    /// Node 0 fires one token per round for 5 rounds; node 1 counts them.
    struct Repeater {
        me: NodeId,
        sent: u64,
        got: u64,
    }
    impl NodeAlgorithm for Repeater {
        type Message = Token;
        type Output = u64;
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Token>) {
            if ctx.node_id() == 0 {
                self.sent = 1;
                out.send(0, Token);
            }
        }
        fn on_round(&mut self, _: &NodeContext<'_>, inbox: &Inbox<Token>, out: &mut Outbox<Token>) {
            self.got += inbox.iter().count() as u64;
            if self.me == 0 && self.sent < 5 {
                self.sent += 1;
                out.send(0, Token);
            }
        }
        fn is_active(&self) -> bool {
            self.me == 0 && self.sent < 5
        }
        fn into_output(self, _: &NodeContext<'_>) -> u64 {
            self.got
        }
    }

    /// A crash window freezes the node (no step, deliveries into the
    /// window vanish) and the node resumes with its state intact once the
    /// window closes — identically on every executor.
    #[test]
    fn crashed_node_freezes_and_resumes() {
        let topo = path(2);
        // Node 1 is down for rounds 2 and 3: the tokens *delivered* in
        // those rounds (sent in rounds 1 and 2) are lost; the rest arrive.
        let faults = crate::FaultPlan::new(0).with_crash(1, 2, 4);
        for executor in [ExecutorKind::Serial, ExecutorKind::Pool { workers: 2 }] {
            let cfg = Config::for_n(2)
                .with_faults(faults.clone())
                .with_executor(executor);
            let sim = Simulator::new(&topo, cfg, |ctx| Repeater {
                me: ctx.node_id(),
                sent: 0,
                got: 0,
            });
            let report = sim.run().unwrap();
            assert_eq!(report.outputs, vec![0, 3], "{executor:?}");
            assert_eq!(report.stats.dropped, 2, "{executor:?}");
            assert_eq!(report.stats.crashed, 2, "{executor:?}");
        }
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use crate::message::Message;
    use crate::obs::{PhaseProfiler, SharedObserver};
    use crate::{ReferenceSimulator, TraceRecorder};

    #[derive(Clone, Debug)]
    struct Tagged {
        origin: u32,
    }
    impl Message for Tagged {
        fn bit_size(&self) -> u32 {
            8
        }
        fn stream_id(&self) -> Option<u32> {
            Some(self.origin)
        }
    }

    /// Every node floods its own id once (a miniature Algorithm 1 pattern).
    struct Gossip {
        seen: Vec<bool>,
        queue: std::collections::VecDeque<Tagged>,
    }
    impl NodeAlgorithm for Gossip {
        type Message = Tagged;
        type Output = usize;
        fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Tagged>) {
            self.seen[ctx.node_id() as usize] = true;
            out.send_to_all(
                0..ctx.degree() as u32,
                Tagged {
                    origin: ctx.node_id(),
                },
            );
        }
        fn on_round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<Tagged>,
            out: &mut Outbox<Tagged>,
        ) {
            for (_, m) in inbox.iter() {
                if !self.seen[m.origin as usize] {
                    self.seen[m.origin as usize] = true;
                    self.queue.push_back(m.clone());
                }
            }
            if let Some(m) = self.queue.pop_front() {
                out.send_to_all(0..ctx.degree() as u32, m);
            }
        }
        fn is_active(&self) -> bool {
            !self.queue.is_empty()
        }
        fn into_output(self, _: &NodeContext<'_>) -> usize {
            self.seen.iter().filter(|&&s| s).count()
        }
    }

    fn ring(n: usize) -> Topology {
        let adj = (0..n)
            .map(|v| vec![((v + n - 1) % n) as NodeId, ((v + 1) % n) as NodeId])
            .collect();
        Topology::from_adjacency(adj).unwrap()
    }

    fn gossip(n: usize) -> impl Fn(&NodeContext<'_>) -> Gossip + Copy {
        move |_| Gossip {
            seen: vec![false; n],
            queue: std::collections::VecDeque::new(),
        }
    }

    /// Runs gossip on `topo` under `cfg` (the reference engine when
    /// `reference`) with a [`TraceRecorder`] attached; returns the stats
    /// and the recorder.
    fn traced(
        topo: &Topology,
        cfg: Config,
        reference: bool,
    ) -> (Report<usize>, SharedObserver<TraceRecorder>) {
        let n = topo.num_nodes();
        let rec = SharedObserver::new(TraceRecorder::new());
        let cfg = cfg.with_observer(rec.observer());
        let report = if reference {
            ReferenceSimulator::new(topo, cfg, gossip(n)).run()
        } else {
            Simulator::new(topo, cfg, gossip(n)).run()
        };
        (report.unwrap(), rec)
    }

    /// How many recorded events `pick` selects.
    fn count(rec: &SharedObserver<TraceRecorder>, pick: impl Fn(&TraceEvent) -> bool) -> u64 {
        rec.with(|r| r.events().filter(|e| pick(e)).count() as u64)
    }

    #[test]
    fn trace_sums_to_stats() {
        let (report, rec) = traced(&ring(8), Config::for_n(8).with_phase("gossip"), false);
        let sent = count(&rec, |e| matches!(e, TraceEvent::Message { .. }));
        assert_eq!(sent, report.stats.messages);
        assert_eq!(rec.with(|r| r.kernels()[&1].bits), report.stats.bits);
        let rounds = count(&rec, |e| matches!(e, TraceEvent::RoundStart { .. }));
        assert_eq!(rounds, report.stats.rounds);
        let labelled =
            |e: &TraceEvent| matches!(e, TraceEvent::RunStart { phase, .. } if phase == "gossip");
        assert_eq!(count(&rec, labelled), 1);
        // Round 0 is every node's on_start flood: every undirected ring
        // edge carries both directions.
        let boot = count(&rec, |e| matches!(e, TraceEvent::Message { round: 0, .. }));
        assert_eq!(boot, 16);
        assert_eq!(rec.with(|r| r.top_edges(8).len()), 8);
    }

    /// The serial executor, the pool and the reference engine feed one
    /// observer the same event stream.
    #[test]
    fn every_engine_feeds_the_same_trace() {
        let topo = ring(7);
        let pool = Config::for_n(7).with_executor(ExecutorKind::Pool { workers: 3 });
        let (serial, serial_rec) = traced(&topo, Config::for_n(7), false);
        let (pooled, pool_rec) = traced(&topo, pool, false);
        let (seed, seed_rec) = traced(&topo, Config::for_n(7), true);
        assert_eq!(serial.stats, pooled.stats);
        assert_eq!(serial.stats, seed.stats);
        let jsonl = serial_rec.with(|r| r.events_jsonl());
        assert_eq!(jsonl, pool_rec.with(|r| r.events_jsonl()));
        assert_eq!(jsonl, seed_rec.with(|r| r.events_jsonl()));
    }

    #[test]
    fn profiler_measures_rounds_when_attached() {
        let topo = ring(6);
        let prof = SharedObserver::new(PhaseProfiler::new());
        let cfg = Config::for_n(6)
            .with_phase("ring")
            .with_observer(prof.observer());
        let report = Simulator::new(&topo, cfg, gossip(6)).run().unwrap();
        prof.with(|p| {
            assert_eq!(p.profiles().len(), 1);
            let total = p.total();
            assert_eq!(total.rounds, report.stats.rounds);
            assert_eq!(total.messages, report.stats.messages);
            assert!(total.step + total.commit > std::time::Duration::ZERO);
            assert_eq!(total.phase, "ring");
        });
    }

    #[test]
    fn drops_reach_the_observer() {
        let (report, rec) = traced(&ring(8), Config::for_n(8).with_loss(0.3, 42), false);
        assert!(report.stats.dropped > 0, "loss plan should fire");
        let drops = count(&rec, |e| matches!(e, TraceEvent::Drop { .. }));
        assert_eq!(drops, report.stats.dropped);
    }

    /// The full adversary — burst loss composed with crash windows — makes
    /// all three engines (serial, pooled, reference) produce bit-identical
    /// outputs, stats, and event streams, with the stream's `Crash` and
    /// `Drop` events counting to the stats counters.
    #[test]
    fn fault_adversary_is_identical_across_engines() {
        use crate::{FaultPlan, LossRule};
        let topo = ring(9);
        // Burst probability stays below 1.0 so round 0 (inside the first
        // burst window) cannot silence the whole network.
        let faults = FaultPlan::new(11)
            .with_rule(LossRule::Burst {
                probability: 0.7,
                period: 5,
                len: 2,
            })
            .with_rule(LossRule::Uniform { probability: 0.05 })
            .with_crash(3, 1, 4)
            .with_crash(6, 2, 3);
        let cfg = || Config::for_n(9).with_faults(faults.clone());
        let (serial, serial_rec) = traced(&topo, cfg(), false);
        let pool = cfg().with_executor(ExecutorKind::Pool { workers: 3 });
        let (pooled, pool_rec) = traced(&topo, pool, false);
        let (seed, seed_rec) = traced(&topo, cfg(), true);
        assert!(serial.stats.dropped > 0, "adversary should drop something");
        assert_eq!(
            serial.stats.crashed, 4,
            "3 rounds down for node 3 + 1 for node 6"
        );
        assert_eq!(serial.stats, pooled.stats);
        assert_eq!(serial.stats, seed.stats);
        assert_eq!(serial.outputs, pooled.outputs);
        assert_eq!(serial.outputs, seed.outputs);
        let jsonl = serial_rec.with(|r| r.events_jsonl());
        assert_eq!(jsonl, pool_rec.with(|r| r.events_jsonl()));
        assert_eq!(jsonl, seed_rec.with(|r| r.events_jsonl()));
        let crashes = count(&serial_rec, |e| matches!(e, TraceEvent::Crash { .. }));
        assert_eq!(crashes, serial.stats.crashed);
        let drops = count(&serial_rec, |e| matches!(e, TraceEvent::Drop { .. }));
        assert_eq!(drops, serial.stats.dropped);
    }
}
