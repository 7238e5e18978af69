//! Zero-cost-when-disabled observability for the round engines.
//!
//! The paper's claims are *observable* quantities: Lemma 1 says the BFS
//! waves of Algorithm 1 never congest an edge, the S-SP lemma bounds each
//! wave's delay by `|S|`, and every theorem is a round or message bound.
//! This module lets a run be watched while it happens instead of being
//! summarized after the fact:
//!
//! * [`Observer`] — the hook trait both engines call at round start/end,
//!   message commit, and drop events. Every hook has a default no-op body;
//!   with no observer configured the engines skip the hook sites with a
//!   single `Option` check, so observation costs nothing when disabled.
//! * [`MetricsRecorder`] — a per-round metric stream (messages, bits,
//!   drops, active senders, per-edge load histogram, max edge congestion,
//!   wall-clock phase split), streamable to JSONL.
//! * [`PhaseProfiler`] — per-phase wall-clock totals splitting each round
//!   into deliver/step/commit time, so e.g. the "the sequential commit
//!   phase dominates threaded runs" hypothesis becomes a measured number.
//! * [`EdgeCongestionProbe`] and [`WaveArrivalProbe`] — live checks of the
//!   paper's structural invariants (Lemma 1 wave spacing, S-SP delay)
//!   over real runs.
//!
//! Attach an observer with [`Config::with_observer`](crate::Config) and
//! keep a typed handle via [`SharedObserver`] to read the recording back:
//!
//! ```
//! use dapsp_congest::obs::{MetricsRecorder, SharedObserver};
//! use dapsp_congest::{Config, Simulator, Topology};
//! # use dapsp_congest::{Inbox, Message, NodeAlgorithm, NodeContext, Outbox};
//! # #[derive(Clone, Debug)]
//! # struct Ping;
//! # impl Message for Ping { fn bit_size(&self) -> u32 { 1 } }
//! # struct Greeter { heard: bool }
//! # impl NodeAlgorithm for Greeter {
//! #     type Message = Ping;
//! #     type Output = bool;
//! #     fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Ping>) {
//! #         if ctx.node_id() == 0 { out.send(0, Ping); }
//! #     }
//! #     fn on_round(&mut self, _: &NodeContext<'_>, inbox: &Inbox<Ping>, _: &mut Outbox<Ping>) {
//! #         if !inbox.is_empty() { self.heard = true; }
//! #     }
//! #     fn into_output(self, _: &NodeContext<'_>) -> bool { self.heard }
//! # }
//! # fn main() -> Result<(), dapsp_congest::SimError> {
//! let topo = Topology::from_adjacency(vec![vec![1], vec![0]])?;
//! let recorder = SharedObserver::new(MetricsRecorder::new());
//! let cfg = Config::for_n(2).with_observer(recorder.observer());
//! let report = Simulator::new(&topo, cfg, |_| Greeter { heard: false }).run()?;
//! // The report carries this run's stream; the shared recorder keeps the
//! // full (possibly multi-phase) stream for JSONL export.
//! let stream = report.metrics.expect("recorder attached");
//! assert_eq!(stream.iter().map(|r| r.messages).sum::<u64>(), report.stats.messages);
//! recorder.with(|r| assert_eq!(r.stream().len(), stream.len()));
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::config::{DropReason, TopologyEvent};
use crate::message::TraceTags;
use crate::node::{NodeId, Port};
use crate::stats::RunStats;

/// What the engine tells an observer when a run begins.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo<'a> {
    /// The phase label from [`Config::with_phase`](crate::Config), or `""`
    /// if the run is unlabeled.
    pub phase: &'a str,
    /// Number of nodes in the topology.
    pub nodes: usize,
    /// Number of *directed* edges (`2m`); directed edge indices in
    /// [`MessageEvent::edge`] range over `0..directed_edges`.
    pub directed_edges: usize,
    /// Number of nodes that run `on_start` (everyone not crashed at round
    /// 0) — the round-0 scheduled count, mirrored into the metric
    /// stream's first row.
    pub started: u64,
}

/// One committed (accepted-for-delivery) message, as seen by the engine's
/// sequential commit phase.
#[derive(Clone, Copy, Debug)]
pub struct MessageEvent {
    /// The round whose commit produced this message (`0` for sends queued
    /// in `on_start`). The message is delivered at `send_round + 1`.
    pub send_round: u64,
    /// The sending node.
    pub from: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// The receiver's port the message will arrive on.
    pub to_port: Port,
    /// The directed edge the message crosses, as a flat index in
    /// `0..2m` (see [`Topology::directed_edge_index`](crate::Topology)).
    pub edge: u32,
    /// The opposite direction of the same undirected edge
    /// (`directed_edge_index(to, to_port)`); `min(edge, reverse_edge)` is a
    /// canonical undirected-edge key.
    pub reverse_edge: u32,
    /// Payload size in bits.
    pub bits: u32,
    /// The logical stream this message belongs to, if the message type
    /// reports one via [`Message::stream_id`](crate::Message::stream_id)
    /// (e.g. the BFS root a wave announcement serves).
    pub stream: Option<u32>,
    /// Per-kernel attribution tags reported by the message via
    /// [`Message::trace_tags`](crate::Message::trace_tags): which kernels
    /// of a composed stack contributed components, and whether the
    /// transport layer marked the frame as a retransmission / ack carrier.
    pub tags: TraceTags,
}

/// Wall-clock split of one engine round. Only measured while an observer is
/// attached; all-zero otherwise.
///
/// The optimized engine's phase pipeline times each phase on the engine
/// thread, bracketing the executor's `deliver`/`step`/`commit` calls, so
/// the split means the same thing for every
/// [`ExecutorKind`](crate::ExecutorKind). The seed engine interleaves
/// stepping and committing per node and accumulates the same three
/// buckets from per-node clocks instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTiming {
    /// Inbox turnover: swapping (serial executor), distributing shards to
    /// workers (pool executor), or allocating (seed engine) the per-node
    /// inbox buffers. The zero-allocation engine fuses delivery
    /// enqueueing into commit and inbox sorting into step, so its deliver
    /// share is near zero *by design* — the contrast against the seed
    /// engine's per-round allocations is itself an observable.
    pub deliver: Duration,
    /// Node-local `on_round` execution. The pool executor runs this phase
    /// on its workers (which also pre-validate outboxes into staged
    /// commit queues); it is the only phase
    /// [`Config::with_threads`](crate::Config) parallelizes.
    pub step: Duration,
    /// The outbox validation/accounting/enqueue phase, always replayed on
    /// the engine thread in node-id order (under the pool, the merge of
    /// the workers' staged queues).
    pub commit: Duration,
}

/// End-of-run transport-layer telemetry: what a reliable-delivery
/// synchronizer (the kernel layer's `ReliableKernel`) did over a whole run,
/// aggregated across nodes. Reported to observers via
/// [`Observer::on_transport`] by entry points that wrap their protocol in a
/// reliable transport, so retransmission telemetry lands in the same stream
/// as the per-round metrics instead of only in an end-of-run struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportSummary {
    /// Simulated rounds the transport ran for.
    pub sim_rounds: u64,
    /// Frames put on the wire (first sends and retries).
    pub frames_sent: u64,
    /// Frames re-sent after an ack timeout.
    pub retransmissions: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Sends refused because the retry horizon was exhausted.
    pub truncated_sends: u64,
    /// Node-links that gave up entirely.
    pub gave_up: u64,
}

/// Hooks called by [`Simulator`](crate::Simulator) and
/// [`ReferenceSimulator`](crate::ReferenceSimulator) while a run executes.
///
/// All hooks run on the engine's main thread, in deterministic order:
/// `on_run_start`, then per round `on_round_start` → `on_message`/`on_drop`
/// (in node-id commit order) → `on_sched` → `on_round_end` →
/// `on_quiescence`, and
/// finally (`on_terminate` if the run quiesced early, then) `on_run_end`.
/// Messages queued in `on_start` are committed *before* the first
/// `on_round_start`, with `send_round == 0`, and the round-0 vote poll
/// reports via `on_quiescence(0, …)` right after.
///
/// Every hook has a no-op default, so an observer implements only what it
/// needs.
pub trait Observer: Send {
    /// A simulation run begins (one per engine `run()`; composite pipelines
    /// produce one call per phase).
    fn on_run_start(&mut self, _info: &RunInfo<'_>) {}
    /// Round `round` begins; `delivered` messages (sent in `round - 1`) are
    /// about to be handed to the nodes, and `scheduled` nodes are on this
    /// round's schedule (nodes with arrivals or awake — the set the
    /// active-set engine steps; the dense reference engine reports the
    /// same count while still stepping everyone).
    fn on_round_start(&mut self, _round: u64, _delivered: u64, _scheduled: u64) {}
    /// A message passed validation and was accepted for delivery.
    fn on_message(&mut self, _ev: &MessageEvent) {}
    /// A message was dropped by the configured
    /// [`FaultPlan`](crate::FaultPlan) during round `send_round`'s commit;
    /// `reason` says whether a loss rule fired or the receiver was inside a
    /// crash window at delivery time. `tags` carries the dropped message's
    /// per-kernel attribution (see [`TraceTags`]).
    fn on_drop(
        &mut self,
        _send_round: u64,
        _from: NodeId,
        _from_port: Port,
        _reason: DropReason,
        _tags: TraceTags,
    ) {
    }
    /// Node `node` sits out round `round` inside a
    /// [`CrashWindow`](crate::CrashWindow). Called once per crashed node
    /// per round, in node-id order, between `on_round_start` and the
    /// round's commit events.
    fn on_crash(&mut self, _round: u64, _node: NodeId) {}
    /// One [`TopologyPlan`](crate::TopologyPlan) event took effect at the
    /// start of round `round` (the churn choke point). Called once per
    /// event in plan order, *before* `on_round_start(round, …)` — the
    /// batch mutates the topology before the round's schedule is built.
    /// Any in-flight messages purged off the batch's dead links follow as
    /// `on_drop` calls with [`DropReason::TopologyChange`] and the
    /// previous round as their send round.
    fn on_topology(&mut self, _round: u64, _event: &TopologyEvent) {}
    /// Round `round`'s scheduler telemetry: the executor stepped the
    /// round's schedule as `chunks` frontier chunks, of which `steals`
    /// were executed by a worker other than their home worker (see
    /// [`PoolSched`](crate::PoolSched)). Called immediately before
    /// `on_round_end`, on every engine; executors without a chunk
    /// scheduler (serial, the dense reference) report `(0, 0)`. The
    /// counts are timing-dependent load-balance telemetry, *not* part of
    /// the deterministic model — recorders must keep them out of
    /// equality comparisons.
    fn on_sched(&mut self, _round: u64, _chunks: u64, _steals: u64) {}
    /// Round `round` finished committing.
    fn on_round_end(&mut self, _round: u64, _timing: &RoundTiming) {}
    /// The termination-vote tally of round `round`'s quiescence poll:
    /// `active + passive + shutdown` counts sum to the number of polled
    /// nodes (everyone for the round-0 poll after `on_start`, the round's
    /// scheduled set afterwards — crashed scheduled nodes vote with their
    /// frozen state). Called after `on_round_end` (and after the start
    /// commits for round 0), on every engine at the same points.
    fn on_quiescence(&mut self, _round: u64, _active: u64, _passive: u64, _shutdown: u64) {}
    /// The run is about to stop early because the quiescence votes became
    /// terminal after round `round` with `in_flight` undelivered messages
    /// (zero unless the vote was unanimous shutdown). Called before
    /// `on_run_end`; never called when the round horizon aborts the run.
    fn on_terminate(&mut self, _round: u64, _in_flight: u64) {}
    /// A reliable-transport entry point finished a run and reports its
    /// aggregated transport telemetry (called after `on_run_end`, outside
    /// the engine, by wrappers that own the transport state).
    fn on_transport(&mut self, _summary: &TransportSummary) {}
    /// The run reached quiescence; `stats` is final (including wall time).
    fn on_run_end(&mut self, _stats: &RunStats) {}
    /// Called once after `on_run_end`: an observer that records a per-round
    /// metric stream returns this run's rows here so the engine can attach
    /// them to the [`Report`](crate::Report). Default `None`.
    fn take_run_stream(&mut self) -> Option<Vec<RoundMetrics>> {
        None
    }
}

/// A type-erased, shareable observer slot carried by
/// [`Config`](crate::Config).
///
/// Cloning the handle shares the underlying observer, which is how one
/// recorder watches every phase of a composite pipeline. Construct via
/// [`SharedObserver::observer`] to keep typed access to the observer.
#[derive(Clone)]
pub struct ObserverHandle(Arc<Mutex<dyn Observer>>);

impl ObserverHandle {
    /// Wraps an observer, giving up typed access (use [`SharedObserver`]
    /// to keep it).
    pub fn new<O: Observer + 'static>(observer: O) -> Self {
        ObserverHandle(Arc::new(Mutex::new(observer)))
    }

    /// Locks the observer for a batch of hook calls.
    ///
    /// The engines call hooks from a single thread, so the lock is
    /// uncontended there; a poisoned lock (an observer panicked) is
    /// recovered rather than propagated.
    pub fn lock(&self) -> MutexGuard<'_, dyn Observer + 'static> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ObserverHandle(..)")
    }
}

/// An observer plus a typed handle to read it back after runs.
///
/// [`ObserverHandle`] erases the observer's type so [`Config`](crate::Config)
/// can carry any observer; `SharedObserver` keeps the concrete type so the
/// caller can inspect the recording afterwards (see the module example).
pub struct SharedObserver<O> {
    inner: Arc<Mutex<O>>,
}

impl<O: Observer + 'static> SharedObserver<O> {
    /// Wraps `observer` for sharing between the engine and the caller.
    pub fn new(observer: O) -> Self {
        SharedObserver {
            inner: Arc::new(Mutex::new(observer)),
        }
    }

    /// A type-erased handle for [`Config::with_observer`](crate::Config);
    /// shares (not copies) the observer.
    pub fn observer(&self) -> ObserverHandle {
        ObserverHandle(self.inner.clone() as Arc<Mutex<dyn Observer>>)
    }

    /// Runs `f` with exclusive access to the observer.
    pub fn with<R>(&self, f: impl FnOnce(&mut O) -> R) -> R {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        f(&mut guard)
    }
}

impl<O> Clone for SharedObserver<O> {
    fn clone(&self) -> Self {
        SharedObserver {
            inner: self.inner.clone(),
        }
    }
}

/// Fans every hook out to several observers, in order.
///
/// Lets one run feed e.g. a [`MetricsRecorder`] and an invariant probe at
/// once. Only the *first* observer's [`Observer::take_run_stream`] feeds the
/// report, so put the recorder first.
pub struct FanOut {
    observers: Vec<ObserverHandle>,
}

impl FanOut {
    /// Combines `observers`; hooks are forwarded in the given order.
    pub fn new(observers: Vec<ObserverHandle>) -> Self {
        FanOut { observers }
    }
}

impl Observer for FanOut {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        for obs in &self.observers {
            obs.lock().on_run_start(info);
        }
    }
    fn on_round_start(&mut self, round: u64, delivered: u64, scheduled: u64) {
        for obs in &self.observers {
            obs.lock().on_round_start(round, delivered, scheduled);
        }
    }
    fn on_message(&mut self, ev: &MessageEvent) {
        for obs in &self.observers {
            obs.lock().on_message(ev);
        }
    }
    fn on_drop(
        &mut self,
        send_round: u64,
        from: NodeId,
        from_port: Port,
        reason: DropReason,
        tags: TraceTags,
    ) {
        for obs in &self.observers {
            obs.lock()
                .on_drop(send_round, from, from_port, reason, tags);
        }
    }
    fn on_crash(&mut self, round: u64, node: NodeId) {
        for obs in &self.observers {
            obs.lock().on_crash(round, node);
        }
    }
    fn on_topology(&mut self, round: u64, event: &TopologyEvent) {
        for obs in &self.observers {
            obs.lock().on_topology(round, event);
        }
    }
    fn on_sched(&mut self, round: u64, chunks: u64, steals: u64) {
        for obs in &self.observers {
            obs.lock().on_sched(round, chunks, steals);
        }
    }
    fn on_round_end(&mut self, round: u64, timing: &RoundTiming) {
        for obs in &self.observers {
            obs.lock().on_round_end(round, timing);
        }
    }
    fn on_quiescence(&mut self, round: u64, active: u64, passive: u64, shutdown: u64) {
        for obs in &self.observers {
            obs.lock().on_quiescence(round, active, passive, shutdown);
        }
    }
    fn on_terminate(&mut self, round: u64, in_flight: u64) {
        for obs in &self.observers {
            obs.lock().on_terminate(round, in_flight);
        }
    }
    fn on_transport(&mut self, summary: &TransportSummary) {
        for obs in &self.observers {
            obs.lock().on_transport(summary);
        }
    }
    fn on_run_end(&mut self, stats: &RunStats) {
        for obs in &self.observers {
            obs.lock().on_run_end(stats);
        }
    }
    fn take_run_stream(&mut self) -> Option<Vec<RoundMetrics>> {
        self.observers
            .first()
            .and_then(|obs| obs.lock().take_run_stream())
    }
}

/// One row of the per-round metric stream produced by [`MetricsRecorder`].
///
/// Row `r` accounts for the commits performed during round `r` (row 0 holds
/// the `on_start` sends): `messages`/`bits` were accepted for delivery at
/// round `r + 1`, `dropped` were discarded by the fault plan, `crashed`
/// counts the nodes sitting out round `r` inside a crash window. Summing a
/// column over the stream therefore reproduces the corresponding
/// [`RunStats`] total exactly, and a stream always has
/// `stats.rounds + 1` rows.
#[derive(Clone, Debug)]
pub struct RoundMetrics {
    /// The phase label of the run this row belongs to (`""` unlabeled).
    pub phase: Arc<str>,
    /// The send round this row accounts for (0 = `on_start`).
    pub round: u64,
    /// Messages committed (accepted for delivery) this round.
    pub messages: u64,
    /// Payload bits committed this round.
    pub bits: u64,
    /// Messages dropped by the fault plan this round (loss rules plus
    /// deliveries into crash windows).
    pub dropped: u64,
    /// Nodes sitting out this round inside a crash window.
    pub crashed: u64,
    /// [`TopologyPlan`](crate::TopologyPlan) events that took effect
    /// entering this row's round (applied at the churn choke point, before
    /// the round's deliveries). Summing the column reproduces
    /// [`RunStats::topo_events`]; deterministic, so it participates in
    /// equality.
    pub topo_events: u64,
    /// Frames committed (or dropped) this round that the transport layer
    /// marked as retransmissions. Summing the column over a reliable run
    /// reproduces the transport's `retransmissions` total exactly — every
    /// sent frame is either delivered or dropped.
    pub retransmits: u64,
    /// Frames committed (or dropped) this round carrying an ack.
    pub acks: u64,
    /// Nodes voting `Active` in this round's quiescence poll.
    pub votes_active: u64,
    /// Nodes voting `Passive` in this round's quiescence poll.
    pub votes_passive: u64,
    /// Nodes voting `Shutdown` in this round's quiescence poll. The three
    /// vote columns sum to the polled-node count: everyone in row 0, the
    /// round's `scheduled_nodes` afterwards.
    pub votes_shutdown: u64,
    /// Distinct nodes that sent at least one message this round.
    pub active_nodes: u32,
    /// Nodes on this round's schedule (arrivals waiting or awake) — the
    /// set the active-set engine steps. Row 0 counts the nodes that ran
    /// `on_start`. Summing the column reproduces
    /// [`RunStats::scheduled_node_rounds`]; the column maximum is
    /// [`RunStats::max_scheduled_per_round`].
    pub scheduled_nodes: u64,
    /// Frontier chunks the executor stepped this round (0 on executors
    /// without a chunk scheduler). Summing the column reproduces
    /// [`RunStats::chunks_stepped`]. Load-balance telemetry like the
    /// `*_ns` columns: excluded from equality, included in the JSON.
    pub chunks: u64,
    /// Chunks stepped by a worker other than their home worker this round
    /// (see [`PoolSched`](crate::PoolSched)). Summing the column
    /// reproduces [`RunStats::steals`]; timing-dependent, excluded from
    /// equality.
    pub steals: u64,
    /// The largest number of messages any single *undirected* edge carried
    /// this round (at most 2 — one per direction — by the engine's
    /// bandwidth discipline; the interesting signal is how close the
    /// average load comes to it).
    pub max_edge_load: u32,
    /// `edge_load_hist[l - 1]` = number of undirected edges that carried
    /// exactly `l` messages this round.
    pub edge_load_hist: Vec<u64>,
    /// Inbox-turnover wall time (see [`RoundTiming::deliver`]).
    pub deliver_ns: u64,
    /// Node-stepping wall time (see [`RoundTiming::step`]).
    pub step_ns: u64,
    /// Sequential-commit wall time (see [`RoundTiming::commit`]).
    pub commit_ns: u64,
}

impl RoundMetrics {
    fn new(phase: Arc<str>, round: u64) -> Self {
        RoundMetrics {
            phase,
            round,
            messages: 0,
            bits: 0,
            dropped: 0,
            crashed: 0,
            topo_events: 0,
            retransmits: 0,
            acks: 0,
            votes_active: 0,
            votes_passive: 0,
            votes_shutdown: 0,
            active_nodes: 0,
            scheduled_nodes: 0,
            chunks: 0,
            steals: 0,
            max_edge_load: 0,
            edge_load_hist: Vec::new(),
            deliver_ns: 0,
            step_ns: 0,
            commit_ns: 0,
        }
    }

    /// Renders the row as one JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.edge_load_hist.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"phase\":\"{}\",\"round\":{},\"messages\":{},\"bits\":{},",
                "\"dropped\":{},\"crashed\":{},\"topo_events\":{},",
                "\"retransmits\":{},\"acks\":{},",
                "\"votes_active\":{},\"votes_passive\":{},\"votes_shutdown\":{},",
                "\"active_nodes\":{},",
                "\"scheduled_nodes\":{},\"chunks\":{},\"steals\":{},",
                "\"max_edge_load\":{},",
                "\"edge_load_hist\":[{}],\"deliver_ns\":{},\"step_ns\":{},",
                "\"commit_ns\":{}}}"
            ),
            self.phase,
            self.round,
            self.messages,
            self.bits,
            self.dropped,
            self.crashed,
            self.topo_events,
            self.retransmits,
            self.acks,
            self.votes_active,
            self.votes_passive,
            self.votes_shutdown,
            self.active_nodes,
            self.scheduled_nodes,
            self.chunks,
            self.steals,
            self.max_edge_load,
            hist.join(","),
            self.deliver_ns,
            self.step_ns,
            self.commit_ns,
        )
    }
}

/// Equality over the model-level columns only; the `*_ns` wall-clock
/// fields and the `chunks`/`steals` scheduler telemetry are ignored so
/// that deterministic runs compare equal across engines and thread counts
/// (the same convention as [`RunStats`]'s `PartialEq`).
impl PartialEq for RoundMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.phase == other.phase
            && self.round == other.round
            && self.messages == other.messages
            && self.bits == other.bits
            && self.dropped == other.dropped
            && self.crashed == other.crashed
            && self.topo_events == other.topo_events
            && self.retransmits == other.retransmits
            && self.acks == other.acks
            && self.votes_active == other.votes_active
            && self.votes_passive == other.votes_passive
            && self.votes_shutdown == other.votes_shutdown
            && self.active_nodes == other.active_nodes
            && self.scheduled_nodes == other.scheduled_nodes
            && self.max_edge_load == other.max_edge_load
            && self.edge_load_hist == other.edge_load_hist
    }
}

impl Eq for RoundMetrics {}

/// Records the full per-round metric stream of every run it observes.
///
/// The stream row semantics are documented on [`RoundMetrics`]. Multi-phase
/// pipelines that share one recorder across phases accumulate one
/// concatenated stream; each phase's [`Report`](crate::Report) additionally
/// carries just that run's rows.
#[derive(Default)]
pub struct MetricsRecorder {
    stream: Vec<RoundMetrics>,
    /// Index into `stream` where the current run began.
    run_start: usize,
    phase: Option<Arc<str>>,
    /// Per-undirected-edge message count for the current round; sized
    /// `m` at `on_run_start`, cleared via `touched`.
    edge_load: Vec<u32>,
    touched: Vec<u32>,
    last_sender: Option<NodeId>,
    /// Topology events seen since the last `on_round_start`. The churn
    /// choke point fires `on_topology` for round `r` *before*
    /// `on_round_start(r, …)`, so the count is buffered here and folded
    /// into round `r`'s row when that row is opened.
    pending_topo: u64,
    /// End-of-run transport telemetry, one entry per reliable run that
    /// reported via [`Observer::on_transport`], labeled with the phase it
    /// arrived under.
    transports: Vec<(Arc<str>, TransportSummary)>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// The full stream recorded so far, across every observed run.
    pub fn stream(&self) -> &[RoundMetrics] {
        &self.stream
    }

    /// Transport-layer telemetry reported via [`Observer::on_transport`],
    /// one `(phase, summary)` entry per reliable run observed.
    pub fn transports(&self) -> &[(Arc<str>, TransportSummary)] {
        &self.transports
    }

    /// Writes the stream as JSONL (one [`RoundMetrics::to_json`] object per
    /// line), followed by one `"transport"` row per reliable run that
    /// reported end-of-run transport telemetry.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        for row in &self.stream {
            writeln!(out, "{}", row.to_json())?;
        }
        for (phase, t) in &self.transports {
            writeln!(
                out,
                concat!(
                    "{{\"transport\":\"{}\",\"sim_rounds\":{},\"frames_sent\":{},",
                    "\"retransmissions\":{},\"acks_sent\":{},\"truncated_sends\":{},",
                    "\"gave_up\":{}}}"
                ),
                phase,
                t.sim_rounds,
                t.frames_sent,
                t.retransmissions,
                t.acks_sent,
                t.truncated_sends,
                t.gave_up,
            )?;
        }
        Ok(())
    }

    fn row(&mut self) -> &mut RoundMetrics {
        self.stream
            .last_mut()
            .expect("row exists while a run is active")
    }

    /// Folds the current round's edge loads into the open row and resets
    /// the scratch counters.
    fn seal_round(&mut self) {
        let mut max = 0u32;
        let mut hist: Vec<u64> = Vec::new();
        for &e in &self.touched {
            let load = self.edge_load[e as usize];
            self.edge_load[e as usize] = 0;
            max = max.max(load);
            if hist.len() < load as usize {
                hist.resize(load as usize, 0);
            }
            hist[load as usize - 1] += 1;
        }
        self.touched.clear();
        self.last_sender = None;
        let row = self.row();
        row.max_edge_load = max;
        row.edge_load_hist = hist;
    }
}

impl Observer for MetricsRecorder {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        let phase: Arc<str> = Arc::from(info.phase);
        self.run_start = self.stream.len();
        // Keyed by `min(edge, reverse_edge)`, so both directions of one
        // undirected edge land in the same counter; sized by the directed
        // range since the canonical keys live inside it.
        self.edge_load.clear();
        self.edge_load.resize(info.directed_edges, 0);
        self.touched.clear();
        self.last_sender = None;
        self.pending_topo = 0;
        let mut row = RoundMetrics::new(phase.clone(), 0);
        row.scheduled_nodes = info.started;
        self.stream.push(row);
        self.phase = Some(phase);
    }

    fn on_round_start(&mut self, round: u64, _delivered: u64, scheduled: u64) {
        self.seal_round();
        let phase = self.phase.clone().unwrap_or_else(|| Arc::from(""));
        let mut row = RoundMetrics::new(phase, round);
        row.scheduled_nodes = scheduled;
        row.topo_events = self.pending_topo;
        self.pending_topo = 0;
        self.stream.push(row);
    }

    fn on_topology(&mut self, _round: u64, _event: &TopologyEvent) {
        self.pending_topo += 1;
    }

    fn on_message(&mut self, ev: &MessageEvent) {
        let key = ev.edge.min(ev.reverse_edge);
        // Churn-inserted edges carry directed indices past the run-start
        // `2m` sizing; grow the per-edge counters on demand.
        if key as usize >= self.edge_load.len() {
            self.edge_load.resize(key as usize + 1, 0);
        }
        let load = &mut self.edge_load[key as usize];
        *load += 1;
        if *load == 1 {
            self.touched.push(key);
        }
        let row = self.row();
        row.messages += 1;
        row.bits += u64::from(ev.bits);
        row.retransmits += u64::from(ev.tags.retransmit);
        row.acks += u64::from(ev.tags.ack);
        if self.last_sender != Some(ev.from) {
            self.last_sender = Some(ev.from);
            self.row().active_nodes += 1;
        }
    }

    fn on_drop(
        &mut self,
        _send_round: u64,
        from: NodeId,
        _from_port: Port,
        _reason: DropReason,
        tags: TraceTags,
    ) {
        let row = self.row();
        row.dropped += 1;
        // Dropped frames still count toward the transport columns — that
        // keeps the column sums equal to the transport's send-side totals.
        row.retransmits += u64::from(tags.retransmit);
        row.acks += u64::from(tags.ack);
        // A dropped send still makes the sender active this round.
        if self.last_sender != Some(from) {
            self.last_sender = Some(from);
            self.row().active_nodes += 1;
        }
    }

    fn on_crash(&mut self, _round: u64, _node: NodeId) {
        self.row().crashed += 1;
    }

    fn on_quiescence(&mut self, _round: u64, active: u64, passive: u64, shutdown: u64) {
        let row = self.row();
        row.votes_active = active;
        row.votes_passive = passive;
        row.votes_shutdown = shutdown;
    }

    fn on_transport(&mut self, summary: &TransportSummary) {
        let phase = self.phase.clone().unwrap_or_else(|| Arc::from(""));
        self.transports.push((phase, *summary));
    }

    fn on_sched(&mut self, _round: u64, chunks: u64, steals: u64) {
        let row = self.row();
        row.chunks = chunks;
        row.steals = steals;
    }

    fn on_round_end(&mut self, _round: u64, timing: &RoundTiming) {
        let row = self.row();
        row.deliver_ns = timing.deliver.as_nanos() as u64;
        row.step_ns = timing.step.as_nanos() as u64;
        row.commit_ns = timing.commit.as_nanos() as u64;
    }

    fn on_run_end(&mut self, _stats: &RunStats) {
        self.seal_round();
    }

    fn take_run_stream(&mut self) -> Option<Vec<RoundMetrics>> {
        Some(self.stream[self.run_start..].to_vec())
    }
}

/// Per-phase wall-clock totals: how each run's time splits across the
/// deliver/step/commit sub-phases of every round.
///
/// Cheaper than a full [`MetricsRecorder`] (no per-edge accounting); this
/// is what the repo benchmark's `congest.{deliver,commit}_ms` rows read.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfile {
    /// The phase label of the run (`""` unlabeled).
    pub phase: String,
    /// Rounds executed.
    pub rounds: u64,
    /// Messages committed.
    pub messages: u64,
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// Crashed node-rounds.
    pub crashed: u64,
    /// Total inbox-turnover time.
    pub deliver: Duration,
    /// Total node-stepping time.
    pub step: Duration,
    /// Total sequential-commit time.
    pub commit: Duration,
}

/// An [`Observer`] accumulating one [`PhaseProfile`] per observed run.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    profiles: Vec<PhaseProfile>,
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        PhaseProfiler::default()
    }

    /// One profile per observed run, in run order.
    pub fn profiles(&self) -> &[PhaseProfile] {
        &self.profiles
    }

    /// Sums all runs into one profile (phases concatenated with `+`).
    pub fn total(&self) -> PhaseProfile {
        let mut total = PhaseProfile::default();
        let mut labels: Vec<&str> = Vec::new();
        for p in &self.profiles {
            total.rounds += p.rounds;
            total.messages += p.messages;
            total.dropped += p.dropped;
            total.crashed += p.crashed;
            total.deliver += p.deliver;
            total.step += p.step;
            total.commit += p.commit;
            if !p.phase.is_empty() {
                labels.push(&p.phase);
            }
        }
        total.phase = labels.join("+");
        total
    }
}

impl Observer for PhaseProfiler {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.profiles.push(PhaseProfile {
            phase: info.phase.to_string(),
            ..PhaseProfile::default()
        });
    }

    fn on_message(&mut self, _ev: &MessageEvent) {
        if let Some(p) = self.profiles.last_mut() {
            p.messages += 1;
        }
    }

    fn on_drop(
        &mut self,
        _send_round: u64,
        _from: NodeId,
        _from_port: Port,
        _reason: DropReason,
        _tags: TraceTags,
    ) {
        if let Some(p) = self.profiles.last_mut() {
            p.dropped += 1;
        }
    }

    fn on_crash(&mut self, _round: u64, _node: NodeId) {
        if let Some(p) = self.profiles.last_mut() {
            p.crashed += 1;
        }
    }

    fn on_round_end(&mut self, round: u64, timing: &RoundTiming) {
        if let Some(p) = self.profiles.last_mut() {
            p.rounds = round;
            p.deliver += timing.deliver;
            p.step += timing.step;
            p.commit += timing.commit;
        }
    }
}

/// One recorded violation of an [`EdgeCongestionProbe`] limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CongestionViolation {
    /// The send round the limit was exceeded in.
    pub round: u64,
    /// The sender of the violating message.
    pub from: NodeId,
    /// The receiver of the violating message.
    pub to: NodeId,
    /// The load the directed edge reached.
    pub load: u32,
}

/// Live check of the paper's Lemma 1 congestion claim: every *directed*
/// edge carries at most `limit` messages per round.
///
/// Algorithm 1's one-slot pebble wait spaces consecutive BFS waves so that
/// no edge ever needs to carry two wave messages in one round — with the
/// wait, pebble-APSP runs clean at `limit = 1` on any graph. The engine's
/// own duplicate-send discipline would abort a violating run; this probe
/// verifies the claim independently, from the *observed* message stream,
/// so a recorded run carries its own evidence.
#[derive(Debug, Default)]
pub struct EdgeCongestionProbe {
    limit: u32,
    phase_filter: Option<String>,
    active: bool,
    round: u64,
    load: Vec<u32>,
    touched: Vec<u32>,
    max_load: u32,
    violations: Vec<CongestionViolation>,
}

impl EdgeCongestionProbe {
    /// A probe asserting per-directed-edge load ≤ `limit` each round.
    pub fn new(limit: u32) -> Self {
        EdgeCongestionProbe {
            limit,
            active: true,
            ..EdgeCongestionProbe::default()
        }
    }

    /// Restricts the probe to runs whose phase label equals `phase`
    /// (other runs are ignored entirely).
    pub fn for_phase(mut self, phase: impl Into<String>) -> Self {
        self.phase_filter = Some(phase.into());
        self
    }

    /// The largest per-round directed-edge load observed.
    pub fn max_load(&self) -> u32 {
        self.max_load
    }

    /// Loads that exceeded the limit, in commit order.
    pub fn violations(&self) -> &[CongestionViolation] {
        &self.violations
    }

    /// True iff no observed round exceeded the limit.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn reset_round(&mut self) {
        for &e in &self.touched {
            self.load[e as usize] = 0;
        }
        self.touched.clear();
    }
}

impl Observer for EdgeCongestionProbe {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.active = self.phase_filter.as_deref().is_none_or(|f| f == info.phase);
        if self.active {
            self.load.clear();
            self.load.resize(info.directed_edges, 0);
            self.touched.clear();
            self.round = 0;
        }
    }

    fn on_round_start(&mut self, round: u64, _delivered: u64, _scheduled: u64) {
        if self.active {
            self.reset_round();
            self.round = round;
        }
    }

    fn on_message(&mut self, ev: &MessageEvent) {
        if !self.active {
            return;
        }
        // Churn-inserted edges index past the run-start `2m` sizing.
        if ev.edge as usize >= self.load.len() {
            self.load.resize(ev.edge as usize + 1, 0);
        }
        let load = &mut self.load[ev.edge as usize];
        *load += 1;
        if *load == 1 {
            self.touched.push(ev.edge);
        }
        let load = *load;
        self.max_load = self.max_load.max(load);
        if load > self.limit {
            self.violations.push(CongestionViolation {
                round: self.round,
                from: ev.from,
                to: ev.to,
                load,
            });
        }
    }
}

/// Records, per (stream, receiver), the round a logical wave first reached
/// a node — the raw data behind two paper invariants:
///
/// * **Lemma 1 (pebble-APSP):** consecutive BFS waves are spaced so that
///   no node is first reached by two different waves in the same round —
///   [`WaveArrivalProbe::node_collisions`] must be empty.
/// * **S-SP delay:** a wave from source `s` first reaches `v` at most
///   `|S|` rounds after the uncongested BFS schedule would —
///   [`WaveArrivalProbe::max_delay`] must be at most `|S|`.
///
/// Only messages whose type reports a
/// [`stream_id`](crate::Message::stream_id) are tracked, so unrelated phases
/// (plain BFS, aggregations) pass through invisibly.
#[derive(Debug, Default)]
pub struct WaveArrivalProbe {
    phase_filter: Option<String>,
    active: bool,
    /// `(stream, to)` → send round of the first wave message toward `to`.
    first_arrival: HashMap<(u32, NodeId), u64>,
}

impl WaveArrivalProbe {
    /// An empty probe observing every phase.
    pub fn new() -> Self {
        WaveArrivalProbe {
            active: true,
            ..WaveArrivalProbe::default()
        }
    }

    /// Restricts the probe to runs whose phase label equals `phase`.
    pub fn for_phase(mut self, phase: impl Into<String>) -> Self {
        self.phase_filter = Some(phase.into());
        self
    }

    /// The per-(stream, node) first-arrival send rounds.
    pub fn first_arrivals(&self) -> &HashMap<(u32, NodeId), u64> {
        &self.first_arrival
    }

    /// Nodes first reached by two distinct streams in the same round, as
    /// `(node, round, stream_a, stream_b)` — Lemma 1 says pebble-APSP
    /// produces none.
    pub fn node_collisions(&self) -> Vec<(NodeId, u64, u32, u32)> {
        let mut per_node: HashMap<(NodeId, u64), u32> = HashMap::new();
        let mut collisions = Vec::new();
        let mut entries: Vec<(&(u32, NodeId), &u64)> = self.first_arrival.iter().collect();
        entries.sort_unstable();
        for (&(stream, node), &round) in entries {
            match per_node.entry((node, round)) {
                std::collections::hash_map::Entry::Occupied(prev) => {
                    collisions.push((node, round, *prev.get(), stream));
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(stream);
                }
            }
        }
        collisions.sort_unstable();
        collisions
    }

    /// The largest observed wave delay: `first_arrival(stream, v) -
    /// dist(stream, v)`, maximized over all recorded arrivals, where `dist`
    /// maps `(stream, node)` to the ideal (hop-distance) schedule. Returns
    /// `None` if nothing was recorded or `dist` knows none of the pairs.
    pub fn max_delay(&self, dist: impl Fn(u32, NodeId) -> Option<u64>) -> Option<i64> {
        self.first_arrival
            .iter()
            .filter_map(|(&(stream, node), &round)| {
                dist(stream, node).map(|d| round as i64 - d as i64)
            })
            .max()
    }
}

impl Observer for WaveArrivalProbe {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.active = self.phase_filter.as_deref().is_none_or(|f| f == info.phase);
    }

    fn on_message(&mut self, ev: &MessageEvent) {
        if !self.active {
            return;
        }
        if let Some(stream) = ev.stream {
            self.first_arrival
                .entry((stream, ev.to))
                .or_insert(ev.send_round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(phase: &str) -> RunInfo<'_> {
        RunInfo {
            phase,
            nodes: 4,
            directed_edges: 6,
            started: 4,
        }
    }

    fn ev(
        send_round: u64,
        from: NodeId,
        to: NodeId,
        edge: u32,
        reverse_edge: u32,
        stream: Option<u32>,
    ) -> MessageEvent {
        MessageEvent {
            send_round,
            from,
            to,
            to_port: 0,
            edge,
            reverse_edge,
            bits: 8,
            stream,
            tags: TraceTags::default(),
        }
    }

    #[test]
    fn recorder_rows_account_per_round() {
        let mut rec = MetricsRecorder::new();
        rec.on_run_start(&info("demo"));
        rec.on_message(&ev(0, 0, 1, 0, 3, None));
        rec.on_round_start(1, 1, 4);
        rec.on_message(&ev(1, 1, 0, 2, 5, None));
        rec.on_message(&ev(1, 1, 2, 3, 0, None));
        rec.on_drop(1, 2, 0, DropReason::Loss, TraceTags::default());
        rec.on_crash(1, 3);
        rec.on_quiescence(1, 2, 1, 1);
        rec.on_run_end(&RunStats::default());
        let stream = rec.stream();
        assert_eq!(stream.len(), 2);
        assert_eq!(stream[0].round, 0);
        assert_eq!(stream[0].messages, 1);
        assert_eq!(stream[1].messages, 2);
        assert_eq!(stream[1].dropped, 1);
        assert_eq!(stream[1].crashed, 1);
        assert_eq!(stream[1].active_nodes, 2); // sender 1 (twice) + dropped sender 2
        assert_eq!(stream[1].max_edge_load, 1);
        assert_eq!(stream[1].edge_load_hist, vec![2]);
        assert_eq!(
            (
                stream[1].votes_active,
                stream[1].votes_passive,
                stream[1].votes_shutdown
            ),
            (2, 1, 1)
        );
        assert_eq!(&*stream[0].phase, "demo");
    }

    #[test]
    fn recorder_counts_transport_tags_on_delivery_and_drop() {
        let retx = TraceTags {
            kernels: 1,
            retransmit: true,
            ack: false,
        };
        let ack = TraceTags {
            kernels: 1,
            retransmit: false,
            ack: true,
        };
        let mut rec = MetricsRecorder::new();
        rec.on_run_start(&info("rel"));
        let mut e = ev(0, 0, 1, 0, 3, None);
        e.tags = retx;
        rec.on_message(&e);
        e.tags = ack;
        rec.on_message(&e);
        rec.on_drop(0, 2, 0, DropReason::Loss, retx);
        rec.on_transport(&TransportSummary {
            sim_rounds: 4,
            frames_sent: 3,
            retransmissions: 2,
            acks_sent: 1,
            truncated_sends: 0,
            gave_up: 0,
        });
        rec.on_run_end(&RunStats::default());
        let row = &rec.stream()[0];
        assert_eq!(row.retransmits, 2); // one delivered + one dropped
        assert_eq!(row.acks, 1);
        assert_eq!(rec.transports().len(), 1);
        assert_eq!(&*rec.transports()[0].0, "rel");
        assert_eq!(rec.transports()[0].1.retransmissions, 2);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"retransmits\":2"));
        assert!(text.contains("\"transport\":\"rel\""));
        assert!(text.contains("\"frames_sent\":3"));
    }

    #[test]
    fn recorder_books_scheduler_telemetry_outside_equality() {
        let mut rec = MetricsRecorder::new();
        rec.on_run_start(&info("s"));
        rec.on_round_start(1, 0, 4);
        rec.on_sched(1, 3, 1);
        rec.on_run_end(&RunStats::default());
        let row = &rec.stream()[1];
        assert_eq!((row.chunks, row.steals), (3, 1));
        let mut other = row.clone();
        other.chunks = 0;
        other.steals = 0;
        assert_eq!(*row, other, "scheduler telemetry stays out of equality");
        assert!(row.to_json().contains("\"chunks\":3"));
        assert!(row.to_json().contains("\"steals\":1"));
    }

    #[test]
    fn recorder_buffers_topology_events_into_next_row() {
        use crate::config::{EdgeEvent, TopologyEvent};
        let mut rec = MetricsRecorder::new();
        rec.on_run_start(&info("churn"));
        rec.on_round_start(1, 0, 4);
        // The choke point fires on_topology for round 2 before
        // on_round_start(2): the events must land in row 2, not row 1.
        let remove = TopologyEvent::Edge(EdgeEvent::Remove { u: 0, v: 1 });
        let insert = TopologyEvent::Edge(EdgeEvent::Insert { u: 0, v: 2 });
        rec.on_topology(2, &remove);
        rec.on_topology(2, &insert);
        rec.on_round_start(2, 0, 4);
        // Churn-inserted edges index past the run-start 2m sizing; the
        // recorder must grow its counters instead of panicking.
        rec.on_message(&ev(2, 0, 2, 6, 7, None));
        rec.on_run_end(&RunStats::default());
        let stream = rec.stream();
        assert_eq!(stream[1].topo_events, 0);
        assert_eq!(stream[2].topo_events, 2);
        assert_eq!(stream[2].messages, 1);
        assert!(stream[2].to_json().contains("\"topo_events\":2"));
        let mut other = stream[2].clone();
        other.topo_events = 0;
        assert_ne!(stream[2], other, "topo_events participates in equality");
    }

    #[test]
    fn recorder_take_run_stream_returns_only_current_run() {
        let mut rec = MetricsRecorder::new();
        rec.on_run_start(&info("a"));
        rec.on_message(&ev(0, 0, 1, 0, 3, None));
        rec.on_run_end(&RunStats::default());
        assert_eq!(rec.take_run_stream().unwrap().len(), 1);
        rec.on_run_start(&info("b"));
        rec.on_round_start(1, 0, 4);
        rec.on_run_end(&RunStats::default());
        let second = rec.take_run_stream().unwrap();
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|r| &*r.phase == "b"));
        assert_eq!(rec.stream().len(), 3);
    }

    #[test]
    fn round_metrics_json_is_well_formed() {
        let mut rec = MetricsRecorder::new();
        rec.on_run_start(&info("j"));
        rec.on_message(&ev(0, 0, 1, 0, 3, None));
        rec.on_run_end(&RunStats::default());
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("\"phase\":\"j\""));
        assert!(line.contains("\"messages\":1"));
        assert!(line.ends_with("}\n"));
    }

    #[test]
    fn congestion_probe_flags_overload() {
        let mut probe = EdgeCongestionProbe::new(1);
        probe.on_run_start(&info(""));
        probe.on_round_start(1, 0, 4);
        probe.on_message(&ev(1, 0, 1, 0, 3, None));
        assert!(probe.is_clean());
        probe.on_message(&ev(1, 0, 1, 0, 3, None));
        assert!(!probe.is_clean());
        assert_eq!(probe.max_load(), 2);
        assert_eq!(
            probe.violations(),
            &[CongestionViolation {
                round: 1,
                from: 0,
                to: 1,
                load: 2
            }]
        );
        // A new round resets the counts.
        probe.on_round_start(2, 0, 4);
        probe.on_message(&ev(2, 0, 1, 0, 3, None));
        assert_eq!(probe.violations().len(), 1);
    }

    #[test]
    fn congestion_probe_phase_filter() {
        let mut probe = EdgeCongestionProbe::new(0).for_phase("watched");
        probe.on_run_start(&info("other"));
        probe.on_round_start(1, 0, 4);
        probe.on_message(&ev(1, 0, 1, 0, 3, None));
        assert!(probe.is_clean());
        probe.on_run_start(&info("watched"));
        probe.on_round_start(1, 0, 4);
        probe.on_message(&ev(1, 0, 1, 0, 3, None));
        assert!(!probe.is_clean());
    }

    #[test]
    fn wave_probe_tracks_first_arrivals_and_collisions() {
        let mut probe = WaveArrivalProbe::new();
        probe.on_run_start(&info(""));
        probe.on_round_start(1, 0, 4);
        probe.on_message(&ev(1, 0, 1, 0, 3, Some(7)));
        probe.on_message(&ev(1, 0, 1, 0, 3, Some(7))); // repeat: not a new arrival
        probe.on_message(&ev(1, 2, 1, 4, 1, Some(9))); // second stream, same node+round
        probe.on_message(&ev(1, 0, 2, 1, 4, None)); // untagged: invisible
        assert_eq!(probe.first_arrivals().len(), 2);
        assert_eq!(probe.node_collisions(), vec![(1, 1, 7, 9)]);
        // Stream 7 reached node 1 at round 1; with dist 1 the delay is 0.
        let delay = probe
            .max_delay(|s, v| (s == 7 && v == 1).then_some(1))
            .unwrap();
        assert_eq!(delay, 0);
    }

    #[test]
    fn fan_out_forwards_to_all() {
        let rec = SharedObserver::new(MetricsRecorder::new());
        let probe = SharedObserver::new(EdgeCongestionProbe::new(1));
        let mut fan = FanOut::new(vec![rec.observer(), probe.observer()]);
        fan.on_run_start(&info(""));
        fan.on_round_start(1, 0, 4);
        fan.on_message(&ev(1, 0, 1, 0, 3, None));
        fan.on_run_end(&RunStats::default());
        assert!(fan.take_run_stream().is_some(), "recorder is first");
        rec.with(|r| assert_eq!(r.stream().len(), 2));
        probe.with(|p| assert_eq!(p.max_load(), 1));
    }

    #[test]
    fn phase_profiler_accumulates_per_run() {
        let mut prof = PhaseProfiler::new();
        for phase in ["a", "b"] {
            prof.on_run_start(&info(phase));
            prof.on_message(&ev(0, 0, 1, 0, 3, None));
            prof.on_drop(0, 2, 0, DropReason::ReceiverCrashed, TraceTags::default());
            prof.on_crash(1, 3);
            prof.on_round_end(
                1,
                &RoundTiming {
                    deliver: Duration::from_nanos(10),
                    step: Duration::from_nanos(20),
                    commit: Duration::from_nanos(70),
                },
            );
            prof.on_run_end(&RunStats::default());
        }
        assert_eq!(prof.profiles().len(), 2);
        assert_eq!(prof.profiles()[0].phase, "a");
        assert_eq!(prof.profiles()[0].messages, 1);
        let total = prof.total();
        assert_eq!(total.rounds, 2);
        assert_eq!(total.dropped, 2);
        assert_eq!(total.crashed, 2);
        assert_eq!(total.phase, "a+b");
        assert_eq!(total.commit, Duration::from_nanos(140));
    }
}
