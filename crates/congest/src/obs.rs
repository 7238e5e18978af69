//! Zero-cost-when-disabled observability for the round engines.
//!
//! The paper's claims are *observable* quantities: Lemma 1 says the BFS
//! waves of Algorithm 1 never congest an edge, the S-SP lemma bounds each
//! wave's delay by `|S|`, and every theorem is a round or message bound.
//! This module lets a run be watched while it happens instead of being
//! summarized after the fact. There is one way to do it: every engine
//! hands each [`TraceEvent`] of the run to an [`Observer`], and every
//! observer is a fold over that one event type.
//!
//! * [`Observer`] — `on_event` plus a wall-clock `on_round_timing` hook.
//!   With no observer configured the engines skip every emission site with
//!   a single `Option` check and build no event, so observation costs
//!   nothing when disabled.
//! * [`TraceRecorder`](crate::TraceRecorder) — stores the events as
//!   received, with per-kernel, per-edge and per-wave aggregates (the
//!   Lemma 1 collision and Lemma 8 delay checks read the latter).
//! * [`MetricsRecorder`] — a per-round metric stream (messages, bits,
//!   drops, active senders, per-edge load histogram, max edge congestion),
//!   each row renderable as one JSON line.
//! * [`PhaseProfiler`] — per-phase wall-clock totals splitting each round
//!   into deliver/step/commit time; the one wall-clock fold.
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
//! // The shared recorder keeps the (possibly multi-phase) stream.
//! recorder.with(|r| {
//!     assert_eq!(r.stream().len() as u64, report.stats.rounds + 1);
//!     assert_eq!(r.stream().iter().map(|row| row.messages).sum::<u64>(), report.stats.messages);
//! });
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::node::NodeId;
use crate::trace::TraceEvent;

/// Wall-clock split of one engine round. Only measured while an observer is
/// attached, and reported through [`Observer::on_round_timing`] — never
/// inside a [`TraceEvent`], which keeps event streams deterministic.
///
/// The optimized engine's phase pipeline times each phase on the engine
/// thread, bracketing the executor's `deliver`/`step`/`commit` calls, so
/// the split means the same thing for every
/// [`ExecutorKind`](crate::ExecutorKind). The
/// [`ReferenceSimulator`](crate::ReferenceSimulator) oracle reports no
/// timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTiming {
    /// Inbox turnover: carving arrivals (serial executor) or distributing
    /// chunks to workers (pool executor). The zero-allocation engine fuses
    /// delivery enqueueing into commit and inbox sorting into step, so its
    /// deliver share is near zero *by design*.
    pub deliver: Duration,
    /// Node-local `on_round` execution. The pool executor runs this phase
    /// on its workers; it is the only phase that runs in parallel.
    pub step: Duration,
    /// The outbox validation/accounting/enqueue phase, always on the
    /// engine thread in node-id order (under the pool, over the outboxes
    /// the chunks carried back).
    pub commit: Duration,
}

/// End-of-run transport-layer telemetry: what a reliable-delivery
/// synchronizer (the kernel layer's `ReliableKernel`) did over a whole run,
/// aggregated across nodes. A phase that runs wrapped in the reliable
/// transport emits it as [`TraceEvent::Transport`] after its `RunEnd` and
/// stores it in [`RunStats::transport`](crate::RunStats::transport), so
/// retransmission telemetry lands in the same stream as everything else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportSummary {
    /// Simulated rounds the transport ran for (the slowest node's count;
    /// summed over sequential phases).
    pub sim_rounds: u64,
    /// Frames put on the wire (first sends and retries).
    pub frames_sent: u64,
    /// Frames re-sent after an ack timeout.
    pub retransmissions: u64,
    /// Acknowledgements sent.
    pub acks_sent: u64,
    /// Inner-kernel sends discarded because they were produced at the
    /// horizon; nonzero means the horizon was too short.
    pub truncated_sends: u64,
}

impl TransportSummary {
    /// Accumulates a later phase's counters into this one: every field,
    /// `sim_rounds` included, adds up.
    pub fn absorb(&mut self, other: &TransportSummary) {
        self.sim_rounds += other.sim_rounds;
        self.frames_sent += other.frames_sent;
        self.retransmissions += other.retransmissions;
        self.acks_sent += other.acks_sent;
        self.truncated_sends += other.truncated_sends;
    }
}

/// What watches a run. [`Simulator`](crate::Simulator) and the independent
/// [`ReferenceSimulator`](crate::ReferenceSimulator) oracle hand every
/// [`TraceEvent`] to `on_event`, on the engine thread, in one
/// deterministic order per run — the same order from both:
///
/// ```text
/// RunStart (Message|Drop)* QuiescenceVotes(0)
///     ( RoundStart Crash* (Message|Drop)* RoundEnd QuiescenceVotes )*
///     EarlyTermination? RunEnd
/// ```
///
/// The first `(Message|Drop)*` are the `on_start` sends (send round 0).
/// Each round then books its crash windows and commits every outbox in
/// node-id order. A reliable-transport entry point appends
/// one [`TraceEvent::Transport`] after its phase's `RunEnd`.
///
/// `on_round_timing` reports each round's wall-clock split right before
/// that round's `RoundEnd`; it is a separate hook so that events stay
/// free of wall-clock data and bit-identical across engines.
pub trait Observer: Send {
    /// One event of the run, in the order documented on the trait.
    fn on_event(&mut self, ev: &TraceEvent);
    /// Round `round`'s deliver/step/commit wall-clock split. Default no-op.
    fn on_round_timing(&mut self, _round: u64, _timing: &RoundTiming) {}
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

    /// Locks the observer for a batch of events.
    ///
    /// The engines emit from a single thread, so the lock is uncontended
    /// there; a poisoned lock (an observer panicked) is recovered rather
    /// than propagated.
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
/// caller can inspect the recording afterwards (see the module example) —
/// the only way a recording is read back.
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

/// Hands every event and timing report to several observers, in order —
/// e.g. a [`MetricsRecorder`] and an invariant probe on one run.
pub struct FanOut {
    observers: Vec<ObserverHandle>,
}

impl FanOut {
    /// Combines `observers`; events are forwarded in the given order.
    pub fn new(observers: Vec<ObserverHandle>) -> Self {
        FanOut { observers }
    }
}

impl Observer for FanOut {
    fn on_event(&mut self, ev: &TraceEvent) {
        for obs in &self.observers {
            obs.lock().on_event(ev);
        }
    }

    fn on_round_timing(&mut self, round: u64, timing: &RoundTiming) {
        for obs in &self.observers {
            obs.lock().on_round_timing(round, timing);
        }
    }
}

/// One row of the per-round metric stream produced by [`MetricsRecorder`].
///
/// Row `r` accounts for the commits performed during round `r` (row 0 holds
/// the `on_start` sends): `messages`/`bits` were accepted for delivery at
/// round `r + 1`, `dropped` were discarded, `crashed` counts the nodes
/// sitting out round `r` inside a crash window. Summing a column over the
/// stream therefore reproduces the corresponding [`RunStats`](crate::RunStats)
/// total exactly, and a stream always has `stats.rounds + 1` rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// The phase label of the run this row belongs to (`""` unlabeled).
    pub phase: Arc<str>,
    /// The send round this row accounts for (0 = `on_start`).
    pub round: u64,
    /// Messages committed (accepted for delivery) this round.
    pub messages: u64,
    /// Payload bits committed this round.
    pub bits: u64,
    /// Messages dropped this round (loss rules and deliveries into crash
    /// windows).
    pub dropped: u64,
    /// Nodes sitting out this round inside a crash window.
    pub crashed: u64,
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
    /// Nodes on this round's schedule (arrivals waiting or awake). Row 0
    /// counts the nodes that ran `on_start`. Summing the column reproduces
    /// `RunStats::scheduled_node_rounds`; the column maximum is
    /// `RunStats::max_scheduled_per_round`.
    pub scheduled_nodes: u64,
    /// The largest number of messages any single *undirected* edge carried
    /// this round (at most 2 — one per direction — by the engine's
    /// bandwidth discipline).
    pub max_edge_load: u32,
    /// `edge_load_hist[l - 1]` = number of undirected edges that carried
    /// exactly `l` messages this round.
    pub edge_load_hist: Vec<u64>,
}

impl RoundMetrics {
    fn new(phase: Arc<str>, round: u64, scheduled_nodes: u64) -> Self {
        RoundMetrics {
            phase,
            round,
            scheduled_nodes,
            ..RoundMetrics::default()
        }
    }

    /// Renders the row as one JSON object (one JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.edge_load_hist.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"phase\":\"{}\",\"round\":{},\"messages\":{},\"bits\":{},",
                "\"dropped\":{},\"crashed\":{},",
                "\"retransmits\":{},\"acks\":{},",
                "\"votes_active\":{},\"votes_passive\":{},\"votes_shutdown\":{},",
                "\"active_nodes\":{},\"scheduled_nodes\":{},\"max_edge_load\":{},",
                "\"edge_load_hist\":[{}]}}"
            ),
            self.phase,
            self.round,
            self.messages,
            self.bits,
            self.dropped,
            self.crashed,
            self.retransmits,
            self.acks,
            self.votes_active,
            self.votes_passive,
            self.votes_shutdown,
            self.active_nodes,
            self.scheduled_nodes,
            self.max_edge_load,
            hist.join(","),
        )
    }
}

/// Records the full per-round metric stream of every run it observes.
///
/// The stream row semantics are documented on [`RoundMetrics`]. Multi-phase
/// pipelines that share one recorder across phases accumulate one
/// concatenated stream, each row labeled with its phase.
#[derive(Default)]
pub struct MetricsRecorder {
    stream: Vec<RoundMetrics>,
    phase: Option<Arc<str>>,
    /// Per-undirected-edge message count for the current round; sized
    /// `2m` at `RunStart`, cleared via `touched`.
    edge_load: Vec<u32>,
    touched: Vec<u32>,
    last_sender: Option<NodeId>,
    /// End-of-run transport telemetry, one entry per reliable run,
    /// labeled with the phase it arrived under.
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

    /// Transport-layer telemetry from [`TraceEvent::Transport`], one
    /// `(phase, summary)` entry per reliable run observed.
    pub fn transports(&self) -> &[(Arc<str>, TransportSummary)] {
        &self.transports
    }

    fn row(&mut self) -> &mut RoundMetrics {
        self.stream
            .last_mut()
            .expect("row exists while a run is active")
    }

    fn phase(&self) -> Arc<str> {
        self.phase.clone().unwrap_or_else(|| Arc::from(""))
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

    /// Counts `from` as active in the open row the first time it sends.
    fn sender(&mut self, from: NodeId) {
        if self.last_sender != Some(from) {
            self.last_sender = Some(from);
            self.row().active_nodes += 1;
        }
    }
}

impl Observer for MetricsRecorder {
    fn on_event(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::RunStart {
                ref phase,
                edges,
                started,
                ..
            } => {
                let phase: Arc<str> = Arc::from(phase.as_str());
                // Keyed by `min(edge, reverse_edge)`, so both directions of
                // one undirected edge land in the same counter; sized by the
                // directed range since the canonical keys live inside it.
                self.edge_load.clear();
                self.edge_load.resize(edges as usize, 0);
                self.touched.clear();
                self.last_sender = None;
                self.stream
                    .push(RoundMetrics::new(phase.clone(), 0, started));
                self.phase = Some(phase);
            }
            TraceEvent::RoundStart {
                round, scheduled, ..
            } => {
                self.seal_round();
                self.stream
                    .push(RoundMetrics::new(self.phase(), round, scheduled));
            }
            TraceEvent::Message {
                from,
                edge,
                reverse_edge,
                bits,
                tags,
                ..
            } => {
                let key = edge.min(reverse_edge);
                let load = &mut self.edge_load[key as usize];
                *load += 1;
                if *load == 1 {
                    self.touched.push(key);
                }
                let row = self.row();
                row.messages += 1;
                row.bits += u64::from(bits);
                row.retransmits += u64::from(tags.retransmit);
                row.acks += u64::from(tags.ack);
                self.sender(from);
            }
            TraceEvent::Drop { from, tags, .. } => {
                let row = self.row();
                row.dropped += 1;
                // Dropped frames still count toward the transport columns —
                // that keeps the column sums equal to the send-side totals.
                row.retransmits += u64::from(tags.retransmit);
                row.acks += u64::from(tags.ack);
                // A dropped send still makes the sender active this round.
                self.sender(from);
            }
            TraceEvent::Crash { .. } => self.row().crashed += 1,
            TraceEvent::QuiescenceVotes {
                active,
                passive,
                shutdown,
                ..
            } => {
                let row = self.row();
                row.votes_active = active;
                row.votes_passive = passive;
                row.votes_shutdown = shutdown;
            }
            TraceEvent::RunEnd { .. } => self.seal_round(),
            TraceEvent::Transport(summary) => {
                let phase = self.phase();
                self.transports.push((phase, summary));
            }
            TraceEvent::RoundEnd { .. } | TraceEvent::EarlyTermination { .. } => {}
        }
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
    /// Messages dropped.
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
    fn on_event(&mut self, ev: &TraceEvent) {
        if let TraceEvent::RunStart { phase, .. } = ev {
            self.profiles.push(PhaseProfile {
                phase: phase.clone(),
                ..PhaseProfile::default()
            });
        }
        let Some(p) = self.profiles.last_mut() else {
            return;
        };
        match *ev {
            TraceEvent::Message { .. } => p.messages += 1,
            TraceEvent::Drop { .. } => p.dropped += 1,
            TraceEvent::Crash { .. } => p.crashed += 1,
            TraceEvent::RoundEnd { round } => p.rounds = round,
            _ => {}
        }
    }

    fn on_round_timing(&mut self, _round: u64, timing: &RoundTiming) {
        if let Some(p) = self.profiles.last_mut() {
            p.deliver += timing.deliver;
            p.step += timing.step;
            p.commit += timing.commit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DropReason;
    use crate::message::TraceTags;

    fn start(phase: &str) -> TraceEvent {
        TraceEvent::RunStart {
            phase: phase.into(),
            nodes: 4,
            edges: 6,
            started: 4,
        }
    }

    fn round(round: u64) -> TraceEvent {
        TraceEvent::RoundStart {
            round,
            delivered: 0,
            scheduled: 4,
        }
    }

    fn msg(round: u64, from: NodeId, to: NodeId, edge: u32, reverse_edge: u32) -> TraceEvent {
        TraceEvent::Message {
            round,
            from,
            to,
            to_port: 0,
            edge,
            reverse_edge,
            bits: 8,
            stream: None,
            tags: TraceTags::default(),
        }
    }

    fn dropped(round: u64, from: NodeId, reason: DropReason, tags: TraceTags) -> TraceEvent {
        TraceEvent::Drop {
            round,
            from,
            port: 0,
            reason,
            tags,
        }
    }

    const END: TraceEvent = TraceEvent::RunEnd {
        rounds: 0,
        messages: 0,
    };

    fn feed(obs: &mut impl Observer, events: &[TraceEvent]) {
        for e in events {
            obs.on_event(e);
        }
    }

    #[test]
    fn recorder_rows_account_per_round() {
        let mut rec = MetricsRecorder::new();
        feed(
            &mut rec,
            &[
                start("demo"),
                msg(0, 0, 1, 0, 3),
                round(1),
                msg(1, 1, 0, 2, 5),
                msg(1, 1, 2, 3, 0),
                dropped(1, 2, DropReason::Loss, TraceTags::default()),
                TraceEvent::Crash { round: 1, node: 3 },
                TraceEvent::QuiescenceVotes {
                    round: 1,
                    active: 2,
                    passive: 1,
                    shutdown: 1,
                },
                END,
            ],
        );
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
        let tagged = |tags| TraceEvent::Message {
            round: 0,
            from: 0,
            to: 1,
            to_port: 0,
            edge: 0,
            reverse_edge: 3,
            bits: 8,
            stream: None,
            tags,
        };
        let mut rec = MetricsRecorder::new();
        feed(
            &mut rec,
            &[
                start("rel"),
                tagged(retx),
                tagged(ack),
                dropped(0, 2, DropReason::Loss, retx),
                END,
                TraceEvent::Transport(TransportSummary {
                    sim_rounds: 4,
                    frames_sent: 3,
                    retransmissions: 2,
                    acks_sent: 1,
                    truncated_sends: 0,
                }),
            ],
        );
        let row = &rec.stream()[0];
        assert_eq!(row.retransmits, 2); // one delivered + one dropped
        assert_eq!(row.acks, 1);
        assert_eq!(rec.transports().len(), 1);
        assert_eq!(&*rec.transports()[0].0, "rel");
        assert_eq!(rec.transports()[0].1.retransmissions, 2);
        assert!(row.to_json().contains("\"retransmits\":2"));
    }

    #[test]
    fn round_metrics_json_is_well_formed() {
        let mut rec = MetricsRecorder::new();
        feed(&mut rec, &[start("j"), msg(0, 0, 1, 0, 3), END]);
        let line = rec.stream()[0].to_json();
        assert!(line.contains("\"phase\":\"j\""));
        assert!(line.contains("\"messages\":1"));
        assert!(line.starts_with('{') && line.ends_with("]}"));
    }

    #[test]
    fn fan_out_forwards_to_all() {
        let rec = SharedObserver::new(MetricsRecorder::new());
        let prof = SharedObserver::new(PhaseProfiler::new());
        let mut fan = FanOut::new(vec![rec.observer(), prof.observer()]);
        feed(&mut fan, &[start(""), round(1), msg(1, 0, 1, 0, 3)]);
        fan.on_round_timing(1, &RoundTiming::default());
        feed(&mut fan, &[TraceEvent::RoundEnd { round: 1 }, END]);
        rec.with(|r| assert_eq!(r.stream().len(), 2));
        prof.with(|p| assert_eq!(p.total().rounds, 1));
    }

    #[test]
    fn phase_profiler_accumulates_per_run() {
        let mut prof = PhaseProfiler::new();
        for phase in ["a", "b"] {
            feed(
                &mut prof,
                &[
                    start(phase),
                    msg(0, 0, 1, 0, 3),
                    dropped(0, 2, DropReason::ReceiverCrashed, TraceTags::default()),
                    round(1),
                    TraceEvent::Crash { round: 1, node: 3 },
                ],
            );
            prof.on_round_timing(
                1,
                &RoundTiming {
                    deliver: Duration::from_nanos(10),
                    step: Duration::from_nanos(20),
                    commit: Duration::from_nanos(70),
                },
            );
            feed(&mut prof, &[TraceEvent::RoundEnd { round: 1 }, END]);
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
