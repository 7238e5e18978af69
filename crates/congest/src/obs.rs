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
//! * [`PhaseProfiler`] — per-phase wall-clock totals splitting each round
//!   into deliver/step/commit time; the one wall-clock fold.
//!
//! Attach an observer with [`Config::with_observer`](crate::Config) and
//! keep a typed handle via [`SharedObserver`] to read the recording back:
//!
//! ```
//! use dapsp_congest::obs::SharedObserver;
//! use dapsp_congest::{Config, Simulator, Topology, TraceEvent, TraceRecorder};
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
//! let recorder = SharedObserver::new(TraceRecorder::new());
//! let cfg = Config::for_n(2).with_observer(recorder.observer());
//! let report = Simulator::new(&topo, cfg, |_| Greeter { heard: false }).run()?;
//! // The shared recorder keeps the (possibly multi-phase) stream.
//! recorder.with(|r| {
//!     let sent = r.events().filter(|e| matches!(e, TraceEvent::Message { .. })).count();
//!     assert_eq!(sent as u64, report.stats.messages);
//!     // A plain (non-kernel) message is booked under kernel mask 1.
//!     assert_eq!(r.kernels()[&1].bits, report.stats.bits);
//! });
//! # Ok(())
//! # }
//! ```

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

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

/// Per-phase wall-clock totals: how each run's time splits across the
/// deliver/step/commit sub-phases of every round.
///
/// Cheaper than a [`TraceRecorder`](crate::TraceRecorder) (it stores no
/// events); this is what the repo benchmark's `congest.{deliver,commit}_ms`
/// rows read.
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
    use crate::node::NodeId;

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
