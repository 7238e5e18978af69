//! The commit phase: message validation, accounting, and the staged-queue
//! merge that keeps the pool executor bit-for-bit identical to serial.
//!
//! Every message, on every executor, passes through exactly one call to
//! [`validate`] (port range → duplicate-send → bandwidth → fault decision,
//! in that order) and exactly one accounting step on the engine thread
//! ([`Core::account_deliver`] / [`Core::account_drop`]). The serial
//! executor fuses the two in [`Core::commit_outbox`]; the pool executor
//! splits them — workers validate into per-chunk [`StagedShard`] queues
//! during the step phase, and [`Core::merge_shard`] replays each queue on
//! the engine thread in schedule order. Because a chunk holds a
//! consecutive slice of the sorted schedule and chunks are merged by
//! their position in it — regardless of which worker stepped them, or
//! stole them — the replay visits outboxes in plain node-id order:
//! stats, trace events, observer callbacks, and delivery order are
//! byte-identical to the serial engine's.

use std::sync::MutexGuard;

use crate::config::{DropReason, FaultPlan};
use crate::error::SimError;
use crate::message::{Message, TraceTags};
use crate::node::{NodeId, Port};
use crate::obs::{MessageEvent, Observer};
use crate::topology::Topology;

use super::Core;

/// An observer lock held for the duration of one commit (or start) phase;
/// `None` when the run is unobserved. Callers clone the
/// [`ObserverHandle`](crate::ObserverHandle) out of the config and lock it
/// once per phase, not once per message.
pub(crate) type ObsGuard<'g> = Option<MutexGuard<'g, dyn Observer + 'static>>;

/// Duplicate-send detection scratch: `stamps[p] == stamp` iff port `p` was
/// already used by the outbox currently being validated. Replaces a
/// per-commit `vec![false; degree]` with a single epoch bump.
///
/// Each executor thread owns its own `DupScratch` (the serial executor has
/// one; every pool worker has one), so concurrent shards can never alias
/// each other's stamps — the regression the shared `used_stamp` vector of
/// the pre-pipeline engine would have hit.
pub(crate) struct DupScratch {
    stamps: Vec<u64>,
    stamp: u64,
}

impl DupScratch {
    /// Scratch for outboxes of up to `max_degree` ports.
    pub(crate) fn new(max_degree: usize) -> Self {
        DupScratch {
            stamps: vec![0; max_degree],
            stamp: 0,
        }
    }

    /// Opens a new outbox: `mark` now detects duplicates within this
    /// outbox only.
    fn begin_outbox(&mut self) {
        self.stamp += 1;
    }

    /// Marks `port` used by the current outbox; `false` if it already was.
    fn mark(&mut self, port: Port) -> bool {
        // Churn-inserted ports can exceed the run-start max degree the
        // scratch was sized for; grow on demand (zero = never stamped).
        if port as usize >= self.stamps.len() {
            self.stamps.resize(port as usize + 1, 0);
        }
        let slot = &mut self.stamps[port as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }
}

/// The per-message size discipline both executors enforce: the hard
/// transport bandwidth, plus the debug-build `B = O(log n)` budget
/// ([`Config::message_budget`](crate::Config::message_budget)). Copied out
/// of the config once per run so workers don't borrow it.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    pub(crate) bandwidth_bits: u32,
    // Only consulted by the debug-assertion budget check below.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) message_budget: Option<u32>,
}

impl Limits {
    pub(crate) fn of(config: &crate::config::Config) -> Self {
        Limits {
            bandwidth_bits: config.bandwidth_bits,
            message_budget: config.message_budget,
        }
    }
}

/// The fate of one validated outbox item.
enum Verdict {
    /// Accepted: deliver to `to` on its port `to_port` next round.
    Deliver {
        to: NodeId,
        to_port: Port,
        bits: u32,
    },
    /// Discarded by the fault plan (accounted as a drop).
    Dropped(DropReason),
}

/// Validates one `(port, msg)` outbox item of node `v`. The check order —
/// port range, duplicate send, bandwidth, fault decision — is part of the
/// engine's observable behavior (it decides *which* error a doubly-faulty
/// send reports), so both the serial commit and the worker-side staging
/// call exactly this function.
///
/// The fault plan is consulted last, in a fixed order of its own: loss
/// rules first (the message is lost in transit), then the receiver's crash
/// schedule at the delivery round `send_round + 1` (the message arrives at
/// a dead node and is discarded). Because the plan is a pure function of
/// static data, this decision is identical on every executor.
#[inline]
#[allow(clippy::too_many_arguments)] // one validation check, described flat
fn validate<M: Message>(
    topology: &Topology,
    limits: Limits,
    faults: &Option<FaultPlan>,
    scratch: &mut DupScratch,
    v: NodeId,
    port: Port,
    msg: &M,
    send_round: u64,
) -> Result<Verdict, SimError> {
    let degree = topology.degree(v);
    if port as usize >= degree {
        return Err(SimError::InvalidPort {
            node: v,
            port,
            degree,
        });
    }
    if !scratch.mark(port) {
        return Err(SimError::DuplicateSend {
            node: v,
            port,
            round: send_round,
        });
    }
    let bits = msg.bit_size();
    if bits > limits.bandwidth_bits {
        return Err(SimError::BandwidthExceeded {
            node: v,
            port,
            round: send_round,
            message_bits: bits,
            bandwidth_bits: limits.bandwidth_bits,
        });
    }
    // The CONGEST `B = O(log n)` contract as a debug-build assertion. It
    // sits *after* the bandwidth check on purpose: a message too large for
    // the transport still reports the typed error, while one that fits the
    // transport but overruns the declared budget is a protocol bug and
    // fails the test run loudly.
    #[cfg(debug_assertions)]
    if let Some(budget) = limits.message_budget {
        assert!(
            bits <= budget,
            "message budget exceeded: node {v} sent {bits} bits on port {port} in round \
             {send_round}, over the B = O(log n) budget of {budget} bits ({msg:?})"
        );
    }
    let to = topology.neighbor_at(v, port);
    // A send on a port the round's churn batch tombstoned (or whose
    // endpoint was removed) is discarded before the fault plan is even
    // consulted — removal wins over crash windows, as documented on
    // [`CrashWindow`](crate::CrashWindow).
    if !topology.port_live(v, port) {
        return Ok(Verdict::Dropped(DropReason::TopologyChange));
    }
    if let Some(plan) = faults {
        if plan.drops(send_round, v, port) {
            return Ok(Verdict::Dropped(DropReason::Loss));
        }
        // Delivery happens at send_round + 1; a receiver down then never
        // sees the message (its inbox therefore stays empty while crashed).
        if plan.crashed(send_round + 1, to) {
            return Ok(Verdict::Dropped(DropReason::ReceiverCrashed));
        }
    }
    Ok(Verdict::Deliver {
        to,
        to_port: topology.reverse_port(v, port),
        bits,
    })
}

/// One entry of a per-worker commit queue: a validated send with its
/// routing pre-computed, or a loss-plan drop. Stored in node-id order
/// within the shard.
pub(crate) enum Staged<M> {
    /// `from` sends `msg` (of `bits` bits) on its `port`; it arrives at
    /// `to` on `to_port`.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Sender-side port (for the observer's edge index).
        port: Port,
        /// Receiver-side port.
        to_port: Port,
        /// Message size in bits.
        bits: u32,
        /// The message itself.
        msg: M,
    },
    /// The fault plan dropped `from`'s send on `port`.
    Dropped {
        /// Sending node.
        from: NodeId,
        /// Sender-side port.
        port: Port,
        /// Why the message was discarded.
        reason: DropReason,
        /// The dropped message's attribution tags (captured before the
        /// message itself is discarded, so observers can attribute the
        /// loss to a kernel).
        tags: TraceTags,
    },
}

/// One worker's staged commit queue for one round. The `entries` end at
/// the shard's first validation error, mirroring where the serial commit
/// would have stopped.
pub(crate) struct StagedShard<M> {
    pub(crate) entries: Vec<Staged<M>>,
    pub(crate) error: Option<SimError>,
}

impl<M> Default for StagedShard<M> {
    fn default() -> Self {
        StagedShard {
            entries: Vec::new(),
            error: None,
        }
    }
}

/// Worker-side half of the pool commit: validates node `v`'s outbox into
/// the shard's queue. On the first invalid item the error is recorded on
/// the shard and staging stops — exactly the point the serial commit would
/// have aborted — and the caller must not stage further outboxes (returns
/// `false`). The outbox is left drained either way so its allocation is
/// recycled.
#[allow(clippy::too_many_arguments)] // one outbox staging pass, described flat
pub(crate) fn stage_outbox<M: Message>(
    topology: &Topology,
    limits: Limits,
    faults: &Option<FaultPlan>,
    scratch: &mut DupScratch,
    v: NodeId,
    items: &mut Vec<(Port, M)>,
    send_round: u64,
    shard: &mut StagedShard<M>,
) -> bool {
    scratch.begin_outbox();
    for (port, msg) in items.drain(..) {
        match validate(topology, limits, faults, scratch, v, port, &msg, send_round) {
            Ok(Verdict::Deliver { to, to_port, bits }) => shard.entries.push(Staged::Deliver {
                from: v,
                to,
                port,
                to_port,
                bits,
                msg,
            }),
            Ok(Verdict::Dropped(reason)) => shard.entries.push(Staged::Dropped {
                from: v,
                port,
                reason,
                tags: msg.trace_tags(),
            }),
            Err(err) => {
                // Dropping the `drain` clears the rest of the outbox.
                shard.error = Some(err);
                return false;
            }
        }
    }
    true
}

impl<M: Message> Core<'_, M> {
    /// Books one accepted message: observer callback, statistics,
    /// and the receiver's pending inbox — the engine-thread half of every
    /// commit, shared verbatim by both executors.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one flat, pre-routed send
    fn account_deliver(
        &mut self,
        observer: &mut ObsGuard<'_>,
        send_round: u64,
        from: NodeId,
        port: Port,
        to: NodeId,
        to_port: Port,
        bits: u32,
        msg: M,
    ) {
        if let Some(obs) = observer.as_deref_mut() {
            // Resolve edge indices through the churned view: inserted
            // edges only exist in the overlay.
            let topo = self.live_topology();
            obs.on_message(&MessageEvent {
                send_round,
                from,
                to,
                to_port,
                edge: topo.directed_edge_index(from, port),
                reverse_edge: topo.directed_edge_index(to, to_port),
                bits,
                stream: msg.stream_id(),
                tags: msg.trace_tags(),
            });
        }
        self.stats.messages += 1;
        self.stats.bits += u64::from(bits);
        self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        self.arrivals.push(to, to_port, msg);
        self.in_flight += 1;
        // Wake the receiver: an arrival forces `to` onto next round's
        // schedule. The `woken` mark makes the list duplicate-free without
        // a scan; `sorted_wake` clears the marks when it hands the list out.
        if !self.woken.get(to as usize) {
            self.woken.set(to as usize);
            self.wake.push(to);
        }
    }

    /// Books one fault-plan drop.
    #[inline]
    fn account_drop(
        &mut self,
        observer: &mut ObsGuard<'_>,
        send_round: u64,
        from: NodeId,
        port: Port,
        reason: DropReason,
        tags: TraceTags,
    ) {
        self.stats.dropped += 1;
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_drop(send_round, from, port, reason, tags);
        }
    }

    /// The fused (serial) commit path: validates and books node `v`'s
    /// outbox in item order, draining it so the allocation is recycled.
    /// Used by the serial executor every round and by the pool executor
    /// for the `on_start` round (which runs on the engine thread).
    ///
    /// The send round is `self.round`: the pipeline advances it before any
    /// phase runs, and `on_start` commits happen at round 0.
    pub(crate) fn commit_outbox(
        &mut self,
        observer: &mut ObsGuard<'_>,
        scratch: &mut DupScratch,
        v: NodeId,
        items: &mut Vec<(Port, M)>,
    ) -> Result<(), SimError> {
        let send_round = self.round;
        scratch.begin_outbox();
        let limits = Limits::of(&self.config);
        for (port, msg) in items.drain(..) {
            match validate(
                self.live_topology(),
                limits,
                &self.config.faults,
                scratch,
                v,
                port,
                &msg,
                send_round,
            )? {
                Verdict::Deliver { to, to_port, bits } => {
                    self.account_deliver(observer, send_round, v, port, to, to_port, bits, msg);
                }
                Verdict::Dropped(reason) => {
                    self.account_drop(observer, send_round, v, port, reason, msg.trace_tags());
                }
            }
        }
        Ok(())
    }

    /// The engine-thread half of the pool commit: replays one worker's
    /// staged queue in order (shards arrive in worker order and hold
    /// consecutive node ids, so the overall replay is node-id order), then
    /// surfaces the shard's validation error, if any, exactly where the
    /// serial commit would have aborted — after the partial accounting
    /// that precedes the faulty item.
    pub(crate) fn merge_shard(
        &mut self,
        observer: &mut ObsGuard<'_>,
        shard: &mut StagedShard<M>,
    ) -> Result<(), SimError> {
        let send_round = self.round;
        for entry in shard.entries.drain(..) {
            match entry {
                Staged::Deliver {
                    from,
                    to,
                    port,
                    to_port,
                    bits,
                    msg,
                } => self.account_deliver(observer, send_round, from, port, to, to_port, bits, msg),
                Staged::Dropped {
                    from,
                    port,
                    reason,
                    tags,
                } => {
                    self.account_drop(observer, send_round, from, port, reason, tags);
                }
            }
        }
        if let Some(err) = shard.error.take() {
            return Err(err);
        }
        Ok(())
    }
}
