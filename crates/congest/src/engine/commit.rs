//! The commit phase: message validation, accounting, and the staged-queue
//! merge that keeps the pool executor bit-for-bit identical to serial.
//!
//! Every message, on every executor, passes through exactly one call to
//! `Sender::validate` (port range → duplicate-send → bandwidth → fault
//! decision, in that order; the sender's ports are resolved once per
//! outbox, not per message) and exactly one accounting step on the engine
//! thread (`Books::deliver` / `Books::dropped`). The serial
//! executor fuses the two in [`Core::commit_outbox`]; the pool executor
//! splits them — workers validate into per-chunk [`StagedShard`] queues
//! during the step phase, and [`Core::merge_shard`] replays each queue on
//! the engine thread in schedule order. Because a chunk holds a
//! consecutive slice of the sorted schedule and chunks are merged by
//! their position in it — regardless of which worker stepped them, or
//! stole them — the replay visits outboxes in plain node-id order:
//! stats, observer events, and delivery order are
//! byte-identical to the serial engine's.

use std::sync::MutexGuard;

use crate::config::{Config, DropReason, FaultPlan};
use crate::error::SimError;
use crate::message::{Message, TraceTags};
use crate::node::{NodeId, Port};
use crate::obs::Observer;
use crate::stats::RunStats;
use crate::topology::{Ports, Topology};
use crate::trace::TraceEvent;

use super::store::{BitSet, InboxArena};
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
    /// An empty scratch; it grows to the largest port space it meets.
    pub(crate) fn new() -> Self {
        DupScratch {
            stamps: Vec::new(),
            stamp: 0,
        }
    }

    /// Opens a new outbox of a node with `degree` ports: `mark` now
    /// detects duplicates within this outbox only, for any port below
    /// `degree` (zero = never stamped).
    fn begin_outbox(&mut self, degree: usize) {
        self.stamp += 1;
        if self.stamps.len() < degree {
            self.stamps.resize(degree, 0);
        }
    }

    /// Marks `port` used by the current outbox; `false` if it already was.
    fn mark(&mut self, port: Port) -> bool {
        let slot = &mut self.stamps[port as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }
}

/// The per-message size discipline both executors enforce: the transport
/// bandwidth `B`. Copied out of the config once per run so workers don't
/// borrow it.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    pub(crate) bandwidth_bits: u32,
}

impl Limits {
    pub(crate) fn of(config: &crate::config::Config) -> Self {
        Limits {
            bandwidth_bits: config.bandwidth_bits,
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

/// Everything about an outbox's sender that is the same for each of its
/// messages, resolved once per outbox: the node's port view (one CSR
/// look-up instead of four per message), the limits, the fault plan and
/// the send round.
struct Sender<'a> {
    v: NodeId,
    ports: Ports<'a>,
    limits: Limits,
    faults: Option<&'a FaultPlan>,
    send_round: u64,
}

impl<'a> Sender<'a> {
    /// Resolves node `v` against `topology` and opens its outbox on
    /// `scratch`.
    #[inline]
    fn open(
        topology: &'a Topology,
        limits: Limits,
        faults: &'a Option<FaultPlan>,
        scratch: &mut DupScratch,
        v: NodeId,
        send_round: u64,
    ) -> Self {
        let ports = topology.ports(v);
        scratch.begin_outbox(ports.neighbors.len());
        Sender {
            v,
            ports,
            limits,
            faults: faults.as_ref(),
            send_round,
        }
    }

    /// Validates one `(port, msg)` outbox item. The check order — port
    /// range, duplicate send, bandwidth, fault decision — is part of the
    /// engine's observable behavior (it decides *which* error a
    /// doubly-faulty send reports), so both the serial commit and the
    /// worker-side staging call exactly this function.
    ///
    /// The fault plan is consulted last, in a fixed order of its own: loss
    /// rules first (the message is lost in transit), then the receiver's
    /// crash schedule at the delivery round `send_round + 1` (the message
    /// arrives at a dead node and is discarded). Because the plan is a pure
    /// function of static data, this decision is identical on every
    /// executor.
    #[inline]
    fn validate<M: Message>(
        &self,
        scratch: &mut DupScratch,
        port: Port,
        msg: &M,
    ) -> Result<Verdict, SimError> {
        let (v, send_round) = (self.v, self.send_round);
        let Some(&to) = self.ports.neighbors.get(port as usize) else {
            return Err(SimError::InvalidPort {
                node: v,
                port,
                degree: self.ports.neighbors.len(),
            });
        };
        if !scratch.mark(port) {
            return Err(SimError::DuplicateSend {
                node: v,
                port,
                round: send_round,
            });
        }
        let bits = msg.bit_size();
        if bits > self.limits.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                node: v,
                port,
                round: send_round,
                message_bits: bits,
                bandwidth_bits: self.limits.bandwidth_bits,
            });
        }
        if let Some(plan) = self.faults {
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
            to_port: self.ports.reverse_ports[port as usize],
            bits,
        })
    }
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
    if items.is_empty() {
        return true;
    }
    let sender = Sender::open(topology, limits, faults, scratch, v, send_round);
    for (port, msg) in items.drain(..) {
        match sender.validate(scratch, port, &msg) {
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

/// The engine-thread accounting sinks of one commit call, split off
/// [`Core`] so the sender's port view can stay borrowed from the
/// topology while messages are booked: observer, statistics, the arrival
/// arena and the wake list.
struct Books<'c, M> {
    observer: Option<&'c mut (dyn Observer + 'static)>,
    /// The run's topology: observers key on its edge indices.
    topo: &'c Topology,
    send_round: u64,
    stats: &'c mut RunStats,
    arrivals: &'c mut InboxArena<M>,
    in_flight: &'c mut u64,
    wake: &'c mut Vec<NodeId>,
    woken: &'c mut BitSet,
}

impl<M: Message> Books<'_, M> {
    /// Books one accepted message: observer event, statistics,
    /// and the receiver's pending inbox — the engine-thread half of every
    /// commit, shared verbatim by both executors.
    ///
    /// Always inlined: as a call, the by-value `msg` is spilled to the
    /// stack and reloaded for the arena push, which measured ≈ 5 % of a
    /// cold Algorithm 1 build.
    #[inline(always)]
    fn deliver(&mut self, from: NodeId, port: Port, to: NodeId, to_port: Port, bits: u32, msg: M) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&TraceEvent::Message {
                round: self.send_round,
                from,
                to,
                to_port,
                edge: self.topo.directed_edge_index(from, port),
                reverse_edge: self.topo.directed_edge_index(to, to_port),
                bits,
                stream: msg.stream_id(),
                tags: msg.trace_tags(),
            });
        }
        self.stats.messages += 1;
        self.stats.bits += u64::from(bits);
        self.stats.max_message_bits = self.stats.max_message_bits.max(bits);
        self.arrivals.push(to, to_port, msg);
        *self.in_flight += 1;
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
    fn dropped(&mut self, from: NodeId, port: Port, reason: DropReason, tags: TraceTags) {
        self.stats.dropped += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(&TraceEvent::Drop {
                round: self.send_round,
                from,
                port,
                reason,
                tags,
            });
        }
    }
}

impl<M: Message> Core<'_, M> {
    /// Splits the core for one commit call: the mutable accounting sinks
    /// (with the topology), and beside them the config that
    /// validation reads. The send round is `self.round`: the pipeline
    /// advances it before any phase runs, and `on_start` commits happen at
    /// round 0.
    fn books<'c>(&'c mut self, observer: &'c mut ObsGuard<'_>) -> (Books<'c, M>, &'c Config) {
        let Core {
            topology,
            config,
            arrivals,
            wake,
            woken,
            in_flight,
            round,
            stats,
        } = self;
        let books = Books {
            observer: observer.as_deref_mut(),
            topo: topology,
            send_round: *round,
            stats,
            arrivals,
            in_flight,
            wake,
            woken,
        };
        (books, config)
    }

    /// The fused (serial) commit path: validates and books node `v`'s
    /// outbox in item order, draining it so the allocation is recycled.
    /// Used by the serial executor every round and by the pool executor
    /// for the `on_start` round (which runs on the engine thread).
    pub(crate) fn commit_outbox(
        &mut self,
        observer: &mut ObsGuard<'_>,
        scratch: &mut DupScratch,
        v: NodeId,
        items: &mut Vec<(Port, M)>,
    ) -> Result<(), SimError> {
        if items.is_empty() {
            return Ok(());
        }
        let (mut books, config) = self.books(observer);
        let sender = Sender::open(
            books.topo,
            Limits::of(config),
            &config.faults,
            scratch,
            v,
            books.send_round,
        );
        for (port, msg) in items.drain(..) {
            match sender.validate(scratch, port, &msg)? {
                Verdict::Deliver { to, to_port, bits } => {
                    books.deliver(v, port, to, to_port, bits, msg);
                }
                Verdict::Dropped(reason) => books.dropped(v, port, reason, msg.trace_tags()),
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
        let (mut books, _) = self.books(observer);
        for entry in shard.entries.drain(..) {
            match entry {
                Staged::Deliver {
                    from,
                    to,
                    port,
                    to_port,
                    bits,
                    msg,
                } => books.deliver(from, port, to, to_port, bits, msg),
                Staged::Dropped {
                    from,
                    port,
                    reason,
                    tags,
                } => books.dropped(from, port, reason, tags),
            }
        }
        if let Some(err) = shard.error.take() {
            return Err(err);
        }
        Ok(())
    }
}
