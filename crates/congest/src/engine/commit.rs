//! The commit phase: message validation and accounting, on the engine
//! thread, for every executor.
//!
//! Every message passes through exactly one call to `Sender::validate`
//! (port range → duplicate-send → bandwidth → fault decision, in that
//! order; the sender's ports are resolved once per outbox, not per
//! message) and exactly one accounting step (`Books::deliver` /
//! `Books::dropped`), fused in [`Core::commit_outbox`] — the engine's only
//! outbox validation path. The serial executor calls it for each scheduled
//! node as it goes; the pool executor's workers only step, and the engine
//! thread calls it for the outboxes the chunks carry back, in chunk-index
//! order. A chunk holds a consecutive slice of the sorted schedule, so
//! that is plain node-id order whichever worker stepped (or stole) the
//! chunk: stats, observer events, and delivery order are byte-identical
//! to the serial engine's, and so is the abort point of an invalid send.

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
/// per-commit `vec![false; degree]` with a single epoch bump. The
/// [`Core`] owns the one scratch of a run: every outbox is validated on
/// the engine thread.
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
/// look-up instead of four per message), the bandwidth, the fault plan
/// and the send round.
struct Sender<'a> {
    v: NodeId,
    ports: Ports<'a>,
    bandwidth_bits: u32,
    faults: Option<&'a FaultPlan>,
    send_round: u64,
}

impl<'a> Sender<'a> {
    /// Resolves node `v` against `topology` and opens its outbox on
    /// `scratch`.
    #[inline]
    fn open(
        topology: &'a Topology,
        config: &'a Config,
        scratch: &mut DupScratch,
        v: NodeId,
        send_round: u64,
    ) -> Self {
        let ports = topology.ports(v);
        scratch.begin_outbox(ports.neighbors.len());
        Sender {
            v,
            ports,
            bandwidth_bits: config.bandwidth_bits,
            faults: config.faults.as_ref(),
            send_round,
        }
    }

    /// Validates one `(port, msg)` outbox item. The check order — port
    /// range, duplicate send, bandwidth, fault decision — is part of the
    /// engine's observable behavior (it decides *which* error a
    /// doubly-faulty send reports).
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
        if bits > self.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                node: v,
                port,
                round: send_round,
                message_bits: bits,
                bandwidth_bits: self.bandwidth_bits,
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
    /// and the receiver's pending inbox.
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
    /// Validates and books node `v`'s outbox in item order, draining it so
    /// the allocation is recycled; the first invalid item aborts the commit
    /// after the accounting of the items before it. The send round is
    /// `self.round`: the pipeline advances it before any phase runs, and
    /// `on_start` commits happen at round 0.
    pub(crate) fn commit_outbox(
        &mut self,
        observer: &mut ObsGuard<'_>,
        v: NodeId,
        items: &mut Vec<(Port, M)>,
    ) -> Result<(), SimError> {
        if items.is_empty() {
            return Ok(());
        }
        let Core {
            topology,
            config,
            arrivals,
            wake,
            woken,
            dup,
            in_flight,
            round,
            stats,
        } = self;
        let topology: &Topology = topology;
        let mut books = Books {
            observer: observer.as_deref_mut(),
            topo: topology,
            send_round: *round,
            stats,
            arrivals,
            in_flight,
            wake,
            woken,
        };
        let sender = Sender::open(topology, config, dup, v, *round);
        for (port, msg) in items.drain(..) {
            match sender.validate(dup, port, &msg)? {
                Verdict::Deliver { to, to_port, bits } => {
                    books.deliver(v, port, to, to_port, bits, msg);
                }
                Verdict::Dropped(reason) => books.dropped(v, port, reason, msg.trace_tags()),
            }
        }
        Ok(())
    }
}
