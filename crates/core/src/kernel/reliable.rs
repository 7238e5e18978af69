//! Reliable delivery over lossy links: a bounded-horizon synchronizer
//! wrapping any [`Protocol`].
//!
//! The paper's algorithms assume the CONGEST model's reliable synchronous
//! links. Under a [`FaultPlan`](dapsp_congest::FaultPlan) adversary,
//! messages vanish — and naive per-message retransmission is *not* enough
//! to recover the paper's guarantees: a retransmitted wave arrives late,
//! and a forward-mode [`WaveKernel`](super::WaveKernel) adopts whatever
//! reaches it first, so plain retries silently corrupt distances instead
//! of fixing them.
//!
//! [`ReliableKernel`] therefore re-synchronizes the whole execution: it
//! runs the wrapped kernel in *simulated* rounds, advancing a node to
//! simulated round `k + 1` only once the round-`k` frame of **every**
//! neighbor has arrived (an α-synchronizer with per-link flow control).
//! Each link runs an alternating-bit stop-and-wait protocol:
//!
//! * per simulated round, every node sends exactly one *frame* per port —
//!   carrying the wrapped kernel's payload, or an empty marker when it had
//!   nothing to say — stamped with a 1-bit parity (frame index mod 2);
//! * the receiver delivers frames in order (parity match), acknowledges
//!   every arrival (duplicates are re-acknowledged), and buffers payloads
//!   until all ports have reached the same simulated round;
//! * the sender keeps at most one frame in flight per port, retransmitting
//!   on a fixed 2-round timeout until acknowledged, up to
//!   [`max_retries`](ReliableKernel::new) retransmissions — past that the
//!   node stalls and the run ends in
//!   [`SimError::RoundLimitExceeded`](dapsp_congest::SimError), never in a
//!   silently wrong answer.
//!
//! The inner execution is therefore *identical* to a fault-free
//! synchronous run — same deliveries, same rounds, same outputs — as long
//! as the caller's `horizon` covers the fault-free quiescence round.
//! Fault-free, a simulated round costs two real rounds (frame out, ack
//! back), so the wrapper's round inflation is ≈ 2×; under loss `p` each
//! loss adds one 2-round timeout, ≈ `2/(1-p)`× overall. The horizon is a
//! worst-case bound, not a sentence: once every node's inner kernel is
//! finished and no real payload remains anywhere, the kernels vote
//! [`Quiescence::Shutdown`] (see
//! [`quiescence`](ReliableKernel::quiescence)) and the engine terminates
//! the run early instead of circulating empty marker frames to the
//! horizon.
//!
//! Pipelines never name this wrapper: a fault plan in the run's
//! [`Obs`](crate::Obs) makes the kernel layer's phase runner wrap every
//! phase here, with a horizon from the paper's round bound for that phase,
//! and fold the per-node [`TransportSummary`] outputs into the result's
//! [`RunStats::transport`](dapsp_congest::RunStats::transport).
//!
//! # Budget
//!
//! A frame costs 5 bits of overhead on top of the wrapped payload: one
//! data-presence bit, the data parity, one payload-presence bit (empty
//! marker frames), one ack-presence bit, and the ack parity. The worst
//! Algorithm 1 frame (pebble + wave) leaves exactly 5 bits of headroom
//! under `B = 2⌈log₂ n⌉ + 8`, so acks ride the same budget the engine
//! already enforces — `worst_case_reliable_frame_is_exactly_the_budget`
//! proves it by test.

use std::collections::VecDeque;

use dapsp_congest::{NodeContext, Port, Quiescence, TraceTags, TransportSummary, Width};

use super::protocol::{Protocol, Tx};

/// How many real rounds a sender waits for an ack before retransmitting:
/// one round for the frame to arrive, one for the ack to return. Under
/// zero loss the timeout never fires.
const RETRY_TIMEOUT: u8 = 2;

/// One wire message of the reliable link layer.
///
/// Both halves are optional so one envelope serves data, ack, and
/// piggybacked data+ack sends; a message with neither is never sent.
#[derive(Clone, Debug)]
pub struct Frame<P> {
    /// The data sub-frame: the frame's parity bit (index mod 2) and the
    /// wrapped kernel's payload — `None` for an empty marker frame, which
    /// still advances the receiver's simulated round.
    pub data: Option<(bool, Option<P>)>,
    /// Acknowledgment of the last frame received on this link, by parity.
    pub ack: Option<bool>,
    /// Diagnostic only: this frame's data sub-frame is a retransmission.
    /// Costs **zero wire bits** — [`width`](ReliableKernel::width) never
    /// counts it; it exists so observers can attribute retry traffic (see
    /// [`TraceTags::retransmit`]).
    pub retransmit: bool,
}

/// Wraps a [`Protocol`] with reliable-delivery semantics (see the module
/// docs): the inner kernel runs `horizon` simulated rounds exactly as it
/// would on fault-free links, while the wrapper absorbs message loss with
/// per-link stop-and-wait retransmission.
pub struct ReliableKernel<P: Protocol> {
    inner: P,
    inner_tx: Tx<P::Payload>,
    /// Simulated rounds to execute; must be at least the wrapped
    /// protocol's fault-free quiescence round.
    horizon: u64,
    /// Retransmissions allowed per frame before the link gives up.
    max_retries: u32,
    /// Simulated rounds executed so far.
    sim_executed: u64,
    /// Per-port outbound frames; the head is the oldest unacknowledged
    /// frame (index [`acked`](Self::acked), parity index mod 2).
    out: Vec<VecDeque<Option<P::Payload>>>,
    /// Frames fully acknowledged per port.
    acked: Vec<u64>,
    /// Transmission attempts for the current head frame per port.
    attempts: Vec<u32>,
    /// Rounds until the head frame may be retransmitted, per port.
    cooldown: Vec<u8>,
    /// In-order received payloads not yet consumed by the inner run.
    in_queue: Vec<VecDeque<Option<P::Payload>>>,
    /// Frames received per port (next expected parity = count mod 2).
    recv: Vec<u64>,
    /// Ack owed on each port after this round's arrivals.
    pending_ack: Vec<Option<bool>>,
    /// Scratch for demultiplexing one simulated round's inner sends.
    slots: Vec<Option<P::Payload>>,
    /// This node's transport counters; `sim_rounds` is
    /// [`sim_executed`](Self::sim_executed) at the end.
    stats: TransportSummary,
    /// Some link exhausted its retransmission budget: the node stays
    /// active without sending, so the run fails loudly with a round-limit
    /// error instead of returning partial results.
    gave_up: bool,
}

impl<P: Protocol> ReliableKernel<P> {
    /// Wraps `inner` to run `horizon` simulated rounds reliably, allowing
    /// `max_retries` retransmissions per frame per link.
    ///
    /// `horizon` must cover the wrapped protocol's fault-free quiescence
    /// round (the paper's round bounds give it: `n + O(1)` for one BFS,
    /// `4n + O(1)` for the Algorithm 1 wave phase, …); sends produced at
    /// or after the horizon are counted in [`TransportSummary::truncated_sends`].
    pub fn new(inner: P, horizon: u64, max_retries: u32) -> Self {
        ReliableKernel {
            inner,
            inner_tx: Tx::new(),
            horizon,
            max_retries,
            sim_executed: 0,
            out: Vec::new(),
            acked: Vec::new(),
            attempts: Vec::new(),
            cooldown: Vec::new(),
            in_queue: Vec::new(),
            recv: Vec::new(),
            pending_ack: Vec::new(),
            slots: Vec::new(),
            stats: TransportSummary::default(),
            gave_up: false,
        }
    }

    /// Drains the inner kernel's sends for simulated round `k` into one
    /// frame per port (empty marker where it sent nothing).
    fn enqueue_frames(&mut self, k: u64) {
        for slot in &mut self.slots {
            *slot = None;
        }
        for (port, payload) in self.inner_tx.drain() {
            let slot = &mut self.slots[port as usize];
            // Mirror the engine's duplicate-send rejection: a kernel that
            // double-sends on a port is broken with or without faults.
            assert!(
                slot.is_none(),
                "wrapped kernel sent twice on port {port} in simulated round {k}"
            );
            *slot = Some(payload);
        }
        if k >= self.horizon {
            // Sends at the horizon can no longer be delivered (neighbors
            // consume frames up to index horizon - 1). A correct horizon
            // makes this dead code; count it so a short one is visible.
            self.stats.truncated_sends += self.slots.iter().flatten().count() as u64;
            return;
        }
        for (port, slot) in self.slots.iter_mut().enumerate() {
            self.out[port].push_back(slot.take());
        }
    }

    /// Executes every simulated round whose inbound frames are complete.
    fn advance(&mut self, ctx: &NodeContext<'_>) {
        while self.sim_executed < self.horizon && self.in_queue.iter().all(|q| !q.is_empty()) {
            let k = self.sim_executed + 1;
            let ictx = ctx.at_round(k);
            for port in 0..self.in_queue.len() {
                let payload = self.in_queue[port]
                    .pop_front()
                    .expect("checked non-empty above");
                if let Some(payload) = payload {
                    self.inner
                        .on_message(&ictx, port as Port, payload, &mut self.inner_tx);
                }
            }
            self.inner.on_round_end(&ictx, &mut self.inner_tx);
            self.sim_executed = k;
            self.stats.sim_rounds = k;
            self.enqueue_frames(k);
        }
    }

    /// Sends this round's wire messages: the head frame of every port due
    /// for (re)transmission, plus any acks owed — piggybacked when both.
    fn transmit(&mut self, tx: &mut Tx<Frame<P::Payload>>) {
        for port in 0..self.out.len() {
            if self.cooldown[port] > 0 {
                self.cooldown[port] -= 1;
            }
            let mut retransmit = false;
            let data = match self.out[port].front() {
                Some(head) if self.cooldown[port] == 0 => {
                    if self.attempts[port] > self.max_retries {
                        // Retries exhausted: stall (stay active, send
                        // nothing) so the engine's round limit turns the
                        // unrecoverable link into a loud error.
                        self.gave_up = true;
                        None
                    } else {
                        if self.attempts[port] > 0 {
                            self.stats.retransmissions += 1;
                            retransmit = true;
                        }
                        self.attempts[port] += 1;
                        self.cooldown[port] = RETRY_TIMEOUT;
                        self.stats.frames_sent += 1;
                        Some((self.acked[port] % 2 == 1, head.clone()))
                    }
                }
                _ => None,
            };
            let ack = self.pending_ack[port].take();
            if ack.is_some() {
                self.stats.acks_sent += 1;
            }
            if data.is_some() || ack.is_some() {
                tx.send(
                    port as Port,
                    Frame {
                        data,
                        ack,
                        retransmit,
                    },
                );
            }
        }
    }
}

impl<P: Protocol> Protocol for ReliableKernel<P> {
    type Payload = Frame<P::Payload>;
    type Output = (P::Output, TransportSummary);

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Self::Payload>) {
        let degree = ctx.degree();
        self.out = (0..degree).map(|_| VecDeque::new()).collect();
        self.acked = vec![0; degree];
        self.attempts = vec![0; degree];
        self.cooldown = vec![0; degree];
        self.in_queue = (0..degree).map(|_| VecDeque::new()).collect();
        self.recv = vec![0; degree];
        self.pending_ack = vec![None; degree];
        self.slots = (0..degree).map(|_| None).collect();
        self.inner.init(ctx, &mut self.inner_tx);
        self.enqueue_frames(0);
        self.transmit(tx);
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        port: Port,
        frame: Self::Payload,
        _tx: &mut Tx<Self::Payload>,
    ) {
        let p = port as usize;
        if let Some(parity) = frame.ack {
            // An ack matches iff it names the outstanding frame's parity;
            // stale re-acks of the previous frame differ and are ignored.
            if !self.out[p].is_empty() && parity == (self.acked[p] % 2 == 1) {
                self.out[p].pop_front();
                self.acked[p] += 1;
                self.attempts[p] = 0;
                self.cooldown[p] = 0;
            }
        }
        if let Some((parity, payload)) = frame.data {
            if parity == (self.recv[p] % 2 == 1) {
                // In order: buffer for the synchronizer.
                self.in_queue[p].push_back(payload);
                self.recv[p] += 1;
            }
            // New frame or duplicate (its ack was lost): ack what arrived.
            self.pending_ack[p] = Some(parity);
        }
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Self::Payload>) {
        self.advance(ctx);
        self.transmit(tx);
    }

    fn is_active(&self) -> bool {
        // Active until the horizon is executed and every frame is
        // acknowledged. A stalled (gave-up) link keeps the node active
        // forever, forcing the engine's round limit to fire.
        self.sim_executed < self.horizon || self.out.iter().any(|q| !q.is_empty())
    }

    fn quiescence(&self) -> Quiescence {
        // Consent to immediate shutdown once this node can prove it no
        // longer matters to the inner execution: its wrapped kernel is
        // finished (not voting `Active`), no real payload sits buffered
        // inbound, and no real payload is outbound-unacknowledged. Acks
        // and empty marker frames may still be circulating, but they only
        // advance simulated clocks — if *every* node is in this state,
        // no real payload exists anywhere (stop-and-wait retains an
        // unacked payload in `out`, which would keep its sender out of
        // this state), so discarding the markers changes nothing. A
        // gave-up link never consents: the run must end in the loud
        // round-limit error.
        let done = !self.gave_up
            && self.inner.quiescence() != Quiescence::Active
            && self.in_queue.iter().flatten().all(|p| p.is_none())
            && self.out.iter().flatten().all(|p| p.is_none());
        if done {
            Quiescence::Shutdown
        } else if self.is_active() {
            Quiescence::Active
        } else {
            Quiescence::Passive
        }
    }

    fn width(&self, frame: &Self::Payload) -> Width {
        // 1 data-presence bit [+ parity + payload-presence [+ payload]],
        // 1 ack-presence bit [+ ack parity]: ≤ 5 bits over the wrapped
        // kernel's declared width.
        let mut w = Width::ZERO.tag();
        if let Some((_, payload)) = &frame.data {
            w = w.tag().tag();
            if let Some(payload) = payload {
                w = w.raw(self.inner.width(payload).bits());
            }
        }
        w = w.tag();
        if frame.ack.is_some() {
            w = w.tag();
        }
        w
    }

    fn stream(&self, frame: &Self::Payload) -> Option<u32> {
        frame
            .data
            .as_ref()
            .and_then(|(_, payload)| payload.as_ref())
            .and_then(|payload| self.inner.stream(payload))
    }

    fn tags(&self, frame: &Self::Payload) -> TraceTags {
        // A marker or ack-only frame carries no inner kernel's payload,
        // so its kernel mask is empty; a real payload reports the wrapped
        // protocol's mask. The transport's own contribution rides in the
        // retransmit/ack flags.
        let mut tags = match frame.data.as_ref().and_then(|(_, p)| p.as_ref()) {
            Some(payload) => self.inner.tags(payload),
            None => TraceTags {
                kernels: 0,
                retransmit: false,
                ack: false,
            },
        };
        tags.retransmit |= frame.retransmit;
        tags.ack |= frame.ack.is_some();
        tags
    }

    fn finish(self, ctx: &NodeContext<'_>) -> Self::Output {
        let ictx = ctx.at_round(self.sim_executed);
        (self.inner.finish(&ictx), self.stats)
    }
}
