//! The [`Protocol`] trait and the host adapter that runs a protocol as a
//! [`NodeAlgorithm`] over width-declaring [`Envelope`]s.

use std::fmt::Debug;

use dapsp_congest::{
    Envelope, Inbox, NodeAlgorithm, NodeContext, Outbox, Port, Quiescence, TraceTags, Width,
};

/// A per-node protocol kernel: the state machine interface the wave-kernel
/// layer builds algorithms from, and the one interface every algorithm of
/// the crate runs through.
///
/// `Protocol` differs from [`NodeAlgorithm`] in two ways:
///
/// * it exchanges *payloads*, not messages — the width of every payload is
///   declared through [`width`](Self::width), and the host wraps payloads
///   into [`Envelope`]s, so the engine's `B = O(log n)` bandwidth check
///   always sees an honest bit count;
/// * delivery is *per message* ([`on_message`](Self::on_message)), with a
///   separate end-of-round step ([`on_round_end`](Self::on_round_end)) —
///   so a wrapper can unpack one wire message for the protocol inside it
///   (the [`ReliableKernel`](super::ReliableKernel) delivers a frame's
///   payload, Algorithm 1's node hands the pebble and the wave to their
///   kernels) and still give it its own round boundary.
pub trait Protocol {
    /// The payload this kernel exchanges.
    type Payload: Clone + Debug;
    /// The per-node result extracted when the run ends.
    type Output;

    /// One-time initialization before round 1 (the engine's `on_start`).
    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Self::Payload>) {
        let _ = (ctx, tx);
    }

    /// One payload delivered on `port` this round. Called once per arrival,
    /// in increasing port order, before [`on_round_end`](Self::on_round_end).
    fn on_message(
        &mut self,
        ctx: &NodeContext<'_>,
        port: Port,
        payload: Self::Payload,
        tx: &mut Tx<Self::Payload>,
    );

    /// End of the round: called after all deliveries on every node the
    /// engine *scheduled* this round, so kernels can run timers and
    /// contention schedules. Under the active-set scheduler a node is
    /// scheduled when it received a payload this round or reported
    /// [`is_active`](Self::is_active) after its last step — a kernel whose
    /// timer is running must therefore report itself active, or the tick
    /// never fires.
    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<Self::Payload>) {
        let _ = (ctx, tx);
    }

    /// True while this kernel may still send without first receiving
    /// (e.g. a pending delayed wave start). Mirrors
    /// [`NodeAlgorithm::is_active`] — including its wake-signal role: an
    /// active kernel is stepped every round, an inactive one only on
    /// arrivals.
    fn is_active(&self) -> bool {
        false
    }

    /// This kernel's termination vote; mirrors
    /// [`NodeAlgorithm::quiescence`] (and must uphold the same contract:
    /// an inactive kernel never votes [`Quiescence::Active`]). The default
    /// derives the vote from [`is_active`](Self::is_active); synchronizer
    /// wrappers that stay active to a fixed horizon but know their inner
    /// protocol is finished override it to vote
    /// [`Quiescence::Shutdown`].
    fn quiescence(&self) -> Quiescence {
        if self.is_active() {
            Quiescence::Active
        } else {
            Quiescence::Passive
        }
    }

    /// The declared encoded width of `payload`, built from the
    /// [`Width`] primitives so the `O(log n)` accounting is explicit.
    fn width(&self, payload: &Self::Payload) -> Width;

    /// The logical stream `payload` belongs to (e.g. the root of a BFS
    /// wave), for congestion observers. `None` (the default) for untagged
    /// traffic.
    fn stream(&self, payload: &Self::Payload) -> Option<u32> {
        let _ = payload;
        None
    }

    /// Observer attribution tags for `payload` (zero wire bits; see
    /// [`TraceTags`]). Leaf kernels keep the default — kernel slot 0
    /// present, no transport flags. Algorithm 1's node sets bit 0 for the
    /// pebble and bit 1 for a wave; the
    /// [`ReliableKernel`](super::ReliableKernel) sets the retransmit/ack
    /// flags.
    fn tags(&self, payload: &Self::Payload) -> TraceTags {
        let _ = payload;
        TraceTags::default()
    }

    /// Consumes the kernel and produces the node's final output.
    fn finish(self, ctx: &NodeContext<'_>) -> Self::Output;
}

/// A kernel's send buffer for the current step: `(port, payload)` pairs,
/// taken over by the host (or the enclosing protocol) when the step ends.
///
/// Each send is stored as the [`Envelope`] it will travel in, its
/// `width` / `stream` / `tags` left blank: the buffer a hosted protocol
/// writes to *is* the engine's outbox buffer (see [`ProtocolHost`]), and
/// the host stamps the three fields in place once the step's sends are
/// complete — a hosted kernel's payload is written once, where the commit
/// phase reads it (Algorithm 1's node adds one move, from a kernel's `Tx`
/// into its own).
///
/// Sends accumulate in call order; the engine's one-message-per-port rule
/// is *not* enforced here — a kernel that sends twice on a port produces
/// two envelopes and trips the engine's `DuplicateSend` check, exactly as
/// a hand-written algorithm would (the duplicate-send ablation relies on
/// this).
pub struct Tx<P> {
    sends: Vec<(Port, Envelope<P>)>,
}

impl<P> Tx<P> {
    pub(crate) fn new() -> Self {
        Tx { sends: Vec::new() }
    }

    /// The envelope `payload` travels in, not yet stamped.
    fn blank(payload: P) -> Envelope<P> {
        Envelope {
            payload,
            width: 0,
            stream: None,
            tags: TraceTags::default(),
        }
    }

    /// Queues `payload` for the neighbor on `port`.
    pub fn send(&mut self, port: Port, payload: P) {
        self.sends.push((port, Self::blank(payload)));
    }

    /// Queues every `(port, payload)` of `sends`, in order.
    pub(crate) fn extend(&mut self, sends: impl Iterator<Item = (Port, P)>) {
        self.sends
            .extend(sends.map(|(port, payload)| (port, Self::blank(payload))));
    }

    /// Queues a clone of `payload` for every port of a degree-`degree`
    /// node.
    pub fn send_to_all(&mut self, degree: usize, payload: P)
    where
        P: Clone,
    {
        for port in 0..degree {
            self.send(port as Port, payload.clone());
        }
    }

    /// True when nothing is buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// True when the buffered sends name strictly ascending ports — no
    /// port twice, nothing to reorder.
    pub(crate) fn ports_ascend(&self) -> bool {
        self.sends.is_sorted_by(|a, b| a.0 < b.0)
    }

    /// Drains the buffered sends in call order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (Port, P)> + '_ {
        self.sends.drain(..).map(|(port, env)| (port, env.payload))
    }
}

/// Runs a [`Protocol`] as a [`NodeAlgorithm`] whose wire type is
/// [`Envelope<P::Payload>`](Envelope): every queued payload is stamped
/// with the width and stream the kernel declares for it.
///
/// The host owns no send buffer. For the duration of a step it lends the
/// protocol the engine's own outbox buffer as its [`Tx`], then stamps the
/// envelopes the step queued where they lie.
pub struct ProtocolHost<P: Protocol> {
    proto: P,
}

impl<P: Protocol> ProtocolHost<P> {
    /// Hosts `proto`.
    pub fn new(proto: P) -> Self {
        ProtocolHost { proto }
    }

    /// Runs one `step` of the protocol with `out`'s buffer as its [`Tx`],
    /// then stamps every envelope the step queued — in place — with the
    /// width, stream and tags the protocol declares for its payload. (Tags
    /// ride as zero-wire-bit diagnostics read at the engine's commit choke
    /// point.)
    fn step(
        &mut self,
        out: &mut Outbox<Envelope<P::Payload>>,
        step: impl FnOnce(&mut P, &mut Tx<P::Payload>),
    ) {
        let mut tx = Tx {
            sends: std::mem::take(out.buffer_mut()),
        };
        let queued_before = tx.sends.len();
        step(&mut self.proto, &mut tx);
        for (_, env) in &mut tx.sends[queued_before..] {
            env.width = self.proto.width(&env.payload).bits();
            env.stream = self.proto.stream(&env.payload);
            env.tags = self.proto.tags(&env.payload);
        }
        *out.buffer_mut() = tx.sends;
    }
}

impl<P: Protocol> NodeAlgorithm for ProtocolHost<P> {
    type Message = Envelope<P::Payload>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &NodeContext<'_>, out: &mut Outbox<Self::Message>) {
        self.step(out, |proto, tx| proto.init(ctx, tx));
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<Self::Message>,
        out: &mut Outbox<Self::Message>,
    ) {
        self.step(out, |proto, tx| {
            for (port, envelope) in inbox.iter() {
                proto.on_message(ctx, port, envelope.payload.clone(), tx);
            }
            proto.on_round_end(ctx, tx);
        });
    }

    fn is_active(&self) -> bool {
        self.proto.is_active()
    }

    fn quiescence(&self) -> Quiescence {
        self.proto.quiescence()
    }

    fn into_output(self, ctx: &NodeContext<'_>) -> Self::Output {
        self.proto.finish(ctx)
    }
}
