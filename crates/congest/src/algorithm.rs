//! The per-node algorithm interface.

use crate::message::Message;
use crate::node::{Inbox, NodeContext, Outbox};

/// A node's termination vote, polled by the engine after every round.
///
/// After round 0 the engine polls every node; after each later round it
/// polls only the nodes it stepped — the nodes that had arrivals or
/// were [`is_active`](NodeAlgorithm::is_active) at the round's start. A node
/// it did not poll is inactive and counts as
/// [`Passive`](Quiescence::Passive), whatever it would have voted. The run
/// ends when either
///
/// * no messages are in flight and **no** polled node votes
///   [`Active`](Quiescence::Active), or
/// * **every** node was polled and votes
///   [`Shutdown`](Quiescence::Shutdown) — even with messages still in
///   flight (the votes assert those messages no longer matter). An idle or
///   absent node therefore vetoes a unanimous shutdown.
///
/// The variants are ordered `Active < Passive < Shutdown`; composite
/// algorithms (e.g. two kernels sharing a node) combine component votes
/// with `min`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Quiescence {
    /// The node may still act spontaneously — the run must continue.
    /// This is the vote of every node whose
    /// [`is_active`](NodeAlgorithm::is_active) is `true`, unless it
    /// explicitly upgrades to [`Shutdown`](Quiescence::Shutdown).
    Active,
    /// The node is purely reactive right now: terminating is fine once no
    /// message is in flight anywhere (an in-flight message might still be
    /// addressed to it, so the network must drain first). The default for
    /// inactive nodes.
    Passive,
    /// The node consents to terminating *immediately*, discarding any
    /// messages still in flight. Only sound for protocols that retain
    /// undelivered payloads for retransmission (so a payload in flight
    /// implies its sender still holds it and votes
    /// [`Active`](Quiescence::Active)); the reliable transport kernel is
    /// the motivating case — it keeps clock frames flowing to a fixed
    /// horizon but knows when its inner protocol has finished.
    Shutdown,
}

/// The state machine a single node runs.
///
/// One value of the implementing type exists per node; the
/// [`Simulator`](crate::Simulator) drives all of them in lock-step:
///
/// 1. [`on_start`](Self::on_start) is called once per node before any
///    communication (round 0); messages queued here are delivered in round 1.
/// 2. Each round, [`on_round`](Self::on_round) is called on every
///    **scheduled** node: a node is scheduled when it has messages arriving
///    this round or reported [`is_active`](Self::is_active) after its last
///    step. A node that is inactive and receives nothing is skipped — its
///    state cannot have changed, so skipping it is unobservable. Algorithms
///    that keep local round counters or timers (Algorithm 2 of the paper
///    does) simply stay active until the timer expires; the scheduler then
///    steps them every round, exactly as the dense engine did.
/// 3. The run ends when the per-node [`quiescence`](Self::quiescence)
///    votes allow it (by default: no messages in flight and no node
///    [`is_active`](Self::is_active)); then
///    [`into_output`](Self::into_output) extracts each node's result.
///
/// See the crate-level documentation for a complete example.
pub trait NodeAlgorithm {
    /// The message type this algorithm exchanges.
    type Message: Message;
    /// The per-node result extracted when the run ends.
    type Output;

    /// One-time initialization before round 1. Queue initial sends here.
    ///
    /// The default does nothing, which suits purely reactive nodes.
    fn on_start(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<Self::Message>) {
        let _ = (ctx, outbox);
    }

    /// Invoked every round with the messages delivered this round.
    fn on_round(
        &mut self,
        ctx: &NodeContext<'_>,
        inbox: &Inbox<Self::Message>,
        outbox: &mut Outbox<Self::Message>,
    );

    /// True while this node may still send *spontaneously*, i.e. without
    /// first receiving a message (for example, while an internal timer is
    /// running). Purely reactive nodes keep the default `false`; the
    /// simulator then stops as soon as the network is silent.
    ///
    /// Under the active-set scheduler this is also the wake signal: a node
    /// returning `true` is stepped next round even if no message arrives.
    /// A node returning `false` is only stepped when a message arrives, so
    /// the answer must be honest — an inactive node that would have sent on
    /// a later timer tick will never get that tick.
    fn is_active(&self) -> bool {
        false
    }

    /// This node's termination vote; see [`Quiescence`].
    ///
    /// The default derives the vote from [`is_active`](Self::is_active)
    /// (`Active` while active, `Passive` otherwise), which reproduces the
    /// classic termination rule: the run ends when the network is silent
    /// and no node is active. Synchronizer-style wrappers that stay
    /// active for a fixed horizon (to keep clock frames flowing) but know
    /// their inner protocol has finished can return
    /// [`Quiescence::Shutdown`] to let the engine terminate early.
    ///
    /// Implementations must uphold `is_active() == false ⇒ vote ≠
    /// Active`; the engine relies on that implication to evaluate global
    /// quiescence by scanning only the awake nodes.
    fn quiescence(&self) -> Quiescence {
        if self.is_active() {
            Quiescence::Active
        } else {
            Quiescence::Passive
        }
    }

    /// Consumes the node state and produces its final output.
    fn into_output(self, ctx: &NodeContext<'_>) -> Self::Output;
}
