//! [`PebbleKernel`]: the DFS token of Algorithm 1, walking a known tree.

use dapsp_congest::{NodeContext, Port, Width};

use super::protocol::{Protocol, Tx};
use crate::tree::TreeKnowledge;

/// The pebble itself. It carries no data — its presence *is* the message —
/// so it contributes no payload bits beyond the presence tag Algorithm 1's
/// node charges for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token;

/// The depth-first pebble of Algorithm 1: enters a node, waits one time
/// slot at first visits (paper line 5 — skipped in the Lemma 1 ablation),
/// raises a *release* event, and moves on to the next unvisited child,
/// else back to the parent.
///
/// The release event ([`take_released`](PebbleKernel::take_released)) is
/// how Algorithm 1's node drives its waves: it wires the event to
/// [`WaveKernel::schedule_start`](super::WaveKernel::schedule_start) so
/// `BFS_v` starts exactly when the pebble leaves `v` — the spacing Lemma 1
/// needs.
pub struct PebbleKernel {
    parent_port: Option<Port>,
    children_ports: Vec<Port>,
    next_child: usize,
    visited: bool,
    /// Whether first visits hold the pebble one slot before releasing
    /// (paper line 5). `false` only in the Lemma 1 ablation.
    wait_one_slot: bool,
    /// The pebble arrived this round.
    arrived: bool,
    /// A first visit last round: release (and raise the event) this round.
    release_pending: bool,
    /// The release event, set for exactly the round end in which the
    /// pebble leaves after a first visit; consumed by Algorithm 1's node.
    released: bool,
}

impl PebbleKernel {
    /// A pebble walking `tree`, starting at the tree's root.
    pub fn new(ctx: &NodeContext<'_>, tree: &TreeKnowledge, wait_one_slot: bool) -> Self {
        let v = ctx.node_id() as usize;
        let is_root = ctx.node_id() == tree.root;
        PebbleKernel {
            parent_port: tree.parent_port[v],
            children_ports: tree.children_ports[v].clone(),
            next_child: 0,
            visited: is_root,
            wait_one_slot,
            arrived: false,
            // The root behaves like a node first-visited before round 1:
            // it releases (and starts its wave) at the first round end.
            release_pending: is_root,
            released: false,
        }
    }

    /// Where the pebble goes next: the next unvisited child, else back to
    /// the parent (`None` when the traversal is over at the root).
    fn exit_port(&mut self) -> Option<Port> {
        if self.next_child < self.children_ports.len() {
            let p = self.children_ports[self.next_child];
            self.next_child += 1;
            Some(p)
        } else {
            self.parent_port
        }
    }

    fn release(&mut self, tx: &mut Tx<Token>) {
        self.released = true;
        if let Some(p) = self.exit_port() {
            tx.send(p, Token);
        }
    }

    /// True exactly in the round end where the pebble left this node after
    /// a first visit — the moment Algorithm 1 starts `BFS_v`. Reading
    /// consumes the event.
    pub fn take_released(&mut self) -> bool {
        std::mem::take(&mut self.released)
    }
}

impl Protocol for PebbleKernel {
    type Payload = Token;
    type Output = ();

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        _port: Port,
        _payload: Token,
        _tx: &mut Tx<Token>,
    ) {
        self.arrived = true;
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<Token>) {
        if self.release_pending {
            // A first visit one round ago (paper line 5's one-slot wait,
            // or the root before round 1): release now.
            self.release_pending = false;
            self.release(tx);
        }
        if std::mem::take(&mut self.arrived) {
            if self.visited {
                // Revisited on the way back up: pass the pebble straight on.
                if let Some(p) = self.exit_port() {
                    tx.send(p, Token);
                }
            } else {
                self.visited = true;
                if self.wait_one_slot {
                    self.release_pending = true;
                } else {
                    // Ablation: release in the arrival round. Lemma 1's
                    // spacing is lost and the engine will detect colliding
                    // waves.
                    self.release(tx);
                }
            }
        }
    }

    fn is_active(&self) -> bool {
        self.release_pending
    }

    fn width(&self, _payload: &Token) -> Width {
        // Pure presence: the message's arrival (or Algorithm 1's presence
        // tag) *is* the token — a one-variant payload carries zero
        // information beyond that.
        Width::ZERO
    }

    fn finish(self, _ctx: &NodeContext<'_>) {}
}

#[cfg(test)]
mod width_tests {
    use super::*;

    /// The token carries no payload bits — any budget admits it.
    #[test]
    fn token_is_pure_presence() {
        let k = PebbleKernel {
            parent_port: None,
            children_ports: vec![0, 1],
            next_child: 0,
            visited: true,
            wait_one_slot: true,
            arrived: false,
            release_pending: false,
            released: false,
        };
        assert_eq!(k.width(&Token).bits(), 0);
    }
}
