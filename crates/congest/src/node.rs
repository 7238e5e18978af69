//! Node-local identifiers and the per-round communication interface.

use crate::message::Message;

/// Identifier of a node, in `0..n`.
///
/// The paper assumes ids fit in `O(log n)` bits and that a node with id `1`
/// exists; with zero-based ids that distinguished node is id `0` here, and
/// id order (used by Algorithm 2's priority rule) is plain integer order.
pub type NodeId = u32;

/// A node-local port: the index of a neighbor in the node's adjacency list.
///
/// Ports are how algorithms address messages; a node does not need to know
/// the global structure of the graph to communicate.
pub type Port = u32;

/// The read-only view a node has of itself and its immediate surroundings.
///
/// This corresponds to the initial knowledge the CONGEST model grants a
/// node: its own id, the total number of nodes `n` (assumed known, §2 of the
/// paper), and the ids of its neighbors.
#[derive(Clone, Copy, Debug)]
pub struct NodeContext<'a> {
    pub(crate) node_id: NodeId,
    pub(crate) num_nodes: usize,
    pub(crate) neighbor_ids: &'a [NodeId],
    pub(crate) round: u64,
}

impl<'a> NodeContext<'a> {
    /// This node's identifier.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Total number of nodes `n` in the network.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }

    /// The ids of this node's neighbors, indexed by port.
    pub fn neighbor_ids(&self) -> &'a [NodeId] {
        self.neighbor_ids
    }

    /// The id of the neighbor reached through `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`.
    pub fn neighbor(&self, port: Port) -> NodeId {
        self.neighbor_ids[port as usize]
    }

    /// The current round number (1-based; `0` during
    /// [`on_start`](crate::NodeAlgorithm::on_start)).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// A copy of this context with the round overridden — for wrappers
    /// that drive an inner protocol on a *simulated* clock (e.g. a
    /// synchronizer replaying lock-step rounds over an unreliable
    /// transport), so the inner kernel sees its own consistent time.
    pub fn at_round(&self, round: u64) -> NodeContext<'a> {
        NodeContext { round, ..*self }
    }
}

/// The messages a node received at the start of a round, tagged with the
/// port they arrived on.
///
/// An inbox is a *borrowed view*: it points at the node's slice of the
/// engine's arrival arena (or of a pool chunk's share of it), so handing a
/// node its arrivals moves nothing. The slice is sorted by port before the
/// view is built — in place, and only when the arrivals did not already
/// reach the arena in port order.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    pub(crate) items: &'a [(Port, M)],
}

impl<'a, M> Inbox<'a, M> {
    /// The view over `items`, sorted by port in place first if they are not
    /// already. A round delivers at most one message per port, so the keys
    /// are unique and the unstable sort is deterministic.
    pub(crate) fn sorted(items: &'a mut [(Port, M)]) -> Self {
        if !items.is_sorted_by_key(|&(p, _)| p) {
            items.sort_unstable_by_key(|&(p, _)| p);
        }
        Inbox { items }
    }

    /// True if no messages arrived this round.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of messages that arrived this round.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Iterates over `(port, message)` pairs in increasing port order.
    pub fn iter(&self) -> impl Iterator<Item = (Port, &'a M)> {
        self.items.iter().map(|(p, m)| (*p, m))
    }

    /// The message received on `port` this round, if any.
    ///
    /// The items are sorted by port (see [`Inbox`]) and a round delivers at
    /// most one message per port, so the lookup binary-searches —
    /// O(log degree) instead of a linear scan, which matters for hub nodes
    /// doing a per-neighbor `from_port` sweep.
    pub fn from_port(&self, port: Port) -> Option<&'a M> {
        self.items
            .binary_search_by_key(&port, |&(p, _)| p)
            .ok()
            .map(|i| &self.items[i].1)
    }
}

/// Where a node queues the messages it sends this round.
///
/// At most one message may be queued per port per round, and each message
/// must fit in the configured bandwidth; violations are detected by the
/// simulator and surface as [`SimError`](crate::SimError)s when the round is
/// committed.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) items: Vec<(Port, M)>,
}

impl<M: Message> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox { items: Vec::new() }
    }

    /// Queues `message` for delivery through `port` at the start of the next
    /// round.
    ///
    /// Sending twice on the same port in one round, addressing an invalid
    /// port, or exceeding the bandwidth is *recorded* here and reported by
    /// [`Simulator::run`](crate::Simulator::run) as an error; this method
    /// itself never panics, so algorithm code stays straight-line.
    pub fn send(&mut self, port: Port, message: M) {
        self.items.push((port, message));
    }

    /// Queues `message` to every port in `ports`.
    pub fn send_to_all<I: IntoIterator<Item = Port>>(&mut self, ports: I, message: M) {
        for p in ports {
            self.items.push((p, message.clone()));
        }
    }

    /// The queued `(port, message)` pairs themselves, in send order — the
    /// buffer the engine commits from. For adapters that host another
    /// sending interface on top of the outbox (the kernel layer's
    /// `ProtocolHost`): they let their protocol write here directly and
    /// finish the queued messages in place, instead of buffering sends of
    /// their own and copying them over.
    pub fn buffer_mut(&mut self) -> &mut Vec<(Port, M)> {
        &mut self.items
    }

    /// Number of messages queued so far this round.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing has been queued this round.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Unit;
    impl Message for Unit {
        fn bit_size(&self) -> u32 {
            1
        }
    }

    #[test]
    fn context_accessors() {
        let neighbors = [3u32, 7];
        let ctx = NodeContext {
            node_id: 5,
            num_nodes: 10,
            neighbor_ids: &neighbors,
            round: 2,
        };
        assert_eq!(ctx.node_id(), 5);
        assert_eq!(ctx.num_nodes(), 10);
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.neighbor(1), 7);
        assert_eq!(ctx.round(), 2);
        let shifted = ctx.at_round(9);
        assert_eq!(shifted.round(), 9);
        assert_eq!(shifted.node_id(), 5);
        assert_eq!(ctx.round(), 2);
    }

    #[test]
    fn inbox_lookup() {
        // Arrivals out of port order: the view sorts its slice in place.
        let mut items = [(2, Unit), (0, Unit)];
        let inbox = Inbox::sorted(&mut items);
        assert_eq!(inbox.len(), 2);
        assert!(inbox.from_port(0).is_some());
        assert!(inbox.from_port(1).is_none());
        let ports: Vec<Port> = inbox.iter().map(|(p, _)| p).collect();
        assert_eq!(ports, vec![0, 2]);
    }

    #[test]
    fn inbox_lookup_high_degree() {
        // A hub inbox: arrivals on every third port of a 3000-port node,
        // sorted by port as the engines guarantee. Every present port must
        // be found and every absent one missed — including the ends.
        #[derive(Clone, Debug, PartialEq)]
        struct Tagged(u32);
        impl Message for Tagged {
            fn bit_size(&self) -> u32 {
                32
            }
        }
        let mut items: Vec<(Port, Tagged)> = (0..1000u32).map(|i| (3 * i, Tagged(i))).collect();
        let inbox = Inbox::sorted(&mut items);
        for i in 0..1000u32 {
            assert_eq!(inbox.from_port(3 * i), Some(&Tagged(i)));
            assert_eq!(inbox.from_port(3 * i + 1), None);
            assert_eq!(inbox.from_port(3 * i + 2), None);
        }
        assert_eq!(inbox.from_port(3000), None);
        let empty: Inbox<'_, Tagged> = Inbox::sorted(&mut []);
        assert_eq!(empty.from_port(0), None);
    }

    #[test]
    fn outbox_send_to_all() {
        let mut out = Outbox::new();
        out.send_to_all(0..3, Unit);
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
    }
}
