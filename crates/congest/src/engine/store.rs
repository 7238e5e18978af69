//! Struct-of-arrays node storage shared by both executors.
//!
//! Before this module each executor owned its node state ad hoc: the
//! serial executor held a `Vec<Option<A>>`, the pool split that vector
//! into per-worker shards it shipped over channels, and the per-node
//! inboxes lived in `n` separate heap `Vec`s that commit pushed into at
//! random receiver order. [`NodeStore`] centralizes *where state lives* so
//! executors become pure scheduling policy:
//!
//! * **State slab** — one contiguous `Vec<Option<A>>` indexed by node id.
//!   Executors borrow it (or temporarily move single slots out, for the
//!   work-stealing pool) instead of owning node vectors.
//! * **Inbox arena** ([`InboxArena`]) — commits append every accepted
//!   message to one flat vector (a cache-linear push, instead of `n`
//!   scattered per-node pushes); the deliver phase then *carves* that
//!   vector, in place, into per-node slices laid out in schedule order,
//!   and the step phase reads each slice where it lies through a borrowed
//!   [`Inbox`](crate::Inbox) — no per-node inbox buffer exists, and a
//!   message is not copied between commit's push and the node reading it
//!   (the pool moves each chunk's contiguous range out of the arena once).
//! * **Wake/awake sets** — the engine's wake marks are a packed
//!   [`BitSet`] (one bit per node instead of one byte), and the sorted
//!   awake/schedule lists live here next to the slab they index.
//!
//! The store is executor-agnostic: the serial executor and the
//! work-stealing pool both step through the same slab, which is what keeps
//! their outputs trivially comparable. The
//! [`ReferenceSimulator`](crate::ReferenceSimulator) oracle deliberately
//! does not use it: it keeps its own `Vec` of node states, so a bug here
//! cannot hide in both sides of the equivalence tests.

use crate::algorithm::{NodeAlgorithm, Quiescence};
use crate::node::{NodeContext, NodeId, Port};
use crate::topology::Topology;

use super::{merge_schedule, QuiescenceState};

/// A packed one-bit-per-node membership set (the wake-mark companion of
/// the wake list: `get` answers "already on the list?" in one word load).
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `n` ids.
    pub(crate) fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Whether `i` is in the set.
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts `i`.
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Empties the set, appending its members to `out` in ascending order.
    pub(crate) fn drain_ascending(&mut self, out: &mut Vec<NodeId>) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                out.push((w * 64) as NodeId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// A buffer-recycling pool: `get` hands out a previously returned value
/// (or a fresh default), `put` takes it back once drained. Replaces the
/// pool executor's former ad-hoc `spare_frontiers` / `spare_inboxes` /
/// `spare_awake` / `spare_shards` vectors with one type, and backs the
/// work-stealing chunk deques — the steady state allocates nothing.
pub(crate) struct Scratch<T> {
    pool: Vec<T>,
}

impl<T: Default> Scratch<T> {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        Scratch { pool: Vec::new() }
    }

    /// A recycled value, or `T::default()` if the pool is dry.
    pub(crate) fn get(&mut self) -> T {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a (cleared-by-caller) value to the pool.
    pub(crate) fn put(&mut self, item: T) {
        self.pool.push(item);
    }
}

/// All per-node algorithm state of one run, in struct-of-arrays layout:
/// the contiguous state slab plus the schedule/awake id lists that index
/// it. Owned by whichever executor drives the run; the fields are
/// crate-visible so executors can split borrows across them (slab mutably,
/// schedule immutably) inside their step loops.
pub(crate) struct NodeStore<A: NodeAlgorithm> {
    /// The state slab: `slots[v]` is node `v`'s algorithm state, `None`
    /// only transiently while a work-stealing chunk has the state checked
    /// out or after `into_output` consumed it.
    pub(crate) slots: Vec<Option<A>>,
    /// This round's schedule: the sorted union of the engine's wake list
    /// and `awake`.
    pub(crate) schedule: Vec<NodeId>,
    /// Nodes reporting [`NodeAlgorithm::is_active`] after their last
    /// step, sorted ascending. Always a subset of the next schedule.
    pub(crate) awake: Vec<NodeId>,
    /// Next round's awake list under construction during `step`.
    pub(crate) awake_next: Vec<NodeId>,
}

impl<A: NodeAlgorithm> NodeStore<A> {
    /// Wraps the initialized per-node states.
    pub(crate) fn new(slots: Vec<Option<A>>) -> Self {
        NodeStore {
            slots,
            schedule: Vec::new(),
            awake: Vec::new(),
            awake_next: Vec::new(),
        }
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Node `v`'s state, mutably.
    pub(crate) fn state_mut(&mut self, v: NodeId) -> &mut A {
        self.slots[v as usize].as_mut().expect("node state present")
    }

    /// Builds this round's schedule from the engine's sorted wake list and
    /// the store's awake list; returns its size.
    pub(crate) fn build_schedule(&mut self, wake: &[NodeId]) -> u64 {
        merge_schedule(wake, &self.awake, &mut self.schedule);
        self.schedule.len() as u64
    }

    /// The post-`on_start` full sweep every engine performs: seeds `awake`
    /// with the active nodes and returns the round-0 vote aggregate
    /// (`fold_start(n, n)` — every node is polled, crashed-at-0 nodes with
    /// their frozen initial state).
    pub(crate) fn seed_awake_and_votes(&mut self) -> QuiescenceState {
        let n = self.len();
        let mut votes = QuiescenceState::fold_start(n, n);
        for (v, slot) in self.slots.iter().enumerate() {
            let node = slot.as_ref().expect("node state present");
            if node.is_active() {
                self.awake.push(v as NodeId);
            }
            votes.vote(node.quiescence());
        }
        votes
    }

    /// Publishes the awake list built during `step`: swaps `awake_next`
    /// into place.
    pub(crate) fn publish_awake(&mut self) {
        std::mem::swap(&mut self.awake, &mut self.awake_next);
    }

    /// Every node's current termination vote, in node-id order — the
    /// deterministic re-poll behind the run's
    /// [`TerminationCertificate`](crate::TerminationCertificate).
    pub(crate) fn final_votes(&self) -> Vec<(NodeId, Quiescence)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(v, slot)| {
                let q = slot.as_ref().expect("node state present").quiescence();
                (v as NodeId, q)
            })
            .collect()
    }

    /// Consumes the slab into per-node outputs, in node-id order.
    pub(crate) fn into_outputs(self, topology: &Topology, final_round: u64) -> Vec<A::Output> {
        let n = self.slots.len();
        self.slots
            .into_iter()
            .enumerate()
            .map(|(v, slot)| {
                let ctx = NodeContext {
                    node_id: v as NodeId,
                    num_nodes: n,
                    neighbor_ids: topology.neighbors(v as NodeId),
                    round: final_round,
                };
                slot.expect("node state present").into_output(&ctx)
            })
            .collect()
    }
}

/// The per-round inbox arena: one flat buffer the commit phase appends to
/// and the deliver phase *carves*, in place, into per-node slices laid out
/// in schedule order.
///
/// Commit-side writes are a cache-linear `push` per accepted message — the
/// receiver-indexed scatter the old `pending[v].push(..)` did is deferred
/// to [`InboxArena::carve`], which groups the buffer by receiver with one
/// counting pass and permutes it in place. After that a message is not
/// copied again: the step phase reads each node's arrivals where they lie,
/// through a borrowed [`Inbox`](crate::Inbox) (the serial executor slot by
/// slot via [`InboxArena::slot_mut`]; the pool takes each chunk's
/// contiguous range out in one pass, via [`InboxArena::drain_carved`]).
/// Every buffer is recycled, so the steady state allocates nothing.
pub(crate) struct InboxArena<M> {
    /// `(receiver port, message)` per accepted message: in commit order
    /// while staged, grouped by schedule slot after `carve`.
    items: Vec<(Port, M)>,
    /// The receiver of each staged item (parallel to `items`); `carve`
    /// overwrites it with the item's target index and leaves it empty.
    to: Vec<NodeId>,
    /// Scratch: `pos[v]` is `1 +` node `v`'s schedule position during
    /// `carve`, `0` outside it. Reset by re-walking the schedule.
    pos: Vec<u32>,
    /// Slice bounds: slot `i` of the schedule owns
    /// `items[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Scatter cursors, one per schedule slot.
    cursor: Vec<u32>,
}

impl<M> InboxArena<M> {
    /// An empty arena over `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            items: Vec::new(),
            to: Vec::new(),
            pos: vec![0; n],
            offsets: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Stages one accepted message for delivery next round (the commit
    /// phase's write half).
    #[inline]
    pub(crate) fn push(&mut self, to: NodeId, to_port: Port, msg: M) {
        self.items.push((to_port, msg));
        self.to.push(to);
    }

    /// Groups the staged messages into per-node slices ordered by
    /// `schedule` position, preserving commit order within each node.
    /// Every staged receiver must be on the schedule (an arrival wakes its
    /// receiver, and woken nodes are always scheduled).
    pub(crate) fn carve(&mut self, schedule: &[NodeId]) {
        let sched = schedule.len();
        for (i, &v) in schedule.iter().enumerate() {
            self.pos[v as usize] = i as u32 + 1;
        }
        self.offsets.clear();
        self.offsets.resize(sched + 1, 0);
        for &to in &self.to {
            let p = self.pos[to as usize];
            debug_assert!(p != 0, "arrival for unscheduled node {to}");
            self.offsets[p as usize] += 1;
        }
        for i in 1..=sched {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..sched]);
        // Each item's target index: its slot's cursor, advanced in commit
        // order (so a node's arrivals keep their relative order).
        for to in &mut self.to {
            let slot = (self.pos[*to as usize] - 1) as usize;
            *to = self.cursor[slot];
            self.cursor[slot] += 1;
        }
        for &v in schedule {
            self.pos[v as usize] = 0;
        }
        // Apply the permutation in place by following its cycles: every
        // swap puts one item into its final position.
        let target = &mut self.to;
        for i in 0..target.len() {
            loop {
                let t = target[i] as usize;
                if t == i {
                    break;
                }
                self.items.swap(i, t);
                target.swap(i, t);
            }
        }
        target.clear();
    }

    /// Arrival count of schedule slot `i` (after `carve`).
    pub(crate) fn len_at(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Schedule slot `i`'s arrivals, in commit order (after `carve`) —
    /// mutable so the inbox view can sort them by port in place.
    pub(crate) fn slot_mut(&mut self, i: usize) -> &mut [(Port, M)] {
        &mut self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Moves the whole carved buffer out, front to back, together with
    /// the slot bounds that index it — how the pool hands each chunk its
    /// contiguous range in one pass. The arena is empty once the drain is
    /// dropped.
    pub(crate) fn drain_carved(&mut self) -> (std::vec::Drain<'_, (Port, M)>, &[u32]) {
        (self.items.drain(..), &self.offsets)
    }

    /// Discards the carved arrivals once the step phase has read them, so
    /// the commit phase appends to an empty buffer.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_round_trips() {
        let mut s = BitSet::new(130);
        assert!(!s.get(0) && !s.get(129));
        s.set(0);
        s.set(64);
        s.set(129);
        assert!(s.get(0) && s.get(64) && s.get(129) && !s.get(65));
        s.clear(64);
        assert!(!s.get(64) && s.get(0) && s.get(129));
        let mut members = vec![7];
        s.drain_ascending(&mut members);
        assert_eq!(members, [7, 0, 129]);
        assert!(!s.get(0) && !s.get(129));
    }

    #[test]
    fn scratch_recycles_instead_of_allocating() {
        let mut pool: Scratch<Vec<u32>> = Scratch::new();
        let mut v = pool.get();
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        v.clear();
        pool.put(v);
        let v2 = pool.get();
        assert_eq!(v2.capacity(), cap, "recycled buffer keeps its capacity");
        assert!(v2.is_empty());
    }

    #[test]
    fn arena_carves_in_schedule_order_preserving_arrival_order() {
        let mut arena: InboxArena<&'static str> = InboxArena::new(8);
        // Commit order interleaves receivers 5, 2, 5, 7.
        arena.push(5, 1, "a");
        arena.push(2, 0, "b");
        arena.push(5, 0, "c");
        arena.push(7, 3, "d");
        let schedule = [2, 5, 6, 7];
        arena.carve(&schedule);
        assert_eq!(arena.len_at(0), 1); // node 2
        assert_eq!(arena.len_at(1), 2); // node 5
        assert_eq!(arena.len_at(2), 0); // node 6: scheduled, no arrivals
        assert_eq!(arena.len_at(3), 1); // node 7
        assert_eq!(arena.slot_mut(0), [(0, "b")]);
        assert_eq!(
            arena.slot_mut(1),
            [(1, "a"), (0, "c")],
            "arrival order preserved"
        );
        assert_eq!(arena.slot_mut(3), [(3, "d")]);
        // The borrowed inbox sorts its slice by port in place.
        let inbox = crate::Inbox::sorted(arena.slot_mut(1));
        assert_eq!(inbox.iter().collect::<Vec<_>>(), [(0, &"c"), (1, &"a")]);
        assert_eq!(inbox.from_port(1), Some(&"a"));
        // The pool's view: the same buffer, moved out front to back.
        let (items, bounds) = arena.drain_carved();
        assert_eq!(bounds, [0, 1, 3, 3, 4]);
        let ports: Vec<Port> = items.map(|(p, _)| p).collect();
        assert_eq!(ports, [0, 0, 1, 3]);
        // The next round starts from a clean arena.
        arena.carve(&[1]);
        assert_eq!(arena.len_at(0), 0);
    }
}
