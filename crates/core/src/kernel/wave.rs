//! [`WaveKernel`]: BFS wave growth — the one state machine behind the
//! single-root BFS (Claim 1), Algorithm 1's per-node waves, and
//! Algorithm 2's ID-priority simultaneous growth.

use std::collections::BTreeSet;
use std::sync::Arc;

use dapsp_congest::{NodeContext, Port, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use crate::error::CoreError;

/// Which nodes root a wave.
#[derive(Clone, Debug)]
enum Roots {
    /// One wave, rooted at the given node; per-node state is a single slot.
    Single(u32),
    /// Every node roots its own wave (Algorithm 1); per-node state is
    /// indexed by root id.
    All,
    /// The members of a source set root waves (Algorithm 2); per-node
    /// state has one slot per source.
    Sources(SourceSlots),
}

/// The run-wide id → state-slot map of a validated source set `S`: source
/// `sources[i]` owns slot `i`, so a node stores `|S|` distances (what
/// Theorem 3 says it needs) instead of `n`. One map is shared by every
/// node's kernel. It is a representation of the simulator, not knowledge
/// of the protocol: a node only ever looks up its own id or one it
/// received in a message, and nothing on the wire depends on it.
#[derive(Clone, Debug)]
pub struct SourceSlots {
    /// `slot_of[id]`, [`NO_SLOT`] for a non-source.
    slot_of: Arc<[u32]>,
    len: usize,
}

const NO_SLOT: u32 = u32::MAX;

impl SourceSlots {
    /// Maps `sources` to slots `0..sources.len()` in the given order.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySourceSet`] for an empty set,
    /// [`CoreError::InvalidNode`] for a source outside the `n`-node
    /// network, [`CoreError::InvalidParameter`] for a duplicated source.
    pub fn new(n: usize, sources: &[u32]) -> Result<Self, CoreError> {
        if sources.is_empty() {
            return Err(CoreError::EmptySourceSet);
        }
        let mut slot_of = vec![NO_SLOT; n];
        for (slot, &s) in sources.iter().enumerate() {
            let entry = slot_of.get_mut(s as usize).ok_or(CoreError::InvalidNode {
                node: s,
                num_nodes: n,
            })?;
            if *entry != NO_SLOT {
                return Err(CoreError::InvalidParameter(format!(
                    "source {s} listed twice"
                )));
            }
            *entry = slot as u32;
        }
        Ok(SourceSlots {
            slot_of: slot_of.into(),
            len: sources.len(),
        })
    }

    /// The slot of source `id`, `None` for a non-source (an id outside the
    /// network included).
    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        let slot = *self.slot_of.get(id as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }
}

/// How simultaneous waves share an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Contention {
    /// Forward on arrival (Claim 1): adopt, then immediately re-send to
    /// every port that did not deliver the wave. Correct only when the
    /// schedule guarantees waves never contend (Lemma 1) — the engine's
    /// duplicate-send check enforces exactly that.
    Forward,
    /// Algorithm 2's per-port queues `L_i`: arrivals settle into local
    /// state and each port transmits its most urgent pending id per round,
    /// ordered by the `(dist, id)` priority (smaller id wins ties).
    QueuePriority,
}

/// Messages of a wave kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WaveMsg {
    /// "You are at distance `dist` from `root` (if you adopt me)."
    Wave {
        /// The id of the wave's root.
        root: u32,
        /// The distance the receiver would be at.
        dist: u32,
    },
    /// "I adopted you as my parent" (sent only when adoption announcements
    /// are enabled, i.e. in the tree-building single-root BFS).
    Adopt,
}

/// What a node knows when a wave kernel quiesces.
#[derive(Clone, Debug)]
pub struct WaveState {
    /// Distance per root slot ([`INFINITY`] = unreached). One slot for a
    /// single-root kernel, `n` slots indexed by root id for an all-roots
    /// kernel, `|S|` slots in source-set order for a queued-sources one.
    pub dist: Vec<u32>,
    /// Parent port per root slot (`u32::MAX` = none).
    pub parent: Vec<Port>,
    /// Ports toward this node's children (populated only when adoption
    /// announcements are enabled).
    pub children_ports: Vec<Port>,
    /// How many wave messages reached this node — the Claim 1 cycle
    /// witness (`> 1` on some node iff the graph is not a tree, for a
    /// single-root wave).
    pub receipts: u32,
    /// The smallest cycle candidate observed (Lemma 7), [`INFINITY`] if
    /// none.
    pub girth_candidate: u32,
    /// How often a known distance was improved by a later arrival
    /// (queue-priority growth only; see `ssp`'s module docs).
    pub relaxations: u64,
}

/// BFS wave growth over one or many roots.
///
/// All of the paper's wave-shaped protocols are configurations of this one
/// kernel:
///
/// * [`single_root`](WaveKernel::single_root) — the tree-building BFS of
///   Claim 1: starts at `init`, forwards on arrival, announces adoptions
///   so parents learn their children.
/// * [`all_roots`](WaveKernel::all_roots) — Algorithm 1's `BFS_v` waves:
///   every node roots a wave, started externally
///   ([`schedule_start`](WaveKernel::schedule_start), driven by the pebble
///   coupling), optionally truncated at depth `k` (Definition 7).
/// * [`queued_sources`](WaveKernel::queued_sources) — Algorithm 2's
///   simultaneous growth with per-port ID-priority queues and relaxation.
pub struct WaveKernel {
    n: u32,
    roots: Roots,
    contention: Contention,
    /// Waves stop expanding at this depth (`u32::MAX` = full BFS).
    max_depth: u32,
    announce_adopt: bool,
    /// Whether wave messages are tagged with their root's stream id (for
    /// per-wave congestion observers).
    tagged_streams: bool,
    /// A wave start scheduled for this node's own root, fired at the next
    /// round end (set by [`schedule_start`](WaveKernel::schedule_start)).
    start_pending: bool,
    /// Wave arrivals buffered during the delivery step: `(root, dist,
    /// port)`, settled in sorted order at the round end.
    arrivals: Vec<(u32, u32, Port)>,
    /// Per-port pending queues `L_i` (queue-priority mode only).
    queues: Vec<BTreeSet<u32>>,
    /// Entries across all of `queues`, so `is_active` need not walk them.
    pending: usize,
    state: WaveState,
}

impl WaveKernel {
    fn base(n: usize, slots: usize, degree: usize) -> Self {
        WaveKernel {
            n: n as u32,
            roots: Roots::All,
            contention: Contention::Forward,
            max_depth: u32::MAX,
            announce_adopt: false,
            tagged_streams: false,
            start_pending: false,
            arrivals: Vec::new(),
            queues: vec![BTreeSet::new(); degree],
            pending: 0,
            state: WaveState {
                dist: vec![INFINITY; slots],
                parent: vec![u32::MAX; slots],
                children_ports: Vec::new(),
                receipts: 0,
                girth_candidate: INFINITY,
                relaxations: 0,
            },
        }
    }

    /// The single-root tree-building BFS (Claim 1): the root starts its
    /// wave at `init`; adoptions are announced so every node learns its
    /// children.
    pub fn single_root(ctx: &NodeContext<'_>, root: u32) -> Self {
        let mut k = Self::base(ctx.num_nodes(), 1, ctx.degree());
        k.roots = Roots::Single(root);
        k.announce_adopt = true;
        k
    }

    /// Algorithm 1's waves: every node roots its own `BFS_v`, started via
    /// [`schedule_start`](WaveKernel::schedule_start) (the pebble
    /// coupling), truncated at `max_depth` for the k-BFS variant.
    pub fn all_roots(ctx: &NodeContext<'_>, max_depth: u32) -> Self {
        let n = ctx.num_nodes();
        let mut k = Self::base(n, n, ctx.degree());
        k.max_depth = max_depth;
        k.tagged_streams = true;
        k.state.dist[ctx.node_id() as usize] = 0;
        k
    }

    /// Algorithm 2's simultaneous growth from the sources in `slots`
    /// (shared by all nodes of the run): sources seed their own id into
    /// every port queue; contention resolves by the `(dist, id)` priority.
    /// The final [`WaveState`] has one slot per source, in `slots` order.
    pub fn queued_sources(ctx: &NodeContext<'_>, slots: &SourceSlots) -> Self {
        let me = ctx.node_id();
        let mut k = Self::base(ctx.num_nodes(), slots.len, ctx.degree());
        k.contention = Contention::QueuePriority;
        k.tagged_streams = true;
        if let Some(slot) = slots.get(me) {
            k.state.dist[slot] = 0;
            for queue in &mut k.queues {
                queue.insert(me);
            }
            k.pending = k.queues.len();
        }
        k.roots = Roots::Sources(slots.clone());
        k
    }

    /// Schedules this node's own wave to start at the next round end —
    /// the hook a [`Coupling`](super::Coupling) (e.g. the pebble's
    /// release) uses to drive Algorithm 1's staggered starts.
    pub fn schedule_start(&mut self) {
        self.start_pending = true;
    }

    /// The state slot for `root`.
    fn slot(&self, root: u32) -> usize {
        match &self.roots {
            Roots::Single(_) => 0,
            Roots::All => root as usize,
            Roots::Sources(slots) => slots.get(root).expect("only sources root waves"),
        }
    }

    /// A repeated arrival of a known root closes a walk through it: the
    /// Lemma 7 cycle-candidate bookkeeping, shared by both contention
    /// modes.
    fn record_candidate(&mut self, port: Port, root: u32, dist: u32) {
        let r = self.slot(root);
        if self.state.dist[r] == INFINITY || dist == 0 {
            return;
        }
        let sender_dist = dist - 1;
        if port != self.state.parent[r] && sender_dist <= self.state.dist[r] {
            self.state.girth_candidate = self
                .state
                .girth_candidate
                .min(self.state.dist[r] + sender_dist + 1);
        }
    }

    /// Starts this node's own wave: distance-1 announcements on every port
    /// (suppressed entirely by a zero depth bound, as in k-BFS with
    /// `k = 0`).
    fn emit_own_wave(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        if self.max_depth >= 1 {
            let me = ctx.node_id();
            for p in 0..ctx.degree() as Port {
                tx.send(p, WaveMsg::Wave { root: me, dist: 1 });
            }
        }
    }

    /// The round's buffered arrivals in `(root, dist, port)` order, moved
    /// out for the settle pass (which hands the emptied buffer back).
    /// Deliveries come in port order, so a round that brought one wave —
    /// all Lemma 1 allows per edge, and the common case per node — is
    /// already sorted and skips the sort.
    fn take_sorted_arrivals(&mut self) -> Vec<(u32, u32, Port)> {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        if !arrivals.is_sorted() {
            arrivals.sort_unstable();
        }
        arrivals
    }

    /// Claim 1 contention: settle the round's arrivals in `(root, dist,
    /// port)` order — groups of simultaneous arrivals per root adopt the
    /// lowest port, forward to every port that did not deliver the wave,
    /// and count the rest as cycle evidence.
    fn settle_forward(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        let arrivals = self.take_sorted_arrivals();
        let mut i = 0;
        while i < arrivals.len() {
            let root = arrivals[i].0;
            let mut j = i;
            while j < arrivals.len() && arrivals[j].0 == root {
                j += 1;
            }
            let group = &arrivals[i..j];
            let r = self.slot(root);
            if self.state.dist[r] == INFINITY {
                // Adopt: all simultaneous arrivals of one wave carry the
                // same distance (synchronous BFS), one per port, so the
                // sort leaves the group in port order, lowest first.
                debug_assert!(group
                    .windows(2)
                    .all(|w| w[0].1 == w[1].1 && w[0].2 < w[1].2));
                let (_, d, first_port) = group[0];
                self.state.dist[r] = d;
                self.state.parent[r] = first_port;
                if d < self.max_depth {
                    let mut delivering = group.iter().map(|&(_, _, p)| p).peekable();
                    for p in 0..ctx.degree() as Port {
                        if delivering.next_if_eq(&p).is_none() {
                            tx.send(p, WaveMsg::Wave { root, dist: d + 1 });
                        }
                    }
                }
                if self.announce_adopt {
                    tx.send(first_port, WaveMsg::Adopt);
                }
            }
            for &(_, d, port) in group {
                self.record_candidate(port, root, d);
            }
            i = j;
        }
        self.arrivals = arrivals;
        self.arrivals.clear();
    }

    /// Algorithm 2 contention: settle arrivals in `(id, dist, port)` order
    /// — keep the best claim per id, re-announce improvements through the
    /// other ports' queues, record cycle candidates — then transmit the
    /// most urgent pending id per port.
    fn settle_queued(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        let arrivals = self.take_sorted_arrivals();
        let mut i = 0;
        while i < arrivals.len() {
            let id = arrivals[i].0;
            let mut j = i;
            while j < arrivals.len() && arrivals[j].0 == id {
                j += 1;
            }
            let u = self.slot(id);
            let (_, dist, port) = arrivals[i]; // smallest dist, lowest port
            if dist < self.state.dist[u] {
                if self.state.dist[u] != INFINITY {
                    self.state.relaxations += 1;
                }
                self.state.dist[u] = dist;
                self.state.parent[u] = port;
                for (p, queue) in self.queues.iter_mut().enumerate() {
                    if p != port as usize && queue.insert(id) {
                        self.pending += 1;
                    }
                }
            }
            for &(_, d, p) in &arrivals[i..j] {
                if p != self.state.parent[u] {
                    self.record_candidate(p, id, d);
                }
            }
            i = j;
        }
        self.arrivals = arrivals;
        self.arrivals.clear();
        // Transmit the most urgent pending id per port (paper lines 13–17,
        // with the (dist, id) priority).
        for port in 0..ctx.degree() {
            let head = self.queues[port]
                .iter()
                .map(|&id| (self.state.dist[self.slot(id)] + 1, id))
                .min();
            if let Some((dist, id)) = head {
                self.queues[port].remove(&id);
                self.pending -= 1;
                tx.send(port as Port, WaveMsg::Wave { root: id, dist });
            }
        }
        debug_assert_eq!(
            self.pending,
            self.queues.iter().map(BTreeSet::len).sum::<usize>()
        );
    }
}

impl Protocol for WaveKernel {
    type Payload = WaveMsg;
    type Output = WaveState;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        if let Roots::Single(root) = self.roots {
            if ctx.node_id() == root {
                self.state.dist[0] = 0;
                self.emit_own_wave(ctx, tx);
            }
        }
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        port: Port,
        payload: WaveMsg,
        _tx: &mut Tx<WaveMsg>,
    ) {
        match payload {
            WaveMsg::Wave { root, dist } => {
                self.state.receipts += 1;
                self.arrivals.push((root, dist, port));
            }
            WaveMsg::Adopt => self.state.children_ports.push(port),
        }
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        match self.contention {
            Contention::Forward => {
                // A scheduled start fires first (the wave the pebble
                // released last round), then the round's arrivals settle.
                if self.start_pending {
                    self.start_pending = false;
                    self.emit_own_wave(ctx, tx);
                }
                self.settle_forward(ctx, tx);
            }
            Contention::QueuePriority => self.settle_queued(ctx, tx),
        }
    }

    fn is_active(&self) -> bool {
        match self.contention {
            Contention::Forward => self.start_pending,
            Contention::QueuePriority => self.pending > 0,
        }
    }

    fn width(&self, payload: &WaveMsg) -> Width {
        match payload {
            WaveMsg::Wave { .. } => {
                // The Adopt/Wave discriminant costs a bit only where both
                // variants are in play (the announcing single-root BFS).
                let mut w = Width::ZERO;
                if self.announce_adopt {
                    w = w.tag();
                }
                if !matches!(self.roots, Roots::Single(_)) {
                    w = w.id(self.n as usize);
                }
                // The distance field is fixed-width over its domain
                // `0..=n` — charging by the current value would be a
                // variable-width encoding with no delimiter.
                w.count(self.n as usize)
            }
            WaveMsg::Adopt => Width::ZERO.tag(),
        }
    }

    fn stream(&self, payload: &WaveMsg) -> Option<u32> {
        match payload {
            WaveMsg::Wave { root, .. } if self.tagged_streams => Some(*root),
            _ => None,
        }
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> WaveState {
        self.state
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    fn worst_wave(n: usize) -> WaveMsg {
        WaveMsg::Wave {
            root: n as u32 - 1,
            dist: n as u32,
        }
    }

    /// Every wave configuration's worst-case message fits the per-message
    /// budget `B = 2⌈log₂ n⌉ + 8`; the Algorithm 1 waves must fit even
    /// with the two presence tags their pebble stack adds on the wire.
    #[test]
    fn worst_case_widths_fit_the_budget() {
        for n in [2usize, 3, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).message_budget.unwrap();
            // Single-root announcing BFS: discriminant tag + distance.
            let mut k = WaveKernel::base(n, 1, 4);
            k.roots = Roots::Single(0);
            k.announce_adopt = true;
            assert!(k.width(&worst_wave(n)).bits() <= budget, "bfs wave, n={n}");
            assert!(k.width(&WaveMsg::Adopt).bits() <= budget, "adopt, n={n}");
            // Algorithm 1 waves: root id + distance, plus the stack's two
            // presence tags.
            let k = WaveKernel::base(n, n, 4);
            assert!(
                k.width(&worst_wave(n)).bits() + 2 <= budget,
                "stacked apsp wave, n={n}"
            );
            // Algorithm 2 growth: root id + distance.
            let mut k = WaveKernel::base(n, n, 4);
            k.contention = Contention::QueuePriority;
            assert!(k.width(&worst_wave(n)).bits() <= budget, "ssp wave, n={n}");
        }
    }

    /// The distance field is fixed-width over its domain: a distance-1
    /// wave costs exactly as many bits as a distance-`n` wave, so the
    /// width never under-counts the decodable encoding.
    #[test]
    fn width_is_fixed_by_domain_not_value() {
        let k = WaveKernel::base(100, 100, 4);
        let near = WaveMsg::Wave { root: 0, dist: 1 };
        assert_eq!(k.width(&near).bits(), k.width(&worst_wave(100)).bits());
    }
}
