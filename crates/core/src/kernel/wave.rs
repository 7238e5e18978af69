//! [`WaveKernel`]: BFS wave growth — the one state machine behind the
//! single-root BFS (Claim 1), Algorithm 1's per-node waves, and
//! Algorithm 2's ID-priority simultaneous growth.
//!
//! A kernel writes its distances and parent ports into the [`Row`] its
//! pipeline lends it: the node's rows of the run's matrices. The two
//! forwarding modes keep no queue at all. Algorithm 2's per-port lists
//! `L_i` are `PortQueues`: one allocation per node holding a source bitset
//! per port, whose `(dist, id)` order is looked up in the node's distance
//! row when a port sends rather than stored with the entry.

use std::sync::Arc;

use dapsp_congest::{NodeContext, Port, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use super::rows::Row;
use crate::error::CoreError;

/// Which nodes root a wave, and which slot of a node's rows each root
/// owns.
#[derive(Clone, Debug)]
pub(super) enum Roots {
    /// One wave, rooted at the given node; the rows are a single slot.
    Single(u32),
    /// Every node roots its own wave (Algorithm 1); slot = root id.
    All,
    /// The members of a source set root waves (Algorithm 2); one slot per
    /// source.
    Sources(SourceSlots),
}

impl Roots {
    /// The slot of root `id`, `None` for a node that roots nothing here.
    pub(super) fn slot(&self, id: u32) -> Option<usize> {
        match self {
            Roots::Single(root) => (id == *root).then_some(0),
            Roots::All => Some(id as usize),
            Roots::Sources(slots) => slots.get(id),
        }
    }
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
    /// The inverse, `ids[slot]` — the source list as given. The send
    /// priority breaks ties by *id*, and slots follow the caller's order,
    /// not id order.
    ids: Arc<[u32]>,
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
            ids: sources.into(),
        })
    }

    /// The slot of source `id`, `None` for a non-source (an id outside the
    /// network included).
    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        let slot = *self.slot_of.get(id as usize)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The source list as given, `ids()[slot]` owning `slot`.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
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

/// Algorithm 2's lists `L_i`, all ports of one node in a single
/// port-major allocation: port `p` owns `stride` consecutive words — how
/// many ids it holds, then one bit per source slot. A list records
/// *membership* only. Its head, the smallest `(dist + 1, id)`, is read off
/// the node's distances when the port sends, so an id relaxed while it
/// waits is never re-keyed and never leaves with a stale distance; an
/// improvement costs one bit per port, and a drained list one load.
#[derive(Default)]
struct PortQueues {
    /// `1 + ⌈|S|/64⌉`: a port's count word plus its bitset.
    stride: usize,
    /// `cells[p * stride]` = ids pending on port `p`, then their bits.
    cells: Vec<u64>,
    /// Ids pending across all ports, so `is_active` is one compare.
    pending: usize,
}

impl PortQueues {
    fn new(slots: usize, degree: usize) -> Self {
        let stride = 1 + slots.div_ceil(64);
        PortQueues {
            stride,
            cells: vec![0; stride * degree],
            pending: 0,
        }
    }

    /// Lists `slot` on every port but `except` — the port an improvement
    /// came in by; a source seeding its own id excepts none. An id that
    /// is already pending on `except` stays pending there: its turn sends
    /// the improved distance back, exactly as a set that skips the insert
    /// without removing the old entry does.
    fn list(&mut self, slot: usize, except: Option<Port>) {
        let (word, bit) = (1 + slot / 64, 1u64 << (slot % 64));
        for (p, block) in self.cells.chunks_exact_mut(self.stride).enumerate() {
            if except != Some(p as Port) && block[word] & bit == 0 {
                block[word] |= bit;
                block[0] += 1;
                self.pending += 1;
            }
        }
    }

    /// Takes the most urgent id off `port`'s list: the `(dist + 1, id)`
    /// minimum over its pending slots, with `dist` as it stands now and
    /// `ids[slot]` breaking ties. Returns `(dist + 1, id)`.
    fn pop(&mut self, port: usize, dist: &[u32], ids: &[u32]) -> Option<(u32, u32)> {
        let block = &mut self.cells[port * self.stride..][..self.stride];
        if block[0] == 0 {
            return None;
        }
        let mut head = (u64::MAX, 0);
        for (w, &word) in block[1..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let key = u64::from(dist[slot] + 1) << 32 | u64::from(ids[slot]);
                head = head.min((key, slot));
            }
        }
        let (key, slot) = head;
        block[1 + slot / 64] &= !(1 << (slot % 64));
        block[0] -= 1;
        self.pending -= 1;
        Some(((key >> 32) as u32, key as u32))
    }

    /// Whether every count is the population of the bits it summarizes.
    fn counts_match_bits(&self) -> bool {
        let held = |bits: &[u64]| bits.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        let mut total = 0;
        self.cells.chunks_exact(self.stride).all(|block| {
            total += block[0];
            block[0] == held(&block[1..])
        }) && total == self.pending as u64
    }
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

/// What a node knows when a wave kernel quiesces, besides its rows.
#[derive(Clone, Debug)]
pub struct WaveState {
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

impl WaveState {
    pub(super) fn new() -> Self {
        WaveState {
            children_ports: Vec::new(),
            receipts: 0,
            girth_candidate: INFINITY,
            relaxations: 0,
        }
    }
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
///   ([`schedule_start`](WaveKernel::schedule_start), driven by the
///   pebble's release), optionally truncated at depth `k` (Definition 7).
/// * [`queued_sources`](WaveKernel::queued_sources) — Algorithm 2's
///   simultaneous growth with per-port ID-priority queues and relaxation.
///
/// Each writes its distance and parent port per root slot into the
/// [`Row`] it is given — one slot for a single root, `n` indexed by root
/// id for all roots, `|S|` in source-set order for a source set — and
/// owns nothing of size `n` itself: what it holds is per-port scratch.
pub struct WaveKernel<'a> {
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
    /// The per-port lists `L_i`. Only
    /// [`queued_sources`](WaveKernel::queued_sources) gives them storage;
    /// a forwarding kernel's stay empty and unallocated.
    queues: PortQueues,
    /// Distance per root slot, this node's row of the run's matrix.
    dist: &'a mut [u32],
    /// Parent port per root slot (`u32::MAX` = none).
    parent: &'a mut [Port],
    state: WaveState,
}

impl<'a> WaveKernel<'a> {
    fn base(n: usize, roots: Roots, row: Row<'a>) -> Self {
        WaveKernel {
            n: n as u32,
            roots,
            contention: Contention::Forward,
            max_depth: u32::MAX,
            announce_adopt: false,
            tagged_streams: false,
            start_pending: false,
            arrivals: Vec::new(),
            queues: PortQueues::default(),
            dist: row.dist,
            parent: row.parent,
            state: WaveState::new(),
        }
    }

    /// The single-root tree-building BFS (Claim 1): the root starts its
    /// wave at `init`; adoptions are announced so every node learns its
    /// children. `row` has one slot.
    pub fn single_root(ctx: &NodeContext<'_>, root: u32, row: Row<'a>) -> Self {
        debug_assert_eq!(row.dist.len(), 1);
        let mut k = Self::base(ctx.num_nodes(), Roots::Single(root), row);
        k.announce_adopt = true;
        k
    }

    /// Algorithm 1's waves: every node roots its own `BFS_v`, started via
    /// [`schedule_start`](WaveKernel::schedule_start) (the pebble's
    /// release), truncated at `max_depth` for the k-BFS variant. `row`
    /// has `n` slots, indexed by root id.
    pub fn all_roots(ctx: &NodeContext<'_>, max_depth: u32, row: Row<'a>) -> Self {
        let n = ctx.num_nodes();
        debug_assert_eq!(row.dist.len(), n);
        let mut k = Self::base(n, Roots::All, row);
        k.max_depth = max_depth;
        k.tagged_streams = true;
        k.dist[ctx.node_id() as usize] = 0;
        k
    }

    /// Algorithm 2's simultaneous growth from the sources in `slots`
    /// (shared by all nodes of the run): sources seed their own id into
    /// every port queue; contention resolves by the `(dist, id)` priority.
    /// `row` has one slot per source, in `slots` order.
    pub fn queued_sources(ctx: &NodeContext<'_>, slots: &SourceSlots, row: Row<'a>) -> Self {
        let me = ctx.node_id();
        debug_assert_eq!(row.dist.len(), slots.ids.len());
        let mut k = Self::base(ctx.num_nodes(), Roots::Sources(slots.clone()), row);
        k.contention = Contention::QueuePriority;
        k.tagged_streams = true;
        k.queues = PortQueues::new(slots.ids.len(), ctx.degree());
        if let Some(slot) = slots.get(me) {
            k.dist[slot] = 0;
            k.queues.list(slot, None);
        }
        k
    }

    /// Schedules this node's own wave to start at the next round end —
    /// the hook the pebble's release uses to drive Algorithm 1's staggered
    /// starts.
    pub fn schedule_start(&mut self) {
        self.start_pending = true;
    }

    /// The row slot of `root`.
    fn slot(&self, root: u32) -> usize {
        self.roots.slot(root).expect("only roots send waves")
    }

    /// A repeated arrival of a known root closes a walk through it: the
    /// Lemma 7 cycle-candidate bookkeeping, shared by both contention
    /// modes.
    fn record_candidate(&mut self, port: Port, root: u32, dist: u32) {
        let r = self.slot(root);
        if self.dist[r] == INFINITY || dist == 0 {
            return;
        }
        let sender_dist = dist - 1;
        if port != self.parent[r] && sender_dist <= self.dist[r] {
            self.state.girth_candidate = self
                .state
                .girth_candidate
                .min(self.dist[r] + sender_dist + 1);
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
            if self.dist[r] == INFINITY {
                // Adopt: all simultaneous arrivals of one wave carry the
                // same distance (synchronous BFS), one per port, so the
                // sort leaves the group in port order, lowest first.
                debug_assert!(group
                    .windows(2)
                    .all(|w| w[0].1 == w[1].1 && w[0].2 < w[1].2));
                let (_, d, first_port) = group[0];
                self.dist[r] = d;
                self.parent[r] = first_port;
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
            if dist < self.dist[u] {
                if self.dist[u] != INFINITY {
                    self.state.relaxations += 1;
                }
                self.dist[u] = dist;
                self.parent[u] = port;
                self.queues.list(u, Some(port));
            }
            for &(_, d, p) in &arrivals[i..j] {
                if p != self.parent[u] {
                    self.record_candidate(p, id, d);
                }
            }
            i = j;
        }
        self.arrivals = arrivals;
        self.arrivals.clear();
        // Transmit the most urgent pending id per port (paper lines 13–17,
        // with the (dist, id) priority).
        let Roots::Sources(slots) = &self.roots else {
            unreachable!("only a source set grows through queues");
        };
        for port in 0..ctx.degree() {
            if let Some((dist, id)) = self.queues.pop(port, self.dist, &slots.ids) {
                tx.send(port as Port, WaveMsg::Wave { root: id, dist });
            }
        }
        debug_assert!(self.queues.counts_match_bits());
    }
}

impl Protocol for WaveKernel<'_> {
    type Payload = WaveMsg;
    type Output = WaveState;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<WaveMsg>) {
        if let Roots::Single(root) = self.roots {
            if ctx.node_id() == root {
                self.dist[0] = 0;
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
            Contention::QueuePriority => self.queues.pending > 0,
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

    /// `f` on a kernel of `roots` in an `n`-node network (widths do not
    /// depend on the row, so it has one slot).
    fn with_kernel(n: usize, roots: Roots, f: impl FnOnce(&mut WaveKernel<'_>)) {
        let (mut dist, mut parent) = ([INFINITY], [u32::MAX]);
        let row = Row {
            dist: &mut dist,
            parent: &mut parent,
        };
        f(&mut WaveKernel::base(n, roots, row));
    }

    /// Every wave configuration's worst-case message fits the bandwidth
    /// `B = 2⌈log₂ n⌉ + 8`; the Algorithm 1 waves must fit even with the
    /// two presence tags Algorithm 1's node adds on the wire.
    #[test]
    fn worst_case_widths_fit_the_budget() {
        for n in [2usize, 3, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            // Single-root announcing BFS: discriminant tag + distance.
            with_kernel(n, Roots::Single(0), |k| {
                k.announce_adopt = true;
                assert!(k.width(&worst_wave(n)).bits() <= budget, "bfs wave, n={n}");
                assert!(k.width(&WaveMsg::Adopt).bits() <= budget, "adopt, n={n}");
            });
            // Algorithm 1 waves: root id + distance, plus the node's two
            // presence tags.
            with_kernel(n, Roots::All, |k| {
                assert!(
                    k.width(&worst_wave(n)).bits() + 2 <= budget,
                    "apsp wave beside the pebble, n={n}"
                );
                // Algorithm 2 growth: root id + distance.
                k.contention = Contention::QueuePriority;
                assert!(k.width(&worst_wave(n)).bits() <= budget, "ssp wave, n={n}");
            });
        }
    }

    /// The distance field is fixed-width over its domain: a distance-1
    /// wave costs exactly as many bits as a distance-`n` wave, so the
    /// width never under-counts the decodable encoding.
    #[test]
    fn width_is_fixed_by_domain_not_value() {
        with_kernel(100, Roots::All, |k| {
            let near = WaveMsg::Wave { root: 0, dist: 1 };
            assert_eq!(k.width(&near).bits(), k.width(&worst_wave(100)).bits());
        });
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The per-port `BTreeSet` lists [`PortQueues`] replaced, with the
    /// kernel's three uses of them kept verbatim.
    struct SetModel {
        queues: Vec<BTreeSet<u32>>,
        pending: usize,
    }

    impl SetModel {
        fn seed(&mut self, me: u32) {
            for queue in &mut self.queues {
                queue.insert(me);
            }
            self.pending = self.queues.len();
        }

        fn improve(&mut self, id: u32, port: Port) {
            for (p, queue) in self.queues.iter_mut().enumerate() {
                if p != port as usize && queue.insert(id) {
                    self.pending += 1;
                }
            }
        }

        fn pop(&mut self, port: usize, dist: &[u32], slots: &SourceSlots) -> Option<(u32, u32)> {
            let head = self.queues[port]
                .iter()
                .map(|&id| (dist[slots.get(id).expect("a source")] + 1, id))
                .min();
            if let Some((_, id)) = head {
                self.queues[port].remove(&id);
                self.pending -= 1;
            }
            head
        }
    }

    /// One node's lists in both representations, driven in lockstep.
    struct Lockstep {
        queues: PortQueues,
        model: SetModel,
        slots: SourceSlots,
        dist: Vec<u32>,
        /// Improvements of a slot since any port last sent its id.
        unsent: Vec<u32>,
        /// Which of the three hazards of [`COVERAGE`] the case has met.
        met: [bool; 3],
    }

    impl Lockstep {
        /// `port` sends: the head either representation yields.
        fn pop(&mut self, port: usize) -> [Option<(u32, u32)>; 2] {
            let slot = |id: u32| self.slots.get(id).expect("a source");
            let list = &self.model.queues[port];
            let nearest = list.iter().map(|&id| self.dist[slot(id)]).min();
            let tied = list
                .iter()
                .filter(|&&id| Some(self.dist[slot(id)]) == nearest);
            let tied: Vec<usize> = tied.map(|&id| slot(id)).collect();
            let want = self.model.pop(port, &self.dist, &self.slots);
            if let Some((_, id)) = want {
                self.met[2] |= tied.iter().any(|&other| other < slot(id));
                self.unsent[slot(id)] = 0;
            }
            [self.queues.pop(port, &self.dist, &self.slots.ids), want]
        }

        /// A claim `d` for `slot` arrives on `port`; kept if it improves.
        fn improve(&mut self, slot: usize, d: u32, port: usize) {
            if d >= self.dist[slot] {
                return;
            }
            let id = self.slots.ids[slot];
            self.met[0] |= self.model.queues[port].contains(&id);
            self.met[1] |= self.model.queues.len() > 1 && self.unsent[slot] > 0;
            self.unsent[slot] += 1;
            self.dist[slot] = d;
            self.queues.list(slot, Some(port as Port));
            self.model.improve(id, port as Port);
        }
    }

    /// Cases run, and cases that met each hazard at least once: an
    /// improvement delivered by a port the id is still pending on, an id
    /// improved twice with no send in between, and a head decided by id
    /// between equal distances whose slots are in the opposite order.
    static COVERAGE: [AtomicU32; 4] = [const { AtomicU32::new(0) }; 4];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        fn queue_cases(
            shape in 0usize..15,
            order in 0u8..3,
            seeded in any::<bool>(),
            salt in any::<u64>(),
            ops in proptest::collection::vec(any::<u64>(), 0..600),
        ) {
            // Across the word boundaries of the slot bitset, and a hub
            // with more ports than a word has bits.
            let slots = [1usize, 63, 64, 65, 130][shape % 5];
            let degree = [1usize, 4, 70][shape / 5];
            let mut ids: Vec<u32> = (0..slots as u32).map(|i| 2 * i + 1).collect();
            match order {
                0 => {}
                1 => ids.reverse(),
                _ => ids.sort_by_key(|&id| (u64::from(id) ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
            let mut node = Lockstep {
                queues: PortQueues::new(slots, degree),
                model: SetModel { queues: vec![BTreeSet::new(); degree], pending: 0 },
                slots: SourceSlots::new(2 * slots + 1, &ids).unwrap(),
                dist: vec![INFINITY; slots],
                unsent: vec![0; slots],
                met: [false; 3],
            };
            if seeded {
                node.dist[0] = 0;
                node.queues.list(0, None);
                node.model.seed(ids[0]);
            }
            for &op in &ops {
                if op % 8 == 0 {
                    for port in 0..degree {
                        let [got, want] = node.pop(port);
                        prop_assert_eq!(got, want);
                    }
                } else {
                    let slot = (op >> 8) as usize % slots;
                    // Few distances, so ids tie; half the claims come in
                    // by a port the id still waits on, when there is one.
                    let d = 1 + (op >> 40) as u32 % 6;
                    let waiting: Vec<usize> = (0..degree)
                        .filter(|&p| node.model.queues[p].contains(&ids[slot]))
                        .collect();
                    let port = if op & 16 != 0 && !waiting.is_empty() {
                        waiting[(op >> 20) as usize % waiting.len()]
                    } else {
                        (op >> 20) as usize % degree
                    };
                    node.improve(slot, d, port);
                }
                prop_assert_eq!(node.queues.pending, node.model.pending);
                prop_assert!(node.queues.counts_match_bits());
            }
            for port in 0..degree {
                loop {
                    let [got, want] = node.pop(port);
                    prop_assert_eq!(got, want);
                    if got.is_none() {
                        break;
                    }
                }
            }
            prop_assert_eq!(node.queues.pending, 0);
            prop_assert!(node.queues.cells.iter().all(|&word| word == 0));
            COVERAGE[0].fetch_add(1, Ordering::Relaxed);
            for (count, met) in COVERAGE[1..].iter().zip(node.met) {
                count.fetch_add(u32::from(met), Ordering::Relaxed);
            }
        }
    }

    /// Random interleavings of "a claim for `id` arrives on `port`" and
    /// "every port sends" pop identically, with identical pending counts,
    /// from the bitset lists and from the sets they replaced — and the
    /// generator reaches each hazard in at least a tenth of the cases.
    #[test]
    fn port_queues_pop_like_the_sets_they_replaced() {
        queue_cases();
        let [cases, hazards @ ..] = [0, 1, 2, 3].map(|i| COVERAGE[i].load(Ordering::Relaxed));
        println!("{cases} cases, hazards met in {hazards:?}");
        for met in hazards {
            assert!(met * 10 >= cases, "a hazard in {met} of {cases} cases");
        }
    }
}
