//! [`RepairKernel`]: churn-tolerant wave growth — the dynamic sibling of
//! [`WaveKernel`](super::WaveKernel) for runs whose topology changes
//! mid-flight (a [`TopologyPlan`](dapsp_congest::TopologyPlan)).
//!
//! The static wave kernels are write-once: a node adopts the first (or
//! best) claim per root and never revisits it, which is exactly what makes
//! them unable to survive an edge removal. This kernel instead runs a
//! synchronous distance-vector protocol with *per-port neighbor caches*:
//! every node remembers the last distance each neighbor announced for each
//! root slot, so when [`on_topology`](super::Protocol::on_topology)
//! tombstones a port the node can re-derive the affected distances locally
//! from the surviving caches — no network round trip for the common case.
//!
//! * **Removal** — affected-slot invalidation: only slots whose parent
//!   pointer crossed the dead port are recomputed; a changed value is
//!   re-announced and the correction wave propagates exactly as far as the
//!   damage. Cycles cannot count to infinity: any distance reaching `n`
//!   clamps to [`INFINITY`], so retraction chatter dies within `O(n)`
//!   rounds.
//! * **Insertion** — bounded relaxation wave: both endpoints (each is
//!   notified) queue their known-finite slots on the new port, closest
//!   first; the transmit filter drops announcements the peer demonstrably
//!   cannot use, so the exchange self-prunes as the tables cross.
//! * **Adaptive fallback** — when a round's global change batch reaches
//!   the kernel's `reset_threshold`, per-slot surgery is pointless: the
//!   node recomputes *every* slot from its caches in one sweep and
//!   reports [`RepairAction::Recompute`]. The batch size is identical at
//!   every notified node, so all engines (and all nodes) take the same
//!   branch deterministically.
//!
//! One message per port per round carries one `(slot, dist)` pair —
//! `⌈log₂ n⌉ + ⌈log₂ (n+1)⌉ ≤ B` bits — so the repair traffic lives inside
//! the same CONGEST budget as the waves it patches.
//!
//! Which pair goes out is Algorithm 2's per-edge list `L_i` with its
//! `(dist, id)` priority: every port has an announcement queue keyed
//! `(dist.min(n), slot)`, kept as one slot bitset per distance *level*
//! (`AnnounceQueues`), so the most urgent entry is the lowest set bit of
//! the lowest level — no scan over what is pending. The structure stores
//! the key an entry was queued under, which is sound because of one
//! invariant the kernel maintains: a slot's distance changes only in
//! `refresh`, and `refresh` moves the slot's entries on every live port to
//! the new level in the same step, so a queued key is always the current
//! distance. A level's bitset exists only while it holds an entry (blocks
//! are recycled through a free list), so a node's queues cost
//! `O(live entries · ⌈slots/64⌉)` words, not `O(n · ecc)` per port.

use dapsp_congest::{NodeContext, Port, RepairAction, TopologyDelta, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use super::wave::WaveState;

/// The divergence-adaptive default: fall back to a full per-node recompute
/// when a round's global change batch reaches `max(4, n / 8)` directed
/// port halves (each edge event counts both endpoints' ports; node events
/// add one).
pub fn repair_threshold(n: usize) -> u32 {
    (n as u32 / 8).max(4)
}

/// Which slots this kernel maintains distances for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slots {
    /// One slot, for the given root (churned BFS).
    Single(u32),
    /// `n` slots indexed by root id; this node owns slot `me` iff it is a
    /// source (churned APSP: everyone; churned S-SP: the source set).
    PerNode,
}

/// The wire message: "my current distance for `slot` is `dist`"
/// (`dist = n` encodes unreachable — the count-to-infinity clamp).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairMsg {
    /// The root slot the distance belongs to (always 0 in single-root
    /// mode, where it costs no wire bits).
    pub slot: u32,
    /// The sender's clamped distance for that slot.
    pub dist: u32,
}

/// Churn-tolerant multi-root distance computation (see module docs).
pub struct RepairKernel {
    n: u32,
    slots: Slots,
    /// True iff this node is a source (owns distance 0 in its own slot).
    own: bool,
    /// Distances reaching this value clamp to [`INFINITY`] (`= n`; every
    /// real shortest path is shorter).
    clamp: u32,
    /// Global-batch size at which `on_topology` abandons per-slot surgery.
    reset_threshold: u32,
    /// `cache[p][s]`: the last distance the neighbor on port `p` announced
    /// for slot `s` ([`INFINITY`] = nothing heard / retracted).
    cache: Vec<Vec<u32>>,
    /// `told[p][s]`: the last wire value *we* announced on port `p` for
    /// slot `s` — clamped, so "unreachable" records as `n`, not
    /// [`INFINITY`] ([`INFINITY`] = never told anything).
    told: Vec<Vec<u32>>,
    /// Per-port announcement queues; drained one useful entry per port
    /// per round, priority `(dist.min(clamp), slot)`.
    queues: AnnounceQueues,
    /// Tombstoned ports (no sends, caches cleared).
    port_dead: Vec<bool>,
    /// This node was removed from the topology; it freezes.
    removed: bool,
    /// Arrivals of the current round: `(slot, dist, port)`.
    arrivals: Vec<(u32, u32, Port)>,
    state: WaveState,
}

impl RepairKernel {
    fn base(ctx: &NodeContext<'_>, slots: Slots, own: bool, reset_threshold: u32) -> Self {
        let n = ctx.num_nodes();
        let degree = ctx.degree();
        let slot_count = match slots {
            Slots::Single(_) => 1,
            Slots::PerNode => n,
        };
        let mut k = RepairKernel {
            n: n as u32,
            slots,
            own,
            clamp: n as u32,
            reset_threshold,
            cache: vec![vec![INFINITY; slot_count]; degree],
            told: vec![vec![INFINITY; slot_count]; degree],
            queues: AnnounceQueues::new(slot_count, degree),
            port_dead: vec![false; degree],
            removed: false,
            arrivals: Vec::new(),
            state: WaveState {
                dist: vec![INFINITY; slot_count],
                parent: vec![u32::MAX; slot_count],
                children_ports: Vec::new(),
                receipts: 0,
                girth_candidate: INFINITY,
                relaxations: 0,
            },
        };
        if own {
            let s = k.own_slot(ctx.node_id());
            k.state.dist[s] = 0;
        }
        k
    }

    /// Churned single-root BFS: one slot, rooted at `root`.
    pub fn single_root(ctx: &NodeContext<'_>, root: u32, reset_threshold: u32) -> Self {
        Self::base(
            ctx,
            Slots::Single(root),
            ctx.node_id() == root,
            reset_threshold,
        )
    }

    /// Churned APSP: every node owns its own slot.
    pub fn all_roots(ctx: &NodeContext<'_>, reset_threshold: u32) -> Self {
        Self::base(ctx, Slots::PerNode, true, reset_threshold)
    }

    /// Churned S-SP: per-node slots, distance 0 only at the sources.
    pub fn sources(ctx: &NodeContext<'_>, is_source: bool, reset_threshold: u32) -> Self {
        Self::base(ctx, Slots::PerNode, is_source, reset_threshold)
    }

    /// The slot this node's own wave occupies (meaningful only when `own`).
    fn own_slot(&self, me: u32) -> usize {
        match self.slots {
            Slots::Single(_) => 0,
            Slots::PerNode => me as usize,
        }
    }

    fn slot_count(&self) -> usize {
        self.state.dist.len()
    }

    /// Recomputes slot `s` from the live caches; returns true iff the
    /// value changed. Parent = lowest live port achieving the minimum.
    fn recompute(&mut self, me: u32, s: usize) -> bool {
        let (mut best, mut best_port) = if self.own && s == self.own_slot(me) {
            (0, u32::MAX)
        } else {
            (INFINITY, u32::MAX)
        };
        if best != 0 {
            for (p, cached) in self.cache.iter().enumerate() {
                if self.port_dead[p] {
                    continue;
                }
                let c = cached[s];
                if c < self.clamp && c + 1 < self.clamp && c + 1 < best {
                    best = c + 1;
                    best_port = p as Port;
                }
            }
        }
        let changed = self.state.dist[s] != best;
        if changed && self.state.dist[s] != INFINITY {
            self.state.relaxations += 1;
        }
        self.state.dist[s] = best;
        self.state.parent[s] = best_port;
        changed
    }

    /// The queue key of slot `s`: its distance, "unreachable" clamped to
    /// the wire value `n`.
    fn key(&self, s: usize) -> u32 {
        self.state.dist[s].min(self.clamp)
    }

    /// Queues slot `s` for announcement on every live port.
    fn announce_everywhere(&mut self, s: usize) {
        let key = self.key(s);
        for p in 0..self.port_dead.len() {
            if !self.port_dead[p] {
                self.queues.insert(p, key, s as u32);
            }
        }
    }

    /// [`recompute`](Self::recompute)s slot `s` and, when its value
    /// changed, re-announces it everywhere — first lifting the entries
    /// still queued under the old distance, which is what keeps every
    /// queued key current (dead ports hold no entries).
    fn refresh(&mut self, me: u32, s: usize) {
        let stale = self.key(s);
        if self.recompute(me, s) {
            for p in 0..self.port_dead.len() {
                if !self.port_dead[p] {
                    self.queues.remove(p, stale, s as u32);
                }
            }
            self.announce_everywhere(s);
        }
    }

    /// Grows the per-port tables to `degree` (ports only ever append).
    fn grow_ports(&mut self, degree: usize) {
        let slot_count = self.slot_count();
        while self.cache.len() < degree {
            self.cache.push(vec![INFINITY; slot_count]);
            self.told.push(vec![INFINITY; slot_count]);
            self.queues.add_port();
            self.port_dead.push(false);
        }
    }

    /// One announcement per live port: pop queued slots in `(dist, slot)`
    /// priority, discarding entries the peer demonstrably cannot use —
    /// sent before (`told` unchanged), or no improvement over the peer's
    /// cached distance with nothing previously told to correct.
    fn transmit(&mut self, tx: &mut Tx<RepairMsg>) {
        for p in 0..self.port_dead.len() {
            if self.port_dead[p] {
                self.queues.clear(p);
                continue;
            }
            while let Some((dist, s)) = self.queues.pop(p) {
                let su = s as usize;
                debug_assert_eq!(dist, self.key(su), "slot {s} queued under a stale key");
                let useful = dist != self.told[p][su]
                    && (dist.saturating_add(1) < self.cache[p][su] || self.told[p][su] != INFINITY);
                if useful {
                    // Record the wire value verbatim — a clamped
                    // "unreachable" included — so an identical repeat is
                    // suppressed by the `dist != told` check above (else
                    // two severed nodes bounce retractions forever).
                    self.told[p][su] = dist;
                    tx.send(p as Port, RepairMsg { slot: s, dist });
                    break;
                }
            }
        }
    }
}

/// The announcement queues of one node, one per port: min-priority queues
/// over `(key, slot)` where `key` is the distance level the slot was
/// queued under (see the module docs for why that key never goes stale).
///
/// A port's queue is a short list of its non-empty levels, most urgent
/// last; each level owns one `words`-word slot bitset carved from a pool
/// shared by the node's ports. Insert, remove and pop cost a binary search
/// over the port's live levels plus `O(words)`; nothing allocates once the
/// pool and the level lists have reached their high-water mark.
struct AnnounceQueues {
    /// Words per level block: `⌈slot_count / 64⌉` (one in single-root mode).
    words: usize,
    /// Block `b` is `pool[b * words..][..words]`; a block not on the free
    /// list belongs to exactly one `(port, level)` and is non-zero.
    pool: Vec<u64>,
    /// Blocks handed back by emptied levels, all-zero.
    free: Vec<u32>,
    /// Per port: `(level, block)` of every non-empty level, sorted by
    /// level descending so the head is `last()`.
    levels: Vec<Vec<(u32, u32)>>,
}

impl AnnounceQueues {
    fn new(slot_count: usize, ports: usize) -> Self {
        AnnounceQueues {
            words: slot_count.div_ceil(64),
            pool: Vec::new(),
            free: Vec::new(),
            levels: vec![Vec::new(); ports],
        }
    }

    fn add_port(&mut self) {
        self.levels.push(Vec::new());
    }

    /// Where `level` sits (or would sit) in port `p`'s descending list.
    fn find(&self, p: usize, level: u32) -> Result<usize, usize> {
        self.levels[p].binary_search_by(|&(l, _)| level.cmp(&l))
    }

    /// Queues `slot` under `level` on port `p`; a no-op if already there.
    fn insert(&mut self, p: usize, level: u32, slot: u32) {
        let block = match self.find(p, level) {
            Ok(i) => self.levels[p][i].1,
            Err(i) => {
                let block = self.free.pop().unwrap_or_else(|| {
                    let block = (self.pool.len() / self.words) as u32;
                    self.pool.resize(self.pool.len() + self.words, 0);
                    block
                });
                self.levels[p].insert(i, (level, block));
                block
            }
        };
        self.pool[block as usize * self.words + slot as usize / 64] |= 1 << (slot % 64);
    }

    /// Unqueues `slot` from `level` on port `p`; a no-op if not there.
    fn remove(&mut self, p: usize, level: u32, slot: u32) {
        if let Ok(i) = self.find(p, level) {
            let block = self.levels[p][i].1;
            self.pool[block as usize * self.words + slot as usize / 64] &= !(1 << (slot % 64));
            self.release_if_empty(p, i);
        }
    }

    /// Removes and returns port `p`'s minimum `(level, slot)`.
    fn pop(&mut self, p: usize) -> Option<(u32, u32)> {
        let &(level, block) = self.levels[p].last()?;
        let words = &mut self.pool[block as usize * self.words..][..self.words];
        let (w, word) = words
            .iter_mut()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .expect("a listed level holds an entry");
        let bit = word.trailing_zeros();
        *word &= *word - 1;
        self.release_if_empty(p, self.levels[p].len() - 1);
        Some((level, w as u32 * 64 + bit))
    }

    /// Drops level `i` of port `p` if its block has drained.
    fn release_if_empty(&mut self, p: usize, i: usize) {
        let block = self.levels[p][i].1;
        let words = &self.pool[block as usize * self.words..][..self.words];
        if words.iter().all(|&word| word == 0) {
            self.levels[p].remove(i);
            self.free.push(block);
        }
    }

    /// Empties port `p`'s queue.
    fn clear(&mut self, p: usize) {
        for (_, block) in self.levels[p].drain(..) {
            self.pool[block as usize * self.words..][..self.words].fill(0);
            self.free.push(block);
        }
    }

    /// Level blocks currently owned by some port.
    fn live_blocks(&self) -> usize {
        self.pool.len() / self.words - self.free.len()
    }

    /// True iff no port has anything queued.
    fn is_empty(&self) -> bool {
        self.live_blocks() == 0
    }
}

impl Protocol for RepairKernel {
    type Payload = RepairMsg;
    type Output = WaveState;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        if self.own {
            let s = self.own_slot(ctx.node_id());
            self.announce_everywhere(s);
        }
        self.transmit(tx);
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        port: Port,
        payload: RepairMsg,
        _tx: &mut Tx<RepairMsg>,
    ) {
        self.state.receipts = self.state.receipts.saturating_add(1);
        self.arrivals.push((payload.slot, payload.dist, port));
    }

    fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        if self.removed {
            self.arrivals.clear();
            return;
        }
        let me = ctx.node_id();
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.sort_unstable();
        // Sorted by slot, so each slot's arrivals are one run: apply the
        // run to the caches, then re-derive the slot once.
        for run in arrivals.chunk_by(|a, b| a.0 == b.0) {
            let s = run[0].0;
            let mut touched = false;
            for &(_, dist, port) in run {
                let p = port as usize;
                if p < self.cache.len() && !self.port_dead[p] {
                    self.cache[p][s as usize] = if dist >= self.clamp { INFINITY } else { dist };
                    touched = true;
                    // Counter-offer check: even if our value is unchanged,
                    // the peer's may have worsened past it; the transmit
                    // filter decides whether replying is useful.
                    self.queues.insert(p, self.key(s as usize), s);
                }
            }
            if touched {
                self.refresh(me, s as usize);
            }
        }
        arrivals.clear();
        self.arrivals = arrivals;
        self.transmit(tx);
    }

    fn on_topology(&mut self, ctx: &NodeContext<'_>, delta: &TopologyDelta<'_>) -> RepairAction {
        if delta.removed {
            // Final notification: freeze (outputs keep the last state).
            self.removed = true;
            for p in 0..self.port_dead.len() {
                self.queues.clear(p);
            }
            self.arrivals.clear();
            return RepairAction::Ignored;
        }
        let me = ctx.node_id();
        self.grow_ports(ctx.degree());
        if delta.joined {
            // Fresh boot, edgeless: the node thaws, everything resets, and
            // every port it left with is a tombstone (`remove_node` killed
            // them; the crash notification froze us before recording it).
            // This batch's insertions, below, revive theirs.
            self.removed = false;
            let own_slot = self.own.then(|| self.own_slot(me));
            for s in 0..self.slot_count() {
                self.state.dist[s] = if own_slot == Some(s) { 0 } else { INFINITY };
                self.state.parent[s] = u32::MAX;
            }
            for p in 0..self.cache.len() {
                self.port_dead[p] = true;
                self.cache[p].fill(INFINITY);
                self.told[p].fill(INFINITY);
                self.queues.clear(p);
            }
        }
        for &p in delta.removed_ports {
            let p = p as usize;
            self.port_dead[p] = true;
            self.cache[p].fill(INFINITY);
            self.told[p].fill(INFINITY);
            self.queues.clear(p);
        }
        for &(p, _) in delta.inserted_ports {
            let p = p as usize;
            self.port_dead[p] = false;
            self.cache[p].fill(INFINITY);
            self.told[p].fill(INFINITY);
        }
        let full_reset = delta.batch >= self.reset_threshold;
        if full_reset {
            // Divergence-adaptive fallback: the batch is too large for
            // per-slot surgery — re-derive every slot from the caches.
            for s in 0..self.slot_count() {
                self.refresh(me, s);
            }
        } else {
            // Affected-slot invalidation: only distances routed through a
            // dead port can have worsened.
            for &p in delta.removed_ports {
                for s in 0..self.slot_count() {
                    if self.state.parent[s] == p {
                        self.refresh(me, s);
                    }
                }
            }
        }
        // Bounded relaxation wave: offer every finite distance on the new
        // ports, closest first; the transmit filter prunes the exchange as
        // the peer's table crosses ours.
        for &(p, _) in delta.inserted_ports {
            let p = p as usize;
            for s in 0..self.slot_count() {
                if self.state.dist[s] != INFINITY {
                    self.queues.insert(p, self.key(s), s as u32);
                }
            }
        }
        if full_reset {
            RepairAction::Recompute
        } else {
            RepairAction::Repaired
        }
    }

    fn is_active(&self) -> bool {
        !self.removed && !self.queues.is_empty()
    }

    fn width(&self, _payload: &RepairMsg) -> Width {
        let mut w = Width::ZERO;
        if self.slots == Slots::PerNode {
            w = w.id(self.n as usize);
        }
        // The distance field is fixed-width over its clamped domain
        // `0..=n`, like the static wave kernels'.
        w.count(self.n as usize)
    }

    fn stream(&self, payload: &RepairMsg) -> Option<u32> {
        match self.slots {
            Slots::PerNode => Some(payload.slot),
            Slots::Single(_) => None,
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

    /// Worst-case repair messages fit `B = 2⌈log₂ n⌉ + 8` in every mode.
    #[test]
    fn worst_case_widths_fit_the_budget() {
        for n in [2usize, 3, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).message_budget.unwrap();
            let worst = RepairMsg {
                slot: n as u32 - 1,
                dist: n as u32,
            };
            let mut k = RepairKernel {
                n: n as u32,
                slots: Slots::Single(0),
                own: false,
                clamp: n as u32,
                reset_threshold: 4,
                cache: Vec::new(),
                told: Vec::new(),
                queues: AnnounceQueues::new(1, 0),
                port_dead: Vec::new(),
                removed: false,
                arrivals: Vec::new(),
                state: WaveState {
                    dist: vec![INFINITY],
                    parent: vec![u32::MAX],
                    children_ports: Vec::new(),
                    receipts: 0,
                    girth_candidate: INFINITY,
                    relaxations: 0,
                },
            };
            assert!(k.width(&worst).bits() <= budget, "single-root, n={n}");
            k.slots = Slots::PerNode;
            assert!(k.width(&worst).bits() <= budget, "per-node, n={n}");
        }
    }

    /// The adaptive threshold grows with `n` but never below 4.
    #[test]
    fn threshold_floor_and_growth() {
        assert_eq!(repair_threshold(2), 4);
        assert_eq!(repair_threshold(32), 4);
        assert_eq!(repair_threshold(64), 8);
        assert_eq!(repair_threshold(400), 50);
    }
}

#[cfg(test)]
mod queue_tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::kernel::run_protocol_on;
    use dapsp_congest::{Config, TopologyPlan};
    use dapsp_graph::generators;

    /// The implementation `AnnounceQueues` replaced, kept as the model:
    /// per-port slot sets whose head is found by scanning for the minimum
    /// `(dist.min(clamp), slot)` under the *current* distances.
    struct ScanModel {
        pending: Vec<BTreeSet<u32>>,
    }

    impl ScanModel {
        fn pop(&mut self, p: usize, dist: &[u32], clamp: u32) -> Option<(u32, u32)> {
            let head = self.pending[p]
                .iter()
                .map(|&s| (dist[s as usize].min(clamp), s))
                .min()?;
            self.pending[p].remove(&head.1);
            Some(head)
        }

        fn is_empty(&self) -> bool {
            self.pending.iter().all(BTreeSet::is_empty)
        }
    }

    /// A block is non-zero iff exactly one `(port, level)` lists it, and
    /// the listed blocks are the live ones.
    fn assert_consistent(q: &AnnounceQueues) {
        let mut listed = vec![false; q.pool.len() / q.words];
        for &(_, block) in q.levels.iter().flatten() {
            assert!(!std::mem::replace(&mut listed[block as usize], true));
        }
        for (block, words) in q.pool.chunks(q.words).enumerate() {
            assert_eq!(words.iter().any(|&word| word != 0), listed[block]);
        }
        assert_eq!(q.live_blocks(), listed.iter().filter(|&&l| l).count());
    }

    const PORTS: usize = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random insert-if-absent / re-key-on-change / pop / clear /
        /// port-death sequences pop identically from the level queues and
        /// from the scan model, with identical emptiness after every step.
        #[test]
        fn level_queues_pop_like_the_scan_they_replaced(
            shape in 0usize..6,
            ops in proptest::collection::vec(any::<u64>(), 0..400),
        ) {
            let slots = [1usize, 2, 63, 64, 65, 200][shape];
            // Few levels, so entries collide on a level; `clamp` itself is
            // the "unreachable" level every INFINITY distance queues under.
            let clamp = 6u32;
            let mut dist = vec![INFINITY; slots];
            let mut dead = [false; PORTS];
            let mut q = AnnounceQueues::new(slots, PORTS - 1);
            q.add_port();
            let mut model = ScanModel { pending: vec![BTreeSet::new(); PORTS] };
            for &op in &ops {
                let p = (op >> 8) as usize % PORTS;
                let s = (op >> 16) as usize % slots;
                match op % 8 {
                    // Counter-offer: queue under the current key.
                    0..=2 if !dead[p] => {
                        q.insert(p, dist[s].min(clamp), s as u32);
                        model.pending[p].insert(s as u32);
                    }
                    // The kernel's `refresh`: a changed distance lifts the
                    // stale entries and re-announces on every live port.
                    3 | 4 => {
                        let level = (op >> 32) as u32 % (clamp + 1);
                        let new = if level == clamp { INFINITY } else { level };
                        let stale = dist[s].min(clamp);
                        if new != dist[s] {
                            dist[s] = new;
                            for p in (0..PORTS).filter(|&p| !dead[p]) {
                                q.remove(p, stale, s as u32);
                                q.insert(p, level, s as u32);
                                model.pending[p].insert(s as u32);
                            }
                        }
                    }
                    5 => prop_assert_eq!(q.pop(p), model.pop(p, &dist, clamp)),
                    6 => {
                        q.clear(p);
                        model.pending[p].clear();
                    }
                    // Port death clears the queue; a revived port starts empty.
                    7 => {
                        dead[p] = !dead[p];
                        q.clear(p);
                        model.pending[p].clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(q.is_empty(), model.is_empty());
                assert_consistent(&q);
            }
            for p in 0..PORTS {
                loop {
                    let head = q.pop(p);
                    prop_assert_eq!(head, model.pop(p, &dist, clamp));
                    if head.is_none() {
                        break;
                    }
                }
            }
            prop_assert!(q.is_empty());
            assert_consistent(&q);
        }
    }

    /// A hosted [`RepairKernel`] whose output is the number of level
    /// blocks its queues still own when the run ends.
    struct BlocksAtFinish(RepairKernel);

    impl Protocol for BlocksAtFinish {
        type Payload = RepairMsg;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
            self.0.init(ctx, tx);
        }
        fn on_message(
            &mut self,
            ctx: &NodeContext<'_>,
            port: Port,
            payload: RepairMsg,
            tx: &mut Tx<RepairMsg>,
        ) {
            self.0.on_message(ctx, port, payload, tx);
        }
        fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
            self.0.on_round_end(ctx, tx);
        }
        fn on_topology(&mut self, ctx: &NodeContext<'_>, d: &TopologyDelta<'_>) -> RepairAction {
            self.0.on_topology(ctx, d)
        }
        fn is_active(&self) -> bool {
            self.0.is_active()
        }
        fn width(&self, payload: &RepairMsg) -> Width {
            self.0.width(payload)
        }
        fn finish(self, _ctx: &NodeContext<'_>) -> usize {
            assert_consistent(&self.0.queues);
            self.0.queues.live_blocks()
        }
    }

    /// Queue memory follows the live entries: a path run touches ~n
    /// distance levels per port over its lifetime, a severing removal and
    /// a crash add the clamp level and frozen nodes, yet once the run has
    /// quiesced no node's queues own a single level block.
    #[test]
    fn quiesced_queues_hold_no_level_blocks() {
        let n = 48;
        let topology = generators::path(n).to_topology();
        let plan = TopologyPlan::new()
            .with_remove(20, 30, 31)
            .with_crash(25, 10)
            .with_insert(90, 0, 47);
        let config = Config::for_n(n).with_topology(plan);
        let threshold = repair_threshold(n);
        let report = run_protocol_on(&topology, config, |ctx| {
            BlocksAtFinish(RepairKernel::all_roots(ctx, threshold))
        })
        .expect("run quiesces");
        assert_eq!(report.outputs, vec![0; n]);
    }
}
