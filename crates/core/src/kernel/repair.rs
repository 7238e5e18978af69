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
//! One message per port per round carries one `(root, dist)` pair —
//! `⌈log₂ n⌉ + ⌈log₂ (n+1)⌉ ≤ B` bits — so the repair traffic lives inside
//! the same CONGEST budget as the waves it patches. A node keeps one slot
//! per root, slot `r` for node `r`, and writes its distances and parent
//! ports into the run's matrices like the static kernels do.
//!
//! Which pair goes out is Algorithm 2's per-edge list `L_i` with its
//! `(dist, id)` priority: every port has an announcement queue keyed
//! `(dist.min(n), slot)`. A slot's key is its *current distance*, hence the
//! same on every port, and the kernel keeps it current by construction: a
//! distance changes only in `refresh`, which re-keys the slot on every
//! port in the same step. So the node keeps **one** descending list of its
//! non-empty distance levels (`AnnounceQueues`), each level owning one
//! block with a slot bitset per port; a port's most urgent entry is the
//! lowest set bit of its bitset in the first level (from the head) that
//! holds anything for it, and re-keying a slot costs two searches of that
//! list, not two per port. A level's block exists only while some port
//! holds an entry under it (blocks are recycled through a free list), so a
//! node's queues cost `O(live levels · ports · ⌈slots/64⌉)` words, not
//! `O(n · ecc)` per port.
//!
//! What the neighbours said and what they were told is one slot-major
//! table (`Neighbours`): slot `s`'s row is `[cache[0..ports] |
//! told[0..ports]]`, so re-deriving a distance is a minimum over one
//! contiguous slice and the transmit filter reads the row the pop just
//! named — one or two cache lines where per-port rows were `2·deg`, in a
//! run that is memory-bound. For the same reason an arriving distance is
//! stored into its `cache` cell at once (`on_message`) and only the slot is
//! re-derived at round end: the row fetches of a round's arrivals overlap.
//! A dead port's cells hold [`INFINITY`] by construction — they are
//! blanked when the port dies and nothing writes them until an insertion
//! appends a fresh port — so neither loop tests liveness.
//!
//! **Re-join.** A node that is removed freezes; when a later event
//! re-joins it, it boots again *edgeless*: `removed` clears, every distance
//! but its own resets, and every port it left with is a tombstone (the
//! topology killed them with the node). Only the insertions that follow
//! reconnect it, each on a fresh port.

use dapsp_congest::{NodeContext, Port, RepairAction, TopologyDelta, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use super::rows::Row;
use super::wave::WaveState;

/// The divergence-adaptive default: fall back to a full per-node recompute
/// when a round's global change batch reaches `max(4, n / 8)` directed
/// port halves (each edge event counts both endpoints' ports; node events
/// add one).
fn repair_threshold(n: usize) -> u32 {
    (n as u32 / 8).max(4)
}

/// The wire message: "my current distance to `root` is `dist`"
/// (`dist = n` encodes unreachable — the count-to-infinity clamp).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairMsg {
    /// The id of the root the distance belongs to.
    pub root: u32,
    /// The sender's clamped distance to that root.
    pub dist: u32,
}

/// Churn-tolerant multi-root distance computation (see module docs). Like
/// the [`WaveKernel`](super::WaveKernel), it keeps its distance and parent
/// port per root slot in the [`Row`] its pipeline lends it.
pub struct RepairKernel<'a> {
    /// The slot this node owns distance 0 in: its own id. Slot order is
    /// id order, so the `(dist, slot)` priority is Algorithm 2's
    /// `(dist, id)`.
    own: usize,
    /// `n`: distances reaching it clamp to [`INFINITY`] (every real
    /// shortest path is shorter).
    clamp: u32,
    /// Global-batch size at which `on_topology` abandons per-slot surgery.
    reset_threshold: u32,
    /// Per slot and port: the last distance the neighbor announced
    /// (`cache`, [`INFINITY`] = nothing heard / retracted) and the last
    /// wire value *we* announced (`told` — clamped, so "unreachable"
    /// records as `n`; [`INFINITY`] = never told anything).
    near: Neighbours,
    /// Per-port announcement queues; drained one useful entry per port
    /// per round, priority `(dist.min(clamp), slot)`.
    queues: AnnounceQueues,
    /// Tombstoned ports (no sends, cells blank, nothing queued).
    port_dead: Vec<bool>,
    /// This node was removed from the topology; it freezes.
    removed: bool,
    /// Where this round's announcements landed, live ports only (their
    /// distances are in the table already): `slot << 32 | port`, one
    /// integer so that grouping by slot is a branchless small sort.
    arrivals: Vec<u64>,
    /// Distance per root slot, this node's row of the run's matrix.
    dist: &'a mut [u32],
    /// Parent port per root slot (`u32::MAX` = none).
    parent: &'a mut [Port],
    state: WaveState,
}

impl<'a> RepairKernel<'a> {
    /// Churned APSP: `n` slots indexed by root id; every node owns its
    /// own, and falls back to a full recompute at `max(4, n / 8)` changed
    /// port halves.
    pub fn all_roots(ctx: &NodeContext<'_>, row: Row<'a>) -> Self {
        let n = ctx.num_nodes();
        let degree = ctx.degree();
        debug_assert_eq!(row.dist.len(), n);
        let own = ctx.node_id() as usize;
        row.dist[own] = 0;
        RepairKernel {
            own,
            clamp: n as u32,
            reset_threshold: repair_threshold(n),
            near: Neighbours::new(n, degree),
            queues: AnnounceQueues::new(n, degree),
            port_dead: vec![false; degree],
            removed: false,
            arrivals: Vec::new(),
            dist: row.dist,
            parent: row.parent,
            state: WaveState::new(),
        }
    }

    fn slot_count(&self) -> usize {
        self.dist.len()
    }

    /// Recomputes slot `s` from the caches; returns true iff the value
    /// changed. Parent = lowest port achieving the minimum (dead ports
    /// cache [`INFINITY`], so they never do).
    fn recompute(&mut self, s: usize) -> bool {
        debug_assert!((0..self.port_dead.len())
            .all(|p| !self.port_dead[p] || self.near.cells(p, s) == (INFINITY, INFINITY)));
        let (best, best_port) = if self.own == s {
            (0, u32::MAX)
        } else {
            match self.near.nearest(s) {
                (d, p) if d < self.clamp => (d, p),
                _ => (INFINITY, u32::MAX),
            }
        };
        let changed = self.dist[s] != best;
        if changed && self.dist[s] != INFINITY {
            self.state.relaxations += 1;
        }
        self.dist[s] = best;
        self.parent[s] = best_port;
        changed
    }

    /// The queue key of slot `s`: its distance, "unreachable" clamped to
    /// the wire value `n`.
    fn key(&self, s: usize) -> u32 {
        self.dist[s].min(self.clamp)
    }

    /// Queues slot `s` for announcement on every live port.
    fn announce_everywhere(&mut self, s: usize) {
        let live = (0..self.port_dead.len()).filter(|&p| !self.port_dead[p]);
        self.queues.insert(self.key(s), s as u32, live);
    }

    /// [`recompute`](Self::recompute)s slot `s` and, when its value
    /// changed, re-announces it everywhere — first lifting the entries
    /// still queued under the old distance, which is what keeps every
    /// queued key current. Returns true iff the value changed.
    fn refresh(&mut self, s: usize) -> bool {
        let stale = self.key(s);
        let changed = self.recompute(s);
        if changed {
            self.queues.remove_everywhere(stale, s as u32);
            self.announce_everywhere(s);
        }
        changed
    }

    /// Grows the per-port tables to `degree` (ports only ever append).
    fn grow_ports(&mut self, degree: usize) {
        while self.port_dead.len() < degree {
            self.near.add_port();
            self.queues.add_port();
            self.port_dead.push(false);
        }
    }

    /// One announcement per live port: pop queued slots in `(dist, slot)`
    /// priority, discarding entries the peer demonstrably cannot use —
    /// sent before (`told` unchanged), or no improvement over the peer's
    /// cached distance with nothing previously told to correct. A port
    /// with nothing queued — every dead port — costs one load.
    fn transmit(&mut self, tx: &mut Tx<RepairMsg>) {
        for p in 0..self.port_dead.len() {
            debug_assert!(!self.port_dead[p] || self.queues.port_total[p] == 0);
            while let Some((dist, s)) = self.queues.pop(p) {
                let su = s as usize;
                debug_assert_eq!(dist, self.key(su), "slot {s} queued under a stale key");
                let (cached, told) = self.near.cells(p, su);
                let useful = dist != told && (dist.saturating_add(1) < cached || told != INFINITY);
                if useful {
                    // Record the wire value verbatim — a clamped
                    // "unreachable" included — so an identical repeat is
                    // suppressed by the `dist != told` check above (else
                    // two severed nodes bounce retractions forever).
                    *self.near.told_mut(p, su) = dist;
                    tx.send(p as Port, RepairMsg { root: s, dist });
                    break;
                }
            }
        }
    }
}

/// `count` rows of `old` elements each, re-laid at `new ≥ old` elements
/// per row, the new tail of every row holding `fill`.
fn widen<T: Copy>(rows: &[T], count: usize, old: usize, new: usize, fill: T) -> Vec<T> {
    let mut out = vec![fill; count * new];
    for r in 0..count {
        out[r * new..][..old].copy_from_slice(&rows[r * old..][..old]);
    }
    out
}

/// One slot-major panel of the neighbour table: row `s` is
/// `cells[s * 2 * cap..][..2 * cap]`, laid out `[cache[0..cap] |
/// told[0..cap]]`. Cells of dead ports and of capacity not yet used hold
/// [`INFINITY`].
struct Panel {
    cap: usize,
    cells: Vec<u32>,
}

impl Panel {
    fn cache_row(&self, s: usize) -> &[u32] {
        &self.cells[s * 2 * self.cap..][..self.cap]
    }
}

/// The node's neighbour table (see the module docs), as two panels: the
/// ports the node booted with, sized exactly and never moved, and the
/// ports insertions appended since, its capacity doubling. A static run
/// pays for the first only, and an insertion at a 255-port hub re-lays the
/// few appended ports, not the hub's whole table.
struct Neighbours {
    slots: usize,
    ports: usize,
    panels: [Panel; 2],
}

impl Neighbours {
    fn new(slots: usize, ports: usize) -> Self {
        let booted = Panel {
            cap: ports,
            cells: vec![INFINITY; slots * 2 * ports],
        };
        let appended = Panel {
            cap: 0,
            cells: Vec::new(),
        };
        Neighbours {
            slots,
            ports,
            panels: [booted, appended],
        }
    }

    fn add_port(&mut self) {
        self.ports += 1;
        let booted = self.panels[0].cap;
        let appended = &mut self.panels[1];
        if self.ports - booted > appended.cap {
            let cap = (2 * appended.cap).max(1);
            appended.cells = widen(&appended.cells, 2 * self.slots, appended.cap, cap, INFINITY);
            appended.cap = cap;
        }
    }

    /// The panel port `p` lives in and the index of its `cache` cell for
    /// slot `s`; its `told` cell is `cap` further on.
    fn locate(&self, p: usize, s: usize) -> (usize, usize) {
        debug_assert!(p < self.ports && s < self.slots);
        let [booted, appended] = &self.panels;
        if p < booted.cap {
            (0, s * 2 * booted.cap + p)
        } else {
            (1, s * 2 * appended.cap + p - booted.cap)
        }
    }

    /// `(cache, told)` of port `p` for slot `s`.
    fn cells(&self, p: usize, s: usize) -> (u32, u32) {
        let (panel, i) = self.locate(p, s);
        let panel = &self.panels[panel];
        (panel.cells[i], panel.cells[i + panel.cap])
    }

    fn cache_mut(&mut self, p: usize, s: usize) -> &mut u32 {
        let (panel, i) = self.locate(p, s);
        &mut self.panels[panel].cells[i]
    }

    fn told_mut(&mut self, p: usize, s: usize) -> &mut u32 {
        let (panel, i) = self.locate(p, s);
        let panel = &mut self.panels[panel];
        &mut panel.cells[i + panel.cap]
    }

    /// The minimum `(cache + 1, port)` over all ports for slot `s`; the
    /// distance is [`INFINITY`] when nobody offers one.
    fn nearest(&self, s: usize) -> (u32, Port) {
        let mut best = u64::MAX;
        let mut first = 0;
        for panel in &self.panels {
            for (p, &c) in panel.cache_row(s).iter().enumerate() {
                best = best.min(u64::from(c.saturating_add(1)) << 32 | (first + p) as u64);
            }
            first += panel.cap;
        }
        ((best >> 32) as u32, best as Port)
    }

    /// Forgets everything heard from and told to port `p`.
    fn blank_port(&mut self, p: usize) {
        for s in 0..self.slots {
            *self.cache_mut(p, s) = INFINITY;
            *self.told_mut(p, s) = INFINITY;
        }
    }

    /// Forgets everything, on every port.
    fn blank(&mut self) {
        for panel in &mut self.panels {
            panel.cells.fill(INFINITY);
        }
    }
}

/// The announcement queues of one node: per port a min-priority queue over
/// `(level, slot)`, where `level` is the distance the slot was queued
/// under — the same on every port and never stale (see the module docs),
/// which is why the ports can share one level index.
///
/// `levels` lists the node's non-empty levels, most urgent last. Each owns
/// one block of `cap × words` words carved from a pool — port `p`'s slot
/// bitset is the block's words `p * words..(p + 1) * words` — and three
/// counts say where the entries are without looking at the bits:
/// `held` per (block, port), so a pop skips a level holding nothing for
/// its port with one load; `block_total`, so a drained block is released
/// the moment its last entry leaves; `port_total`, so a port with nothing
/// queued is skipped in `O(1)`. Re-keying a slot is one search for the
/// stale level and one for the new, then a bit per port. Nothing allocates
/// once the pool has reached its high-water mark.
struct AnnounceQueues {
    /// Words per port per block: `⌈slot_count / 64⌉`.
    words: usize,
    /// Ports a block has room for: the degree at boot, doubling when an
    /// insertion appends a port past it.
    cap: usize,
    /// Block `b` is `pool[b * cap * words..][..cap * words]`.
    pool: Vec<u64>,
    /// `held[b * cap + p]`: entries port `p` holds in block `b`.
    held: Vec<u32>,
    /// Entries in each block over all ports; zero iff the block is free.
    block_total: Vec<u32>,
    /// Entries each port holds over all blocks.
    port_total: Vec<u32>,
    /// Blocks handed back by drained levels, all-zero.
    free: Vec<u32>,
    /// `(level, block)` of every non-empty level, sorted by level
    /// descending so the most urgent is `last()`.
    levels: Vec<(u32, u32)>,
}

impl AnnounceQueues {
    fn new(slot_count: usize, ports: usize) -> Self {
        AnnounceQueues {
            words: slot_count.div_ceil(64),
            cap: ports,
            pool: Vec::new(),
            held: Vec::new(),
            block_total: Vec::new(),
            port_total: vec![0; ports],
            free: Vec::new(),
            levels: Vec::new(),
        }
    }

    fn add_port(&mut self) {
        if self.port_total.len() == self.cap {
            let cap = (2 * self.cap).max(1);
            let blocks = self.block_total.len();
            let (old, new) = (self.cap * self.words, cap * self.words);
            self.pool = widen(&self.pool, blocks, old, new, 0);
            self.held = widen(&self.held, blocks, self.cap, cap, 0);
            self.cap = cap;
        }
        self.port_total.push(0);
    }

    /// Where `level` sits (or would sit) in the descending list.
    fn find(&self, level: u32) -> Result<usize, usize> {
        self.levels.binary_search_by(|&(l, _)| level.cmp(&l))
    }

    /// Queues `slot` under `level` on each of `ports`; a no-op where it
    /// is already queued.
    fn insert(&mut self, level: u32, slot: u32, ports: impl IntoIterator<Item = usize>) {
        let mut ports = ports.into_iter();
        // Open the level only once there is an entry to put under it.
        let Some(first) = ports.next() else { return };
        let block = match self.find(level) {
            Ok(i) => self.levels[i].1,
            Err(i) => {
                let block = self.free.pop().unwrap_or_else(|| {
                    self.pool.resize(self.pool.len() + self.cap * self.words, 0);
                    self.held.resize(self.held.len() + self.cap, 0);
                    self.block_total.push(0);
                    self.block_total.len() as u32 - 1
                });
                self.levels.insert(i, (level, block));
                block
            }
        } as usize;
        let (w, bit) = (slot as usize / 64, 1 << (slot % 64));
        for p in std::iter::once(first).chain(ports) {
            let word = &mut self.pool[(block * self.cap + p) * self.words + w];
            if *word & bit == 0 {
                *word |= bit;
                self.held[block * self.cap + p] += 1;
                self.port_total[p] += 1;
                self.block_total[block] += 1;
            }
        }
    }

    /// Unqueues `slot` from `level` on every port holding it there.
    fn remove_everywhere(&mut self, level: u32, slot: u32) {
        let Ok(i) = self.find(level) else { return };
        let block = self.levels[i].1 as usize;
        let (w, bit) = (slot as usize / 64, 1 << (slot % 64));
        for p in 0..self.port_total.len() {
            let word = &mut self.pool[(block * self.cap + p) * self.words + w];
            if *word & bit != 0 {
                *word &= !bit;
                self.took(block, p, 1);
            }
        }
        self.release_if_drained(i);
    }

    /// Removes and returns port `p`'s minimum `(level, slot)`.
    fn pop(&mut self, p: usize) -> Option<(u32, u32)> {
        if self.port_total[p] == 0 {
            return None;
        }
        let i = self
            .levels
            .iter()
            .rposition(|&(_, block)| self.held[block as usize * self.cap + p] != 0)
            .expect("a port's total counts entries in listed levels");
        let (level, block) = self.levels[i];
        let block = block as usize;
        let bitset = &mut self.pool[(block * self.cap + p) * self.words..][..self.words];
        let (w, word) = bitset
            .iter_mut()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .expect("a held count counts set bits");
        let bit = word.trailing_zeros();
        *word &= *word - 1;
        self.took(block, p, 1);
        self.release_if_drained(i);
        Some((level, w as u32 * 64 + bit))
    }

    /// Books `count` entries leaving port `p`'s bitset in `block`.
    fn took(&mut self, block: usize, p: usize, count: u32) {
        self.held[block * self.cap + p] -= count;
        self.port_total[p] -= count;
        self.block_total[block] -= count;
    }

    /// Drops level `i` from the list if its block holds nothing any more.
    fn release_if_drained(&mut self, i: usize) {
        let block = self.levels[i].1;
        if self.block_total[block as usize] == 0 {
            self.levels.remove(i);
            self.free.push(block);
        }
    }

    /// Empties port `p`'s queue.
    fn clear(&mut self, p: usize) {
        for i in (0..self.levels.len()).rev() {
            if self.port_total[p] == 0 {
                break;
            }
            let block = self.levels[i].1 as usize;
            let held = self.held[block * self.cap + p];
            if held != 0 {
                self.pool[(block * self.cap + p) * self.words..][..self.words].fill(0);
                self.took(block, p, held);
                self.release_if_drained(i);
            }
        }
    }

    /// Empties every port's queue.
    fn clear_all(&mut self) {
        for p in 0..self.port_total.len() {
            self.clear(p);
        }
    }

    /// True iff no port has anything queued.
    fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

impl Protocol for RepairKernel<'_> {
    type Payload = RepairMsg;
    type Output = WaveState;

    fn init(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        self.announce_everywhere(self.own);
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
        let p = port as usize;
        if self.port_dead.get(p) == Some(&false) {
            // Cache it now, re-derive the slot at round end: the stores of
            // a round's arrivals fetch their rows side by side instead of
            // one `refresh` after the other.
            let heard = if payload.dist >= self.clamp {
                INFINITY
            } else {
                payload.dist
            };
            let s = payload.root as usize;
            *self.near.cache_mut(p, s) = heard;
            self.arrivals.push((s as u64) << 32 | u64::from(port));
        }
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        if self.removed {
            self.arrivals.clear();
            return;
        }
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.sort_unstable();
        // Sorted by slot, so each slot's arrivals are one run: re-derive
        // the slot once per run. A changed slot is re-announced everywhere
        // under its new key. An unchanged one owes a counter-offer on the
        // ports it heard from: the peer's value may have worsened past
        // ours, and the transmit filter decides whether replying is useful.
        for run in arrivals.chunk_by(|a, b| a >> 32 == b >> 32) {
            let s = (run[0] >> 32) as usize;
            if !self.refresh(s) {
                let heard = run.iter().map(|&arrival| arrival as Port as usize);
                self.queues.insert(self.key(s), s as u32, heard);
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
            self.queues.clear_all();
            self.arrivals.clear();
            return RepairAction::Ignored;
        }
        self.grow_ports(ctx.degree());
        if delta.joined {
            // Fresh boot, edgeless: the node thaws, everything resets, and
            // every port it left with is a tombstone (`remove_node` killed
            // them; the crash notification froze us before recording it).
            // This batch's insertions, below, revive theirs.
            self.removed = false;
            self.dist.fill(INFINITY);
            self.parent.fill(u32::MAX);
            self.dist[self.own] = 0;
            self.port_dead.fill(true);
            self.near.blank();
            self.queues.clear_all();
        }
        for &p in delta.removed_ports {
            // A dead port sends nothing, caches nothing, queues nothing.
            let p = p as usize;
            self.port_dead[p] = true;
            self.near.blank_port(p);
            self.queues.clear(p);
        }
        for &(p, _) in delta.inserted_ports {
            // Always a port just appended, so its cells are still blank.
            self.port_dead[p as usize] = false;
        }
        let full_reset = delta.batch >= self.reset_threshold;
        if full_reset {
            // Divergence-adaptive fallback: the batch is too large for
            // per-slot surgery — re-derive every slot from the caches.
            for s in 0..self.slot_count() {
                self.refresh(s);
            }
        } else {
            // Affected-slot invalidation: only distances routed through a
            // dead port can have worsened.
            for &p in delta.removed_ports {
                for s in 0..self.slot_count() {
                    if self.parent[s] == p {
                        self.refresh(s);
                    }
                }
            }
        }
        // Bounded relaxation wave: offer every finite distance on the new
        // ports, closest first; the transmit filter prunes the exchange as
        // the peer's table crosses ours.
        for &(p, _) in delta.inserted_ports {
            for s in 0..self.slot_count() {
                if self.dist[s] != INFINITY {
                    self.queues.insert(self.key(s), s as u32, [p as usize]);
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
        // The distance field is fixed-width over its clamped domain
        // `0..=n`, like the static wave kernels'.
        let n = self.clamp as usize;
        Width::ZERO.id(n).count(n)
    }

    fn stream(&self, payload: &RepairMsg) -> Option<u32> {
        Some(payload.root)
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> WaveState {
        self.state
    }
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use dapsp_congest::Config;

    /// Worst-case repair messages fit `B = 2⌈log₂ n⌉ + 8`.
    #[test]
    fn worst_case_widths_fit_the_budget() {
        for n in [2usize, 3, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).message_budget.unwrap();
            let worst = RepairMsg {
                root: n as u32 - 1,
                dist: n as u32,
            };
            let (mut dist, mut parent) = ([INFINITY], [u32::MAX]);
            let k = RepairKernel {
                own: 0,
                clamp: n as u32,
                reset_threshold: 4,
                near: Neighbours::new(1, 0),
                queues: AnnounceQueues::new(1, 0),
                port_dead: Vec::new(),
                removed: false,
                arrivals: Vec::new(),
                dist: &mut dist,
                parent: &mut parent,
                state: WaveState::new(),
            };
            assert!(k.width(&worst).bits() <= budget, "n={n}");
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
    use crate::kernel::{distance_rows, run_protocol_on, Deal};
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

    /// The shared index is what it says it is: levels strictly
    /// descending, every listed level holding an entry, every block either
    /// listed once or free and all-zero, and the three counts equal to the
    /// popcounts they summarise (capacity past the ports in use included,
    /// which must stay zero).
    fn assert_consistent(q: &AnnounceQueues) {
        let ports = q.port_total.len();
        assert!(ports <= q.cap);
        assert!(q.levels.windows(2).all(|w| w[0].0 > w[1].0));
        let blocks = q.block_total.len();
        assert_eq!(q.pool.len(), blocks * q.cap * q.words);
        assert_eq!(q.held.len(), blocks * q.cap);
        let mut listed = vec![false; blocks];
        for &(_, block) in &q.levels {
            assert!(!std::mem::replace(&mut listed[block as usize], true));
            assert!(q.block_total[block as usize] >= 1);
        }
        for &block in &q.free {
            assert!(!std::mem::replace(&mut listed[block as usize], true));
            assert_eq!(q.block_total[block as usize], 0);
        }
        assert!(listed.iter().all(|&l| l), "a block is listed or free");
        let mut port_total = vec![0; q.cap];
        for block in 0..blocks {
            let mut total = 0;
            for (p, port_total) in port_total.iter_mut().enumerate() {
                let bitset = &q.pool[(block * q.cap + p) * q.words..][..q.words];
                let held: u32 = bitset.iter().map(|word| word.count_ones()).sum();
                assert_eq!(q.held[block * q.cap + p], held);
                *port_total += held;
                total += held;
            }
            assert_eq!(q.block_total[block], total);
        }
        assert_eq!(&port_total[..ports], q.port_total);
        assert!(port_total[ports..].iter().all(|&t| t == 0));
        assert_eq!(q.levels.len(), blocks - q.free.len());
    }

    /// Ports the sequence starts with and grows to, one `add_port` at a
    /// time: across every capacity doubling from 2 to 128 and the 64-port
    /// mark.
    const PORTS: std::ops::RangeInclusive<usize> = 2..=70;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random counter-offer / re-key-on-change / pop / clear /
        /// port-death / port-growth sequences pop identically from the
        /// shared level index and from the scan model, with identical
        /// emptiness and a consistent index after every step.
        #[test]
        fn level_queues_pop_like_the_scan_they_replaced(
            shape in 0usize..6,
            ops in proptest::collection::vec(any::<u64>(), 0..800),
        ) {
            let slots = [1usize, 2, 63, 64, 65, 200][shape];
            // Few levels, so entries collide on a level; `clamp` itself is
            // the "unreachable" level every INFINITY distance queues under.
            let clamp = 6u32;
            let mut dist = vec![INFINITY; slots];
            let mut dead = vec![false; *PORTS.start()];
            let mut q = AnnounceQueues::new(slots, *PORTS.start());
            let mut model = ScanModel { pending: vec![BTreeSet::new(); *PORTS.start()] };
            // The kernel's `refresh`: a changed distance clears the slot
            // under the stale level on every port and sets it under the
            // new level on every live port.
            let rekey = |q: &mut AnnounceQueues,
                         model: &mut ScanModel,
                         dist: &mut [u32],
                         dead: &[bool],
                         s: usize,
                         level: u32| {
                let new = if level == clamp { INFINITY } else { level };
                let stale = dist[s].min(clamp);
                if new != dist[s] {
                    dist[s] = new;
                    q.remove_everywhere(stale, s as u32);
                    let live = (0..dead.len()).filter(|&p| !dead[p]);
                    q.insert(level, s as u32, live.clone());
                    for p in live {
                        model.pending[p].insert(s as u32);
                    }
                }
            };
            for &op in &ops {
                let p = (op >> 8) as usize % dead.len();
                let s = (op >> 16) as usize % slots;
                match op % 16 {
                    // Counter-offer: queue under the current key.
                    0..=4 if !dead[p] => {
                        q.insert(dist[s].min(clamp), s as u32, [p]);
                        model.pending[p].insert(s as u32);
                    }
                    5..=7 => {
                        let level = (op >> 32) as u32 % (clamp + 1);
                        rekey(&mut q, &mut model, &mut dist, &dead, s, level);
                    }
                    8..=10 => prop_assert_eq!(q.pop(p), model.pop(p, &dist, clamp)),
                    // Port death clears the queue; nothing is queued on a
                    // dead port, so a revived one starts empty.
                    11 | 12 => {
                        dead[p] = op % 16 == 11 && !dead[p];
                        q.clear(p);
                        model.pending[p].clear();
                    }
                    // An insertion appends a (live, empty) port.
                    13..=15 if dead.len() < *PORTS.end() => {
                        q.add_port();
                        dead.push(false);
                        model.pending.push(BTreeSet::new());
                    }
                    _ => {}
                }
                prop_assert_eq!(q.is_empty(), model.is_empty());
                assert_consistent(&q);
            }
            // Whatever the ops reached, finish at full width: grow to the
            // last port, re-key every slot across all of them, and drain.
            while dead.len() < *PORTS.end() {
                q.add_port();
                dead.push(false);
                model.pending.push(BTreeSet::new());
                assert_consistent(&q);
            }
            for s in 0..slots {
                let level = (dist[s].min(clamp) + 1 + s as u32) % (clamp + 1);
                rekey(&mut q, &mut model, &mut dist, &dead, s, level);
                assert_consistent(&q);
            }
            for p in 0..dead.len() {
                loop {
                    let head = q.pop(p);
                    prop_assert_eq!(head, model.pop(p, &dist, clamp));
                    if head.is_none() {
                        break;
                    }
                }
                assert_consistent(&q);
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.free.len(), q.block_total.len());
        }
    }

    /// A hosted [`RepairKernel`] whose output is the number of level
    /// blocks its queues still own when the run ends.
    struct BlocksAtFinish<'a>(RepairKernel<'a>);

    impl Protocol for BlocksAtFinish<'_> {
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
            self.0.queues.levels.len()
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
        let (mut dist, mut parent) = distance_rows(n, n);
        let mut deal = Deal::new(&mut dist, &mut parent);
        let report = run_protocol_on(&topology, config, |ctx| {
            BlocksAtFinish(RepairKernel::all_roots(ctx, deal.row(ctx)))
        })
        .expect("run quiesces");
        assert_eq!(report.outputs, vec![0; n]);
    }
}
