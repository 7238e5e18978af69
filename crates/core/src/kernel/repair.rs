//! [`RepairKernel`]: the distance vector behind
//! [`apsp::run_churned_on`](crate::apsp::run_churned_on) — the run that
//! recomputes every distance on the graph a
//! [`TopologyPlan`](dapsp_congest::TopologyPlan) leaves behind. The plan
//! is applied on the host before the run; the kernel itself sees one
//! fixed network, like every other kernel.
//!
//! Unlike the write-once [`WaveKernel`](super::WaveKernel), it needs no
//! `T_1` and no pebble schedule, so a disconnected post-change graph is
//! fine: unreachable pairs stay [`INFINITY`]. Every node remembers the
//! last distance each neighbour announced for each root slot and the last
//! value it told each neighbour; a slot's distance is the minimum over
//! those caches plus one. The network is fixed and every distance starts
//! at [`INFINITY`], so a distance only ever falls, and every announced
//! value is a real path length below `n`.
//!
//! One message per port per round carries one `(root, dist)` pair —
//! `⌈log₂ n⌉ + ⌈log₂ (n+1)⌉ ≤ B` bits. A node keeps one slot per root,
//! slot `r` for node `r`, and writes its distances and parent ports into
//! the run's matrices like the static kernels do.
//!
//! Which pair goes out is Algorithm 2's per-edge list `L_i` with its
//! `(dist, id)` priority: every port has an announcement queue keyed
//! `(dist, slot)`. A slot's key is its *current distance*, hence the
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

use dapsp_congest::{NodeContext, Port, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use super::rows::Row;
use super::wave::WaveState;

/// The wire message: "my current distance to `root` is `dist`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairMsg {
    /// The id of the root the distance belongs to.
    pub root: u32,
    /// The sender's distance to that root, below `n`.
    pub dist: u32,
}

/// Multi-root distance-vector computation (see module docs). Like the
/// [`WaveKernel`](super::WaveKernel), it keeps its distance and parent
/// port per root slot in the [`Row`] its pipeline lends it.
pub struct RepairKernel<'a> {
    /// The slot this node owns distance 0 in: its own id. Slot order is
    /// id order, so the `(dist, slot)` priority is Algorithm 2's
    /// `(dist, id)`.
    own: usize,
    /// `n`: every announced distance is below it, and the wire's distance
    /// field is sized for `0..=n`.
    n: u32,
    /// Per slot and port: the last distance the neighbor announced
    /// (`cache`, [`INFINITY`] = nothing heard) and the last distance
    /// *we* announced (`told`, [`INFINITY`] = never told anything).
    near: Neighbours,
    /// Per-port announcement queues; drained one useful entry per port
    /// per round, priority `(dist, slot)`.
    queues: AnnounceQueues,
    /// Where this round's announcements landed (their distances are in
    /// the table already): `slot << 32 | port`, one
    /// integer so that grouping by slot is a branchless small sort.
    arrivals: Vec<u64>,
    /// Distance per root slot, this node's row of the run's matrix.
    dist: &'a mut [u32],
    /// Parent port per root slot (`u32::MAX` = none).
    parent: &'a mut [Port],
    state: WaveState,
}

impl<'a> RepairKernel<'a> {
    /// `n` slots indexed by root id; every node owns its own.
    pub fn all_roots(ctx: &NodeContext<'_>, row: Row<'a>) -> Self {
        let n = ctx.num_nodes();
        let degree = ctx.degree();
        debug_assert_eq!(row.dist.len(), n);
        let own = ctx.node_id() as usize;
        row.dist[own] = 0;
        RepairKernel {
            own,
            n: n as u32,
            near: Neighbours::new(n, degree),
            queues: AnnounceQueues::new(n, degree),
            arrivals: Vec::new(),
            dist: row.dist,
            parent: row.parent,
            state: WaveState::new(),
        }
    }

    /// Recomputes slot `s` from the caches, which hold an announcement
    /// for it; returns true iff the value changed. Parent = lowest port
    /// achieving the minimum.
    fn recompute(&mut self, s: usize) -> bool {
        let (best, best_port) = if self.own == s {
            (0, u32::MAX)
        } else {
            self.near.nearest(s)
        };
        debug_assert!(best < self.n, "slot {s} derived {best} from its caches");
        let changed = self.dist[s] != best;
        if changed && self.dist[s] != INFINITY {
            self.state.relaxations += 1;
        }
        self.dist[s] = best;
        self.parent[s] = best_port;
        changed
    }

    /// [`recompute`](Self::recompute)s slot `s` and, when its value
    /// changed, queues it on every port under the new distance — first
    /// lifting the entries still queued under the old one, which is what
    /// keeps every queued key current.
    fn refresh(&mut self, s: usize) {
        let stale = self.dist[s];
        if self.recompute(s) {
            self.queues.remove_everywhere(stale, s as u32);
            self.queues.insert(self.dist[s], s as u32);
        }
    }

    /// One announcement per port: pop queued slots in `(dist, slot)`
    /// priority, discarding entries the peer demonstrably cannot use — no
    /// improvement over the peer's cached distance with nothing previously
    /// told to correct. A port with nothing queued costs one load.
    fn transmit(&mut self, tx: &mut Tx<RepairMsg>) {
        for p in 0..self.near.ports {
            while let Some((dist, s)) = self.queues.pop(p) {
                let su = s as usize;
                debug_assert_eq!(dist, self.dist[su], "slot {s} queued under a stale key");
                let (cached, told) = self.near.cells(p, su);
                // A distance only falls, so a queued one was never told.
                debug_assert_ne!(dist, told, "slot {s} queued after it was told");
                if dist + 1 < cached || told != INFINITY {
                    *self.near.told_mut(p, su) = dist;
                    tx.send(p as Port, RepairMsg { root: s, dist });
                    break;
                }
            }
        }
    }
}

/// The node's neighbour table (see the module docs), slot-major: row `s`
/// is `cells[s * 2 * ports..][..2 * ports]`, laid out `[cache[0..ports] |
/// told[0..ports]]`, every cell [`INFINITY`] until heard from or told.
struct Neighbours {
    slots: usize,
    ports: usize,
    cells: Vec<u32>,
}

impl Neighbours {
    fn new(slots: usize, ports: usize) -> Self {
        Neighbours {
            slots,
            ports,
            cells: vec![INFINITY; slots * 2 * ports],
        }
    }

    /// The index of port `p`'s `cache` cell for slot `s`; its `told` cell
    /// is `ports` further on.
    fn locate(&self, p: usize, s: usize) -> usize {
        debug_assert!(p < self.ports && s < self.slots);
        s * 2 * self.ports + p
    }

    /// `(cache, told)` of port `p` for slot `s`.
    fn cells(&self, p: usize, s: usize) -> (u32, u32) {
        let i = self.locate(p, s);
        (self.cells[i], self.cells[i + self.ports])
    }

    fn cache_mut(&mut self, p: usize, s: usize) -> &mut u32 {
        let i = self.locate(p, s);
        &mut self.cells[i]
    }

    fn told_mut(&mut self, p: usize, s: usize) -> &mut u32 {
        let i = self.locate(p, s) + self.ports;
        &mut self.cells[i]
    }

    /// The minimum `(cache + 1, port)` over all ports for slot `s`; the
    /// distance is [`INFINITY`] when nobody offers one.
    fn nearest(&self, s: usize) -> (u32, Port) {
        let row = &self.cells[s * 2 * self.ports..][..self.ports];
        let mut best = u64::MAX;
        for (p, &c) in row.iter().enumerate() {
            best = best.min(u64::from(c.saturating_add(1)) << 32 | p as u64);
        }
        ((best >> 32) as u32, best as Port)
    }
}

/// The announcement queues of one node: per port a min-priority queue over
/// `(level, slot)`, where `level` is the distance the slot was queued
/// under — the same on every port and never stale (see the module docs),
/// which is why the ports can share one level index.
///
/// `levels` lists the node's non-empty levels, most urgent last. Each owns
/// one block of `ports × words` words carved from a pool — port `p`'s slot
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
    /// The node's degree.
    ports: usize,
    /// Block `b` is `pool[b * ports * words..][..ports * words]`.
    pool: Vec<u64>,
    /// `held[b * ports + p]`: entries port `p` holds in block `b`.
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
            ports,
            pool: Vec::new(),
            held: Vec::new(),
            block_total: Vec::new(),
            port_total: vec![0; ports],
            free: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// Where `level` sits (or would sit) in the descending list.
    fn find(&self, level: u32) -> Result<usize, usize> {
        self.levels.binary_search_by(|&(l, _)| level.cmp(&l))
    }

    /// Queues `slot` under `level` on every port; a no-op where it is
    /// already queued.
    fn insert(&mut self, level: u32, slot: u32) {
        // Open the level only once there is an entry to put under it.
        if self.ports == 0 {
            return;
        }
        let block = match self.find(level) {
            Ok(i) => self.levels[i].1,
            Err(i) => {
                let block = self.free.pop().unwrap_or_else(|| {
                    self.pool
                        .resize(self.pool.len() + self.ports * self.words, 0);
                    self.held.resize(self.held.len() + self.ports, 0);
                    self.block_total.push(0);
                    self.block_total.len() as u32 - 1
                });
                self.levels.insert(i, (level, block));
                block
            }
        } as usize;
        let (w, bit) = (slot as usize / 64, 1 << (slot % 64));
        for p in 0..self.ports {
            let word = &mut self.pool[(block * self.ports + p) * self.words + w];
            if *word & bit == 0 {
                *word |= bit;
                self.held[block * self.ports + p] += 1;
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
        for p in 0..self.ports {
            let word = &mut self.pool[(block * self.ports + p) * self.words + w];
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
            .rposition(|&(_, block)| self.held[block as usize * self.ports + p] != 0)
            .expect("a port's total counts entries in listed levels");
        let (level, block) = self.levels[i];
        let block = block as usize;
        let bitset = &mut self.pool[(block * self.ports + p) * self.words..][..self.words];
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
        self.held[block * self.ports + p] -= count;
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

    /// True iff no port has anything queued.
    fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

impl Protocol for RepairKernel<'_> {
    type Payload = RepairMsg;
    type Output = WaveState;

    fn init(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        self.queues.insert(0, self.own as u32);
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
        debug_assert!(payload.dist < self.n, "announced {}", payload.dist);
        // Cache it now, re-derive the slot at round end: the stores of a
        // round's arrivals fetch their rows side by side instead of one
        // `refresh` after the other.
        let s = payload.root as usize;
        *self.near.cache_mut(port as usize, s) = payload.dist;
        self.arrivals.push((s as u64) << 32 | u64::from(port));
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.sort_unstable();
        // Sorted by slot, so each slot's arrivals are one run: re-derive
        // the slot once per run.
        for run in arrivals.chunk_by(|a, b| a >> 32 == b >> 32) {
            self.refresh((run[0] >> 32) as usize);
        }
        arrivals.clear();
        self.arrivals = arrivals;
        self.transmit(tx);
    }

    fn is_active(&self) -> bool {
        !self.queues.is_empty()
    }

    fn width(&self, _payload: &RepairMsg) -> Width {
        // The distance field is fixed-width over `0..=n`, like the static
        // wave kernels'.
        let n = self.n as usize;
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
            let budget = Config::for_n(n).bandwidth_bits;
            let worst = RepairMsg {
                root: n as u32 - 1,
                dist: n as u32 - 1,
            };
            let (mut dist, mut parent) = ([INFINITY], [u32::MAX]);
            let k = RepairKernel {
                own: 0,
                n: n as u32,
                near: Neighbours::new(1, 0),
                queues: AnnounceQueues::new(1, 0),
                arrivals: Vec::new(),
                dist: &mut dist,
                parent: &mut parent,
                state: WaveState::new(),
            };
            assert!(k.width(&worst).bits() <= budget, "n={n}");
        }
    }
}

#[cfg(test)]
mod queue_tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::kernel::{distance_rows, run_protocol_on, Deal};
    use dapsp_congest::{churned_topology, Config, TopologyPlan};
    use dapsp_graph::generators;

    /// The implementation `AnnounceQueues` replaced, kept as the model:
    /// per-port slot sets whose head is found by scanning for the minimum
    /// `(dist, slot)` under the *current* distances.
    struct ScanModel {
        pending: Vec<BTreeSet<u32>>,
    }

    impl ScanModel {
        fn pop(&mut self, p: usize, dist: &[u32]) -> Option<(u32, u32)> {
            let head = self.pending[p]
                .iter()
                .map(|&s| (dist[s as usize], s))
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
    /// popcounts they summarise.
    fn assert_consistent(q: &AnnounceQueues) {
        assert_eq!(q.port_total.len(), q.ports);
        assert!(q.levels.windows(2).all(|w| w[0].0 > w[1].0));
        let blocks = q.block_total.len();
        assert_eq!(q.pool.len(), blocks * q.ports * q.words);
        assert_eq!(q.held.len(), blocks * q.ports);
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
        let mut port_total = vec![0; q.ports];
        for block in 0..blocks {
            let mut total = 0;
            for (p, port_total) in port_total.iter_mut().enumerate() {
                let bitset = &q.pool[(block * q.ports + p) * q.words..][..q.words];
                let held: u32 = bitset.iter().map(|word| word.count_ones()).sum();
                assert_eq!(q.held[block * q.ports + p], held);
                *port_total += held;
                total += held;
            }
            assert_eq!(q.block_total[block], total);
        }
        assert_eq!(port_total, q.port_total);
        assert_eq!(q.levels.len(), blocks - q.free.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random re-key-on-change / pop sequences pop identically from
        /// the shared level index and from the scan model, with identical
        /// emptiness and a consistent index after every step — on 1 to 70
        /// ports, across the 64-port mark.
        #[test]
        fn level_queues_pop_like_the_scan_they_replaced(
            shape in 0usize..6,
            ports in 1usize..71,
            ops in proptest::collection::vec(any::<u64>(), 0..800),
        ) {
            let slots = [1usize, 2, 63, 64, 65, 200][shape];
            // Few levels, so entries collide on a level.
            let levels = 6u32;
            let mut dist = vec![INFINITY; slots];
            let mut q = AnnounceQueues::new(slots, ports);
            let mut model = ScanModel { pending: vec![BTreeSet::new(); ports] };
            // The kernel's `refresh`: a changed distance clears the slot
            // under the stale level on every port and sets it under the
            // new level on every port.
            let rekey = |q: &mut AnnounceQueues,
                         model: &mut ScanModel,
                         dist: &mut [u32],
                         s: usize,
                         level: u32| {
                if level != dist[s] {
                    q.remove_everywhere(dist[s], s as u32);
                    dist[s] = level;
                    q.insert(level, s as u32);
                    for pending in &mut model.pending {
                        pending.insert(s as u32);
                    }
                }
            };
            for &op in &ops {
                let p = (op >> 8) as usize % ports;
                let s = (op >> 16) as usize % slots;
                if op % 2 == 0 {
                    let level = (op >> 32) as u32 % levels;
                    rekey(&mut q, &mut model, &mut dist, s, level);
                } else {
                    prop_assert_eq!(q.pop(p), model.pop(p, &dist));
                }
                prop_assert_eq!(q.is_empty(), model.is_empty());
                assert_consistent(&q);
            }
            // Whatever the ops reached, re-key every slot and drain.
            for s in 0..slots {
                let level = (dist[s].wrapping_add(1) + s as u32) % levels;
                rekey(&mut q, &mut model, &mut dist, s, level);
                assert_consistent(&q);
            }
            for p in 0..ports {
                loop {
                    let head = q.pop(p);
                    prop_assert_eq!(head, model.pop(p, &dist));
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
    /// distance levels per port over its lifetime, on a severed path with
    /// an isolated node too, yet once the run has quiesced no node's
    /// queues own a single level block.
    #[test]
    fn quiesced_queues_hold_no_level_blocks() {
        let n = 48;
        let plan = TopologyPlan::new()
            .with_remove(1, 30, 31)
            .with_crash(1, 10)
            .with_insert(1, 0, 47);
        let topology = churned_topology(&generators::path(n).to_topology(), &plan).unwrap();
        let config = Config::for_n(n);
        let (mut dist, mut parent) = distance_rows(n, n);
        let mut deal = Deal::new(&mut dist, &mut parent);
        let report = run_protocol_on(&topology, config, |ctx| {
            BlocksAtFinish(RepairKernel::all_roots(ctx, deal.row(ctx)))
        })
        .expect("run quiesces");
        assert_eq!(report.outputs, vec![0; n]);
    }
}
