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
//! A distance is worked out as its announcements arrive. A neighbour's
//! distance only falls, so each cache only falls, and the minimum over
//! the caches needs no scan: in `on_message` a strictly smaller
//! `cache + 1` takes the slot and its parent port, an equal one arriving
//! on a lower port takes just the parent port (lowest port wins, as a
//! scan would pick), and anything larger changes nothing. The first time
//! a slot's distance falls in a round, the kernel records the distance
//! the round began with.
//!
//! Which pair goes out is Algorithm 2's per-edge list `L_i` with its
//! `(dist, id)` priority: every port has an announcement queue keyed
//! `(dist, slot)`. Before anything is popped, the round end re-keys exactly
//! the recorded slots from their recorded distance to their new one, so a
//! queued key is always the slot's current distance, hence the same on
//! every port. So the node keeps **one** descending list of its non-empty
//! distance levels (`AnnounceQueues`), each level owning one slot bitset,
//! and every port one bitset of the slots it still owes; a per-slot count
//! of the owing ports takes a slot out of its level when the last port
//! pops it. A port's most urgent entry is the lowest set bit of `level &
//! owed` in the first level (from the head) where that is non-zero, and
//! re-keying a slot costs two searches of the list, two bit flips and one
//! bit per port. A level's bitset exists only while some port owes one of
//! its slots (bitsets are recycled through a free list), so a node's
//! queues cost `O((live levels + ports) · ⌈slots/64⌉)` words and a count
//! per slot, not `O(n · ecc)` per port.
//!
//! What the neighbours said and what they were told is one slot-major
//! table (`Neighbours`): slot `s`'s row is `[cache[0..ports] |
//! told[0..ports]]`, so the transmit filter reads the row the pop just
//! named — one or two cache lines where per-port rows were `2·deg`, in a
//! run that is memory-bound. `told` is the "ever told" half of that
//! filter: a popped slot goes out iff it improves on what the peer
//! announced or the peer was told a distance for it before.

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
    /// The slots whose distance fell this round, each with the distance
    /// the round began with — the key it is still queued under.
    fell: Vec<(u32, u32)>,
    /// Bit `s` is set iff slot `s` is in `fell`.
    fell_mask: Vec<u64>,
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
            fell: Vec::new(),
            fell_mask: vec![0; n.div_ceil(64)],
            dist: row.dist,
            parent: row.parent,
            state: WaveState::new(),
        }
    }

    /// Port `p` announces `dist` for slot `s`: cache it and work the
    /// slot's distance and parent port out at once (see the module docs).
    fn hear(&mut self, p: usize, s: usize, dist: u32) {
        let cache = self.near.cache_mut(p, s);
        // A neighbour's distance only falls: what the incremental minimum
        // rests on.
        debug_assert!(dist <= *cache, "port {p} raised slot {s} to {dist}");
        *cache = dist;
        let (via, port) = (dist + 1, p as Port);
        if via < self.dist[s] {
            let (w, bit) = (s / 64, 1 << (s % 64));
            if self.fell_mask[w] & bit == 0 {
                self.fell_mask[w] |= bit;
                self.fell.push((s as u32, self.dist[s]));
            }
            self.dist[s] = via;
            self.parent[s] = port;
        } else if via == self.dist[s] && port < self.parent[s] {
            self.parent[s] = port;
        }
    }

    /// Re-keys every slot whose distance fell this round from the
    /// distance it began the round with to its new one, on every port.
    fn requeue_fallen(&mut self) {
        for (s, stale) in self.fell.drain(..) {
            self.fell_mask[s as usize / 64] &= !(1 << (s % 64));
            if stale != INFINITY {
                self.state.relaxations += 1;
            }
            self.queues.requeue(stale, self.dist[s as usize], s);
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
}

/// The announcement queues of one node: per port a min-priority queue over
/// `(level, slot)`, where `level` is the distance the slot was queued
/// under — the same on every port and never stale (see the module docs),
/// which is why the ports can share one level index.
///
/// `levels` lists the node's non-empty levels, most urgent last. Each owns
/// one block of `words` words carved from a pool: the bitset of the slots
/// queued under it that some port still owes. A slot sits in at most one
/// level; port `p` owes the slots of its `owed` bitset, `owing` counts the
/// owing ports per slot, and `port_total` lets a port owing nothing be
/// skipped in `O(1)`. Nothing allocates once the pool has reached its
/// high-water mark.
struct AnnounceQueues {
    /// Words per bitset: `⌈slot_count / 64⌉`.
    words: usize,
    /// The node's degree.
    ports: usize,
    /// Block `b` is `pool[b * words..][..words]`.
    pool: Vec<u64>,
    /// Port `p`'s owed bitset is `owed[p * words..][..words]`.
    owed: Vec<u64>,
    /// Per slot: how many ports' owed bitsets hold it.
    owing: Vec<u32>,
    /// Per port: how many slots its owed bitset holds.
    port_total: Vec<u32>,
    /// Blocks handed back by drained levels, all-zero.
    free: Vec<u32>,
    /// `(level, block)` of every non-empty level, sorted by level
    /// descending so the most urgent is `last()`.
    levels: Vec<(u32, u32)>,
}

impl AnnounceQueues {
    fn new(slot_count: usize, ports: usize) -> Self {
        let words = slot_count.div_ceil(64);
        AnnounceQueues {
            words,
            ports,
            pool: Vec::new(),
            owed: vec![0; ports * words],
            owing: vec![0; slot_count],
            port_total: vec![0; ports],
            free: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// Where `level` sits (or would sit) in the descending list.
    fn find(&self, level: u32) -> Result<usize, usize> {
        self.levels.binary_search_by(|&(l, _)| level.cmp(&l))
    }

    /// Queues `slot` under `level` on every port, first lifting it from
    /// `stale`, the level it sits under while any port still owes it.
    fn requeue(&mut self, stale: u32, level: u32, slot: u32) {
        // Open the level only once there is an entry to put under it.
        if self.ports == 0 {
            return;
        }
        let (s, w, bit) = (slot as usize, slot as usize / 64, 1 << (slot % 64));
        if self.owing[s] != 0 {
            let i = self.find(stale).expect("an owed slot sits in its level");
            self.lift(i, w, bit);
        }
        let block = match self.find(level) {
            Ok(i) => self.levels[i].1,
            Err(i) => {
                let block = self.free.pop().unwrap_or_else(|| {
                    self.pool.resize(self.pool.len() + self.words, 0);
                    (self.pool.len() / self.words - 1) as u32
                });
                self.levels.insert(i, (level, block));
                block
            }
        } as usize;
        self.pool[block * self.words + w] |= bit;
        for (p, total) in self.port_total.iter_mut().enumerate() {
            let word = &mut self.owed[p * self.words + w];
            *total += u32::from(*word & bit == 0);
            *word |= bit;
        }
        self.owing[s] = self.ports as u32;
    }

    /// Clears `bit` of word `w` in level `i`'s block, dropping the level
    /// from the list once its block holds nothing.
    fn lift(&mut self, i: usize, w: usize, bit: u64) {
        let block = self.levels[i].1;
        let bitset = &mut self.pool[block as usize * self.words..][..self.words];
        bitset[w] &= !bit;
        if bitset.iter().all(|&word| word == 0) {
            self.levels.remove(i);
            self.free.push(block);
        }
    }

    /// Removes and returns port `p`'s minimum `(level, slot)`.
    fn pop(&mut self, p: usize) -> Option<(u32, u32)> {
        if self.port_total[p] == 0 {
            return None;
        }
        let owed = &self.owed[p * self.words..][..self.words];
        let (i, w, word) = (0..self.levels.len())
            .rev()
            .find_map(|i| {
                let block = self.levels[i].1 as usize;
                let bitset = &self.pool[block * self.words..][..self.words];
                let (w, word) = bitset
                    .iter()
                    .zip(owed)
                    .map(|(queued, owed)| queued & owed)
                    .enumerate()
                    .find(|&(_, word)| word != 0)?;
                Some((i, w, word))
            })
            .expect("a port's total counts slots in listed levels");
        let (bit, s) = (
            word & word.wrapping_neg(),
            w * 64 + word.trailing_zeros() as usize,
        );
        let level = self.levels[i].0;
        self.owed[p * self.words + w] &= !bit;
        self.port_total[p] -= 1;
        self.owing[s] -= 1;
        if self.owing[s] == 0 {
            self.lift(i, w, bit);
        }
        Some((level, s as u32))
    }

    /// True iff no port owes anything.
    fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

impl Protocol for RepairKernel<'_> {
    type Payload = RepairMsg;
    type Output = WaveState;

    fn init(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        self.queues.requeue(INFINITY, 0, self.own as u32);
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
        self.hear(port as usize, payload.root as usize, payload.dist);
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<RepairMsg>) {
        self.requeue_fallen();
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

    /// A kernel for node `own` of `n` with `ports` neighbours, outside any
    /// run: its rows are `dist` and `parent`, of `n` cells each.
    pub(super) fn detached<'a>(
        own: usize,
        n: usize,
        ports: usize,
        dist: &'a mut [u32],
        parent: &'a mut [Port],
    ) -> RepairKernel<'a> {
        dist[own] = 0;
        RepairKernel {
            own,
            n: n as u32,
            near: Neighbours::new(n, ports),
            queues: AnnounceQueues::new(n, ports),
            fell: Vec::new(),
            fell_mask: vec![0; n.div_ceil(64)],
            dist,
            parent,
            state: WaveState::new(),
        }
    }

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
            let mut k = detached(0, 1, 0, &mut dist, &mut parent);
            k.n = n as u32;
            assert!(k.width(&worst).bits() <= budget, "n={n}");
        }
    }
}

#[cfg(test)]
mod queue_tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::width_tests::detached;
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

    /// Whether bit `s` of `bits` is set.
    fn has(bits: &[u64], s: usize) -> bool {
        bits[s / 64] >> (s % 64) & 1 == 1
    }

    /// The shared index is what it says it is: levels strictly
    /// descending, each listing a non-empty block; every block listed
    /// once or free and all-zero; a slot in a level's bitset iff some port
    /// still owes it, in exactly one level then; each slot's owing count
    /// equal to the owed bits set for it, and each port's total to the
    /// popcount of its owed bitset.
    fn assert_consistent(q: &AnnounceQueues) {
        let words = q.words;
        assert_eq!(q.port_total.len(), q.ports);
        assert_eq!(q.owed.len(), q.ports * words);
        assert!(q.levels.windows(2).all(|w| w[0].0 > w[1].0));
        assert_eq!(q.pool.len() % words, 0);
        let bitset = |block: u32| &q.pool[block as usize * words..][..words];
        let mut listed = vec![false; q.pool.len() / words];
        for &(_, block) in &q.levels {
            assert!(!std::mem::replace(&mut listed[block as usize], true));
            assert!(bitset(block).iter().any(|&word| word != 0));
        }
        for &block in &q.free {
            assert!(!std::mem::replace(&mut listed[block as usize], true));
            assert!(bitset(block).iter().all(|&word| word == 0));
        }
        assert!(listed.iter().all(|&l| l), "a block is listed or free");
        let owed = |p: usize| &q.owed[p * words..][..words];
        for (s, &owing) in q.owing.iter().enumerate() {
            let ports = (0..q.ports).filter(|&p| has(owed(p), s)).count();
            assert_eq!(owing as usize, ports, "slot {s}'s owing count");
            let levels = q.levels.iter().filter(|&&(_, b)| has(bitset(b), s));
            assert_eq!(levels.count(), usize::from(ports > 0), "slot {s}'s levels");
        }
        for p in 0..q.ports {
            let total: u32 = owed(p).iter().map(|word| word.count_ones()).sum();
            assert_eq!(q.port_total[p], total, "port {p}'s total");
        }
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
            // The kernel's round-end re-key: a changed distance moves the
            // slot from the stale level to the new one and makes every
            // port owe it.
            let rekey = |q: &mut AnnounceQueues,
                         model: &mut ScanModel,
                         dist: &mut [u32],
                         s: usize,
                         level: u32| {
                if level != dist[s] {
                    q.requeue(dist[s], level, s as u32);
                    dist[s] = level;
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
            prop_assert_eq!(q.free.len() * q.words, q.pool.len());
        }

        /// Working a distance out as each announcement arrives gives, after
        /// every round, what a full `min (cache + 1, port)` rescan of every
        /// slot gives, and records exactly the slots that fell, each with
        /// its distance from the round's start; the round end then queues
        /// each of them under its new distance on every port. Arrivals are
        /// random per-(port, slot) non-increasing sequences, repeats
        /// included, batched into random rounds.
        #[test]
        fn distances_on_arrival_match_the_full_scan(
            ports in 1usize..9,
            slots in 1usize..70,
            own in 0usize..70,
            arrivals in proptest::collection::vec(any::<u64>(), 0..400),
        ) {
            let own = own % slots;
            let (mut dist, mut parent) = (vec![INFINITY; slots], vec![u32::MAX; slots]);
            let mut k = detached(own, slots, ports, &mut dist, &mut parent);
            let mut cache = vec![vec![INFINITY; slots]; ports];
            let mut before = k.dist.to_vec();
            for (i, &op) in arrivals.iter().enumerate() {
                let (p, s) = (op as usize % ports, (op >> 8) as usize % slots);
                let heard = match cache[p][s] {
                    INFINITY => (op >> 16) as u32 % slots as u32,
                    last => last.saturating_sub((op >> 40) as u32 % 4),
                };
                cache[p][s] = heard;
                k.hear(p, s, heard);
                if (op >> 48) % 4 != 0 && i + 1 < arrivals.len() {
                    continue;
                }
                let scan: Vec<(u32, Port)> = (0..slots)
                    .map(|s| {
                        let best = (0..ports)
                            .map(|p| (cache[p][s].saturating_add(1), p as Port))
                            .min()
                            .filter(|&(d, _)| d != INFINITY && s != own);
                        best.unwrap_or((if s == own { 0 } else { INFINITY }, u32::MAX))
                    })
                    .collect();
                let worked: Vec<(u32, Port)> =
                    k.dist.iter().copied().zip(k.parent.iter().copied()).collect();
                prop_assert_eq!(&worked, &scan);
                let mut fell = k.fell.clone();
                fell.sort_unstable();
                let want: Vec<(u32, u32)> = (0..slots)
                    .filter(|&s| scan[s].0 < before[s])
                    .map(|s| (s as u32, before[s]))
                    .collect();
                prop_assert_eq!(&fell, &want);
                let relaxed = k.state.relaxations;
                k.requeue_fallen();
                let finite = want.iter().filter(|&&(_, d)| d != INFINITY).count() as u64;
                prop_assert_eq!(k.state.relaxations, relaxed + finite);
                prop_assert!(k.fell.is_empty() && k.fell_mask.iter().all(|&w| w == 0));
                assert_consistent(&k.queues);
                for &(s, _) in &want {
                    let i = k.queues.find(k.dist[s as usize]).expect("its level is listed");
                    let block = k.queues.levels[i].1 as usize;
                    prop_assert!(has(&k.queues.pool[block * k.queues.words..], s as usize));
                    prop_assert_eq!(k.queues.owing[s as usize] as usize, ports);
                }
                before = k.dist.to_vec();
            }
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
