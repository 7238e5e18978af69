//! [`GrowthKernel`]: Algorithm 2's simultaneous `(dist, id)` growth — the
//! one kernel behind S-SP ([`ssp::grow`](crate::ssp)) and, with every
//! node a source, the distance vector of
//! [`apsp::run_churned_on`](crate::apsp::run_churned_on) (DESIGN.md §10).
//!
//! Every node keeps, per edge, the list `L_i` of the sources it still owes
//! that neighbour, sends the most urgent one per edge per round in
//! `(dist, id)` priority, keeps the best claim per id and re-announces
//! improvements. Sources own the slots of the run's [`SourceSlots`] in id
//! order, so a queue's `(dist, slot)` order is the paper's `(dist, id)`.
//! No `T_1` is needed, so unreachable slots just stay [`INFINITY`]. A
//! message carries the sender's distance, `⌈log₂ n⌉ + ⌈log₂ (n+1)⌉ ≤ B`
//! bits with the root id.
//!
//! The network is fixed, so a distance only falls: it is worked out as its
//! announcements arrive, and the first fall of a slot in a round marks it
//! in the node's fell bitset; the round end re-keys exactly the marked
//! slots, so every queued key is the slot's current distance, the same on
//! every port. That is why the ports share one level index
//! (`LevelQueues`) with an owed bitset each.
//!
//! What S-SP and the distance vector do differently is one `Rule`, set by
//! the pipeline's constructor, each variant carrying the state only it
//! needs:
//!
//! * [`GrowthKernel::ssp`] — sources first send at their first round end;
//!   an improvement is listed on every port but the one it came in by (an
//!   entry that port still owes stays); a port's head is sent as it is;
//!   the parent is the first strictly better arrival; the round's arrivals
//!   are judged at its end, against its final distance and parent, for
//!   Lemma 7's cycle candidates.
//! * [`GrowthKernel::distance_vector`] — every node sends in `init`; an
//!   improvement is owed on every port, and a popped slot goes out only if
//!   it improves on what the peer announced or the peer was told a distance
//!   for it before; an equal distance arriving on a lower port takes the
//!   parent port. The filter reads one byte per (slot, port)
//!   (`Neighbours`): the peer's gap behind the slot's distance, clamped to
//!   2 and exact below it, and a told bit.

use dapsp_congest::{NodeContext, Port, Width};
use dapsp_graph::INFINITY;

use super::protocol::{Protocol, Tx};
use super::rows::{Row, SourceSlots};
use super::wave::WaveState;

/// The wire message: "my current distance to `root` is `dist`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrowthMsg {
    /// The id of the source the distance belongs to.
    pub root: u32,
    /// The sender's distance to that source, below `n`.
    pub dist: u32,
}

/// Algorithm 2's growth over a source set (see the module docs). Like the
/// [`WaveKernel`](super::WaveKernel), it keeps its distance and parent
/// port per source slot in the [`Row`] its pipeline lends it.
pub struct GrowthKernel<'a> {
    rule: Rule,
    /// The run's id ↔ slot map, shared by every node.
    slots: &'a SourceSlots,
    /// `n`: every announced distance is below it, and the wire's distance
    /// field is sized for `0..=n`.
    n: u32,
    /// The per-edge lists `L_i` and the round's fell bitset.
    queues: LevelQueues,
    /// Distance per source slot, this node's row of the run's matrix.
    dist: &'a mut [u32],
    /// Parent port per source slot (`u32::MAX` = none).
    parent: &'a mut [Port],
    state: WaveState,
}

/// How a pipeline's growth lists, sends and picks parents (see the module
/// docs).
enum Rule {
    /// S-SP: this round's arrivals as `(slot, sender's dist, port)`, judged
    /// for cycle candidates at the round end.
    Ssp { arrivals: Vec<(u32, u32, Port)> },
    /// The distance vector: what its transmit filter needs of each
    /// neighbour, per slot.
    DistanceVector { near: Neighbours },
}

impl<'a> GrowthKernel<'a> {
    /// S-SP's growth from the sources in `slots`: `row` has one slot per
    /// source, in `slots`' (id) order.
    pub fn ssp(ctx: &NodeContext<'_>, slots: &'a SourceSlots, row: Row<'a>) -> Self {
        let arrivals = Vec::with_capacity(ctx.degree());
        Self::new(ctx, slots, Rule::Ssp { arrivals }, row)
    }

    /// The distance vector: `slots` holds every node, and `row` has a slot
    /// per node.
    pub fn distance_vector(ctx: &NodeContext<'_>, slots: &'a SourceSlots, row: Row<'a>) -> Self {
        let near = Neighbours::new(slots.ids().len(), ctx.degree());
        Self::new(ctx, slots, Rule::DistanceVector { near }, row)
    }

    fn new(ctx: &NodeContext<'_>, slots: &'a SourceSlots, rule: Rule, row: Row<'a>) -> Self {
        debug_assert_eq!(row.dist.len(), slots.ids().len());
        if let Some(own) = slots.get(ctx.node_id()) {
            row.dist[own] = 0;
        }
        GrowthKernel {
            rule,
            slots,
            n: ctx.num_nodes() as u32,
            queues: LevelQueues::new(slots.ids().len(), ctx.degree()),
            dist: row.dist,
            parent: row.parent,
            state: WaveState::new(),
        }
    }

    /// Port `p` announces `sent` for slot `s`: work the slot's distance
    /// and parent port out at once (see the module docs).
    fn hear(&mut self, p: usize, s: usize, sent: u32) {
        let tie_to_lower_port = match &mut self.rule {
            Rule::Ssp { arrivals } => {
                arrivals.push((s as u32, sent, p as Port));
                false
            }
            Rule::DistanceVector { near } => {
                near.hear(p, s, sent, self.dist[s]);
                true
            }
        };
        let (via, port) = (sent + 1, p as Port);
        if via < self.dist[s] {
            // A slot's first fall in a round takes it out of the level it
            // is queued under, if it had a distance to queue it by.
            if self.queues.fall(s) && self.dist[s] != INFINITY {
                self.queues.detach(s, self.dist[s]);
                self.state.relaxations += 1;
            }
            self.dist[s] = via;
            self.parent[s] = port;
        } else if tie_to_lower_port && via == self.dist[s] && port < self.parent[s] {
            self.parent[s] = port;
        }
    }

    /// Re-keys every slot whose distance fell this round to its new
    /// distance: on every port for the distance vector, on every port but
    /// the parent's for S-SP.
    fn requeue_fallen(&mut self) {
        for w in 0..self.queues.words {
            let mut fell = self.queues.take_fell(w);
            while fell != 0 {
                let s = w * 64 + fell.trailing_zeros() as usize;
                fell &= fell - 1;
                let except = match self.rule {
                    Rule::Ssp { .. } => Some(self.parent[s] as usize),
                    Rule::DistanceVector { .. } => None,
                };
                self.queues.requeue(s, self.dist[s], except);
            }
        }
    }

    /// One announcement per port, in `(dist, slot)` priority. S-SP sends
    /// the head; the distance vector discards entries the peer
    /// demonstrably cannot use — no improvement over the peer's cached
    /// distance with nothing previously told to correct.
    fn transmit(&mut self, tx: &mut Tx<GrowthMsg>) {
        let (ids, ports) = (self.slots.ids(), self.queues.ports);
        match &mut self.rule {
            Rule::Ssp { .. } => {
                for p in 0..ports {
                    if let Some((dist, s)) = self.queues.pop(p) {
                        tx.send(p as Port, GrowthMsg { root: ids[s], dist });
                    }
                }
            }
            Rule::DistanceVector { near } => {
                for p in 0..ports {
                    while let Some((dist, s)) = self.queues.pop(p) {
                        debug_assert_eq!(dist, self.dist[s], "slot {s} queued under a stale key");
                        if near.tell(p, s) {
                            tx.send(p as Port, GrowthMsg { root: ids[s], dist });
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// The distance vector's neighbour table, slot-major: row `s` is
/// `cells[s * ports..][..ports]`, one byte per port, so the transmit filter
/// reads the row the pop just named. A cell keeps what the filter needs of
/// the peer: the gap between the distance it announced for the slot and
/// the slot's own distance, `min(cache − dist, 2)`, as `gap + 1` in the
/// low two bits ([`GAP`]), and whether the peer was ever told a distance
/// for it ([`TOLD`]). Every cell starts at gap 2 (nothing heard), not told.
///
/// Both distances only fall and `dist ≤ cache + 1` on every port heard
/// from, so the gap is at least −1; an arrival sets its port's gap
/// exactly, and a fall of `dist` by `Δ` raises every gap of the row by
/// `Δ`, saturating at 2. So a gap below 2 is exact, and one of 2 means
/// `dist + 1 < cache`: the peer can use the slot.
struct Neighbours {
    ports: usize,
    cells: Vec<u8>,
}

/// A cell's `gap + 1` field; all set is a gap of 2 or more.
const GAP: u8 = 0b011;
/// A cell's "ever told" bit.
const TOLD: u8 = 0b100;

impl Neighbours {
    fn new(slots: usize, ports: usize) -> Self {
        Neighbours {
            ports,
            cells: vec![GAP; slots * ports],
        }
    }

    /// Slot `s`'s row.
    fn row(&mut self, s: usize) -> &mut [u8] {
        &mut self.cells[s * self.ports..][..self.ports]
    }

    /// Port `p` announces `sent` for slot `s`, whose distance is `dist`
    /// before the announcement is taken in: the slot's new distance is
    /// `min(dist, sent + 1)`, and every gap of the row is kept against it.
    fn hear(&mut self, p: usize, s: usize, sent: u32, dist: u32) {
        let row = self.row(s);
        // A neighbour's distance only falls: what the incremental minimum
        // and the gaps rest on. Checkable only where the gap is exact.
        debug_assert!(
            row[p] & GAP == GAP || sent < dist + u32::from(row[p] & GAP),
            "port {p} raised slot {s} to {sent}"
        );
        let now = dist.min(sent + 1);
        if now < dist {
            let rise = (dist - now).min(u32::from(GAP)) as u8;
            for cell in row.iter_mut() {
                *cell = (*cell & TOLD) | ((*cell & GAP) + rise).min(GAP);
            }
        }
        row[p] = (row[p] & TOLD) | (sent + 1 - now).min(u32::from(GAP)) as u8;
    }

    /// Whether port `p`'s peer can use slot `s` at its current distance:
    /// it improves on what the peer announced, or the peer was told a
    /// distance for the slot before, which this one corrects. If so, the
    /// peer is told.
    fn tell(&mut self, p: usize, s: usize) -> bool {
        let cell = &mut self.row(s)[p];
        // The gap field all set, or the told bit above it.
        let usable = *cell >= GAP;
        if usable {
            *cell |= TOLD;
        }
        usable
    }
}

/// The per-edge lists of one node: per port a min-priority queue over
/// `(level, slot)`, where `level` is the distance the slot was queued
/// under — the same on every port and never stale at a pop (see the module
/// docs), which is why the ports share one level index.
///
/// Everything lives in one allocation, `cells`: port `p`'s owed bitset at
/// `p * words`, then the fell bitset — `base` words in all — and from
/// `base` on the list of the non-empty levels, most urgent last, each
/// `1 + words` words: the level in the high half of the first and how many
/// `(slot, port)` pairs under it are still owed in the low half, then the
/// bitset of the slots queued under it. A slot sits in at most one level,
/// and a port owes a slot only under its level; a slot every port has sent
/// may keep its bit until its level closes, which is when the level's count
/// reaches zero. So the index holds nothing per slot.
struct LevelQueues {
    /// Words per bitset: `⌈slot_count / 64⌉`.
    words: usize,
    /// The node's degree.
    ports: usize,
    /// Where the level list starts in `cells`.
    base: usize,
    cells: Vec<u64>,
}

/// Levels a node's allocation has room for before it first grows.
const RESERVED_LEVELS: usize = 8;

impl LevelQueues {
    fn new(slot_count: usize, ports: usize) -> Self {
        let words = slot_count.div_ceil(64);
        let base = (ports + 1) * words;
        let mut cells = Vec::with_capacity(base + (1 + words) * slot_count.min(RESERVED_LEVELS));
        cells.resize(base, 0);
        LevelQueues {
            words,
            ports,
            base,
            cells,
        }
    }

    /// How many ports owe `slot`.
    fn owing(&self, slot: usize) -> u64 {
        let (w, shift) = (slot / 64, slot % 64);
        (0..self.ports)
            .map(|p| self.cells[p * self.words + w] >> shift & 1)
            .sum()
    }

    /// Marks slot `s` as fallen this round; true iff it was not yet.
    fn fall(&mut self, s: usize) -> bool {
        let word = &mut self.cells[self.ports * self.words + s / 64];
        let bit = 1 << (s % 64);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Word `w` of the fell bitset, cleared.
    fn take_fell(&mut self, w: usize) -> u64 {
        std::mem::take(&mut self.cells[self.ports * self.words + w])
    }

    /// Where `level`'s entry starts in `cells`, or where it would go: a
    /// walk from the least urgent level, as a node lists only a handful.
    fn find(&self, level: u32) -> Result<usize, usize> {
        let mut at = self.base;
        while at < self.cells.len() {
            let here = (self.cells[at] >> 32) as u32;
            if here <= level {
                return if here == level { Ok(at) } else { Err(at) };
            }
            at += self.words + 1;
        }
        Err(at)
    }

    /// Takes `slot` out of `level`, the distance it was queued under, until
    /// [`requeue`](Self::requeue) puts it under its new one; the ports
    /// that owe it keep owing it.
    fn detach(&mut self, slot: usize, level: u32) {
        let Ok(at) = self.find(level) else {
            return;
        };
        let (w, bit) = (slot / 64, 1 << (slot % 64));
        if self.cells[at + 1 + w] & bit == 0 {
            // Queued under a level that has since closed and reopened.
            debug_assert_eq!(self.owing(slot), 0);
            return;
        }
        self.cells[at + 1 + w] &= !bit;
        let owing = self.owing(slot);
        self.settle(at, owing);
    }

    /// Queues `slot`, which sits in no level, under `level`: every port
    /// but `except` comes to owe it, and `except` keeps owing it if it
    /// did. A slot no port owes afterwards — a leaf improved by its only
    /// port — opens no level.
    fn requeue(&mut self, slot: usize, level: u32, except: Option<usize>) {
        let (words, ports, stride) = (self.words, self.ports, self.words + 1);
        let (w, bit) = (slot / 64, 1 << (slot % 64));
        let mut owing = 0;
        for p in 0..ports {
            let word = &mut self.cells[p * words + w];
            if except != Some(p) {
                *word |= bit;
            }
            owing += *word >> (slot % 64) & 1;
        }
        if owing == 0 {
            return;
        }
        let at = self.find(level).unwrap_or_else(|at| {
            let end = self.cells.len();
            self.cells.resize(end + stride, 0);
            self.cells.copy_within(at..end, at + stride);
            self.cells[at..at + stride].fill(0);
            self.cells[at] = u64::from(level) << 32;
            at
        });
        self.cells[at] += owing;
        self.cells[at + 1 + w] |= bit;
    }

    /// Counts `done` pairs of the level at `at` as no longer owed, closing
    /// the level when none is left.
    fn settle(&mut self, at: usize, done: u64) {
        self.cells[at] -= done;
        if self.cells[at] as u32 == 0 {
            self.cells.drain(at..at + 1 + self.words);
        }
    }

    /// Removes and returns port `p`'s minimum `(level, slot)`: the lowest
    /// set bit of `queued & owed` in the most urgent level that has one.
    /// (The walk steps by the stride rather than through `chunks_exact`,
    /// whose reverse steps divide by it.)
    fn pop(&mut self, p: usize) -> Option<(u32, usize)> {
        let (words, stride) = (self.words, self.words + 1);
        let owed = &self.cells[p * words..][..words];
        if owed.iter().all(|&word| word == 0) {
            return None;
        }
        let mut at = self.cells.len();
        let (w, word) = loop {
            assert!(at > self.base, "a slot a port owes sits in a listed level");
            at -= stride;
            let queued = &self.cells[at + 1..at + stride];
            let head = queued.iter().zip(owed).map(|(queued, owed)| queued & owed);
            if let Some(found) = head.enumerate().find(|&(_, word)| word != 0) {
                break found;
            }
        };
        let (level, s) = (
            (self.cells[at] >> 32) as u32,
            w * 64 + word.trailing_zeros() as usize,
        );
        self.cells[p * words + w] &= !(word & word.wrapping_neg());
        self.settle(at, 1);
        Some((level, s))
    }

    /// True iff no port owes anything.
    fn is_empty(&self) -> bool {
        self.cells.len() == self.base
    }
}

impl Protocol for GrowthKernel<'_> {
    type Payload = GrowthMsg;
    type Output = WaveState;

    fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<GrowthMsg>) {
        if let Some(own) = self.slots.get(ctx.node_id()) {
            self.queues.requeue(own, 0, None);
        }
        if let Rule::DistanceVector { .. } = self.rule {
            self.transmit(tx);
        }
    }

    fn on_message(
        &mut self,
        _ctx: &NodeContext<'_>,
        port: Port,
        payload: GrowthMsg,
        _tx: &mut Tx<GrowthMsg>,
    ) {
        self.state.receipts = self.state.receipts.saturating_add(1);
        debug_assert!(payload.dist < self.n, "announced {}", payload.dist);
        let slot = self
            .slots
            .get(payload.root)
            .expect("only sources are announced");
        self.hear(port as usize, slot, payload.dist);
    }

    fn on_round_end(&mut self, _ctx: &NodeContext<'_>, tx: &mut Tx<GrowthMsg>) {
        self.requeue_fallen();
        if let Rule::Ssp { arrivals } = &mut self.rule {
            // Lemma 7: a claim that did not become the parent closes a
            // walk through the source.
            for (s, sent, port) in arrivals.drain(..) {
                let d = self.dist[s as usize];
                if port != self.parent[s as usize] && sent <= d {
                    self.state.girth_candidate = self.state.girth_candidate.min(d + sent + 1);
                }
            }
        }
        self.transmit(tx);
    }

    fn is_active(&self) -> bool {
        !self.queues.is_empty()
    }

    fn width(&self, _payload: &GrowthMsg) -> Width {
        // The distance field is fixed-width over `0..=n`, like the wave
        // kernels'.
        let n = self.n as usize;
        Width::ZERO.id(n).count(n)
    }

    fn stream(&self, payload: &GrowthMsg) -> Option<u32> {
        Some(payload.root)
    }

    fn finish(self, _ctx: &NodeContext<'_>) -> WaveState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU32, Ordering};

    use proptest::prelude::*;

    use super::*;
    use crate::kernel::{distance_rows, run_protocol_on, Deal};
    use dapsp_congest::{churned_topology, Config, TopologyPlan};
    use dapsp_graph::generators;

    /// Every node of an `n`-node network as a source.
    fn all(n: usize) -> SourceSlots {
        let ids: Vec<u32> = (0..n as u32).collect();
        SourceSlots::new(n, &ids).expect("every node")
    }

    /// A distance-vector kernel for node `own` of `n = slots.ids().len()`
    /// with `ports` neighbours, outside any run: its rows are `dist` and
    /// `parent`, of `n` cells each.
    fn detached<'a>(
        own: usize,
        slots: &'a SourceSlots,
        ports: usize,
        dist: &'a mut [u32],
        parent: &'a mut [Port],
    ) -> GrowthKernel<'a> {
        let n = slots.ids().len();
        dist[own] = 0;
        GrowthKernel {
            rule: Rule::DistanceVector {
                near: Neighbours::new(n, ports),
            },
            slots,
            n: n as u32,
            queues: LevelQueues::new(n, ports),
            dist,
            parent,
            state: WaveState::new(),
        }
    }

    /// Worst-case growth messages fit `B = 2⌈log₂ n⌉ + 8`.
    #[test]
    fn worst_case_widths_fit_the_budget() {
        for n in [2usize, 3, 10, 100, 1 << 16] {
            let budget = Config::for_n(n).bandwidth_bits;
            let worst = GrowthMsg {
                root: n as u32 - 1,
                dist: n as u32 - 1,
            };
            let (mut dist, mut parent) = ([INFINITY], [u32::MAX]);
            let slots = all(1);
            let mut k = detached(0, &slots, 0, &mut dist, &mut parent);
            k.n = n as u32;
            assert!(k.width(&worst).bits() <= budget, "n={n}");
        }
    }

    /// The implementation `LevelQueues` replaced, kept as the model:
    /// per-port slot sets whose head is found by scanning for the minimum
    /// `(dist, slot)` under the *current* distances.
    struct ScanModel {
        pending: Vec<BTreeSet<u32>>,
    }

    impl ScanModel {
        fn pop(&mut self, p: usize, dist: &[u32]) -> Option<(u32, usize)> {
            let head = self.pending[p]
                .iter()
                .map(|&s| (dist[s as usize], s))
                .min()?;
            self.pending[p].remove(&head.1);
            Some((head.0, head.1 as usize))
        }

        fn is_empty(&self) -> bool {
            self.pending.iter().all(BTreeSet::is_empty)
        }
    }

    /// The neighbour table the gap bytes replaced, kept as the filter's
    /// model: per port and slot the last distance the peer announced and
    /// the last one it was told, [`INFINITY`] until then. A popped slot
    /// goes out iff `dist + 1 < cache` or the peer was told before.
    struct TableModel {
        cache: Vec<Vec<u32>>,
        told: Vec<Vec<u32>>,
    }

    impl TableModel {
        fn usable(&self, p: usize, s: usize, dist: u32) -> bool {
            dist + 1 < self.cache[p][s] || self.told[p][s] != INFINITY
        }
    }

    /// The distance vector's neighbour table.
    fn near<'k>(k: &'k GrowthKernel<'_>) -> &'k Neighbours {
        match &k.rule {
            Rule::DistanceVector { near } => near,
            Rule::Ssp { .. } => unreachable!("a distance-vector kernel"),
        }
    }

    /// One round end of a detached kernel: the fallen slots re-keyed, then
    /// its sends as `(port, root, dist)`.
    fn round_end(k: &mut GrowthKernel<'_>) -> Vec<(Port, u32, u32)> {
        let mut tx = Tx::new();
        k.requeue_fallen();
        k.transmit(&mut tx);
        tx.drain().map(|(p, m)| (p, m.root, m.dist)).collect()
    }

    /// Whether bit `s` of `bits` is set.
    fn has(bits: &[u64], s: usize) -> bool {
        bits[s / 64] >> (s % 64) & 1 == 1
    }

    /// The shared index is what it says it is: levels strictly
    /// descending; each level's count equal to the owed `(slot, port)`
    /// pairs of the slots in its bitset, and non-zero; every owed slot in
    /// exactly one level's bitset, and no slot in two. Checked a word of
    /// 64 slots at a time, so it is cheap enough to run after every step.
    fn assert_consistent(q: &LevelQueues) {
        let (words, stride) = (q.words, q.words + 1);
        let levels = &q.cells[q.base..];
        assert_eq!(levels.len() % stride, 0);
        let entries: Vec<&[u64]> = levels.chunks_exact(stride).collect();
        assert!(entries.windows(2).all(|w| w[0][0] >> 32 > w[1][0] >> 32));
        let owed = &q.cells[..q.ports * words];
        for e in &entries {
            let pairs: u64 = (0..owed.len())
                .map(|i| u64::from((e[1 + i % words] & owed[i]).count_ones()))
                .sum();
            let level = e[0] >> 32;
            assert_eq!(e[0] as u32 as u64, pairs, "level {level}'s count");
            assert_ne!(pairs, 0, "level {level} is open with nothing owed");
        }
        let first = |bits: u64, w: usize| w * 64 + bits.trailing_zeros() as usize;
        for w in 0..words {
            let mut listed = 0;
            for e in &entries {
                let twice = listed & e[1 + w];
                assert_eq!(twice, 0, "slot {} in two levels", first(twice, w));
                listed |= e[1 + w];
            }
            let unlisted = owed[w..].iter().step_by(words).fold(0, |u, &o| u | o) & !listed;
            assert_eq!(unlisted, 0, "owed slot {} in no level", first(unlisted, w));
        }
    }

    /// One node's queues and the scan model, driven in lockstep.
    struct Lockstep {
        q: LevelQueues,
        model: ScanModel,
        dist: Vec<u32>,
        /// Improvements of a slot since any port last sent it.
        unsent: Vec<u32>,
        /// Which of the three hazards of [`COVERAGE`] the case has met.
        met: [bool; 3],
    }

    impl Lockstep {
        /// A round-end re-key: a changed distance moves the slot from its
        /// level to the new one, and every port but `except` owes it (the
        /// distance vector excepts none; S-SP the port the improvement came
        /// in by, which keeps an entry it still owes).
        fn rekey(&mut self, s: usize, level: u32, except: Option<usize>) {
            if level == self.dist[s] {
                return;
            }
            let owes = |p: usize| self.model.pending[p].contains(&(s as u32));
            self.met[0] |= except.is_some_and(owes);
            self.met[1] |= self.unsent[s] > 0;
            self.unsent[s] += 1;
            self.q.detach(s, self.dist[s]);
            self.q.requeue(s, level, except);
            self.dist[s] = level;
            for (p, pending) in self.model.pending.iter_mut().enumerate() {
                if except != Some(p) {
                    pending.insert(s as u32);
                }
            }
        }

        /// Port `p` sends: the head either side yields.
        fn pop(&mut self, p: usize) -> [Option<(u32, usize)>; 2] {
            let want = self.model.pop(p, &self.dist);
            if let Some((level, s)) = want {
                let dist = &self.dist;
                self.met[2] |= self.model.pending[p]
                    .iter()
                    .any(|&t| dist[t as usize] == level);
                self.unsent[s] = 0;
            }
            [self.q.pop(p), want]
        }
    }

    /// Cases run, and cases that met each S-SP hazard at least once: an
    /// improvement arriving on a port that still owes the slot, a slot
    /// improved twice with no send in between, and a head decided by id
    /// between equal distances.
    static COVERAGE: [AtomicU32; 4] = [const { AtomicU32::new(0) }; 4];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        fn level_queue_cases(
            shape in 0usize..6,
            ports in 1usize..71,
            ops in proptest::collection::vec(any::<u64>(), 0..800),
        ) {
            let slots = [1usize, 2, 63, 64, 65, 200][shape];
            // Few levels, so entries collide on a level.
            let levels = 6u32;
            let mut node = Lockstep {
                q: LevelQueues::new(slots, ports),
                model: ScanModel { pending: vec![BTreeSet::new(); ports] },
                dist: vec![INFINITY; slots],
                unsent: vec![0; slots],
                met: [false; 3],
            };
            for &op in &ops {
                let p = (op >> 8) as usize % ports;
                let s = (op >> 16) as usize % slots;
                if op % 2 == 0 {
                    let level = (op >> 32) as u32 % levels;
                    // Half the S-SP re-keys come in by a port that still
                    // owes the slot, when there is one.
                    let owing: Vec<usize> = (0..ports)
                        .filter(|&p| node.model.pending[p].contains(&(s as u32)))
                        .collect();
                    let except = match (op >> 40) % 4 {
                        0 => None,
                        1 if !owing.is_empty() => Some(owing[(op >> 44) as usize % owing.len()]),
                        _ => Some(p),
                    };
                    node.rekey(s, level, except);
                } else {
                    let [got, want] = node.pop(p);
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(node.q.is_empty(), node.model.is_empty());
                assert_consistent(&node.q);
            }
            // Whatever the ops reached, re-key every slot and drain.
            for s in 0..slots {
                let level = (node.dist[s].wrapping_add(1) + s as u32) % levels;
                node.rekey(s, level, None);
                assert_consistent(&node.q);
            }
            for p in 0..ports {
                loop {
                    let [got, want] = node.pop(p);
                    prop_assert_eq!(got, want);
                    if got.is_none() {
                        break;
                    }
                }
                assert_consistent(&node.q);
            }
            prop_assert!(node.q.is_empty());
            COVERAGE[0].fetch_add(1, Ordering::Relaxed);
            for (count, met) in COVERAGE[1..].iter().zip(node.met) {
                count.fetch_add(u32::from(met), Ordering::Relaxed);
            }
        }

        /// Working a distance out as each announcement arrives gives, after
        /// every round, what a full `min (cache + 1, port)` rescan of every
        /// slot gives, marks exactly the slots that fell and counts a
        /// relaxation for each that was finite when the round began; the
        /// round end then queues each of them under its new distance on
        /// every port. Arrivals are random per-(port, slot) non-increasing
        /// sequences, repeats included, batched into random rounds.
        #[test]
        fn distances_on_arrival_match_the_full_scan(
            ports in 1usize..9,
            slots in 1usize..70,
            own in 0usize..70,
            arrivals in proptest::collection::vec(any::<u64>(), 0..400),
        ) {
            let own = own % slots;
            let (mut dist, mut parent) = (vec![INFINITY; slots], vec![u32::MAX; slots]);
            let all = all(slots);
            let mut k = detached(own, &all, ports, &mut dist, &mut parent);
            let mut cache = vec![vec![INFINITY; slots]; ports];
            let mut before = k.dist.to_vec();
            let mut relaxed = k.state.relaxations;
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
                let fell_bits = &k.queues.cells[ports * k.queues.words..][..k.queues.words];
                let fell: Vec<usize> = (0..slots).filter(|&s| has(fell_bits, s)).collect();
                let want: Vec<usize> = (0..slots).filter(|&s| scan[s].0 < before[s]).collect();
                prop_assert_eq!(&fell, &want);
                let finite = want.iter().filter(|&&s| before[s] != INFINITY).count() as u64;
                prop_assert_eq!(k.state.relaxations, relaxed + finite);
                relaxed = k.state.relaxations;
                k.requeue_fallen();
                let fell_bits = &k.queues.cells[ports * k.queues.words..][..k.queues.words];
                prop_assert!(fell_bits.iter().all(|&w| w == 0));
                assert_consistent(&k.queues);
                for &s in &want {
                    let at = k.queues.find(k.dist[s]).expect("its level is listed");
                    prop_assert!(has(&k.queues.cells[at + 1..], s));
                    prop_assert_eq!(k.queues.owing(s) as usize, ports);
                }
                before = k.dist.to_vec();
            }
        }

        /// The gap bytes filter like the `u32` table they replaced
        /// ([`TableModel`], with the scan model's queues and distances):
        /// random per-(port, slot) non-increasing arrivals, repeats
        /// included, batched into random rounds on 1 to 8 ports and 1 to
        /// 139 slots, then rounds until the queues drain. After every step
        /// each finite slot's "peer can use it" and told bits equal the
        /// model's, and every round sends what the model sends.
        #[test]
        fn gap_bytes_filter_like_the_distance_table(
            ports in 1usize..9,
            slots in 1usize..140,
            own in 0usize..140,
            arrivals in proptest::collection::vec(any::<u64>(), 0..400),
        ) {
            let own = own % slots;
            let (mut dist, mut parent) = (vec![INFINITY; slots], vec![u32::MAX; slots]);
            let all = all(slots);
            let mut k = detached(own, &all, ports, &mut dist, &mut parent);
            let mut table = TableModel {
                cache: vec![vec![INFINITY; slots]; ports],
                told: vec![vec![INFINITY; slots]; ports],
            };
            let mut queues = ScanModel { pending: vec![BTreeSet::new(); ports] };
            let mut scan = vec![INFINITY; slots];
            scan[own] = 0;
            // `init`: the own slot is owed on every port.
            k.queues.requeue(own, 0, None);
            for q in &mut queues.pending {
                q.insert(own as u32);
            }
            let mut fallen = BTreeSet::new();
            for (i, &op) in arrivals.iter().enumerate() {
                let (p, s) = (op as usize % ports, (op >> 8) as usize % slots);
                let heard = match table.cache[p][s] {
                    INFINITY => (op >> 16) as u32 % slots as u32,
                    last => last.saturating_sub((op >> 40) as u32 % 4),
                };
                table.cache[p][s] = heard;
                k.hear(p, s, heard);
                if heard + 1 < scan[s] {
                    scan[s] = heard + 1;
                    fallen.insert(s);
                }
                let round = (op >> 48) % 4 == 0 || i + 1 == arrivals.len();
                let mut drained = false;
                while !drained {
                    if round {
                        let sent = round_end(&mut k);
                        for s in std::mem::take(&mut fallen) {
                            for q in &mut queues.pending {
                                q.insert(s as u32);
                            }
                        }
                        let mut want = Vec::new();
                        for p in 0..ports {
                            while let Some((d, s)) = queues.pop(p, &scan) {
                                if table.usable(p, s, d) {
                                    table.told[p][s] = d;
                                    want.push((p as Port, s as u32, d));
                                    break;
                                }
                            }
                        }
                        prop_assert_eq!(sent, want);
                        prop_assert_eq!(k.queues.is_empty(), queues.is_empty());
                    }
                    prop_assert_eq!(&*k.dist, &scan[..]);
                    for s in (0..slots).filter(|&s| scan[s] != INFINITY) {
                        let row = &near(&k).cells[s * ports..][..ports];
                        for (p, &cell) in row.iter().enumerate() {
                            prop_assert_eq!(cell & GAP == GAP, scan[s] + 1 < table.cache[p][s]);
                            prop_assert_eq!(cell & TOLD != 0, table.told[p][s] != INFINITY);
                        }
                    }
                    // After the last arrival, round ends until nothing is
                    // owed.
                    drained = i + 1 < arrivals.len() || queues.is_empty();
                }
            }
        }
    }

    /// Random re-key-on-change / pop sequences pop identically from the
    /// shared level index and from the scan model, with identical
    /// emptiness and a consistent index after every step — on 1 to 70
    /// ports, across the 64-port mark, under both pipelines' re-keys — and
    /// the generator reaches each S-SP hazard in at least a tenth of the
    /// cases.
    #[test]
    fn level_queues_pop_like_the_scan_they_replaced() {
        level_queue_cases();
        let [cases, hazards @ ..] = [0, 1, 2, 3].map(|i| COVERAGE[i].load(Ordering::Relaxed));
        println!("{cases} cases, hazards met in {hazards:?}");
        for met in hazards {
            assert!(met * 10 >= cases, "a hazard in {met} of {cases} cases");
        }
    }

    /// A leaf that S-SP improves through its only port owes nothing, so no
    /// level opens and the node is not kept active; a slot the port still
    /// owes stays owed under its new level.
    #[test]
    fn an_improvement_through_the_only_port_opens_no_level() {
        let mut q = LevelQueues::new(4, 1);
        q.requeue(2, 3, Some(0));
        assert!(q.is_empty());
        assert_eq!(q.pop(0), None);
        assert_consistent(&q);
        q.requeue(1, 5, None);
        q.detach(1, 5);
        q.requeue(1, 2, Some(0));
        assert_consistent(&q);
        assert_eq!(q.pop(0), Some((2, 1)));
        assert!(q.is_empty());
    }

    /// The gap byte at its corners: the own slot, whose distance 0 no
    /// announcement lowers; a slot first heard on one port and then
    /// improved through another, whose first port's gap is exact below 2
    /// and then saturates; a node without ports, as an absent or crashed
    /// node runs.
    #[test]
    fn gap_bytes_hold_at_the_corners() {
        let row = |k: &GrowthKernel<'_>, s: usize| near(k).cells[s * 2..][..2].to_vec();
        let all = all(8);
        let (mut dist, mut parent) = (vec![INFINITY; 8], vec![u32::MAX; 8]);
        let mut k = detached(3, &all, 2, &mut dist, &mut parent);
        // `init`: nothing heard, so the own slot goes out on both ports;
        // peers at 1 and 2 leave gaps 1 and 2 behind the told bits.
        k.queues.requeue(3, 0, None);
        assert_eq!(round_end(&mut k), [(0, 3, 0), (1, 3, 0)]);
        k.hear(0, 3, 1);
        k.hear(1, 3, 2);
        assert_eq!((k.dist[3], row(&k, 3)), (0, vec![TOLD | 2, TOLD | GAP]));
        // Slot 5 at 7 through port 0: its gap is −1, port 1's still 2.
        k.hear(0, 5, 6);
        assert_eq!(row(&k, 5), [0, GAP]);
        // At 5 through port 1, port 0's gap rises by 2 to exactly 1 ...
        k.hear(1, 5, 4);
        assert_eq!(row(&k, 5), [2, 0]);
        // ... and at 2 by 3 more, saturating at 2 (it is 4).
        k.hear(1, 5, 1);
        assert_eq!((k.dist[5], k.parent[5]), (2, 1));
        assert_eq!(row(&k, 5), [GAP, 0]);
        // So only port 0's peer is sent the new distance.
        assert_eq!(round_end(&mut k), [(0, 5, 2)]);
        assert_eq!(row(&k, 5), [TOLD | GAP, 0]);
        assert!(k.queues.is_empty());

        // A node without ports keeps no cells and owes nothing.
        let (mut dist, mut parent) = ([INFINITY; 8], [u32::MAX; 8]);
        let mut k = detached(1, &all, 0, &mut dist, &mut parent);
        k.queues.requeue(1, 0, None);
        assert!(near(&k).cells.is_empty() && k.queues.is_empty());
        assert_eq!(round_end(&mut k), []);
    }

    /// Where a gap is exact, an announcement that raises a neighbour's
    /// distance is caught.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "port 0 raised slot 2 to 4")]
    fn a_raised_announcement_is_caught_where_the_gap_is_exact() {
        let all = all(4);
        let (mut dist, mut parent) = ([INFINITY; 4], [u32::MAX; 4]);
        let mut k = detached(0, &all, 1, &mut dist, &mut parent);
        k.hear(0, 2, 3);
        k.hear(0, 2, 4);
    }

    /// A hosted [`GrowthKernel`] whose output is the number of words its
    /// level list still holds when the run ends.
    struct LevelsAtFinish<'a>(GrowthKernel<'a>);

    impl Protocol for LevelsAtFinish<'_> {
        type Payload = GrowthMsg;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<GrowthMsg>) {
            self.0.init(ctx, tx);
        }
        fn on_message(
            &mut self,
            ctx: &NodeContext<'_>,
            port: Port,
            payload: GrowthMsg,
            tx: &mut Tx<GrowthMsg>,
        ) {
            self.0.on_message(ctx, port, payload, tx);
        }
        fn on_round_end(&mut self, ctx: &NodeContext<'_>, tx: &mut Tx<GrowthMsg>) {
            self.0.on_round_end(ctx, tx);
        }
        fn is_active(&self) -> bool {
            self.0.is_active()
        }
        fn width(&self, payload: &GrowthMsg) -> Width {
            self.0.width(payload)
        }
        fn finish(self, _ctx: &NodeContext<'_>) -> usize {
            assert_consistent(&self.0.queues);
            self.0.queues.cells.len() - self.0.queues.base
        }
    }

    /// Queue memory follows the live entries: a path run touches ~n
    /// distance levels per port over its lifetime, on a severed path with
    /// a crashed node too (so leaves that improve by their only port), yet
    /// once the run has quiesced no node lists a level — under both rules.
    #[test]
    fn quiesced_queues_hold_no_levels() {
        let n = 48;
        let plan = TopologyPlan::new()
            .with_remove(1, 30, 31)
            .with_crash(1, 10)
            .with_insert(1, 0, 47);
        let topology = churned_topology(&generators::path(n).to_topology(), &plan).unwrap();
        let all = all(n);
        let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
        let evens = SourceSlots::new(n, &evens).expect("every other node");
        for ssp in [false, true] {
            let slots = if ssp { &evens } else { &all };
            let (mut dist, mut parent) = distance_rows(n, slots.ids().len());
            let mut deal = Deal::new(&mut dist, &mut parent);
            let report = run_protocol_on(&topology, Config::for_n(n), |ctx| {
                let row = deal.row(ctx);
                LevelsAtFinish(if ssp {
                    GrowthKernel::ssp(ctx, slots, row)
                } else {
                    GrowthKernel::distance_vector(ctx, slots, row)
                })
            })
            .expect("run quiesces");
            assert_eq!(report.outputs, vec![0; n], "ssp: {ssp}");
        }
    }
}
