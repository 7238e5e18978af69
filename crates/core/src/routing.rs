//! The routing table — the paper's framing application (§1: link-state vs
//! distance-vector both exist to compute exactly these tables).
//!
//! A [`RouteTable`] is the one routing-table type of the workspace. It is
//! built once from an [`ApspResult`] (the initial epoch) or a
//! [`ChurnedResult`] (every republish after a topology change) and never
//! mutated afterwards — the `dapsp-serve` layer gets concurrency by
//! swapping whole tables, never by locking rows. The `O(n²)` payload is
//! one flat `u32` array, row-major by source, one **cell** per pair:
//! the hop count in the high 16 bits, the next hop in the low 16, `0xFFFF`
//! for ∞ / none. A pair with an absent endpoint is written `∞ | none` at
//! construction, so `dist`, `next_hop` and every step of `path` are one
//! bounds-checked load and the read path never consults the presence
//! vector. 16-bit fields cap a table at [`MAX_NODES`] nodes (past that the
//! `n²` payload is ≥ 17 GB and not servable anyway); the all-pairs entry
//! points of [`apsp`](crate::apsp) reject larger graphs with
//! [`CoreError::TableTooLarge`] before allocating anything.
//!
//! Every table carries the attribution trail of the run that produced it:
//! its topology **epoch**, the engine's [`TerminationCertificate`], the
//! run's [`RunStats`], and the [`RebuildPolicy`] that produced it (initial
//! build or churned rerun). A checksum over the query-visible payload lets
//! stress tests assert that every observed answer was internally
//! consistent with exactly one epoch.
//! It is a fold of per-row **digests**: each source row is hashed as soon
//! as it is packed, two cells (one 64-bit word) per step over a fixed
//! number of independent FNV-style chains — one chain would be bound by
//! the mixing step's latency — and the stamp folds the `n` digests between
//! the header (epoch, size) and the per-node payload. [`RouteTable::verify`]
//! re-derives every digest and the fold; [`RouteTable::corrupt_row`] names
//! the first row that no longer matches its digest.

use dapsp_congest::{RunStats, TerminationCertificate, Topology};
use dapsp_graph::INFINITY;

use crate::apsp::ApspResult;
use crate::churned::ChurnedResult;
use crate::error::CoreError;

/// The most nodes a table can cover: node ids and hop counts (`< n`) are
/// 16-bit cell fields with `0xFFFF` reserved for none / ∞.
pub const MAX_NODES: usize = 0xFFFF;

/// The 16-bit sentinel of both cell halves: ∞ hops, no next hop (`s == d`,
/// unreachable, or absent endpoint).
const NONE: u32 = 0xFFFF;

/// The cell of an unroutable pair, `∞ | none`.
const EMPTY: u32 = NONE << 16 | NONE;

/// [`CoreError::TableTooLarge`] unless a table over `n` nodes fits the cells.
pub(crate) fn check_table_size(n: usize) -> Result<(), CoreError> {
    if n > MAX_NODES {
        return Err(CoreError::TableTooLarge { num_nodes: n });
    }
    Ok(())
}

/// Packs one cell from a run's hop count and next hop, both with `u32::MAX`
/// for ∞ / none. Saturating: a value no `n <= MAX_NODES` run can produce
/// reads back as unroutable, never as some other pair's answer.
fn pack(hops: u32, next: u32) -> u32 {
    debug_assert!(hops == INFINITY || hops < NONE, "hop count {hops}");
    debug_assert!(next == u32::MAX || next < NONE, "next hop {next}");
    hops.min(NONE) << 16 | next.min(NONE)
}

/// How a snapshot's distances were (re)computed — part of the attribution
/// story a snapshot carries alongside its certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildPolicy {
    /// The initial full Algorithm 1 run (epoch 0).
    Initial,
    /// A churned rerun: the plan was applied to the topology on the host,
    /// then the [`GrowthKernel`](crate::kernel::GrowthKernel) ran a cold
    /// `n`-slot distance vector once on the post-change topology. No prior
    /// table is passed in; recomputing only the affected rows is open
    /// (ROADMAP.md item 3).
    Repaired,
}

impl RebuildPolicy {
    /// Short label for logs and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            RebuildPolicy::Initial => "initial",
            RebuildPolicy::Repaired => "repair",
        }
    }
}

/// The routing table: an immutable, queryable compaction of one converged
/// shortest-path computation. See the module docs for the design.
#[derive(Clone, Debug)]
pub struct RouteTable {
    n: usize,
    epoch: u64,
    /// `cells[s * n + d]` = `hops << 16 | next`, each half [`NONE`] when
    /// there is none; [`EMPTY`] when `s` or `d` is absent.
    cells: Vec<u32>,
    /// Whether each node is part of the served topology.
    present: Vec<bool>,
    /// Per-node eccentricity over present nodes ([`INFINITY`] when the
    /// node is absent or cannot reach some present node).
    ecc: Vec<u32>,
    /// Present nodes of minimum (finite) eccentricity, ascending; empty
    /// when the served graph is disconnected.
    centers: Vec<u32>,
    /// The girth of the served graph (`None` for forests).
    girth: Option<u32>,
    /// `digests[s]` = [`row_digest`] of row `s` of `cells`.
    digests: Vec<u64>,
    policy: RebuildPolicy,
    stats: RunStats,
    certificate: Option<TerminationCertificate>,
    checksum: u64,
}

impl RouteTable {
    /// Compacts a finished APSP run into the epoch-`epoch` table,
    /// **consuming** the result: eccentricities come off the distance
    /// matrix, then the cells are packed into the next-hop matrix's own
    /// buffer — no `O(n²)` allocation at any point — and each row is
    /// digested right after it is packed, while it is still in L1.
    ///
    /// # Panics
    ///
    /// Panics if the result covers more than [`MAX_NODES`] nodes or its
    /// two matrices disagree in size — no [`apsp`](crate::apsp) entry point
    /// returns such a result.
    pub fn from_apsp(result: ApspResult, epoch: u64) -> RouteTable {
        let n = result.distances.num_nodes();
        assert!(n <= MAX_NODES, "{n} nodes exceed the cell layout");
        assert_eq!(result.next_hop.num_nodes(), n, "matrix sizes disagree");
        let present = vec![true; n];
        let mut cells = result.next_hop.into_vec();
        let mut ecc = Vec::with_capacity(n);
        let mut digests = Vec::with_capacity(n);
        for v in 0..n {
            let hops = result.distances.row(v as u32);
            ecc.push(row_eccentricity(hops, &present));
            let row = &mut cells[v * n..][..n];
            for (cell, &h) in row.iter_mut().zip(hops) {
                *cell = pack(h, *cell);
            }
            digests.push(row_digest(v, row));
        }
        RouteTable {
            n,
            epoch,
            cells,
            present,
            ecc,
            centers: Vec::new(),
            girth: result.girth_candidate,
            digests,
            policy: RebuildPolicy::Initial,
            stats: result.stats,
            certificate: result.certificate,
            checksum: 0,
        }
        .sealed()
    }

    /// Compacts a churned APSP run
    /// ([`apsp::run_churned_on`](crate::apsp::run_churned_on)) into the
    /// epoch-`epoch` table. `final_topo` must be the post-change topology
    /// the run ran on (see
    /// [`churned_topology`](dapsp_congest::churned_topology)): each node's
    /// parent port per root resolves to a neighbor id through it. Rows of
    /// absent nodes serve nothing. The girth is re-derived host-side from
    /// the distances plus the adjacency, since the distance-vector kernel
    /// keeps distances, not wave-collision witnesses.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] unless `final_topo` has the
    /// result's size; [`CoreError::TableTooLarge`] past [`MAX_NODES`].
    pub fn from_churned(
        result: &ChurnedResult,
        final_topo: &Topology,
        epoch: u64,
    ) -> Result<RouteTable, CoreError> {
        let n = result.dist.len();
        check_table_size(n)?;
        if final_topo.num_nodes() != n {
            return Err(CoreError::InvalidParameter(format!(
                "topology covers {} nodes but the churned result has {n}",
                final_topo.num_nodes()
            )));
        }
        let present = &result.present;
        // Absent nodes ran as isolated vertices; they serve nothing and
        // witness nothing.
        let live_rows = (0..n).filter(|&v| present[v]).map(|v| &result.dist[v][..]);
        let girth = derive_girth(live_rows, &final_topo.to_adjacency());
        let ecc = (0..n)
            .map(|v| {
                if present[v] {
                    row_eccentricity(&result.dist[v], present)
                } else {
                    INFINITY
                }
            })
            .collect();
        let mut cells = Vec::with_capacity(n * n);
        let mut digests = Vec::with_capacity(n);
        for v in 0..n {
            if present[v] {
                let (dist, ports) = (&result.dist[v], &result.parent_port[v]);
                cells.extend((0..n).map(|d| {
                    if !present[d] {
                        return EMPTY;
                    }
                    let next = match ports[d] {
                        u32::MAX => u32::MAX,
                        p => final_topo.neighbor_at(v as u32, p),
                    };
                    pack(dist[d], next)
                }));
            } else {
                cells.resize(cells.len() + n, EMPTY);
            }
            digests.push(row_digest(v, &cells[v * n..]));
        }
        Ok(RouteTable {
            n,
            epoch,
            cells,
            present: present.clone(),
            ecc,
            centers: Vec::new(),
            girth,
            digests,
            policy: RebuildPolicy::Repaired,
            stats: result.stats,
            certificate: result.certificate.clone(),
            checksum: 0,
        }
        .sealed())
    }

    /// Fills in what the rest of the payload determines: the centers and
    /// the checksum stamp (the row digests are already in place).
    fn sealed(mut self) -> RouteTable {
        // Absent nodes carry `INFINITY`; so does every node of a
        // disconnected served graph (each present node misses some other
        // present node), and then the center stays empty rather than
        // arbitrary.
        let min = self.ecc.iter().copied().min().unwrap_or(INFINITY);
        if min != INFINITY {
            let at_min = |v: &u32| self.ecc[*v as usize] == min;
            self.centers = (0..self.n as u32).filter(at_min).collect();
        }
        self.checksum = self.fold();
        self
    }

    /// The number of nodes the table covers (including absent ones, which
    /// keep their ids but serve nothing).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The topology epoch this snapshot serves: 0 for the initial build,
    /// +1 per applied [`TopologyPlan`](dapsp_congest::TopologyPlan).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `v` is part of the served topology.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_present(&self, v: u32) -> bool {
        self.present[v as usize]
    }

    /// Hop distance from `s` to `d`, `None` when unreachable (or either
    /// endpoint is absent).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    #[inline]
    pub fn dist(&self, s: u32, d: u32) -> Option<u32> {
        let hops = self.cell(s, d) >> 16;
        (hops != NONE).then_some(hops)
    }

    /// The neighbor `s` forwards to when routing toward `d` (`None` at
    /// `s == d` and for unroutable pairs).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    #[inline]
    pub fn next_hop(&self, s: u32, d: u32) -> Option<u32> {
        let next = self.cell(s, d) & NONE;
        (next != NONE).then_some(next)
    }

    /// The one read of the query path, range-checked per coordinate: `d`
    /// here (`s * n + d` alone lets an out-of-range `d` read the next
    /// source's row), `s` by the slice, since `s >= n` lands past the `n²`
    /// cells. `#[inline]` here and on the lookups: the panic is a call,
    /// and rustc inlines only leaves across crates unasked.
    #[inline]
    fn cell(&self, s: u32, d: u32) -> u32 {
        let (s, d) = (s as usize, d as usize);
        if d >= self.n {
            pair_out_of_range(s, d, self.n);
        }
        self.cells[s * self.n + d]
    }

    /// Reconstructs the full shortest path from `s` to `d` (inclusive) by
    /// walking next-hop pointers; `None` when `d` is unreachable. The walk
    /// is bounded by the recorded hop count, so a corrupt table reads back
    /// as `None`, never a hang.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `d` is out of range.
    pub fn path(&self, s: u32, d: u32) -> Option<Vec<u32>> {
        let budget = self.dist(s, d)?;
        let mut path = Vec::with_capacity(budget as usize + 1);
        path.push(s);
        let mut cur = s;
        for _ in 0..budget {
            cur = self.next_hop(cur, d)?;
            path.push(cur);
        }
        (cur == d).then_some(path)
    }

    /// Batched distance lookup: one pass over `pairs` against this single
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if any pair is out of range.
    pub fn dist_batch(&self, pairs: &[(u32, u32)]) -> Vec<Option<u32>> {
        pairs.iter().map(|&(s, d)| self.dist(s, d)).collect()
    }

    /// Eccentricity of `v` over the present nodes, `None` when `v` is
    /// absent or some present node is unreachable from it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn eccentricity(&self, v: u32) -> Option<u32> {
        let e = self.ecc[v as usize];
        (e != INFINITY).then_some(e)
    }

    /// The served graph's diameter (`None` when disconnected).
    pub fn diameter(&self) -> Option<u32> {
        let live = self.ecc.iter().zip(&self.present).filter(|&(_, &p)| p);
        let max = live.map(|(&e, _)| e).max()?;
        (max != INFINITY).then_some(max)
    }

    /// The served graph's radius (`None` when disconnected).
    pub fn radius(&self) -> Option<u32> {
        self.centers.first().and_then(|&c| self.eccentricity(c))
    }

    /// Present nodes of minimum eccentricity, ascending (empty when the
    /// served graph is disconnected).
    pub fn centers(&self) -> &[u32] {
        &self.centers
    }

    /// The girth of the served graph (`None` for forests).
    pub fn girth(&self) -> Option<u32> {
        self.girth
    }

    /// How this snapshot's distances were computed.
    pub fn policy(&self) -> RebuildPolicy {
        self.policy
    }

    /// Round/message statistics of the run that produced this snapshot.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The engine's termination certificate for the producing run — why
    /// the computation was allowed to stop, per-node quiescence votes
    /// included, so every served answer is attributable.
    pub fn certificate(&self) -> Option<&TerminationCertificate> {
        self.certificate.as_ref()
    }

    /// Bytes of the per-node and per-pair payload a reader can touch:
    /// `4n²` of cells, `n` of presence, `4n` of eccentricities.
    pub fn payload_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.cells[..]) + size_of_val(&self.present[..]) + size_of_val(&self.ecc[..])
    }

    /// The checksum stamped at construction over the query-visible payload:
    /// epoch, size, the row digests in row order, presence,
    /// eccentricities, centers, girth.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Re-derives every row digest against the stored one, and the stored
    /// digests' fold against the stamp — the torn-read probe concurrency
    /// stress tests call on every loaded snapshot (an `Arc` swap can never
    /// tear, and this proves it). Any single changed cell, digest or
    /// per-node field fails it.
    pub fn verify(&self) -> bool {
        self.corrupt_row().is_none() && self.fold() == self.checksum
    }

    /// The first source row whose cells no longer hash to its stored
    /// digest — the witness behind a failed [`verify`](Self::verify), and
    /// the unit a row-level repair or delta would re-send. `None` when
    /// every row matches (the per-node fields are checked by `verify`
    /// alone).
    pub fn corrupt_row(&self) -> Option<u32> {
        let n = self.n;
        let mismatch = |&r: &usize| row_digest(r, &self.cells[r * n..][..n]) != self.digests[r];
        (0..n).find(mismatch).map(|r| r as u32)
    }

    /// The stamp over the stored digests and the per-node payload.
    fn fold(&self) -> u64 {
        let mut h = mix(FNV_BASIS, self.epoch);
        h = mix(h, self.n as u64);
        for &d in &self.digests {
            h = mix(h, d);
        }
        for &p in &self.present {
            h = mix(h, u64::from(p));
        }
        for &e in &self.ecc {
            h = mix(h, u64::from(e));
        }
        for &c in &self.centers {
            h = mix(h, u64::from(c));
        }
        mix(h, self.girth.map_or(u64::MAX, u64::from))
    }
}

/// By value and out of line: formatting `s` and `d` in place would have
/// every lookup spill them to the stack ahead of the check.
#[cold]
#[inline(never)]
fn pair_out_of_range(s: usize, d: usize, n: usize) -> ! {
    panic!("pair ({s}, {d}) out of range for a {n}-node table")
}

/// The FNV-1a 64-bit offset basis, the start of every chain.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One deterministic 64-bit mixing step (FNV-fold plus a finalizing shift).
/// A bijection of `x` for a fixed `h` and of `h` for a fixed `x`, so a
/// chain of steps changes its result whenever any one input does.
fn mix(h: u64, x: u64) -> u64 {
    let v = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    v ^ (v >> 31)
}

/// Independent chains per row digest. One chain waits on `mix`'s multiply
/// every step; eight keep the multiplier busy. Measured on `verify()`, one
/// core of a 2-vCPU Xeon with 2 MiB of L2: 4 / 6 / 8 lanes take 0.049 /
/// 0.039 / 0.036 ms over an L2-resident 384-node table (one chain over
/// the whole payload: 0.16 ms); over a 1280-node table, 6.25 MiB, 6 and 8
/// tie at ≈ 0.46 ms (4: 0.54, one chain: 1.77).
const LANES: usize = 8;

/// The digest of source row `r`: word `k` of the row (cells `2k`, `2k + 1`,
/// low cell in the low half) is mixed into lane `k % LANES`, each lane
/// seeded by `r` and its index; the lanes are folded in order, then an odd
/// tail cell is mixed in alone. Every cell goes through exactly one step of
/// one chain, so any changed cell changes the digest.
fn row_digest(r: usize, row: &[u32]) -> u64 {
    fn word([lo, hi]: [u32; 2]) -> u64 {
        u64::from(lo) | u64::from(hi) << 32
    }
    let seed = mix(FNV_BASIS, r as u64);
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| mix(seed, i as u64));
    let (blocks, rest) = row.as_chunks::<{ 2 * LANES }>();
    for block in blocks {
        let (words, _) = block.as_chunks::<2>();
        for (h, &w) in lanes.iter_mut().zip(words) {
            *h = mix(*h, word(w));
        }
    }
    let (words, odd) = rest.as_chunks::<2>();
    for (h, &w) in lanes.iter_mut().zip(words) {
        *h = mix(*h, word(w));
    }
    let folded = lanes.iter().fold(seed, |acc, &h| mix(acc, h));
    odd.iter()
        .fold(folded, |acc, &cell| mix(acc, u64::from(cell)))
}

/// The eccentricity of a present source over present destinations from its
/// distance row; [`INFINITY`] (the maximum) when it misses one of them.
fn row_eccentricity(row: &[u32], present: &[bool]) -> u32 {
    let reached = row.iter().zip(present).filter(|&(_, &p)| p);
    reached.map(|(&d, _)| d).max().unwrap_or(0)
}

/// Exact girth from the distance rows of the live roots plus the live
/// adjacency — the host-side analogue of the paper's Lemma 7
/// wave-collision witnesses, used on republish where the repair kernel
/// maintains distances only.
///
/// For every root `w`: an edge `(u, v)` with `d(w,u) = d(w,v)` witnesses
/// an odd closed walk of length `2·d(w,u) + 1` (an odd closed walk always
/// contains an odd cycle no longer than itself); a node `x` with two
/// distinct neighbors at depth `d(w,x) − 1` witnesses two distinct
/// shortest `w→x` paths, i.e. an even cycle of length at most `2·d(w,x)`.
/// Minimizing over all roots is exact: a root *on* a shortest cycle
/// realizes its length through one of the two cases (odd girth `2k+1` via
/// the opposite edge, even girth `2k` via the opposite node), and
/// distances between nodes of a shortest cycle equal their along-cycle
/// distances, or a shorter cycle would exist.
fn derive_girth<'a>(root_rows: impl Iterator<Item = &'a [u32]>, adj: &[Vec<u32>]) -> Option<u32> {
    let mut best = INFINITY;
    for dw in root_rows {
        for (x, nbrs) in adj.iter().enumerate() {
            let dx = dw[x];
            // Neither witness at `x` can beat `best` once `2·dx >= best`.
            if dx == INFINITY || 2 * dx >= best {
                continue;
            }
            let mut at_prev_depth = 0u32;
            for &u in nbrs {
                let du = dw[u as usize];
                if du == INFINITY {
                    continue;
                }
                // Odd witness: equal-depth edge (counted once per edge).
                if du == dx && (x as u32) < u && 2 * dx + 1 < best {
                    best = 2 * dx + 1;
                }
                if du + 1 == dx {
                    at_prev_depth += 1;
                }
            }
            // Even witness: two distinct parents in w's BFS layering.
            if at_prev_depth >= 2 && 2 * dx < best {
                best = 2 * dx;
            }
        }
    }
    (best != INFINITY).then_some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apsp, Obs};
    use dapsp_graph::{generators, reference, Graph};

    fn table(g: &Graph) -> RouteTable {
        RouteTable::from_apsp(apsp::run_on_obs(&g.to_topology(), Obs::none()).unwrap(), 0)
    }

    #[test]
    fn point_queries_match_the_oracle() {
        let g = generators::grid(4, 4);
        let t = table(&g);
        let oracle = reference::apsp(&g);
        for s in 0..16u32 {
            for d in 0..16u32 {
                assert_eq!(t.dist(s, d), oracle.get(s, d), "d({s}, {d})");
                let p = t.path(s, d).unwrap();
                assert_eq!(p.len() as u32 - 1, oracle.get(s, d).unwrap());
            }
        }
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.policy(), RebuildPolicy::Initial);
        assert!(t.certificate().is_some(), "snapshot lost its certificate");
    }

    #[test]
    fn derived_quantities_match_the_oracles() {
        for g in [
            generators::cycle(9),
            generators::grid(3, 4),
            generators::lollipop(5, 4),
            generators::balanced_tree(2, 3),
        ] {
            let t = table(&g);
            assert_eq!(t.diameter(), reference::diameter(&g));
            assert_eq!(t.radius(), reference::radius(&g));
            assert_eq!(Some(t.centers().to_vec()), reference::center(&g));
            assert_eq!(t.girth(), reference::girth(&g));
            for v in 0..g.num_nodes() as u32 {
                assert_eq!(
                    t.eccentricity(v),
                    reference::eccentricities(&g).map(|e| e[v as usize])
                );
            }
        }
    }

    #[test]
    fn derived_girth_matches_the_oracle_on_every_small_graph() {
        // `derive_girth` (the republish path) against the oracle on every
        // connected graph with <= 7 nodes: 996 isomorphism classes cover
        // odd/even girths, trees, and every troublesome local structure —
        // including a 2k-cycle first met after a (2k+1)-witness, which
        // n <= 6 lacks and the `2·dx >= best` cut must not skip.
        for n in 1..=7 {
            for g in dapsp_graph::enumerate::connected_graphs(n) {
                let dist = apsp::run_on_obs(&g.to_topology(), Obs::none())
                    .unwrap()
                    .distances;
                let adj = g.to_topology().to_adjacency();
                assert_eq!(
                    derive_girth((0..n as u32).map(|w| dist.row(w)), &adj),
                    reference::girth(&g),
                    "girth mismatch on a {n}-node graph: {g:?}"
                );
            }
        }
    }

    #[test]
    fn checksum_rejects_every_single_bit_flip() {
        // Rows of 6, 3 and 5 cells are shorter than one lane block (a few
        // whole words, plus the odd cell for 3 and 5); at 8 lanes a row of
        // 33 is two blocks plus the odd cell, one of 40 two blocks plus
        // four words in the first lanes.
        const { assert!(33 > 2 * LANES && 40 >= 4 * LANES) };
        for g in [
            generators::cycle(6),
            generators::path(3),
            generators::cycle(5),
            generators::path(33),
            generators::cycle(40),
        ] {
            let t = table(&g);
            let n = t.n;
            assert!(t.verify());
            assert_eq!(t.corrupt_row(), None);
            let mut tampered = t.clone();
            for i in 0..tampered.cells.len() {
                let row = Some((i / n) as u32);
                for bit in 0..32 {
                    tampered.cells[i] ^= 1 << bit;
                    assert!(
                        !tampered.verify(),
                        "n={n}: cell {i} bit {bit} flipped unnoticed"
                    );
                    assert_eq!(tampered.corrupt_row(), row, "n={n}: cell {i} bit {bit}");
                    tampered.cells[i] ^= 1 << bit;
                }
            }
            for r in 0..n {
                for bit in 0..64 {
                    tampered.digests[r] ^= 1 << bit;
                    assert!(!tampered.verify(), "n={n}: digest {r} bit {bit}");
                    assert_eq!(tampered.corrupt_row(), Some(r as u32));
                    tampered.digests[r] ^= 1 << bit;
                }
                tampered.present[r] ^= true;
                assert!(!tampered.verify(), "n={n}: presence of {r}");
                tampered.present[r] ^= true;
                for bit in 0..32 {
                    tampered.ecc[r] ^= 1 << bit;
                    assert!(!tampered.verify(), "n={n}: eccentricity {r} bit {bit}");
                    tampered.ecc[r] ^= 1 << bit;
                }
            }
            let girth = tampered.girth;
            let flips: Vec<Option<u32>> = match girth {
                Some(g) => (0..32)
                    .map(|bit| Some(g ^ 1 << bit))
                    .chain([None])
                    .collect(),
                None => vec![Some(0), Some(u32::MAX)],
            };
            for flipped in flips {
                tampered.girth = flipped;
                assert!(!tampered.verify(), "n={n}: girth {girth:?} -> {flipped:?}");
            }
            tampered.girth = girth;
            assert!(tampered.verify());
            let mut reepoched = t.clone();
            reepoched.epoch += 1;
            assert!(!reepoched.verify(), "epoch is part of the checksum");
            assert_eq!(
                reepoched.corrupt_row(),
                None,
                "row digests do not see the epoch"
            );
        }
    }

    #[test]
    fn the_size_limit_is_the_last_id_a_cell_can_name() {
        assert_eq!(MAX_NODES, 65_535);
        assert_eq!(check_table_size(MAX_NODES), Ok(()));
        assert_eq!(
            check_table_size(MAX_NODES + 1),
            Err(CoreError::TableTooLarge { num_nodes: 65_536 })
        );
        // The largest admitted table's largest id and hop count both stay
        // below the sentinel.
        let last = MAX_NODES as u32 - 1;
        assert_eq!(pack(last, last), last << 16 | last);
        assert_ne!(pack(last, last) >> 16, NONE);
        assert_eq!(pack(INFINITY, u32::MAX), EMPTY);
    }

    #[test]
    fn batch_lookup_matches_point_lookups() {
        let g = generators::grid(3, 3);
        let t = table(&g);
        let pairs: Vec<(u32, u32)> = (0..9u32).map(|i| (i, (i * 7 + 3) % 9)).collect();
        let batch = t.dist_batch(&pairs);
        for (i, &(s, d)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], t.dist(s, d));
        }
    }

    #[test]
    fn path_reconstruction_is_shortest_and_bounded() {
        let g = generators::grid(4, 4);
        let t = table(&g);
        for u in 0..16u32 {
            for v in 0..16u32 {
                let p = t.path(u, v).expect("connected graph");
                assert_eq!(Some(p.len() as u32 - 1), t.dist(u, v));
                assert_eq!(*p.first().unwrap(), u);
                assert_eq!(*p.last().unwrap(), v);
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }
}

#[cfg(test)]
mod churn_tests {
    //! Tables × churn: a table built from a churned run must serve the
    //! mutated graph's oracle, and its paths must walk edges of the
    //! *mutated* graph — the next-hop tree is a real shortest-path forest
    //! on the new graph, not a stale copy of the old one.

    use super::*;
    use crate::{apsp, churned_graph, Obs};
    use dapsp_congest::{churned_topology, TopologyPlan};
    use dapsp_graph::{generators, reference, Graph};

    fn churned_table(g: &Graph, plan: &TopologyPlan) -> (RouteTable, Graph) {
        let topo = g.to_topology();
        let repaired = apsp::run_churned_on(&topo, plan, Obs::none()).unwrap();
        let final_topo = churned_topology(&topo, plan).unwrap();
        let t = RouteTable::from_churned(&repaired, &final_topo, 1).unwrap();
        let mutated = churned_graph(g, plan).unwrap();
        (t, mutated)
    }

    #[test]
    fn post_repair_tables_match_the_mutated_oracle() {
        let g = generators::grid(4, 4);
        let plan = TopologyPlan::new()
            .with_remove(2, 0, 1)
            .with_insert(3, 0, 15);
        let (t, mutated) = churned_table(&g, &plan);
        let oracle = reference::apsp(&mutated);
        for s in 0..16u32 {
            for d in 0..16u32 {
                assert_eq!(t.dist(s, d), oracle.get(s, d), "hops({s}, {d})");
                let p = t.path(s, d).expect("the mutated grid stays connected");
                assert!(
                    p.windows(2).all(|w| mutated.has_edge(w[0], w[1])),
                    "path({s}, {d})"
                );
            }
        }
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.policy(), RebuildPolicy::Repaired);
    }

    #[test]
    fn severed_pairs_read_back_unroutable() {
        let g = generators::path(6);
        let plan = TopologyPlan::new().with_remove(2, 2, 3);
        let (t, _mutated) = churned_table(&g, &plan);
        assert_eq!(t.dist(0, 5), None);
        assert_eq!(t.next_hop(0, 5), None);
        assert_eq!(t.path(0, 5), None);
        assert_eq!(t.path(0, 2).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn a_crashed_node_is_absent_and_serves_nothing() {
        let g = generators::grid(4, 4);
        let victim = 5u32;
        let plan = TopologyPlan::new().with_crash(2, victim);
        let (t, mutated) = churned_table(&g, &plan);
        assert!(t.verify());
        let oracle = reference::apsp(&mutated);
        let survivors: Vec<u32> = (0..16).filter(|&v| v != victim).collect();
        assert!(!t.is_present(victim));
        assert_eq!(t.eccentricity(victim), None);
        for v in 0..16u32 {
            assert_eq!(t.is_present(v), v != victim);
            for (s, d) in [(v, victim), (victim, v)] {
                assert_eq!(t.dist(s, d), None, "d({s}, {d})");
                assert_eq!(t.next_hop(s, d), None, "next_hop({s}, {d})");
                assert_eq!(t.path(s, d), None, "path({s}, {d})");
            }
        }
        // Every surviving pair serves the oracle on the mutated graph
        // (where the victim is isolated), routed around the hole.
        for &s in &survivors {
            for &d in &survivors {
                assert_eq!(t.dist(s, d), oracle.get(s, d), "d({s}, {d})");
                let p = t.path(s, d).expect("the survivors stay connected");
                assert!(!p.contains(&victim) && p.windows(2).all(|w| mutated.has_edge(w[0], w[1])));
            }
        }
        // Derived metrics range over the survivors only.
        let ecc = |s: u32| survivors.iter().map(|&d| oracle.get(s, d).unwrap()).max();
        for &s in &survivors {
            assert_eq!(t.eccentricity(s), ecc(s), "ecc({s})");
        }
        let radius = survivors.iter().filter_map(|&s| ecc(s)).min();
        assert_eq!(t.diameter(), survivors.iter().filter_map(|&s| ecc(s)).max());
        assert_eq!(t.radius(), radius);
        let centers: Vec<u32> = survivors
            .iter()
            .copied()
            .filter(|&s| ecc(s) == radius)
            .collect();
        assert_eq!(t.centers(), &centers[..]);
        assert_eq!(t.girth(), reference::girth(&mutated));
    }
}
