//! The read side shared by every workload: seeded query batches against a
//! `RouteTable`, and the independent truth their answers are held to.
//!
//! Truth never comes from the code under test: distances are
//! `reference::apsp` (one sequential BFS per source) on the workload's own
//! copy of the graph. Next hops and paths have no unique right answer, so
//! they are checked for what makes them right — the hop is a neighbour one
//! step closer, the path is a walk over edges of exactly the oracle length.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dapsp_graph::{reference, DistanceMatrix, Graph};
use dapsp_serve::{RouteTable, ServeHandle};

use crate::stats::{percentile, Lcg};

/// `dist` lookups per batch.
pub const DISTS: usize = 224;
/// `next_hop` lookups per batch.
pub const HOPS: usize = 24;
/// `path` reconstructions per batch.
pub const PATHS: usize = 8;
/// Queries per batch: the unit `query_batch_us_p50` times.
pub const BATCH: usize = DISTS + HOPS + PATHS;

/// One graph state and its oracle distances.
#[derive(Debug)]
pub struct Truth {
    pub graph: Graph,
    pub dist: DistanceMatrix,
}

impl Truth {
    /// Runs the sequential oracle on `graph`.
    pub fn of(graph: Graph) -> Truth {
        let dist = reference::apsp(&graph);
        Truth { graph, dist }
    }

    fn hop_ok(&self, s: u32, d: u32, hop: Option<u32>) -> bool {
        match (self.dist.get(s, d), hop) {
            (Some(0) | None, None) => true,
            (Some(k), Some(h)) if k > 0 => {
                self.graph.has_edge(s, h) && self.dist.get(h, d) == Some(k - 1)
            }
            _ => false,
        }
    }

    fn path_ok(&self, s: u32, d: u32, path: Option<&[u32]>) -> bool {
        match (self.dist.get(s, d), path) {
            (None, None) => true,
            (Some(k), Some(p)) => {
                p.len() == k as usize + 1
                    && p[0] == s
                    && p[k as usize] == d
                    && p.windows(2).all(|w| self.graph.has_edge(w[0], w[1]))
            }
            _ => false,
        }
    }

    /// Holds every pair of `table` to the oracle through the same public
    /// lookups the queries use: `dist` must be equal, `next_hop` must be a
    /// neighbour one step closer.
    pub fn table_matches(&self, table: &RouteTable) -> bool {
        let n = self.graph.num_nodes() as u32;
        table.num_nodes() == n as usize
            && (0..n).all(|s| {
                (0..n).all(|d| {
                    table.dist(s, d) == self.dist.get(s, d)
                        && self.hop_ok(s, d, table.next_hop(s, d))
                })
            })
    }
}

/// Bytes of a `RouteTable` over `n` nodes: two `u32` arrays of `n²` plus
/// the per-node presence and eccentricity vectors.
pub fn table_bytes(n: usize) -> f64 {
    (8 * n * n + 5 * n) as f64
}

/// One batch: the pairs drawn for it and the answers it got.
#[derive(Debug)]
pub struct Batch {
    pairs: [(u32, u32); BATCH],
    dists: [Option<u32>; DISTS],
    hops: [Option<u32>; HOPS],
    paths: [Option<Vec<u32>>; PATHS],
}

impl Default for Batch {
    fn default() -> Batch {
        Batch {
            pairs: [(0, 0); BATCH],
            dists: [None; DISTS],
            hops: [None; HOPS],
            paths: std::array::from_fn(|_| None),
        }
    }
}

impl Batch {
    /// Draws the next [`BATCH`] pairs over `0..n` (outside the timed part,
    /// so the generator's cost is in no latency).
    pub fn draw(&mut self, lcg: &mut Lcg, n: u32) {
        for p in &mut self.pairs {
            *p = lcg.pair(n);
        }
    }

    /// The timed part: [`DISTS`] `dist`, [`HOPS`] `next_hop` and [`PATHS`]
    /// `path` lookups on `table`, answers kept for [`failures`](Self::failures).
    pub fn answer(&mut self, table: &RouteTable) {
        let (dist_pairs, rest) = self.pairs.split_at(DISTS);
        let (hop_pairs, path_pairs) = rest.split_at(HOPS);
        for (slot, &(s, d)) in self.dists.iter_mut().zip(dist_pairs) {
            *slot = table.dist(s, d);
        }
        for (slot, &(s, d)) in self.hops.iter_mut().zip(hop_pairs) {
            *slot = table.next_hop(s, d);
        }
        for (slot, &(s, d)) in self.paths.iter_mut().zip(path_pairs) {
            *slot = table.path(s, d);
        }
    }

    /// How many of the batch's answers the oracle rejects.
    pub fn failures(&self, truth: &Truth) -> u64 {
        let (dist_pairs, rest) = self.pairs.split_at(DISTS);
        let (hop_pairs, path_pairs) = rest.split_at(HOPS);
        let dists = dist_pairs
            .iter()
            .zip(&self.dists)
            .filter(|(&(s, d), &got)| got != truth.dist.get(s, d));
        let hops = hop_pairs
            .iter()
            .zip(&self.hops)
            .filter(|(&(s, d), &got)| !truth.hop_ok(s, d, got));
        let paths = path_pairs
            .iter()
            .zip(&self.paths)
            .filter(|(&(s, d), got)| !truth.path_ok(s, d, got.as_deref()));
        (dists.count() + hops.count() + paths.count()) as u64
    }
}

/// Batch latencies in nanoseconds, bounded: when full it keeps every other
/// sample and from then on records at half the rate, so a long run costs
/// the same memory as a short one and percentiles stay unbiased.
#[derive(Debug)]
pub struct LatencyLog {
    ns: Vec<u32>,
    stride: u32,
    skip: u32,
}

const LOG_CAP: usize = 1 << 18;

impl Default for LatencyLog {
    fn default() -> LatencyLog {
        LatencyLog {
            ns: Vec::with_capacity(LOG_CAP),
            stride: 1,
            skip: 0,
        }
    }
}

impl LatencyLog {
    pub fn push(&mut self, ns: u64) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.skip = self.stride - 1;
        self.ns.push(ns.min(u64::from(u32::MAX)) as u32);
        if self.ns.len() == LOG_CAP {
            let mut keep = 0;
            self.ns.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.stride *= 2;
        }
    }

    /// The `q`-quantile in microseconds (0 when nothing was logged).
    pub fn us(&self, q: f64) -> f64 {
        let ns: Vec<f64> = self.ns.iter().map(|&x| f64::from(x)).collect();
        percentile(&ns, q) / 1e3
    }
}

/// What the query side of a run adds up to.
#[derive(Debug, Default)]
pub struct QueryLog {
    pub latency: LatencyLog,
    /// Batches answered (each [`BATCH`] queries, all oracle-checked).
    pub batches: u64,
    /// Answers the oracle rejected, plus [`BATCH`] for every batch whose
    /// snapshot failed its checksum.
    pub failed: u64,
    /// Queries per second of *answering* time, one sample per window (the
    /// checking between batches is not answering time).
    pub qps: Vec<f64>,
}

impl QueryLog {
    pub fn queries(&self) -> u64 {
        self.batches * BATCH as u64
    }

    /// One window: calls `batch` while `more(batches so far)`. `batch`
    /// answers one batch of [`BATCH`] queries, checks it, and returns
    /// `(answering time, rejected answers)`.
    pub fn window(
        &mut self,
        mut more: impl FnMut(u64) -> bool,
        mut batch: impl FnMut() -> (Duration, u64),
    ) {
        let (mut busy, mut count) = (Duration::ZERO, 0u64);
        while more(count) {
            let (dt, failed) = batch();
            busy += dt;
            count += 1;
            self.latency.push(dt.as_nanos() as u64);
            self.failed += failed;
        }
        if count > 0 {
            self.batches += count;
            self.qps
                .push((count * BATCH as u64) as f64 / busy.as_secs_f64());
        }
    }
}

/// Answers and checks `count` batches on `table` as one window.
pub fn batches_on_table(
    table: &RouteTable,
    truth: &Truth,
    count: u64,
    lcg: &mut Lcg,
    batch: &mut Batch,
    log: &mut QueryLog,
) {
    let n = table.num_nodes() as u32;
    log.window(
        |done| done < count,
        || {
            batch.draw(lcg, n);
            let t0 = Instant::now();
            batch.answer(table);
            (t0.elapsed(), batch.failures(truth))
        },
    );
}

/// One reader's state on a [`ServeHandle`]: a closed loop of `load()` +
/// one batch, each batch checked against the oracle of the epoch its
/// snapshot carries before the next one starts.
#[derive(Debug)]
pub struct Reader {
    handle: ServeHandle,
    n: u32,
    lcg: Lcg,
    batch: Batch,
    pub log: QueryLog,
    /// Epochs this reader loaded; each snapshot was checksum-verified when
    /// its epoch was first seen.
    pub epochs: BTreeSet<u64>,
}

impl Reader {
    pub fn new(handle: ServeHandle, seed: u64) -> Reader {
        Reader {
            n: handle.load().num_nodes() as u32,
            handle,
            lcg: Lcg::new(seed),
            batch: Batch::default(),
            log: QueryLog::default(),
            epochs: BTreeSet::new(),
        }
    }

    /// One window of batches while `more(batches so far)`; `truth_of` maps
    /// a snapshot's epoch to its oracle.
    pub fn window<'t>(
        &mut self,
        more: impl FnMut(u64) -> bool,
        truth_of: impl Fn(u64) -> &'t Truth,
    ) {
        let Reader {
            handle,
            n,
            lcg,
            batch,
            log,
            epochs,
        } = self;
        log.window(more, || {
            batch.draw(lcg, *n);
            let t0 = Instant::now();
            let snap = handle.load();
            batch.answer(&snap);
            let dt = t0.elapsed();
            let mut failed = batch.failures(truth_of(snap.epoch()));
            if epochs.insert(snap.epoch()) && !snap.verify() {
                failed = BATCH as u64;
            }
            (dt, failed)
        });
    }
}
