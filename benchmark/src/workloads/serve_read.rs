//! `serve_read`: the read path when every lookup misses cache.
//!
//! One reader, one immutable table too large for L2 (two flat `u32`
//! arrays of `n²`), pairs drawn by an LCG so consecutive lookups share no
//! line. The loop alternates one *audit* op — `load()` the snapshot and
//! `verify()` its checksum, a sequential sweep of the whole payload — with
//! a [`WINDOW`] of query batches, each checked against the oracle before
//! the next is drawn (which also evicts the table between batches, so no
//! batch profits from the last one's lines).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dapsp_graph::generators;
use dapsp_serve::{RouteService, ServeHandle};

use crate::harness::{timed, OpCx, RunCfg, Workload};
use crate::metrics::Metrics;
use crate::query::{table_bytes, Reader, Truth};
use crate::span;
use crate::stats::{splitmix, Lcg};
use crate::trace::ROOT;

/// Nodes of the Watts–Strogatz graph (a quarter under `--smoke`):
/// 2 × 6.25 MiB of table against 4 MiB of L2.
const NODES: usize = 1280;
/// How long the reader answers between two audits.
pub const WINDOW: Duration = Duration::from_millis(200);
/// Calls per block of the per-call timings a traced run takes.
const BLOCK: usize = 4096;

pub struct ServeRead {
    truth: Truth,
    /// Keeps the publisher alive; nothing is applied in this workload.
    _service: RouteService,
    handle: ServeHandle,
    reader: Reader,
    window: Duration,
    verified: bool,
    micro: Metrics,
    micro_lcg: Lcg,
}

impl Workload for ServeRead {
    const CYCLE: usize = 1;
    const UNIT: usize = 1;

    fn set_up(cfg: &RunCfg, m: &mut Metrics) -> ServeRead {
        let n = cfg.nodes(NODES);
        let graph = timed(m, "graph.generate_ms", || {
            generators::watts_strogatz(n, 3, 0.05, splitmix(cfg.seed, 1))
        });
        let service = timed(m, "serve.service.build_ms", || {
            RouteService::build(&graph).expect("generated graph is connected")
        });
        let truth = timed(m, "graph.oracle_ms", || Truth::of(graph));
        let handle = service.handle();
        // Every pair of the served table, once, through the same lookups
        // the batches use.
        assert!(truth.table_matches(&handle.load()), "served table is wrong");
        m.set("serve.table.bytes", table_bytes(n));
        let mut w = ServeRead {
            truth,
            reader: Reader::new(handle.clone(), cfg.seed),
            handle,
            _service: service,
            window: WINDOW / 10,
            verified: false,
            micro: Metrics::default(),
            micro_lcg: Lcg::new(splitmix(cfg.seed, 3)),
        };
        let mut cx = OpCx::warm_up();
        for i in 0..2 {
            w.op(i, &mut cx);
            assert!(w.check(i, &mut cx), "warm-up audit failed");
        }
        w.reader = Reader::new(w.handle.clone(), cfg.seed);
        w.window = if cfg.smoke { WINDOW / 4 } else { WINDOW };
        w
    }

    fn op(&mut self, _index: usize, cx: &mut OpCx) -> Duration {
        let t0 = Instant::now();
        let root = cx.tr.begin("bench", ROOT);
        let snap = span!(
            cx.tr,
            "serve.handle",
            "serve.handle.load",
            self.handle.load()
        );
        self.verified = span!(cx.tr, "serve.table", "serve.table.verify", snap.verify());
        cx.tr.end(root);
        let wall = t0.elapsed();
        // The model cost behind what is being served: the run that built
        // the snapshot, read off the snapshot.
        cx.ran_in_service(snap.num_nodes(), snap.stats());

        let start = Instant::now();
        let (window, truth) = (self.window, &self.truth);
        self.reader.window(|_| start.elapsed() < window, |_| truth);
        if cx.tr.is_on() {
            per_call_timings(&self.handle, &mut self.micro_lcg, &mut self.micro);
        }
        wall
    }

    fn check(&mut self, _index: usize, _cx: &mut OpCx) -> bool {
        std::mem::take(&mut self.verified)
    }

    fn finish(&mut self, _cfg: &RunCfg, cx: &mut OpCx, m: &mut Metrics) -> bool {
        cx.queries = std::mem::take(&mut self.reader.log);
        m.absorb(std::mem::take(&mut self.micro));
        m.set("serve.handle.epochs_seen", self.reader.epochs.len() as f64);
        true
    }
}

/// Times each read-side call on its own, in blocks of [`BLOCK`] same-kind
/// calls on fresh LCG pairs, and files nanoseconds per call (per hop for
/// `path`, per pair for `dist_batch`).
pub fn per_call_timings(handle: &ServeHandle, lcg: &mut Lcg, m: &mut Metrics) {
    let per = |t0: Instant, count: usize| t0.elapsed().as_nanos() as f64 / count.max(1) as f64;

    let t0 = Instant::now();
    for _ in 0..BLOCK {
        black_box(handle.load());
    }
    m.sample("serve.handle.load_ns", per(t0, BLOCK));

    let snap = handle.load();
    let n = snap.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..BLOCK).map(|_| lcg.pair(n)).collect();

    let t0 = Instant::now();
    for &(s, d) in &pairs {
        black_box(snap.dist(s, d));
    }
    m.sample("serve.handle.dist_ns", per(t0, BLOCK));

    let t0 = Instant::now();
    for &(s, d) in &pairs {
        black_box(snap.next_hop(s, d));
    }
    m.sample("serve.handle.next_hop_ns", per(t0, BLOCK));

    let t0 = Instant::now();
    let mut hops = 0;
    for &(s, d) in &pairs[..BLOCK / 8] {
        hops += black_box(snap.path(s, d)).map_or(0, |p| p.len() - 1);
    }
    m.sample("serve.handle.path_ns_per_hop", per(t0, hops));

    let t0 = Instant::now();
    black_box(snap.dist_batch(&pairs));
    m.sample("serve.handle.dist_batch_ns_per_pair", per(t0, BLOCK));
}
