//! `sparse_sweep`: the cheap algorithms on sparse, high-diameter graphs —
//! the mirror image of `apsp_dense`.
//!
//! One op runs `bfs::run_on(0)`, `ssp::run_on` (|S| = 8),
//! `approx::eccentricities(ε = 1)` and `approx::diameter_times_two` on a
//! square grid and on a random tree: a dozen short engine runs, thousands
//! of rounds that each carry few messages. What an op costs is therefore
//! per-round and per-run overhead in `congest`, plus host-side work in
//! `core` (config, per-run set-up, `fold_outputs`, result assembly) and in
//! `Graph::to_topology`, which the `approx::*(&Graph)` entry points redo on
//! every call. Per-message cost barely matters here.
//!
//! The query side reads the S-SP result the way its users do
//! (`SspResult::dist_to`), in batches of the same size as everywhere else.
//!
//! `girth_approx::run(0.5)` is deliberately not part of the op: it took
//! 470 s on the 64×64 grid when this workload was sized.

use std::time::{Duration, Instant};

use dapsp_congest::RunStats;
use dapsp_core::ssp::SspResult;
use dapsp_core::{approx, bfs, ssp, Obs};
use dapsp_graph::{generators, reference, Graph};

use crate::harness::{obs_of, pool_speedup, timed, OpCx, RunCfg, Workload};
use crate::metrics::Metrics;
use crate::query::{QueryLog, BATCH};
use crate::span;
use crate::stats::{splitmix, Lcg};

/// Grid side: `SIDE × SIDE` nodes, and as many in the tree (half the side,
/// so a quarter of the nodes, under `--smoke`).
const SIDE: usize = 48;
/// `|S|` of the S-SP call.
const SOURCES: usize = 8;
/// The ε of `approx::eccentricities`.
const EPS: f64 = 1.0;
/// Query batches per graph per op.
const BATCHES: u64 = 16;

pub struct SparseSweep {
    sides: Vec<Side>,
    lcg: Lcg,
}

struct Side {
    graph: Graph,
    sources: Vec<u32>,
    /// Oracles: BFS from node 0, one BFS row per source, eccentricities.
    from_zero: Vec<u32>,
    from_sources: Vec<Vec<u32>>,
    ecc: Vec<u32>,
    /// What the last op computed, until `check` takes it.
    got: Option<Got>,
}

struct Got {
    bfs: Vec<u32>,
    ssp: SspResult,
    ecc: Vec<u32>,
    diam2: u32,
}

impl Side {
    fn new(graph: Graph, seed: u64) -> Side {
        let n = graph.num_nodes() as u32;
        // Distinct seeded sources, spread one per n/|S| stripe.
        let mut lcg = Lcg::new(seed);
        let stripe = n / SOURCES as u32;
        let sources: Vec<u32> = (0..SOURCES as u32)
            .map(|i| i * stripe + lcg.below(stripe))
            .collect();
        Side {
            from_zero: reference::bfs(&graph, 0),
            from_sources: reference::s_shortest_paths(&graph, &sources),
            ecc: reference::eccentricities(&graph).expect("generated graphs are connected"),
            graph,
            sources,
            got: None,
        }
    }

    fn sweep(&mut self, cx: &mut OpCx, lcg: &mut Lcg) {
        let g = &self.graph;
        let n = g.num_nodes();
        let topology = span!(cx.tr, "graph", "graph.to_topology", g.to_topology());
        let bfs = cx.core("core.bfs", |o| bfs::run_on_obs(&topology, 0, obs_of(o)));
        let ssp = cx.core("core.ssp", |o| {
            ssp::run_on_obs(&topology, &self.sources, obs_of(o))
        });
        let ecc = cx.core("core.approx_ecc", |o| match o {
            Some(observer) => approx::eccentricities_observed(g, EPS, observer),
            None => approx::eccentricities(g, EPS),
        });
        // No observed variant exists, so its two runs stay unprofiled.
        let diam2 = cx.core("core.approx_diam2", |_| approx::diameter_times_two(g));
        let (Some(bfs), Some(ssp), Some(ecc), Some(diam2)) = (bfs, ssp, ecc, diam2) else {
            return;
        };
        for stats in [&bfs.stats, &ssp.stats, &ecc.stats, &diam2.stats] {
            cx.ran(n, stats);
        }
        let open = cx.tr.begin("core", "core.ssp_reads");
        ssp_batches(&ssp, &self.from_sources, lcg, &mut cx.queries);
        cx.tr.end(open);
        self.got = Some(Got {
            bfs: bfs.dist,
            ssp,
            ecc: ecc.estimates,
            diam2: diam2.value,
        });
    }

    /// Exact results equal the oracle; estimates lie in `[ecc, (1+ε)·ecc]`
    /// and `[D, 2D]`.
    fn check(&mut self) -> bool {
        let Some(got) = self.got.take() else {
            return false;
        };
        let n = self.graph.num_nodes();
        let diameter = *self.ecc.iter().max().expect("nonempty graph");
        let ssp_ok =
            (0..n).all(|v| (0..SOURCES).all(|i| got.ssp.dist[v][i] == self.from_sources[i][v]));
        let ecc_ok = got.ecc.len() == n
            && got.ecc.iter().zip(&self.ecc).all(|(&est, &exact)| {
                exact <= est && f64::from(est) <= (1.0 + EPS) * f64::from(exact)
            });
        got.bfs == self.from_zero
            && ssp_ok
            && ecc_ok
            && (diameter..=2 * diameter).contains(&got.diam2)
    }
}

/// [`BATCHES`] batches of [`BATCH`] `dist_to` reads on an S-SP result,
/// each answer compared with the oracle row of its source.
fn ssp_batches(ssp: &SspResult, oracle: &[Vec<u32>], lcg: &mut Lcg, log: &mut QueryLog) {
    let n = ssp.dist.len() as u32;
    let mut keys = [(0u32, 0usize); BATCH];
    let mut answers = [None; BATCH];
    log.window(
        |done| done < BATCHES,
        || {
            for key in &mut keys {
                let (v, i) = lcg.pair(n);
                *key = (v, i as usize % SOURCES);
            }
            let t0 = Instant::now();
            for (slot, &(v, i)) in answers.iter_mut().zip(&keys) {
                *slot = ssp.dist_to(v, ssp.sources[i]);
            }
            let dt = t0.elapsed();
            let rejected = keys
                .iter()
                .zip(&answers)
                .filter(|(&(v, i), &got)| got != Some(oracle[i][v as usize]));
            (dt, rejected.count() as u64)
        },
    );
}

impl Workload for SparseSweep {
    const CYCLE: usize = 1;
    const UNIT: usize = 1;

    fn set_up(cfg: &RunCfg, m: &mut Metrics) -> SparseSweep {
        let side = if cfg.smoke { SIDE / 2 } else { SIDE };
        let graphs = timed(m, "graph.generate_ms", || {
            [
                generators::grid(side, side),
                generators::random_tree(side * side, splitmix(cfg.seed, 1)),
            ]
        });
        let sides = timed(m, "graph.oracle_ms", || {
            graphs
                .into_iter()
                .zip(2..)
                .map(|(g, stream)| Side::new(g, splitmix(cfg.seed, stream)))
                .collect()
        });
        let mut w = SparseSweep {
            sides,
            lcg: Lcg::new(cfg.seed),
        };
        let mut cx = OpCx::warm_up();
        for i in 0..2 {
            w.op(i, &mut cx);
            w.check(i, &mut cx);
        }
        w
    }

    fn op(&mut self, _index: usize, cx: &mut OpCx) -> Duration {
        let t0 = Instant::now();
        let root = cx.tr.begin("bench", crate::trace::ROOT);
        for side in &mut self.sides {
            side.sweep(cx, &mut self.lcg);
        }
        cx.tr.end(root);
        t0.elapsed()
    }

    fn check(&mut self, _index: usize, _cx: &mut OpCx) -> bool {
        self.sides.iter_mut().all(Side::check)
    }

    fn finish(&mut self, cfg: &RunCfg, _cx: &mut OpCx, m: &mut Metrics) -> bool {
        if !cfg.trace {
            return true;
        }
        // Only `bfs` and `ssp` take an executor; the `approx` entry points
        // build their own serial configs.
        pool_speedup(m, |executor| {
            let obs = Obs::none().with_executor(executor);
            let mut total = RunStats::default();
            for side in &self.sides {
                let topology = side.graph.to_topology();
                total.absorb_sequential(&bfs::run_on_obs(&topology, 0, obs).ok()?.stats);
                total
                    .absorb_sequential(&ssp::run_on_obs(&topology, &side.sources, obs).ok()?.stats);
            }
            Some(total)
        })
    }
}
