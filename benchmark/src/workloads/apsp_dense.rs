//! `apsp_dense`: cold builds of a routing table, the paper's Algorithm 1
//! end to end.
//!
//! One op builds a table from scratch on each of two graphs —
//! `to_topology` → `apsp::run_on` → `RouteTable::from_apsp` → `verify()` →
//! [`BATCHES`] query batches on the fresh table — so every op carries
//! roughly `n · 2m` wave messages per graph and the per-message cost of
//! `congest` (commit) and `kernel` (step) is nearly all of it. The
//! Watts–Strogatz graph is near-regular; the Barabási–Albert graph has
//! hubs, which is where a frontier chunk or an inbox scan can go wrong.

use std::time::{Duration, Instant};

use dapsp_congest::RunStats;
use dapsp_core::{apsp, Obs};
use dapsp_graph::generators;
use dapsp_serve::RouteTable;

use crate::harness::{obs_of, pool_speedup, timed, OpCx, RunCfg, Workload};
use crate::metrics::Metrics;
use crate::query::{batches_on_table, table_bytes, Batch, Truth};
use crate::span;
use crate::stats::{splitmix, Lcg};

/// Nodes per graph (a quarter under `--smoke`).
const NODES: usize = 384;
/// Query batches on each fresh table.
const BATCHES: u64 = 16;

pub struct ApspDense {
    sides: Vec<Side>,
    lcg: Lcg,
    batch: Batch,
}

struct Side {
    truth: Truth,
    /// The table the last op built, until `check` takes it.
    built: Option<(RouteTable, bool)>,
}

impl Side {
    /// One cold build; `None` if the run failed.
    fn build(&mut self, cx: &mut OpCx, lcg: &mut Lcg, batch: &mut Batch) {
        let n = self.truth.graph.num_nodes();
        let topology = span!(
            cx.tr,
            "graph",
            "graph.to_topology",
            self.truth.graph.to_topology()
        );
        let Some(result) = cx.core("core.apsp", |o| apsp::run_on_obs(&topology, obs_of(o))) else {
            return;
        };
        cx.ran(n, &result.stats);
        let table = span!(
            cx.tr,
            "serve.table",
            "serve.table.from_apsp",
            RouteTable::from_apsp(result, 0)
        );
        let verified = span!(cx.tr, "serve.table", "serve.table.verify", table.verify());
        let open = cx.tr.begin("serve.handle", "serve.handle.batches");
        batches_on_table(&table, &self.truth, BATCHES, lcg, batch, &mut cx.queries);
        cx.tr.end(open);
        self.built = Some((table, verified));
    }
}

impl Workload for ApspDense {
    const CYCLE: usize = 1;
    const UNIT: usize = 1;

    fn set_up(cfg: &RunCfg, m: &mut Metrics) -> ApspDense {
        let n = cfg.nodes(NODES);
        let graphs = timed(m, "graph.generate_ms", || {
            [
                generators::watts_strogatz(n, 3, 0.05, splitmix(cfg.seed, 1)),
                generators::barabasi_albert(n, 3, splitmix(cfg.seed, 2)),
            ]
        });
        let sides = timed(m, "graph.oracle_ms", || {
            graphs
                .into_iter()
                .map(|g| Side {
                    truth: Truth::of(g),
                    built: None,
                })
                .collect()
        });
        let mut w = ApspDense {
            sides,
            lcg: Lcg::new(cfg.seed),
            batch: Batch::default(),
        };
        m.set("serve.table.bytes", 2.0 * table_bytes(n));
        // Two warm-up ops on a throwaway context: page in the allocator's
        // arenas and the code, as the first timed op would otherwise.
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
            side.build(cx, &mut self.lcg, &mut self.batch);
        }
        cx.tr.end(root);
        t0.elapsed()
    }

    fn check(&mut self, _index: usize, _cx: &mut OpCx) -> bool {
        self.sides.iter_mut().all(|side| match side.built.take() {
            Some((table, verified)) => verified && side.truth.table_matches(&table),
            None => false,
        })
    }

    fn finish(&mut self, cfg: &RunCfg, _cx: &mut OpCx, m: &mut Metrics) -> bool {
        if !cfg.trace {
            return true;
        }
        pool_speedup(m, |executor| {
            let mut total = RunStats::default();
            for side in &self.sides {
                let topology = side.truth.graph.to_topology();
                let result =
                    apsp::run_on_obs(&topology, Obs::none().with_executor(executor)).ok()?;
                total.absorb_sequential(&result.stats);
            }
            Some(total)
        })
    }
}
