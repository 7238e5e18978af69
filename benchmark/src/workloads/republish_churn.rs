//! `republish_churn`: the staleness window a serving user sees.
//!
//! One op is one `RouteService::apply` of a single-edge `TopologyPlan` —
//! alternately removing one of [`EDGES`] seeded, connectivity-preserving
//! edges and putting it back — followed by [`BATCHES`] query batches
//! through the handle, the first reads of the table just published. It
//! uses `congest` and `kernel` differently from `apsp_dense`:
//! `RepairKernel` instead of the wave/pebble stack, no pebble schedule,
//! several times the step time per message; then `from_churned` and the
//! host-side girth derivation.
//!
//! `apply` cannot be observed from outside, so a traced op re-runs its
//! pipeline afterwards through the same public calls the service makes
//! (the *replica*: topology, `apsp::run_churned_on`, `from_churned`),
//! each under a span and with the profiler attached.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dapsp_congest::{churned_topology, TopologyPlan};
use dapsp_core::{apsp, churned_graph};
use dapsp_graph::{generators, reference, Graph};
use dapsp_serve::{RouteService, RouteTable};

use crate::harness::{obs_of, ratio, timed, OpCx, RunCfg, Workload};
use crate::metrics::Metrics;
use crate::query::{table_bytes, Reader, Truth};
use crate::span;
use crate::stats::{median, splitmix};
use crate::trace::ROOT;

/// Nodes of the Watts–Strogatz graph (a quarter under `--smoke`).
const NODES: usize = 256;
/// Seeded edges the ops cycle through.
pub const EDGES: usize = 8;
/// Query batches after each republish.
const BATCHES: u64 = 16;

/// The graph states a cycle of single-edge plans moves through, with their
/// oracles: the base graph, and the base minus each chosen edge.
pub struct Churn {
    pub base: Truth,
    pub minus: Vec<Truth>,
    pub edges: Vec<(u32, u32)>,
}

impl Churn {
    /// Picks [`EDGES`] edges of `graph` in seeded order, keeping those
    /// whose removal leaves it connected, and runs the oracle on each state.
    pub fn new(graph: Graph, seed: u64, m: &mut Metrics) -> Churn {
        let mut candidates: Vec<(u32, u32)> = graph.edges().collect();
        candidates.sort_by_key(|&(u, v)| splitmix(seed, (u64::from(u) << 32) | u64::from(v)));
        let mut edges = Vec::new();
        let mut minus = Vec::new();
        timed(m, "graph.oracle_ms", || {
            for (u, v) in candidates {
                let plan = TopologyPlan::new().with_remove(1, u, v);
                let cut = churned_graph(&graph, &plan).expect("an edge of the graph");
                if reference::is_connected(&cut) {
                    edges.push((u, v));
                    minus.push(Truth::of(cut));
                    if edges.len() == EDGES {
                        break;
                    }
                }
            }
            assert_eq!(edges.len(), EDGES, "graph has too few removable edges");
            Churn {
                base: Truth::of(graph),
                minus,
                edges,
            }
        })
    }

    /// The plan that leads from epoch `epoch` to the next: even epochs
    /// serve the base graph and remove an edge, odd ones put it back.
    pub fn plan_after(&self, epoch: u64) -> TopologyPlan {
        let (u, v) = self.edges[(epoch / 2) as usize % EDGES];
        if epoch.is_multiple_of(2) {
            TopologyPlan::new().with_remove(1, u, v)
        } else {
            TopologyPlan::new().with_insert(1, u, v)
        }
    }

    /// The oracle of the graph epoch `epoch` serves.
    pub fn truth_of(&self, epoch: u64) -> &Truth {
        if epoch.is_multiple_of(2) {
            &self.base
        } else {
            &self.minus[(epoch / 2) as usize % EDGES]
        }
    }
}

/// What the two churn workloads keep about their applies, to set a
/// repair against the initial build of the same graph.
#[derive(Debug, Default)]
pub struct Applies {
    build_rounds: u64,
    ms: Vec<f64>,
    rounds: Vec<f64>,
}

impl Applies {
    /// Books one successful apply: its wall time and the table it published.
    pub fn record(&mut self, wall: Duration, table: &RouteTable) {
        self.ms.push(wall.as_secs_f64() * 1e3);
        self.rounds.push(table.stats().rounds as f64);
    }

    /// Files the repair-vs-build ratios, in wall and in rounds.
    pub fn file(&self, m: &mut Metrics) {
        m.set(
            "serve.service.apply_over_build",
            ratio(median(&self.ms), m.get("serve.service.build_ms")),
        );
        m.set(
            "serve.service.repair_rounds_over_build",
            ratio(median(&self.rounds), self.build_rounds as f64),
        );
    }
}

/// The set-up the two churn workloads share: the seeded Watts–Strogatz
/// graph on `n` nodes, a service built on it (checked in full), and the
/// cycle of plans with their oracles.
pub fn churn_service(cfg: &RunCfg, n: usize, m: &mut Metrics) -> (Churn, RouteService, Applies) {
    let graph = timed(m, "graph.generate_ms", || {
        generators::watts_strogatz(n, 3, 0.05, splitmix(cfg.seed, 1))
    });
    let service = timed(m, "serve.service.build_ms", || {
        RouteService::build(&graph).expect("generated graph is connected")
    });
    let churn = Churn::new(graph, splitmix(cfg.seed, 2), m);
    let first = service.handle().load();
    assert!(churn.base.table_matches(&first), "initial build is wrong");
    m.set("serve.table.bytes", table_bytes(n));
    let applies = Applies {
        build_rounds: first.stats().rounds,
        ..Applies::default()
    };
    (churn, service, applies)
}

pub struct RepublishChurn {
    churn: Churn,
    service: RouteService,
    reader: Reader,
    applies: Applies,
    /// The last op's published table, and for a traced op what its
    /// replica starts from.
    published: Option<Arc<RouteTable>>,
    replica_from: Option<(Graph, TopologyPlan)>,
}

impl RepublishChurn {
    /// Re-runs what `apply` did, stage by stage, under spans.
    fn replica(&self, graph: &Graph, plan: &TopologyPlan, epoch: u64, cx: &mut OpCx) -> bool {
        let root = cx.tr.begin("bench", "replica");
        let open = cx.tr.begin("serve.service", "serve.service.topo");
        let topology = graph.to_topology();
        let final_topology = churned_topology(&topology, plan);
        let after = churned_graph(graph, plan);
        cx.tr.end(open);

        let open = cx.tr.begin("serve.service", "serve.service.rerun");
        let repaired = cx.core("core.apsp_churned", |o| {
            apsp::run_churned_on(&topology, plan, obs_of(o))
        });
        cx.tr.end(open);

        let open = cx.tr.begin("serve.service", "serve.service.compact");
        let table = match (&repaired, &final_topology) {
            (Some(repaired), Ok(final_topology)) => span!(
                cx.tr,
                "serve.table",
                "serve.table.from_churned",
                RouteTable::from_churned(repaired, final_topology, epoch).ok()
            ),
            _ => None,
        };
        cx.tr.end(open);
        cx.tr.end(root);

        // The replica must be what the service did: same graph, same model
        // cost, same answers.
        let (Some(repaired), Some(table), Ok(after)) = (repaired, table, after) else {
            return false;
        };
        cx.reran(&repaired.stats);
        let served = self.published.as_ref().expect("checked after an op");
        after == *self.service.graph()
            && repaired.stats == *served.stats()
            && self.churn.truth_of(epoch).table_matches(&table)
    }
}

impl Workload for RepublishChurn {
    const CYCLE: usize = 2 * EDGES;
    const UNIT: usize = 2;

    fn set_up(cfg: &RunCfg, m: &mut Metrics) -> RepublishChurn {
        let (churn, service, applies) = churn_service(cfg, cfg.nodes(NODES), m);
        let mut w = RepublishChurn {
            reader: Reader::new(service.handle(), cfg.seed),
            churn,
            service,
            applies,
            published: None,
            replica_from: None,
        };
        // One remove/insert pair to warm up; it leaves the base graph at
        // epoch 2, from where the cycle positions line up with op indices.
        let mut cx = OpCx::warm_up();
        for i in 0..2 {
            w.op(i, &mut cx);
            assert!(w.check(i, &mut cx), "warm-up op {i} is wrong");
        }
        w.applies.ms.clear();
        w.applies.rounds.clear();
        w
    }

    fn op(&mut self, _index: usize, cx: &mut OpCx) -> Duration {
        let n = self.churn.base.graph.num_nodes();
        let plan = self.churn.plan_after(self.service.epoch());
        if cx.tr.is_on() {
            self.replica_from = Some((self.service.graph().clone(), plan.clone()));
        }
        let t0 = Instant::now();
        let root = cx.tr.begin("bench", ROOT);
        let applied = span!(
            cx.tr,
            "serve.service",
            "serve.service.apply",
            self.service.apply(&plan)
        );
        let apply_wall = t0.elapsed();
        match applied {
            Ok(table) => {
                cx.ran_in_service(n, table.stats());
                self.applies.record(apply_wall, &table);
                self.published = Some(table);
                let open = cx.tr.begin("serve.handle", "serve.handle.batches");
                let churn = &self.churn;
                self.reader
                    .window(|done| done < BATCHES, |epoch| churn.truth_of(epoch));
                cx.tr.end(open);
            }
            Err(e) => cx.fail(&e.to_string()),
        }
        cx.tr.end(root);
        t0.elapsed()
    }

    fn check(&mut self, _index: usize, cx: &mut OpCx) -> bool {
        let Some(table) = &self.published else {
            return false;
        };
        let epoch = self.service.epoch();
        let mut ok = table.epoch() == epoch
            && table.verify()
            && self.churn.truth_of(epoch).table_matches(table);
        if let Some((graph, plan)) = self.replica_from.take() {
            ok &= self.replica(&graph, &plan, epoch, cx);
        }
        ok
    }

    fn finish(&mut self, _cfg: &RunCfg, cx: &mut OpCx, m: &mut Metrics) -> bool {
        cx.queries = std::mem::take(&mut self.reader.log);
        self.applies.file(m);
        let stages = ["topo", "rerun", "compact"]
            .iter()
            .map(|stage| m.get(&format!("serve.service.{stage}_ms")))
            .sum::<f64>();
        if stages > 0.0 {
            m.set(
                "serve.service.unattributed_ms",
                m.get("serve.service.apply_ms") - stages,
            );
        }
        true
    }
}
