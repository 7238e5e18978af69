//! The closed loop every workload runs in: set up (several times, so
//! `setup_s` is a median), then one client issuing ops back to back for
//! `--seconds`, each op checked against its oracle before the next starts.
//!
//! The op sequence of a workload repeats with a fixed period (its
//! *cycle*), so the model cost of one cycle — rounds, messages, bits — is
//! a function of the seed alone. The loop asserts that: every later pass
//! over a cycle position must reproduce the first pass's `RunStats`.
//!
//! In a traced run ops alternate (in whole *units*, so a remove/insert
//! pair stays together) between plain — exactly what the untraced run
//! does — and traced: spans on, `PhaseProfiler` attached. Their ratio is
//! the tracing overhead; the plain ones supply engine wall times that no
//! observer inflates.

use std::time::{Duration, Instant};

use dapsp_congest::{ExecutorKind, ObserverHandle, PhaseProfiler, RunStats, SharedObserver};
use dapsp_core::{CoreError, Obs};

use crate::alloc;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::query::QueryLog;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// How often set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;

/// The share of a traced op that may lie outside every layer's span.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// One invocation's arguments.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Quarter-size graphs; same checks.
    pub smoke: bool,
}

impl RunCfg {
    /// `full` nodes, or a quarter of them under `--smoke`.
    pub fn nodes(&self, full: usize) -> usize {
        if self.smoke {
            full / 4
        } else {
            full
        }
    }
}

/// The `Obs` a core entry point gets: watching when the op is profiled.
pub fn obs_of(observer: Option<&ObserverHandle>) -> Obs<'_> {
    observer.map_or_else(Obs::none, Obs::watching)
}

/// Runs `f` and files its wall time under `name`.
pub fn timed<R>(metrics: &mut Metrics, name: &str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let value = f();
    metrics.sample(name, t0.elapsed().as_secs_f64() * 1e3);
    value
}

/// What one op hands back to the loop.
#[derive(Debug, Default)]
struct OpCost {
    /// Every engine run of the op, absorbed sequentially.
    stats: RunStats,
    /// `n × rounds` summed over the runs: what a dense engine would step.
    dense_node_rounds: u64,
    /// Wall time inside `core` entry points, and the engine's share of it.
    core_entry: Duration,
    core_engine: Duration,
    failed: bool,
}

/// The per-op context a workload's `op` works through.
pub struct OpCx {
    pub tr: Tracer,
    /// The query side of the run.
    pub queries: QueryLog,
    profiler: Option<(SharedObserver<PhaseProfiler>, ObserverHandle)>,
    cost: OpCost,
}

impl OpCx {
    fn new(origin: Instant) -> OpCx {
        OpCx {
            tr: Tracer::new(origin, 1),
            queries: QueryLog::default(),
            profiler: None,
            cost: OpCost::default(),
        }
    }

    /// A throwaway context for a set-up's warm-up ops: nothing it records
    /// is kept.
    pub fn warm_up() -> OpCx {
        OpCx::new(Instant::now())
    }

    /// Calls one public `core` entry point: a span named `name`, the
    /// profiler attached if this op is profiled, its wall time booked as
    /// `core` time. An `Err` fails the op.
    pub fn core<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(Option<&ObserverHandle>) -> Result<R, CoreError>,
    ) -> Option<R> {
        let open = self.tr.begin("core", name);
        let t0 = Instant::now();
        let result = f(self.profiler.as_ref().map(|(_, handle)| handle));
        self.cost.core_entry += t0.elapsed();
        self.tr.end(open);
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                self.cost.failed = true;
                None
            }
        }
    }

    /// Books the `RunStats` a [`core`](Self::core) call returned, on an
    /// `n`-node graph.
    pub fn ran(&mut self, n: usize, stats: &RunStats) {
        self.cost.core_engine += stats.wall_time;
        self.ran_in_service(n, stats);
    }

    /// Books `RunStats` of a run made inside `serve` (read off the table
    /// it produced): model cost and engine wall, but no `core` entry time
    /// to set it against.
    pub fn ran_in_service(&mut self, n: usize, stats: &RunStats) {
        self.cost.stats.absorb_sequential(stats);
        self.cost.dense_node_rounds += n as u64 * stats.rounds;
    }

    /// Books the engine share of a [`core`](Self::core) call that re-ran
    /// work already booked (a traced replica): `core` host time only.
    pub fn reran(&mut self, stats: &RunStats) {
        self.cost.core_engine += stats.wall_time;
    }

    /// Marks the running op failed (a serve call returned `Err`).
    pub fn fail(&mut self, why: &str) {
        eprintln!("op failed: {why}");
        self.cost.failed = true;
    }
}

/// A workload: how to set it up, what one op is, how to check it.
pub trait Workload: Sized {
    /// Ops after which the sequence repeats.
    const CYCLE: usize;
    /// Ops that stay together when a traced run alternates plain and
    /// traced ops.
    const UNIT: usize;

    /// Builds inputs, oracles and whatever serves, then warms up. Timed as
    /// a whole (`setup_s`); parts file themselves in `metrics`.
    fn set_up(cfg: &RunCfg, metrics: &mut Metrics) -> Self;

    /// Called once, after the last set-up and before the first op;
    /// `origin` is the time spans count from.
    fn start(&mut self, _cfg: &RunCfg, _origin: Instant) {}

    /// Runs op `index` and returns its wall time, measured by the op
    /// itself so that work it does for the checker stays outside.
    fn op(&mut self, index: usize, cx: &mut OpCx) -> Duration;

    /// Holds the result of the op just run to its oracle (untimed). A
    /// traced op may also re-run parts of itself here under spans, to
    /// attribute what the op's own call hides.
    fn check(&mut self, index: usize, cx: &mut OpCx) -> bool;

    /// Called once after the last op: joins threads, files the layer
    /// metrics only this workload knows.
    fn finish(&mut self, _cfg: &RunCfg, _cx: &mut OpCx, _metrics: &mut Metrics) -> bool {
        true
    }

    /// More tracers to write out (other threads').
    fn extra_tracers(&self) -> Vec<&Tracer> {
        Vec::new()
    }
}

/// What a run amounts to: the contract's result line, plus the spans.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Chrome-trace JSON of the traced run (`None` untraced).
    pub trace_json: Option<String>,
    /// Ops and batches behind the timing metrics, for the human reader.
    pub summary: String,
}

impl Outcome {
    /// The last line of standard output.
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.to_json(table)
        )
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `W` under `cfg`.
pub fn run<W: Workload>(cfg: &RunCfg) -> Outcome {
    let origin = Instant::now();
    let mut m = Metrics::default();

    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::set_up(cfg, &mut m));
        m.sample("setup_s", t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUPS > 0");
    w.start(cfg, origin);

    let mut cx = OpCx::new(origin);
    let min_ops = W::CYCLE.max(2 * W::UNIT);
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut plain_engine_ms = Vec::new();
    let mut cycle: Vec<Option<RunStats>> = vec![None; W::CYCLE];
    let mut cycle_dense = vec![0u64; W::CYCLE];
    let (mut ops, mut failed_ops) = (0u64, 0u64);

    let started = Instant::now();
    let mut index = 0usize;
    while started.elapsed().as_secs_f64() < cfg.seconds || index < min_ops {
        let traced = cfg.trace && (index / W::UNIT) % 2 == 1;
        cx.tr.start_op(index as u32, traced);
        cx.profiler = traced.then(|| {
            let shared = SharedObserver::new(PhaseProfiler::new());
            let handle = shared.observer();
            (shared, handle)
        });
        let alloc0 = alloc::totals();
        let wall = w.op(index, &mut cx);
        let alloc1 = alloc::totals();
        let checked = w.check(index, &mut cx);
        let cost = std::mem::take(&mut cx.cost);
        let mut ok = checked && !cost.failed;

        // The determinism gate: same cycle position, same model cost.
        match &cycle[index % W::CYCLE] {
            None => {
                cycle[index % W::CYCLE] = Some(cost.stats);
                cycle_dense[index % W::CYCLE] = cost.dense_node_rounds;
            }
            Some(first) if *first != cost.stats => {
                eprintln!(
                    "op {index}: model cost {} differs from first pass {first}",
                    cost.stats
                );
                ok = false;
            }
            Some(_) => {}
        }
        // No workload injects faults, so the only legitimate drops are the
        // messages in flight on an edge a topology plan removes.
        if cost.stats.dropped != 0 && cost.stats.topo_events == 0 {
            eprintln!(
                "op {index}: {} messages dropped without a cause",
                cost.stats.dropped
            );
            ok = false;
        }
        ops += 1;
        failed_ops += u64::from(!ok);

        let wall_ms = wall.as_secs_f64() * 1e3;
        let engine_ms = cost.stats.wall_time.as_secs_f64() * 1e3;
        if traced {
            traced_ms.push(wall_ms);
            m.sample("host.alloc_count_per_op", (alloc1.0 - alloc0.0) as f64);
            m.sample("host.alloc_bytes_per_op", (alloc1.1 - alloc0.1) as f64);
            let entry_ms = cost.core_entry.as_secs_f64() * 1e3;
            if entry_ms > 0.0 {
                let host_ms = entry_ms - cost.core_engine.as_secs_f64() * 1e3;
                m.sample("core.host_ms", host_ms);
                m.sample("core.host_share", host_ms / entry_ms);
            }
            if let Some((shared, _)) = cx.profiler.take() {
                shared.with(|p| file_profile(&mut m, p));
            }
        } else {
            plain_ms.push(wall_ms);
            plain_engine_ms.push(engine_ms);
        }
        index += 1;
    }

    for by_name in cx.tr.ms_by_op_and_name().values() {
        for (name, ms) in by_name {
            m.sample(&format!("{name}_ms"), *ms);
        }
    }
    let finished = w.finish(cfg, &mut cx, &mut m);
    failed_ops += u64::from(!finished);
    // The reconciliation rule: the layers' spans must account for the op.
    let unattributed = median(&cx.tr.unattributed_fracs());
    if unattributed >= MAX_UNATTRIBUTED {
        eprintln!(
            "{:.1} % of the median traced op is in no layer's span",
            unattributed * 100.0
        );
        failed_ops += 1;
    }

    // End to end. Timings are reported as what an op or a batch costs when
    // the host leaves it alone — the fastest op, the fastest percentile of
    // batches — because on a shared host the slow tail, and with it the
    // median, measures the neighbours (see README, "Why floors").
    m.set(
        "op_ms_min",
        plain_ms.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let first_pass: Vec<RunStats> = cycle.iter().flatten().copied().collect();
    let total = first_pass.iter().fold(RunStats::default(), |mut acc, s| {
        acc.absorb_sequential(s);
        acc
    });
    m.set("model_rounds", total.rounds as f64);
    m.set("query_batch_us_p01", cx.queries.latency.us(0.01));
    m.set("peak_rss_mb", peak_rss_mb());
    // The typical values, for the reader and the traced table.
    m.set("op_ms_p50", percentile(&plain_ms, 0.5));
    m.set("op_ms_p75", percentile(&plain_ms, 0.75));
    m.set("queries_per_s", median(&cx.queries.qps));
    m.set("query_batch_us_p50", cx.queries.latency.us(0.5));

    // Per layer: counts of one cycle (exact for a seed) ...
    file_model_cost(&mut m, &total, cycle_dense.iter().sum());
    // ... engine wall of the plain ops, per op and per round of an op ...
    let engine_ms = median(&plain_engine_ms);
    let rounds_per_op = total.rounds as f64 / W::CYCLE as f64;
    m.set("congest.engine_wall_ms", engine_ms);
    m.set(
        "congest.us_per_round",
        ratio(engine_ms * 1e3, rounds_per_op),
    );
    // ... and what only the traced ones know (their spans were filed
    // before `finish`, which derives from them).
    m.set("serve.handle.batch_us_p99", cx.queries.latency.us(0.99));
    m.set("serve.handle.batch_us_p999", cx.queries.latency.us(0.999));
    m.set("trace.unattributed_frac", unattributed);
    m.set("trace.ops_plain", plain_ms.len() as f64);
    m.set("trace.ops_traced", traced_ms.len() as f64);
    m.set("trace.query_batches", cx.queries.batches as f64);
    if !traced_ms.is_empty() {
        m.set(
            "trace.overhead_frac",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        );
    }

    let attempted = ops + cx.queries.queries();
    let failed = failed_ops + cx.queries.failed;
    m.set("failed_frac", failed as f64 / attempted as f64);

    let summary = format!(
        "{}: {} ops ({} plain, {} traced; plain min/p50/p75 {:.3}/{:.3}/{:.3} ms), \
         {} query batches of {} (p01/p50 {:.3}/{:.3} us, {:.0} queries/s), {} failed",
        cfg.workload,
        ops,
        plain_ms.len(),
        traced_ms.len(),
        m.get("op_ms_min"),
        m.get("op_ms_p50"),
        m.get("op_ms_p75"),
        cx.queries.batches,
        crate::query::BATCH,
        m.get("query_batch_us_p01"),
        m.get("query_batch_us_p50"),
        m.get("queries_per_s"),
        failed
    );
    let trace_json = cfg.trace.then(|| {
        let mut tracers = vec![&cx.tr];
        tracers.extend(w.extra_tracers());
        crate::trace::chrome_trace(&cfg.workload, &tracers)
    });
    Outcome {
        attempted,
        failed,
        metrics: m,
        trace_json,
        summary,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Files the model cost of one cycle; `dense` is Σ n·rounds over its runs.
fn file_model_cost(m: &mut Metrics, total: &RunStats, dense: u64) {
    let scheduled = total.scheduled_node_rounds as f64;
    for (name, value) in [
        ("congest.rounds", total.rounds as f64),
        ("congest.messages", total.messages as f64),
        ("congest.bits", total.bits as f64),
        (
            "congest.max_messages_per_round",
            total.max_messages_per_round as f64,
        ),
        ("congest.dropped", total.dropped as f64),
        ("congest.scheduled_node_rounds", scheduled),
        ("congest.sched_density", ratio(scheduled, dense as f64)),
        (
            "kernel.repaired_node_rounds",
            total.repaired_node_rounds as f64,
        ),
        (
            "kernel.recompute_fallbacks",
            total.recompute_fallbacks as f64,
        ),
    ] {
        m.set(name, value);
    }
}

/// Files one profiled op's deliver/step/commit split: `deliver` and
/// `commit` are the round engine's own phases, `step` is the kernel
/// protocols it hosts.
fn file_profile(m: &mut Metrics, profiler: &PhaseProfiler) {
    let total = profiler.total();
    if profiler.profiles().is_empty() {
        return;
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (deliver, step, commit) = (ms(total.deliver), ms(total.step), ms(total.commit));
    let messages = total.messages as f64;
    m.sample("congest.deliver_ms", deliver);
    m.sample("congest.commit_ms", commit);
    m.sample("kernel.step_ms", step);
    m.sample("kernel.step_share", ratio(step, deliver + step + commit));
    m.sample(
        "congest.ns_per_msg",
        ratio((deliver + commit) * 1e6, messages),
    );
    m.sample("kernel.ns_per_msg", ratio(step * 1e6, messages));
    m.sample("core.runs_per_op", profiler.profiles().len() as f64);
}

/// Runs the engine part of an op on the serial executor and on a 2-worker
/// pool, three times each, alternating; files the ratio of the median
/// engine walls and the pool's scheduler counters. The model cost must not
/// depend on the executor: `false` if it does or a run fails.
pub fn pool_speedup(
    m: &mut Metrics,
    engine_runs: impl Fn(ExecutorKind) -> Option<RunStats>,
) -> bool {
    let (mut serial, mut pool) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (Some(s), Some(p)) = (
            engine_runs(ExecutorKind::Serial),
            engine_runs(ExecutorKind::Pool { workers: 2 }),
        ) else {
            return false;
        };
        if s != p {
            eprintln!("pool-2 model cost {p} differs from serial {s}");
            return false;
        }
        serial.push(s.wall_time.as_secs_f64());
        pool.push(p.wall_time.as_secs_f64());
        m.sample("congest.steals", p.steals as f64);
        m.sample("congest.chunks_stepped", p.chunks_stepped as f64);
    }
    m.set(
        "congest.pool2_speedup",
        ratio(median(&serial), median(&pool)),
    );
    true
}
