//! `serve_mixed`: writes beside reads.
//!
//! The `republish_churn` cycle of single-edge plans, but applied by the
//! `RouteServiceController` thread (`apply_wait`, back to back) while one
//! reader thread runs the `serve_read` loop against the same handle: two
//! busy threads on a two-core host. The table is small enough to stay in
//! L2, so what the reader pays for is `load()` under a publisher and
//! whatever the publisher's work does to shared caches — a gain for
//! `apply` that costs readers, or a `load()` change that costs the
//! publisher, shows here and nowhere else. The reader checks every batch
//! against the oracle of the epoch its snapshot carries.
//!
//! A short quiet lead-in (reader alone) precedes the live phase; its
//! throughput is the yardstick for `serve.handle.live_over_quiet_qps`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dapsp_serve::{RouteServiceController, RouteTable, ServeHandle};

use crate::harness::{ratio, OpCx, RunCfg, Workload};
use crate::metrics::Metrics;
use crate::query::{QueryLog, Reader};
use crate::span;
use crate::stats::{median, splitmix, Lcg};
use crate::trace::{Tracer, ROOT};
use crate::workloads::republish_churn::{churn_service, Applies, Churn, EDGES};
use crate::workloads::serve_read::{per_call_timings, WINDOW};

/// Nodes of the Watts–Strogatz graph (a quarter under `--smoke`): a
/// 0.5 MiB table.
const NODES: usize = 256;
/// The quiet lead-in.
const QUIET: Duration = Duration::from_millis(1500);

/// What the reader thread hands back when stopped.
struct ReaderDone {
    quiet: QueryLog,
    live: QueryLog,
    epochs: usize,
    micro: Metrics,
    tracer: Tracer,
}

pub struct ServeMixed {
    churn: Arc<Churn>,
    controller: RouteServiceController,
    handle: ServeHandle,
    epoch: u64,
    applies: Applies,
    published: Option<Arc<RouteTable>>,
    /// Raised when the live phase starts, and when the reader must stop.
    live: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<ReaderDone>>,
    reader_tracer: Option<Tracer>,
}

/// The reader thread: windows of batches until told to stop, the quiet
/// ones logged apart from the live ones.
fn read_until_stopped(
    handle: ServeHandle,
    churn: Arc<Churn>,
    cfg: RunCfg,
    origin: Instant,
    live: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> ReaderDone {
    let mut reader = Reader::new(handle.clone(), cfg.seed);
    let mut tracer = Tracer::new(origin, 2);
    let mut micro = Metrics::default();
    let mut micro_lcg = Lcg::new(splitmix(cfg.seed, 3));
    let mut quiet = None;
    let mut window = 0;
    // Both flags publish nothing but themselves.
    while !stop.load(Ordering::Relaxed) {
        let is_live = live.load(Ordering::Relaxed);
        if is_live && quiet.is_none() {
            quiet = Some(std::mem::take(&mut reader.log));
        }
        tracer.start_op(window, cfg.trace);
        let start = Instant::now();
        span!(
            tracer,
            "serve.handle",
            if is_live {
                "serve.handle.live_window"
            } else {
                "serve.handle.quiet_window"
            },
            reader.window(
                |_| start.elapsed() < WINDOW && !stop.load(Ordering::Relaxed),
                |epoch| churn.truth_of(epoch),
            )
        );
        if cfg.trace && is_live {
            per_call_timings(&handle, &mut micro_lcg, &mut micro);
        }
        window += 1;
    }
    ReaderDone {
        quiet: quiet.unwrap_or_default(),
        live: reader.log,
        epochs: reader.epochs.len(),
        micro,
        tracer,
    }
}

impl Workload for ServeMixed {
    const CYCLE: usize = 2 * EDGES;
    const UNIT: usize = 2;

    fn set_up(cfg: &RunCfg, m: &mut Metrics) -> ServeMixed {
        let (churn, mut service, applies) = churn_service(cfg, cfg.nodes(NODES), m);
        let handle = service.handle();
        // Warm up with one remove/insert pair, applied in place.
        for epoch in 0..2 {
            let table = service
                .apply(&churn.plan_after(epoch))
                .expect("warm-up apply");
            assert!(churn.truth_of(epoch + 1).table_matches(&table));
        }
        ServeMixed {
            churn: Arc::new(churn),
            epoch: service.epoch(),
            controller: service.spawn(),
            handle,
            applies,
            published: None,
            live: Arc::default(),
            stop: Arc::default(),
            reader: None,
            reader_tracer: None,
        }
    }

    fn start(&mut self, cfg: &RunCfg, origin: Instant) {
        let (handle, churn, cfg_) = (self.handle.clone(), Arc::clone(&self.churn), cfg.clone());
        let (live, stop) = (Arc::clone(&self.live), Arc::clone(&self.stop));
        self.reader = Some(std::thread::spawn(move || {
            read_until_stopped(handle, churn, cfg_, origin, live, stop)
        }));
        std::thread::sleep(if cfg.smoke { QUIET / 4 } else { QUIET });
        self.live.store(true, Ordering::Relaxed);
    }

    fn op(&mut self, _index: usize, cx: &mut OpCx) -> Duration {
        let plan = self.churn.plan_after(self.epoch);
        let t0 = Instant::now();
        let root = cx.tr.begin("bench", ROOT);
        let applied = span!(
            cx.tr,
            "serve.service",
            "serve.service.apply",
            self.controller.apply_wait(plan)
        );
        cx.tr.end(root);
        let wall = t0.elapsed();
        match applied {
            Ok(epoch) => {
                self.epoch = epoch;
                let table = self.handle.load();
                cx.ran_in_service(table.num_nodes(), table.stats());
                self.applies.record(wall, &table);
                self.published = Some(table);
            }
            Err(e) => cx.fail(&e.to_string()),
        }
        wall
    }

    fn check(&mut self, _index: usize, _cx: &mut OpCx) -> bool {
        self.published.take().is_some_and(|table| {
            table.epoch() == self.epoch
                && table.verify()
                && self.churn.truth_of(self.epoch).table_matches(&table)
        })
    }

    fn finish(&mut self, _cfg: &RunCfg, cx: &mut OpCx, m: &mut Metrics) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        let Some(Ok(done)) = self.reader.take().map(JoinHandle::join) else {
            eprintln!("reader thread panicked");
            return false;
        };
        let quiet_qps = median(&done.quiet.qps);
        m.set("serve.handle.quiet_qps", quiet_qps);
        m.set(
            "serve.handle.live_over_quiet_qps",
            ratio(median(&done.live.qps), quiet_qps),
        );
        m.set("serve.handle.epochs_seen", done.epochs as f64);
        m.absorb(done.micro);
        // Every query counts as attempted; only the live ones are timed.
        cx.queries = done.live;
        cx.queries.batches += done.quiet.batches;
        cx.queries.failed += done.quiet.failed;
        self.reader_tracer = Some(done.tracer);

        self.applies.file(m);
        true
    }

    fn extra_tracers(&self) -> Vec<&Tracer> {
        self.reader_tracer.iter().collect()
    }
}
