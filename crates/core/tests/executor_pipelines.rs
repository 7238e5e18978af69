//! End-to-end executor parity at the pipeline layer: running the paper's
//! composite algorithms (pebble APSP, S-SP) with `Obs::with_executor`
//! selecting the worker-pool engine must reproduce the serial results —
//! distances, next hops, statistics, and the full per-phase event stream
//! — bit for bit. This pins the plumbing from `crates/core` down through
//! `Config::with_executor` into the pool's staged commit.

use dapsp_congest::{ExecutorKind, SharedObserver, TraceRecorder};
use dapsp_core::{apsp, ssp, Obs};
use dapsp_graph::{generators, Graph};

#[test]
fn apsp_pipeline_matches_across_executors() {
    let g = generators::watts_strogatz(24, 3, 0.1, 12);
    let topo = g.to_topology();
    let serial = apsp::run_on_obs(&topo, Obs::none()).expect("serial apsp");
    for workers in [2, 4] {
        let pooled = apsp::run_on_obs(
            &topo,
            Obs::none().with_executor(ExecutorKind::Pool { workers }),
        )
        .expect("pooled apsp");
        assert_eq!(serial.distances, pooled.distances, "workers={workers}");
        assert_eq!(serial.next_hop, pooled.next_hop, "workers={workers}");
        assert_eq!(
            serial.girth_candidate, pooled.girth_candidate,
            "workers={workers}"
        );
        assert_eq!(serial.stats, pooled.stats, "workers={workers}");
    }
}

/// A Watts–Strogatz ring whose node 0 is also joined to nodes `1..=80`:
/// a hub with more ports than a bitset word has bits.
fn hub(n: usize) -> Graph {
    let ring = generators::watts_strogatz(n, 2, 0.1, 7);
    let mut b = Graph::builder(n);
    for (u, v) in ring.edges() {
        b.add_edge(u, v).expect("valid edge");
    }
    for v in 1..=80 {
        if !ring.has_edge(0, v) {
            b.add_edge(0, v).expect("valid edge");
        }
    }
    b.build()
}

/// S-SP streams the same events on the serial and the pool executor: on a
/// tree, and on a hub with more than 64 ports and more than 64 sources
/// (given out of id order), so the growth's level index spans word
/// boundaries in both its port and its slot dimension.
#[test]
fn ssp_pipeline_streams_identical_events_across_executors() {
    // 27 is coprime to 100: seventy distinct ids, out of id order.
    let many: Vec<u32> = (0..70).map(|i| (i * 27 + 5) % 100).collect();
    let cases = [
        (generators::random_tree(20, 7), vec![0u32, 3, 11]),
        (hub(100), many),
    ];
    for (g, sources) in &cases {
        let topo = g.to_topology();
        let record = |executor: ExecutorKind| {
            let rec = SharedObserver::new(TraceRecorder::new());
            let handle = rec.observer();
            let result = ssp::run_on_obs(
                &topo,
                sources,
                Obs::watching(&handle).with_executor(executor),
            )
            .expect("ssp runs");
            (result, rec.with(|r| r.events_jsonl()))
        };

        let (serial, serial_stream) = record(ExecutorKind::Serial);
        let (pooled, pooled_stream) = record(ExecutorKind::Pool { workers: 3 });
        assert_eq!(serial.dist, pooled.dist);
        assert_eq!(serial.next_hop, pooled.next_hop);
        assert_eq!(serial.d0, pooled.d0);
        assert_eq!(serial.stats, pooled.stats);
        // The phases ("bfs", "agg:max", "ssp:growth") stream the same events.
        assert!(serial_stream.contains("\"phase\":\"ssp:growth\""));
        assert_eq!(serial_stream, pooled_stream);
    }
}
