//! Integration checks tying the transport layer's end-of-run counters to
//! the observer stream: the per-round `retransmits`/`acks` columns recorded
//! by [`MetricsRecorder`] must sum exactly to the [`RelStats`] totals the
//! reliable entry points return — every transmitted frame is either
//! committed or dropped at the engine's choke point, and both paths carry
//! the frame's [`TraceTags`].

use dapsp_congest::{FaultPlan, MetricsRecorder, SharedObserver};
use dapsp_core::{apsp, bfs, Obs};
use dapsp_graph::generators;

/// Runs a lossy reliable pipeline and asserts the stream's transport
/// columns reproduce the returned `RelStats` and the `on_transport`
/// summaries exactly.
fn assert_columns_match(
    recorder: &SharedObserver<MetricsRecorder>,
    rel: &dapsp_core::kernel::RelStats,
    expected_phases: &[&str],
    tag: &str,
) {
    recorder.with(|rec| {
        let retransmits: u64 = rec.stream().iter().map(|m| m.retransmits).sum();
        let acks: u64 = rec.stream().iter().map(|m| m.acks).sum();
        assert_eq!(
            retransmits, rel.retransmissions,
            "{tag}: retransmit column sum != RelStats total"
        );
        assert_eq!(
            acks, rel.acks_sent,
            "{tag}: ack column sum != RelStats total"
        );
        // Each reliable phase reported one transport summary, labeled with
        // its phase, and the summaries add up to the folded RelStats.
        let phases: Vec<&str> = rec.transports().iter().map(|(p, _)| &**p).collect();
        assert_eq!(phases, expected_phases, "{tag}: transport phase labels");
        let sum_retx: u64 = rec
            .transports()
            .iter()
            .map(|(_, t)| t.retransmissions)
            .sum();
        let sum_acks: u64 = rec.transports().iter().map(|(_, t)| t.acks_sent).sum();
        assert_eq!(sum_retx, rel.retransmissions, "{tag}: transport summaries");
        assert_eq!(sum_acks, rel.acks_sent, "{tag}: transport ack summaries");
    });
}

#[test]
fn bfs_transport_columns_sum_to_relstats() {
    let g = generators::watts_strogatz(24, 2, 0.1, 5);
    let recorder = SharedObserver::new(MetricsRecorder::new());
    let handle = recorder.observer();
    let (result, rel) = bfs::run_faulty_on(
        &g.to_topology(),
        0,
        FaultPlan::uniform_loss(0.25, 11),
        Obs::watching(&handle),
    )
    .expect("reliable BFS survives 25% loss");
    assert!(result.reached_all(), "BFS must still reach everyone");
    assert!(
        rel.retransmissions > 0,
        "25% loss must force at least one retransmission"
    );
    assert!(rel.acks_sent > 0, "reliable BFS sends acks");
    assert_columns_match(&recorder, &rel, &["bfs:reliable"], "bfs");
}

#[test]
fn apsp_pipeline_transport_columns_sum_across_phases() {
    let g = generators::watts_strogatz(16, 2, 0.1, 9);
    let recorder = SharedObserver::new(MetricsRecorder::new());
    let handle = recorder.observer();
    let (result, rel) = apsp::run_faulty_on(
        &g.to_topology(),
        FaultPlan::uniform_loss(0.2, 13),
        Obs::watching(&handle),
    )
    .expect("reliable APSP survives 20% loss");
    assert_eq!(result.next_hop.num_nodes(), 16, "full routing table");
    assert!(rel.retransmissions > 0, "loss must force retransmissions");
    // Two reliable phases (the T_1 BFS, then the wave phase), each
    // reporting its own transport summary; the folded RelStats the entry
    // point returns is their sum, and so are the stream columns.
    assert_columns_match(
        &recorder,
        &rel,
        &["bfs:reliable", "apsp:waves:reliable"],
        "apsp",
    );
}

#[test]
fn fault_free_reliable_run_reports_zero_retransmits() {
    let g = generators::path(12);
    let recorder = SharedObserver::new(MetricsRecorder::new());
    let handle = recorder.observer();
    let (_, rel) = bfs::run_faulty_on(
        &g.to_topology(),
        0,
        FaultPlan::new(3),
        Obs::watching(&handle),
    )
    .expect("fault-free reliable BFS");
    assert_eq!(rel.retransmissions, 0, "no loss, no retransmissions");
    assert!(!rel.gave_up);
    assert_columns_match(&recorder, &rel, &["bfs:reliable"], "fault-free");
}
